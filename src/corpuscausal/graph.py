"""Directed acyclic causal graphs, d-separation, and backdoor checking.

Two d-separation implementations live here on purpose: a reachability
walk (`is_d_separated`, the production path) and an exhaustive path
enumerator (`is_d_separated_by_enumeration`) meant for small graphs and
used as the independent oracle in tests. They must agree everywhere.
"""

from collections import deque
from dataclasses import dataclass, field

from . import kernels
from .errors import (
    CyclicGraphError,
    DuplicateNodeError,
    OverlappingSetsError,
    ParseError,
    UnknownNodeError,
)


@dataclass(frozen=True)
class CausalGraph:
    """An immutable DAG over named variables.

    Construct through `build_graph`, which validates acyclicity and edge
    endpoints; the adjacency bitmasks are derived once and reused by all
    queries.
    """

    nodes: tuple
    edges: tuple
    _index: dict = field(init=False, repr=False, compare=False)
    _parents: tuple = field(init=False, repr=False, compare=False)
    _children: tuple = field(init=False, repr=False, compare=False)
    _desc_or_self: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        index = {name: i for i, name in enumerate(self.nodes)}
        n = len(self.nodes)
        parents = [0] * n
        children = [0] * n
        for a, b in self.edges:
            ia, ib = index[a], index[b]
            parents[ib] |= 1 << ia
            children[ia] |= 1 << ib
        # descendants-or-self, by reverse topological sweep
        desc = [1 << i for i in range(n)]
        order = self._toposort(index)
        for i in reversed(order):
            cm = children[i]
            j = 0
            while cm:
                if cm & 1:
                    desc[i] |= desc[j]
                cm >>= 1
                j += 1
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_parents", tuple(parents))
        object.__setattr__(self, "_children", tuple(children))
        object.__setattr__(self, "_desc_or_self", tuple(desc))

    def _toposort(self, index=None):
        index = index if index is not None else self._index
        n = len(self.nodes)
        indeg = [0] * n
        succ = [[] for _ in range(n)]
        for a, b in self.edges:
            indeg[index[b]] += 1
            succ[index[a]].append(index[b])
        queue = deque(i for i in range(n) if indeg[i] == 0)
        order = []
        while queue:
            i = queue.popleft()
            order.append(i)
            for j in succ[i]:
                indeg[j] -= 1
                if indeg[j] == 0:
                    queue.append(j)
        if len(order) != n:
            raise CyclicGraphError("graph contains a directed cycle")
        return order

    def _require(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise UnknownNodeError(f"unknown node: {name!r}") from None

    def has_node(self, name):
        return name in self._index

    def parents(self, name):
        mask = self._parents[self._require(name)]
        return {self.nodes[i] for i in _bits(mask)}

    def children(self, name):
        mask = self._children[self._require(name)]
        return {self.nodes[i] for i in _bits(mask)}

    def descendants(self, name):
        """Proper descendants of a node (the node itself excluded)."""
        i = self._require(name)
        mask = self._desc_or_self[i] & ~(1 << i)
        return {self.nodes[j] for j in _bits(mask)}


def _bits(mask):
    i = 0
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1


def build_graph(nodes, edges):
    """Validate and build a `CausalGraph` from node names and edge pairs.

    Raises `DuplicateNodeError` on repeated names, `UnknownNodeError` when
    an edge endpoint is undeclared, and `CyclicGraphError` when the edges
    contain a directed cycle.
    """
    node_tuple = tuple(nodes)
    seen = set()
    for name in node_tuple:
        if name in seen:
            raise DuplicateNodeError(f"duplicate node name: {name!r}")
        seen.add(name)
    edge_list = []
    edge_seen = set()
    for a, b in edges:
        if a not in seen:
            raise UnknownNodeError(f"edge references undeclared node: {a!r}")
        if b not in seen:
            raise UnknownNodeError(f"edge references undeclared node: {b!r}")
        if (a, b) not in edge_seen:
            edge_seen.add((a, b))
            edge_list.append((a, b))
    # CausalGraph.__post_init__ runs the topological sort and raises
    # CyclicGraphError when the edges contain a cycle.
    return CausalGraph(nodes=node_tuple, edges=tuple(edge_list))


# --- the built-in graph ----------------------------------------------------

#: Variables of the training-data-to-prediction process, in declaration order.
REFERENCE_NODES = (
    "subj",
    "obj",
    "rel",
    "pattern",
    "KBT",
    "SOC_so",
    "SO_hC",
    "POC_uo",
    "PO_hC",
    "utterance",
    "dataset",
    "model",
    "cloze",
    "prediction",
    "O_utt",
    "O_poc",
    "O_soc",
)

REFERENCE_EDGES = (
    ("subj", "KBT"),
    ("obj", "KBT"),
    ("rel", "KBT"),
    ("rel", "pattern"),
    ("KBT", "SOC_so"),
    ("KBT", "utterance"),
    ("SOC_so", "utterance"),
    ("pattern", "utterance"),
    ("SOC_so", "SO_hC"),
    ("pattern", "POC_uo"),
    ("POC_uo", "PO_hC"),
    ("utterance", "dataset"),
    ("dataset", "model"),
    ("pattern", "cloze"),
    ("KBT", "cloze"),
    ("cloze", "prediction"),
    ("model", "prediction"),
    ("prediction", "O_utt"),
    ("utterance", "O_utt"),
    ("prediction", "O_poc"),
    ("PO_hC", "O_poc"),
    ("prediction", "O_soc"),
    ("SO_hC", "O_soc"),
)


def reference_graph():
    """The built-in graph tying corpus statistics to model predictions.

    Deterministic: every call returns an identical graph.
    """
    return build_graph(REFERENCE_NODES, REFERENCE_EDGES)


@dataclass(frozen=True)
class HypothesisAdjustment:
    """Adjustment recipe for one hypothesis.

    `stratify` holds the variables marginalized in the backdoor sum;
    `matched` holds variables held fixed by the matching design. The
    backdoor criterion is verified on their union.
    """

    hypothesis: str
    treatment: str
    outcome: str
    stratify: tuple
    matched: tuple

    @property
    def adjustment_set(self):
        return set(self.stratify) | set(self.matched)


CANONICAL_ADJUSTMENTS = (
    HypothesisAdjustment(
        hypothesis="utt",
        treatment="utterance",
        outcome="O_utt",
        stratify=("pattern", "KBT", "SOC_so"),
        matched=("KBT",),
    ),
    HypothesisAdjustment(
        hypothesis="poc",
        treatment="PO_hC",
        outcome="O_poc",
        stratify=("utterance",),
        matched=("pattern",),
    ),
    HypothesisAdjustment(
        hypothesis="soc",
        treatment="SO_hC",
        outcome="O_soc",
        stratify=("SOC_so",),
        matched=("pattern",),
    ),
)


def canonical_adjustments():
    """The three (treatment, outcome, adjustment) triples, by hypothesis."""
    return {adj.hypothesis: adj for adj in CANONICAL_ADJUSTMENTS}


# --- d-separation ----------------------------------------------------------


def _query_masks(g, x, y, z):
    ix = g._require(x)
    iy = g._require(y)
    zmask = 0
    for name in z:
        iz = g._require(name)
        zmask |= 1 << iz
    if zmask & (1 << ix) or zmask & (1 << iy):
        raise OverlappingSetsError("query nodes must not appear in the conditioning set")
    return ix, iy, zmask


def is_d_separated(g, x, y, z=()):
    """True iff every path between x and y is blocked by the set z.

    Reachability-based; suitable for graphs of any size. Symmetric in
    x and y. x == y is never separated (returns False).
    """
    ix, iy, zmask = _query_masks(g, x, y, z)
    if ix == iy:
        return False
    return not kernels.py_dsep_reachable(g._parents, g._children, ix, iy, zmask)


def enumerate_paths(g, x, y):
    """All simple undirected paths between x and y, as node-name tuples.

    Exponential in graph size; intended for small graphs and for oracle
    checks against `is_d_separated`.
    """
    ix = g._require(x)
    iy = g._require(y)
    n = len(g.nodes)
    neighbor = [g._parents[i] | g._children[i] for i in range(n)]
    paths = []
    stack = [(ix, (ix,), 1 << ix)]
    while stack:
        node, path, seen = stack.pop()
        if node == iy:
            paths.append(tuple(g.nodes[i] for i in path))
            continue
        for j in range(n - 1, -1, -1):
            if neighbor[node] & (1 << j) and not seen & (1 << j):
                stack.append((j, path + (j,), seen | (1 << j)))
    return paths


def path_is_blocked(g, path, z):
    """Blocking test for a single undirected path under conditioning set z.

    A non-collider blocks when it is in z; a collider blocks unless it or
    one of its descendants is in z.
    """
    zmask = 0
    for name in z:
        zmask |= 1 << g._require(name)
    edges = set(g.edges)
    for k in range(1, len(path) - 1):
        prev_node, node, next_node = path[k - 1], path[k], path[k + 1]
        i = g._index[node]
        into_left = (prev_node, node) in edges
        into_right = (next_node, node) in edges
        if into_left and into_right:  # collider
            if not (g._desc_or_self[i] & zmask):
                return True
        else:
            if zmask & (1 << i):
                return True
    return False


def is_d_separated_by_enumeration(g, x, y, z=()):
    """Exhaustive-path d-separation; the oracle counterpart of `is_d_separated`."""
    ix, iy, _ = _query_masks(g, x, y, z)
    if ix == iy:
        return False
    return all(path_is_blocked(g, path, z) for path in enumerate_paths(g, x, y))


# --- backdoor criterion ------------------------------------------------------


def satisfies_backdoor(g, treatment, outcome, z):
    """Backdoor criterion check for a candidate adjustment set z.

    True iff no member of z is a descendant of the treatment and z blocks
    every path into the treatment that reaches the outcome (checked as
    d-separation after deleting the treatment's outgoing edges).
    """
    g._require(treatment)
    g._require(outcome)
    if treatment == outcome:
        raise OverlappingSetsError("treatment and outcome must differ")
    zset = set(z)
    for name in zset:
        g._require(name)
    if treatment in zset or outcome in zset:
        raise OverlappingSetsError("adjustment set must exclude treatment and outcome")
    if zset & g.descendants(treatment):
        return False
    trimmed = build_graph(
        g.nodes, [(a, b) for a, b in g.edges if a != treatment]
    )
    return is_d_separated(trimmed, treatment, outcome, zset)


# --- edge-list serialization -------------------------------------------------


def graph_to_text(g):
    """Render a graph in the plain-text edge-list format.

    One ``parent -> child`` line per edge; isolated nodes appear as bare
    name lines so round-trips preserve the node set.
    """
    lines = []
    touched = set()
    for a, b in g.edges:
        touched.add(a)
        touched.add(b)
        lines.append(f"{a} -> {b}")
    for name in g.nodes:
        if name not in touched:
            lines.append(name)
    return "\n".join(lines) + "\n"


def graph_from_text(text):
    """Parse the ``parent -> child`` edge-list format; ``#`` starts a comment."""
    nodes = []
    seen = set()
    edges = []

    def add_node(name):
        if name not in seen:
            seen.add(name)
            nodes.append(name)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "->" in line:
            left, _, right = line.partition("->")
            a, b = left.strip(), right.strip()
            if not a or not b:
                raise ParseError("malformed edge", line=lineno)
            add_node(a)
            add_node(b)
            edges.append((a, b))
        else:
            if " " in line:
                raise ParseError("malformed node line", line=lineno)
            add_node(line)
    return build_graph(nodes, edges)
