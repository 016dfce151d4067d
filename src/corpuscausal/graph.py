"""Directed acyclic causal graphs, d-separation, and backdoor checking.

A graph keeps each node's parent and child sets. Two d-separation
implementations live here on purpose: a reachability walk over those sets
(`is_d_separated`, the production path; Shachter's Bayes-Ball, UAI 1998)
and an exhaustive path enumerator (`is_d_separated_by_enumeration`) meant
for small graphs and used as the independent oracle in tests. They must
agree everywhere.
"""

from dataclasses import dataclass, field

from .errors import (
    CyclicGraphError,
    DuplicateNodeError,
    OverlappingSetsError,
    UnknownNodeError,
)


@dataclass(frozen=True)
class CausalGraph:
    """An immutable DAG over named variables.

    Construction builds the parent and child sets once and raises
    `DuplicateNodeError` on a repeated node, `UnknownNodeError` on an edge
    endpoint that is no node, and `CyclicGraphError` on a directed cycle.
    """

    nodes: tuple
    edges: tuple
    _parents: dict = field(init=False, repr=False, compare=False)
    _children: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        parents = {}
        for name in self.nodes:
            if name in parents:
                raise DuplicateNodeError(f"duplicate node name: {name!r}")
            parents[name] = set()
        children = {name: set() for name in self.nodes}
        for a, b in self.edges:
            for end in (a, b):
                if end not in parents:
                    raise UnknownNodeError(f"edge references undeclared node: {end!r}")
            parents[b].add(a)
            children[a].add(b)
        object.__setattr__(self, "_parents", parents)
        object.__setattr__(self, "_children", children)
        # Kahn's sweep: nodes on a directed cycle never run out of parents.
        indegree = {name: len(ps) for name, ps in parents.items()}
        ready = [name for name, d in indegree.items() if d == 0]
        removed = 0
        while ready:
            removed += 1
            for child in children[ready.pop()]:
                indegree[child] -= 1
                if indegree[child] == 0:
                    ready.append(child)
        if removed != len(self.nodes):
            raise CyclicGraphError("graph contains a directed cycle")

    def _require(self, name):
        if name not in self._parents:
            raise UnknownNodeError(f"unknown node: {name!r}")

    def parents(self, name):
        self._require(name)
        return set(self._parents[name])

    def children(self, name):
        self._require(name)
        return set(self._children[name])

    def descendants(self, name):
        """Proper descendants of a node (the node itself excluded)."""
        self._require(name)
        found = set()
        stack = [name]
        while stack:
            for child in self._children[stack.pop()]:
                if child not in found:
                    found.add(child)
                    stack.append(child)
        return found


def build_graph(nodes, edges):
    """A `CausalGraph` of node names and edge pairs (which it validates), repeats dropped."""
    return CausalGraph(tuple(nodes), tuple(dict.fromkeys((a, b) for a, b in edges)))


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


# --- d-separation ----------------------------------------------------------


def _conditioning_set(g, x, y, z):
    g._require(x)
    g._require(y)
    zset = set(z)
    for name in zset:
        g._require(name)
    if x in zset or y in zset:
        raise OverlappingSetsError("query nodes must not appear in the conditioning set")
    return zset


def is_d_separated(g, x, y, z=()):
    """True iff every path between x and y is blocked by the set z.

    Reachability-based; suitable for graphs of any size. Symmetric in
    x and y. x == y is never separated (returns False).
    """
    zset = _conditioning_set(g, x, y, z)
    if x == y:
        return False
    parents, children = g._parents, g._children
    # Bayes-Ball: a node is entered up from a child (x counts as entered so)
    # or down from a parent, and is expanded once per way in. A node outside
    # z passes the ball on; one in z stops it, but sends a ball that came
    # down back up to its parents. That bounce is what opens a collider with
    # a descendant in z.
    up, down = [x], []
    up_seen, down_seen = set(), set()
    while up or down:
        if up:
            node = up.pop()
            if node in up_seen:
                continue
            up_seen.add(node)
            if node == y:
                return False
            if node not in zset:
                up.extend(parents[node])
                down.extend(children[node])
        else:
            node = down.pop()
            if node in down_seen:
                continue
            down_seen.add(node)
            if node == y:
                return False
            if node in zset:
                up.extend(parents[node])
            else:
                down.extend(children[node])
    return True


def enumerate_paths(g, x, y):
    """All simple undirected paths between x and y, as node-name tuples.

    Exponential in graph size; intended for small graphs and for oracle
    checks against `is_d_separated`.
    """
    g._require(x)
    g._require(y)
    neighbors = {
        v: [u for u in g.nodes if u in g._parents[v] or u in g._children[v]]
        for v in g.nodes
    }
    paths = []
    stack = [(x,)]
    while stack:
        path = stack.pop()
        if path[-1] == y:
            paths.append(path)
            continue
        stack.extend(path + (u,) for u in reversed(neighbors[path[-1]]) if u not in path)
    return paths


def path_is_blocked(g, path, z):
    """Blocking test for a single undirected path under conditioning set z.

    A non-collider blocks when it is in z; a collider blocks unless it or
    one of its descendants is in z.
    """
    zset = set(z)
    for name in zset:
        g._require(name)
    for prev_node, node, next_node in zip(path, path[1:], path[2:]):
        into = g._parents[node]
        if prev_node in into and next_node in into:  # collider
            if node not in zset and not zset & g.descendants(node):
                return True
        elif node in zset:
            return True
    return False


def is_d_separated_by_enumeration(g, x, y, z=()):
    """Exhaustive-path d-separation; the oracle counterpart of `is_d_separated`."""
    zset = _conditioning_set(g, x, y, z)
    if x == y:
        return False
    return all(path_is_blocked(g, path, zset) for path in enumerate_paths(g, x, y))


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
