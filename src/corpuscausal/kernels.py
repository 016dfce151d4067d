"""Hot inner-loop kernels: sorted-postings intersection and d-separation.

Intersection (corpus co-occurrence counting) searches every element of
the shorter sorted array in the longer one with ``np.searchsorted``. That
costs O(m log n) for sizes m <= n, which is what skewed postings lists
want (Lemire et al., arXiv:1401.6399), and it runs in numpy rather than
in an interpreted loop. Callers look the intersection functions up as
``kernels.<name>`` at call time, so they can be wrapped from outside.
"""

import numpy as np

#: The kernel implementation in use, recorded beside benchmark results.
BACKEND = "numpy"
HAVE_NUMBA = False

#: Direction tags for the reachability walk: a state is (node, came-up?).
_UP = 1
_DOWN = 0


def _shorter_and_hits(a, b):
    """The shorter of two sorted unique arrays, and a mask of its elements in the other."""
    if len(a) > len(b):
        a, b = b, a
    # needles past b's last element are placed at len(b); mode="clip" reads
    # b's last element for them instead, which they cannot equal. The
    # array methods skip the dispatch cost of the np.* functions, which
    # dominates on short postings.
    return a, b.take(b.searchsorted(a), mode="clip") == a


def intersect_count(a, b):
    """Size of the intersection of two sorted unique int arrays."""
    _, hits = _shorter_and_hits(a, b)
    return int(np.count_nonzero(hits))


def intersect_sorted(a, b):
    """Intersection of two sorted unique int arrays, as a sorted int32 array."""
    short, hits = _shorter_and_hits(a, b)
    return short[hits].astype(np.int32, copy=False)


def py_dsep_reachable(parents, children, x, y, zmask):
    """Return True when y is reachable from x via a z-active trail.

    ``parents``/``children`` are per-node adjacency bitmasks (arbitrary
    Python ints, so graphs of any size work here). ``zmask`` is the
    conditioning-set bitmask. Standard two-phase reachability: close the
    ancestors of z, then walk (node, direction) states, passing through
    colliders only when they have a (possibly improper) descendant in z.
    """
    n = len(parents)
    anc = zmask
    changed = True
    while changed:
        changed = False
        for i in range(n):
            bit = 1 << i
            if not (anc & bit) and (children[i] & anc):
                anc |= bit
                changed = True

    visited_up = 0
    visited_down = 0
    stack = [(x, _UP)]
    while stack:
        node, direction = stack.pop()
        bit = 1 << node
        if direction == _UP:
            if visited_up & bit:
                continue
            visited_up |= bit
        else:
            if visited_down & bit:
                continue
            visited_down |= bit
        if node == y:
            return True
        in_z = bool(zmask & bit)
        if direction == _UP:
            if not in_z:
                pm = parents[node]
                cm = children[node]
                for j in range(n):
                    jb = 1 << j
                    if pm & jb:
                        stack.append((j, _UP))
                    if cm & jb:
                        stack.append((j, _DOWN))
        else:
            if not in_z:
                cm = children[node]
                for j in range(n):
                    if cm & (1 << j):
                        stack.append((j, _DOWN))
            if anc & bit:
                pm = parents[node]
                for j in range(n):
                    if pm & (1 << j):
                        stack.append((j, _UP))
    return False
