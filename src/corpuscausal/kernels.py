"""The hot inner-loop kernel: sorted-postings intersection.

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

