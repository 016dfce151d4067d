"""Intersection kernels against numpy's own set intersection as the oracle.

The d-separation walk is checked against exhaustive path enumeration in
test_graph.py and in acceptance criterion 1.
"""

import random

import numpy as np
import pytest

from corpuscausal import kernels


def random_sorted(rng, n, universe):
    return np.asarray(
        sorted(rng.sample(range(universe), n)), dtype=np.int32
    )


def assert_matches_oracle(a, b):
    expected = np.intersect1d(a, b, assume_unique=True)
    got = kernels.intersect_sorted(a, b)
    assert got.dtype == np.int32
    assert got.tolist() == expected.tolist()
    assert kernels.intersect_count(a, b) == len(expected)


def ids(*values):
    return np.asarray(values, dtype=np.int32)


class TestIntersection:
    def test_counts_agree_across_backends(self):
        rng = random.Random(2)
        for _ in range(50):
            a = random_sorted(rng, rng.randint(0, 40), 200)
            b = random_sorted(rng, rng.randint(0, 40), 200)
            assert_matches_oracle(a, b)

    def test_materialized_intersection_agrees(self):
        rng = random.Random(8)
        for _ in range(30):
            a = random_sorted(rng, rng.randint(0, 30), 100)
            b = random_sorted(rng, rng.randint(0, 30), 100)
            assert_matches_oracle(a, b)

    @pytest.mark.parametrize(
        "a, b",
        [
            (ids(), ids()),
            (ids(), ids(1, 5, 9)),
            (ids(1, 5, 9), ids()),
        ],
    )
    def test_empty_input(self, a, b):
        assert_matches_oracle(a, b)
        assert kernels.intersect_count(a, b) == 0

    def test_disjoint(self):
        assert_matches_oracle(ids(0, 2, 4, 6), ids(1, 3, 5, 7, 9))
        assert_matches_oracle(ids(0, 1, 2), ids(10, 11, 12))

    def test_identical(self):
        a = ids(3, 4, 8, 15, 16, 23, 42)
        assert_matches_oracle(a, a.copy())
        assert kernels.intersect_count(a, a) == len(a)

    @pytest.mark.parametrize("short_first", [True, False])
    def test_size_ratio_one_to_a_thousand(self, short_first):
        rng = random.Random(1000)
        long = random_sorted(rng, 5000, 20000)
        short = np.asarray(
            sorted(rng.sample(long.tolist(), 3) + [20001, 20003]), dtype=np.int32
        )
        assert len(long) == 1000 * len(short)
        pair = (short, long) if short_first else (long, short)
        assert_matches_oracle(*pair)
        assert kernels.intersect_count(*pair) == 3

    def test_needle_past_the_last_element(self):
        # searchsorted puts 50 and 60 at len(haystack); the clamp must not
        # count them, nor index past the end
        assert_matches_oracle(ids(7, 50, 60), ids(1, 7, 9, 10))
        assert_matches_oracle(ids(1, 7, 9, 10), ids(7, 50, 60))
        assert_matches_oracle(ids(10), ids(1, 7, 9, 10))

    def test_result_dtype_is_int32(self):
        for a, b in [(ids(1, 2, 3), ids(2, 3, 4)), (ids(), ids(1))]:
            assert kernels.intersect_sorted(a, b).dtype == np.int32
        wide = np.asarray([1, 2, 3], dtype=np.int64)
        assert kernels.intersect_sorted(wide, wide).dtype == np.int32
