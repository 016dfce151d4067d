"""Backdoor estimator: exactness, oracle agreement, invariances."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpuscausal import estimator
from corpuscausal.errors import (
    EmptyTableError,
    NotNormalizedError,
    OverlappingSetsError,
    PositivityError,
    UnknownColumnError,
)
from corpuscausal.estimator import (
    CateEstimate,
    DoEstimate,
    ObservationTable,
    ate,
    cate,
    do_from_cells,
    exact_joint_do,
    interventional_prob,
    read_table,
)

SIXTEEN_ROW_COUNTS = {
    (1, 1, 1): 2,
    (1, 1, 0): 2,
    (1, 0, 1): 3,
    (1, 0, 0): 1,
    (0, 1, 1): 1,
    (0, 1, 0): 3,
    (0, 0, 1): 1,
    (0, 0, 0): 3,
}


def sixteen_row_table():
    rows = []
    for key, n in SIXTEEN_ROW_COUNTS.items():
        rows.extend([key] * n)
    return ObservationTable.from_rows(("X", "Z", "Y"), rows)


class TestInterventionalProb:
    def test_sixteen_row_example(self):
        est = interventional_prob(sixteen_row_table(), "X", "Y", {"Z"})
        assert est.p_outcome_given_do[1] == Fraction(5, 8)
        assert est.p_outcome_given_do[0] == Fraction(1, 4)
        assert est.covered_mass == 1
        assert not est.positivity_violated

    def test_empty_adjustment_reduces_to_conditionals(self):
        est = interventional_prob(sixteen_row_table(), "X", "Y", ())
        assert est.p_outcome_given_do[1] == Fraction(5, 8)
        assert est.p_outcome_given_do[0] == Fraction(2, 8)

    def test_constant_outcome(self):
        rows = [(1, "a", 1), (0, "a", 1), (1, "b", 1), (0, "b", 1)]
        t = ObservationTable.from_rows(("X", "Z", "Y"), rows)
        est = interventional_prob(t, "X", "Y", {"Z"})
        assert est.p_outcome_given_do[0] == 1
        assert est.p_outcome_given_do[1] == 1

    def test_unknown_column(self):
        with pytest.raises(UnknownColumnError):
            interventional_prob(sixteen_row_table(), "X", "missing", {"Z"})

    def test_empty_table(self):
        t = ObservationTable.from_rows(("X", "Z", "Y"), [])
        with pytest.raises(EmptyTableError):
            interventional_prob(t, "X", "Y", {"Z"})

    def test_z_overlap_rejected(self):
        with pytest.raises(OverlappingSetsError):
            interventional_prob(sixteen_row_table(), "X", "Y", {"X"})

    def test_one_sided_strata_dropped_and_reported(self):
        rows = [(1, "a", 1), (0, "a", 0), (1, "b", 1)]
        t = ObservationTable.from_rows(("X", "Z", "Y"), rows)
        est = interventional_prob(t, "X", "Y", {"Z"})
        assert est.covered_mass == Fraction(2, 3)
        assert est.dropped_strata == 1
        assert est.positivity_violated

    def test_zero_covered_mass_is_error(self):
        rows = [(1, "a", 1), (0, "b", 0)]
        t = ObservationTable.from_rows(("X", "Z", "Y"), rows)
        with pytest.raises(PositivityError):
            interventional_prob(t, "X", "Y", {"Z"})

    def test_probabilities_in_unit_interval_random(self):
        rng = random.Random(5)
        for _ in range(50):
            rows = [
                (rng.randint(0, 1), rng.randint(0, 2), rng.randint(0, 1))
                for _ in range(rng.randint(2, 60))
            ]
            t = ObservationTable.from_rows(("X", "Z", "Y"), rows)
            try:
                est = interventional_prob(t, "X", "Y", {"Z"})
            except (PositivityError, EmptyTableError):
                continue
            for p in est.p_outcome_given_do.values():
                assert 0 <= p <= 1


class TestAte:
    def test_sixteen_row_value(self):
        assert ate(sixteen_row_table(), "X", "Y", {"Z"}) == Fraction(75, 2)

    def test_heuristic_population_scores_hundred(self):
        rows = [(1, "a", 1), (0, "a", 0), (1, "b", 1), (0, "b", 0)]
        t = ObservationTable.from_rows(("X", "Z", "Y"), rows)
        assert ate(t, "X", "Y", {"Z"}) == 100

    def test_treatment_independent_outcome_is_zero(self):
        rows = [(1, "a", 1), (0, "a", 1), (1, "a", 0), (0, "a", 0)]
        t = ObservationTable.from_rows(("X", "Z", "Y"), rows)
        assert ate(t, "X", "Y", {"Z"}) == 0

    def test_relabel_flips_sign(self):
        t = sixteen_row_table()
        flipped = ObservationTable.from_rows(
            ("X", "Z", "Y"), [(1 - x, z, y) for x, z, y in t.rows]
        )
        assert ate(t, "X", "Y", {"Z"}) == -ate(flipped, "X", "Y", {"Z"})

    def test_duplication_invariance(self):
        t = sixteen_row_table()
        for k in (2, 3):
            dup = ObservationTable.from_rows(("X", "Z", "Y"), list(t.rows) * k)
            assert ate(dup, "X", "Y", {"Z"}) == ate(t, "X", "Y", {"Z"})

    def test_deterministic(self):
        t = sixteen_row_table()
        assert ate(t, "X", "Y", {"Z"}) == ate(t, "X", "Y", {"Z"})


class TestCate:
    def test_two_groups(self):
        rows = []
        # group A behaves like the always-heuristic population
        rows += [("A", 1, "s", 1), ("A", 0, "s", 0), ("A", 1, "t", 1), ("A", 0, "t", 0)]
        # group B: outcome independent of treatment
        rows += [("B", 1, "s", 1), ("B", 0, "s", 1), ("B", 1, "s", 0), ("B", 0, "s", 0)]
        t = ObservationTable.from_rows(("G", "X", "Z", "Y"), rows)
        result = cate(t, "G", "X", "Y", {"Z"})
        assert result["A"].value == 100
        assert result["B"].value == 0

    def test_singleton_group_equals_ate(self):
        t = sixteen_row_table()
        grouped = ObservationTable.from_rows(
            ("G", "X", "Z", "Y"), [("only",) + r for r in t.rows]
        )
        result = cate(grouped, "G", "X", "Y", {"Z"})
        assert list(result) == ["only"]
        assert result["only"].value == ate(t, "X", "Y", {"Z"})

    def test_failing_partition_reported_not_raised(self):
        rows = [
            ("A", 1, "s", 1),
            ("A", 0, "s", 0),
            ("B", 1, "s", 1),  # group B has no controls
        ]
        t = ObservationTable.from_rows(("G", "X", "Z", "Y"), rows)
        result = cate(t, "G", "X", "Y", {"Z"})
        assert result["A"].value == 100
        assert result["B"].value is None
        assert result["B"].reason

    def test_non_binary_group_reported_not_raised(self):
        rows = [
            ("A", 1, "s", 1),
            ("A", 0, "s", 0),
            ("B", 2, "s", 1),  # treatment cell is not 0/1
            ("B", 0, "s", 0),
            ("C", 1, "s", 1),
            ("C", 0, "s", "yes"),  # outcome cell is not 0/1
            ("C", 0, "s", "yes"),
        ]
        t = ObservationTable.from_rows(("G", "X", "Z", "Y"), rows)
        result = cate(t, "G", "X", "Y", {"Z"})
        assert result["A"] == CateEstimate(value=100, n_rows=2)
        assert result["B"] == CateEstimate(
            value=None, reason="column 'X' must be binary 0/1, got 2", n_rows=2
        )
        assert result["C"] == CateEstimate(
            value=None, reason="column 'Y' must be binary 0/1, got 'yes'", n_rows=3
        )

    def test_group_in_z_rejected(self):
        t = sixteen_row_table()
        with pytest.raises(OverlappingSetsError):
            cate(t, "Z", "X", "Y", {"Z"})


class TestCountsAgainstOracle:
    """Cell counting against `exact_joint_do` on random grouped tables."""

    @staticmethod
    def empirical_joint(rows):
        joint = {}
        for row in rows:
            joint[row] = joint.get(row, Fraction(0)) + Fraction(1, len(rows))
        return joint

    def test_cate_and_string_cells_match_oracle(self, tmp_path):
        rng = random.Random(271828)
        for trial in range(40):
            k = rng.randint(0, 3)
            groups = [f"g{i}" for i in range(rng.randint(2, 4))]
            columns = ("G", "X") + tuple(f"Z{i}" for i in range(k)) + ("Y",)
            z = {f"Z{i}" for i in range(k)}
            rows = [
                (rng.choice(groups),) + tuple(rng.randint(0, 1) for _ in columns[1:])
                for _ in range(rng.randint(10, 300))
            ]
            table = ObservationTable.from_rows(columns, rows)
            result = cate(table, "G", "X", "Y", z)
            assert sorted(result) == sorted({r[0] for r in rows})
            for group, got in result.items():
                part = [r[1:] for r in rows if r[0] == group]
                oracle = exact_joint_do(
                    self.empirical_joint(part), columns[1:], "X", "Y", z
                )
                assert got.n_rows == len(part)
                if oracle.covered_mass == 0:
                    assert got.value is None and got.reason
                else:
                    assert got.value == oracle.ate

            path = tmp_path / f"table{trial}.tsv"
            path.write_text(
                "\t".join(columns) + "\n"
                + "".join("\t".join(map(str, r)) + "\n" for r in rows),
                encoding="utf-8",
            )
            as_text = read_table(path)
            assert as_text.rows != table.rows
            try:
                est = interventional_prob(table, "X", "Y", z)
            except PositivityError:
                with pytest.raises(PositivityError):
                    interventional_prob(as_text, "X", "Y", z)
                continue
            assert interventional_prob(as_text, "X", "Y", z) == est


class TestExactJointDo:
    def test_sixteen_row_joint(self):
        joint = {k: Fraction(n, 16) for k, n in SIXTEEN_ROW_COUNTS.items()}
        est = exact_joint_do(joint, ("X", "Z", "Y"), "X", "Y", {"Z"})
        assert est.p_outcome_given_do[1] == Fraction(5, 8)

    def test_point_mass(self):
        joint = {(1, 0, 1): 1}
        est = exact_joint_do(joint, ("X", "Z", "Y"), "X", "Y", ())
        # single configuration: the lone arm's do-probability equals its Y
        assert est.p_outcome_given_do == {1: 1}
        assert est.covered_mass == 0

    def test_product_joint_no_confounding(self):
        # X independent of (Z, Y): do-probability equals the Y marginal
        joint = {}
        pz = {0: Fraction(1, 4), 1: Fraction(3, 4)}
        py = {0: Fraction(2, 5), 1: Fraction(3, 5)}
        px = {0: Fraction(1, 2), 1: Fraction(1, 2)}
        for x in (0, 1):
            for z in (0, 1):
                for y in (0, 1):
                    joint[(x, z, y)] = px[x] * pz[z] * py[y]
        est = exact_joint_do(joint, ("X", "Z", "Y"), "X", "Y", {"Z"})
        assert est.p_outcome_given_do[0] == py[1]
        assert est.p_outcome_given_do[1] == py[1]

    def test_not_normalized(self):
        with pytest.raises(NotNormalizedError):
            exact_joint_do({(1, 0, 1): 0.5}, ("X", "Z", "Y"), "X", "Y", ())

    def test_independent_of_the_table_estimator(self, monkeypatch):
        # Z=2 holds treated rows only, so arm 0 renormalises over Z in {0, 1}
        joint = {
            (0, 0, 1): Fraction(1, 8),
            (0, 0, 0): Fraction(1, 8),
            (1, 0, 1): Fraction(3, 16),
            (1, 0, 0): Fraction(1, 16),
            (0, 1, 0): Fraction(1, 8),
            (1, 1, 1): Fraction(1, 8),
            (1, 2, 1): Fraction(1, 16),
            (1, 2, 0): Fraction(3, 16),
        }
        rows = [key for key, p in joint.items() for _ in range(int(p * 16))]
        table = ObservationTable.from_rows(("X", "Z", "Y"), rows)
        # P(Y|do(1)) = 1/2*3/4 + 1/4*1 + 1/4*1/4; P(Y|do(0)) = (1/2*1/2 + 1/4*0) / (3/4)
        expected = {0: Fraction(1, 3), 1: Fraction(11, 16)}
        assert interventional_prob(table, "X", "Y", {"Z"}).p_outcome_given_do == expected

        def wrong_core(counts):
            return DoEstimate({0: Fraction(0), 1: Fraction(1)}, Fraction(1), 0)

        monkeypatch.setattr(estimator, "do_from_cells", wrong_core)
        assert interventional_prob(table, "X", "Y", {"Z"}).ate == 100
        est = exact_joint_do(joint, ("X", "Z", "Y"), "X", "Y", {"Z"})
        assert est.p_outcome_given_do == expected
        assert est.covered_mass == Fraction(3, 4)
        assert est.dropped_strata == 1
        assert est.ate == Fraction(425, 12)

    def test_agrees_with_table_estimator_exactly(self):
        rng = random.Random(9)
        for _ in range(40):
            rows = [
                (rng.randint(0, 1), rng.randint(0, 1), rng.randint(0, 1), rng.randint(0, 1))
                for _ in range(rng.randint(4, 120))
            ]
            t = ObservationTable.from_rows(("X", "Z1", "Z2", "Y"), rows)
            total = len(rows)
            joint = {}
            for row in rows:
                joint[row] = joint.get(row, Fraction(0)) + Fraction(1, total)
            oracle = exact_joint_do(joint, t.columns, "X", "Y", {"Z1", "Z2"})
            try:
                est = interventional_prob(t, "X", "Y", {"Z1", "Z2"})
            except PositivityError:
                assert oracle.covered_mass == 0
                continue
            assert est.p_outcome_given_do == oracle.p_outcome_given_do
            assert est.covered_mass == oracle.covered_mass


@st.composite
def binary_tables(draw):
    n = draw(st.integers(min_value=2, max_value=80))
    rows = draw(
        st.lists(
            st.tuples(
                st.integers(0, 1), st.integers(0, 1), st.integers(0, 1)
            ),
            min_size=n,
            max_size=n,
        )
    )
    return ObservationTable.from_rows(("X", "Z", "Y"), rows)


class TestProperties:
    @given(binary_tables())
    @settings(max_examples=80, deadline=None)
    def test_estimator_equals_oracle_on_empirical_joint(self, table):
        joint = {}
        total = len(table.rows)
        for row in table.rows:
            joint[row] = joint.get(row, Fraction(0)) + Fraction(1, total)
        try:
            est = interventional_prob(table, "X", "Y", {"Z"})
        except PositivityError:
            return
        oracle = exact_joint_do(joint, table.columns, "X", "Y", {"Z"})
        assert est.p_outcome_given_do == oracle.p_outcome_given_do

    @given(binary_tables())
    @settings(max_examples=80, deadline=None)
    def test_ate_bounds(self, table):
        try:
            value = ate(table, "X", "Y", {"Z"})
        except PositivityError:
            return
        assert -100 <= value <= 100


@st.composite
def cell_counts(draw):
    """Integer cells: (stratum, arm, rows with outcome 0, rows with outcome 1).

    Up to 120 strata, with up to 60 rows per cell, so that an arm's
    backdoor sum runs over many distinct row counts.
    """
    strata = draw(st.integers(1, 120))
    return draw(st.lists(
        st.tuples(st.integers(0, strata - 1), st.integers(0, 1), st.integers(0, 60),
                  st.integers(0, 60)),
        min_size=1, max_size=2 * strata + 8,
    ))


class TestCellCore:
    @given(cell_counts())
    # arm x of stratum z holds z + x rows: about 120 distinct row counts per arm
    @example([(z, x, z // 2 + x, (z + 1) // 2) for z in range(120) for x in (0, 1)])
    @settings(max_examples=150, deadline=None)
    def test_core_equals_oracle_on_empirical_joint(self, cells):
        # cells may repeat a (stratum, arm), summed into one array cell, or hold no
        # rows, and a stratum with no rows is no stratum to the core
        counts = np.zeros((max(z for z, *_ in cells) + 1, 2, 2), np.int64)
        for z, x, n0, n1 in cells:
            counts[z, x] += (n0, n1)
        total = int(counts.sum())
        joint = {}
        for z, x, n0, n1 in cells:
            for y, n in ((0, n0), (1, n1)):
                if n:
                    joint[x, z, y] = joint.get((x, z, y), 0) + Fraction(n, total)
        if not total:
            with pytest.raises(EmptyTableError):
                do_from_cells(counts)
            return
        oracle = exact_joint_do(joint, ("X", "Z", "Y"), "X", "Y", {"Z"})
        if oracle.covered_mass == 0:
            with pytest.raises(PositivityError):
                do_from_cells(counts)
            return
        est = do_from_cells(counts)
        assert est.p_outcome_given_do == oracle.p_outcome_given_do
        assert est.covered_mass == oracle.covered_mass
        assert est.dropped_strata == oracle.dropped_strata

    def test_counts_stay_integers(self):
        # counts past 2**53 would lose rows as floats
        big = 2**60
        est = do_from_cells([[[1, 0], [big, big + 1]]])
        assert est.p_outcome_given_do == {0: 0, 1: Fraction(big + 1, 2 * big + 1)}


class TestTableIo:
    def test_read_table_round_trip(self, tmp_path):
        path = tmp_path / "table.tsv"
        path.write_text("X\tZ\tY\n1\ta\t1\n0\ta\t0\n", encoding="utf-8")
        t = read_table(path)
        assert t.columns == ("X", "Z", "Y")
        assert t.rows == (("1", "a", "1"), ("0", "a", "0"))
        assert ate(t, "X", "Y", {"Z"}) == 100
