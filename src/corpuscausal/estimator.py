"""Backdoor-adjusted interventional estimates over discrete tables.

Probabilities are accumulated as exact `fractions.Fraction` values from
row counts, so identical tables produce bit-identical estimates; floats
appear only when a caller converts for reporting.

Positivity handling: a stratum with no rows in arm x is excluded from
arm x's backdoor sum, and the stratum distribution for that arm is
renormalized over its remaining mass (each P(Y=1|do(X=x)) is therefore a
weighted average of within-stratum outcome rates, so a predictor that
always follows the treated rule lands at exactly +100). `covered_mass`
reports the fraction of stratum mass observed in both arms; when it is
zero the table estimator refuses to produce an effect.
"""

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import itemgetter

import numpy as np

from .errors import (
    EmptyTableError,
    NotNormalizedError,
    OverlappingSetsError,
    PositivityError,
    UnknownColumnError,
)


@dataclass(frozen=True)
class ObservationTable:
    """Rows over named discrete columns."""

    columns: tuple
    rows: tuple

    def __post_init__(self):
        ncol = len(self.columns)
        if len(set(self.columns)) != ncol:
            raise UnknownColumnError("column names must be unique")
        if any(map(ncol.__ne__, map(len, self.rows))):
            raise ValueError("row length does not match column count")

    @classmethod
    def from_rows(cls, columns, rows):
        return cls(tuple(columns), tuple(tuple(r) for r in rows))

    def column_index(self, name):
        try:
            return self.columns.index(name)
        except ValueError:
            raise UnknownColumnError(f"unknown column: {name!r}") from None

    def __len__(self):
        return len(self.rows)


def read_table(path):
    """Read a tab-separated table with a header row; values stay strings."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if not header:
            raise EmptyTableError(f"no header row in {path}")
        columns = header.split("\t")
        rows = []
        for line in fh:
            line = line.rstrip("\n")
            if line:
                rows.append(tuple(line.split("\t")))
    return ObservationTable.from_rows(columns, rows)


@dataclass(frozen=True)
class DoEstimate:
    """Interventional outcome probabilities plus positivity diagnostics.

    `p_outcome_given_do` maps each supported treatment value to the exact
    probability that the outcome is 1 under do(treatment=value).
    `covered_mass` is the fraction of stratum mass with both arms present;
    `dropped_strata` counts (stratum, arm) exclusions for missing support.
    """

    p_outcome_given_do: dict
    covered_mass: Fraction
    dropped_strata: int = 0

    @property
    def positivity_violated(self):
        return self.covered_mass < 1

    @property
    def ate(self):
        """Treated minus control outcome probability, as a percentage."""
        return 100 * (self.p_outcome_given_do[1] - self.p_outcome_given_do[0])


def _as01(value, column):
    if value in (0, 1, "0", "1"):
        return int(value)
    raise ValueError(f"column {column!r} must be binary 0/1, got {value!r}")


def _check_adjustment_columns(table, treatment, outcome, z):
    ti = table.column_index(treatment)
    oi = table.column_index(outcome)
    zis = []
    for name in z:
        if name in (treatment, outcome):
            raise OverlappingSetsError(
                "adjustment set must exclude treatment and outcome columns"
            )
        zis.append((name, table.column_index(name)))
    zis.sort(key=lambda item: item[0])
    return ti, oi, [i for _, i in zis]


def do_from_cells(counts):
    """Backdoor-adjusted P(outcome=1 | do(treatment=x)) from integer cell counts.

    The estimator core. ``counts[z][x][y]`` is the number of rows in
    stratum z with treatment x and outcome y, an integer array of shape
    (strata, 2, 2), as ``np.bincount(4 * stratum + 2 * treatment +
    outcome).reshape(-1, 2, 2)`` counts them; a stratum with no rows is
    no stratum. The counts are folded as Python integers, so all
    arithmetic is exact: each arm's sum is one integer over the lcm of
    its strata's row counts, one `Fraction`.

    Each arm's sum runs over the strata where that arm has rows, with the
    stratum distribution renormalized to them; covered_mass reports the
    share of rows in strata holding both arms. Raises PositivityError
    when no stratum contains both arms.
    """
    # each stratum with rows: its rows, and each arm's (rows, rows with outcome 1)
    strata = [
        (sum(map(sum, arms)), [(zeros + ones, ones) for zeros, ones in arms])
        for arms in np.asarray(counts).tolist()
        if any(map(any, arms))
    ]
    if not strata:
        raise EmptyTableError("observation table has no rows")
    p_do, dropped = {}, 0
    for x in (0, 1):
        supported = [(mass, *arms[x]) for mass, arms in strata if arms[x][0]]
        dropped += len(strata) - len(supported)
        if supported:
            common = lcm(*(rows for _, rows, _ in supported))
            acc = sum(hits * mass * (common // rows) for mass, rows, hits in supported)
            p_do[x] = Fraction(acc, common * sum(mass for mass, _, _ in supported))
    covered = sum(mass for mass, arms in strata if arms[0][0] and arms[1][0])
    if not covered:
        raise PositivityError("no confounder stratum contains both treatment arms")
    return DoEstimate(p_do, Fraction(covered, sum(mass for mass, _ in strata)), dropped)


def interventional_prob(table, treatment, outcome, z=()):
    """Backdoor-adjusted P(outcome=1 | do(treatment=x)) for x in {0, 1}.

    Rows are counted into one (stratum, treatment, outcome) cell each, and
    the counts go to `do_from_cells`: within each stratum of z the
    conditional outcome rate and the stratum mass are maximum-likelihood
    estimates from those integer counts. Raises EmptyTableError for a
    table with no rows, and PositivityError when no stratum contains both
    arms (covered_mass would be zero).
    """
    ti, oi, zis = _check_adjustment_columns(table, treatment, outcome, z)
    counts = {}
    for (x, y, *key), n in Counter(map(itemgetter(ti, oi, *zis), table.rows)).items():
        arms = counts.setdefault(tuple(key), [[0, 0], [0, 0]])
        arms[_as01(x, treatment)][_as01(y, outcome)] += n
    return do_from_cells(list(counts.values()))


def ate(table, treatment, outcome, z=()):
    """Average treatment effect as a percentage: treated minus control.

    100 * (P(outcome=1 | do(treatment=1)) - P(outcome=1 | do(treatment=0))),
    exact, in [-100, 100].
    """
    return interventional_prob(table, treatment, outcome, z).ate


@dataclass(frozen=True)
class CateEstimate:
    value: object  # Fraction, or None when the partition failed
    reason: str = None
    n_rows: int = 0


def cate(table, group, treatment, outcome, z=()):
    """Per-group ATE: partition rows by the group column, estimate on each.

    Partitions that cannot be estimated (no rows in one arm, no covered
    strata) are reported with a null value and the failure reason instead
    of aborting the rest.
    """
    gi = table.column_index(group)
    if group in z:
        raise OverlappingSetsError("group column must be excluded from the adjustment set")
    _check_adjustment_columns(table, treatment, outcome, z)
    partitions = {}
    for row in table.rows:
        partitions.setdefault(row[gi], []).append(row)
    out = {}
    for value in sorted(partitions, key=repr):
        rows = partitions[value]
        part = ObservationTable(table.columns, tuple(rows))
        try:
            out[value] = CateEstimate(
                value=ate(part, treatment, outcome, z), n_rows=len(rows)
            )
        except (PositivityError, EmptyTableError, ValueError) as exc:
            out[value] = CateEstimate(value=None, reason=str(exc), n_rows=len(rows))
    return out


def exact_joint_do(joint, names, treatment, outcome, z=()):
    """Backdoor sum evaluated analytically on a fully specified joint.

    `joint` maps assignment tuples (aligned with `names`) to probabilities
    that must total 1 within 1e-12. Serves as the ground-truth oracle for
    `interventional_prob`; the two agree exactly on the empirical joint of
    any table. Arms with no support anywhere are simply absent from the
    returned mapping (a point-mass joint reports its one configuration).
    It shares no arithmetic with `interventional_prob`: the sum below is
    written straight from the formula, over probabilities, not counts.
    """
    names = tuple(names)
    idx = {}
    for name in (treatment, outcome, *z):
        if name not in names:
            raise UnknownColumnError(f"unknown variable: {name!r}")
        idx[name] = names.index(name)
    if treatment == outcome or treatment in z or outcome in z:
        raise OverlappingSetsError("treatment, outcome, and z must be disjoint")

    total = sum(Fraction(p) for p in joint.values())
    if abs(total - 1) > Fraction(1, 10**12):
        raise NotNormalizedError(f"joint mass is {float(total)!r}, expected 1")

    ti = idx[treatment]
    oi = idx[outcome]
    zis = sorted(idx[name] for name in z)

    p_z = {}  # P(z)
    p_xz = {}  # P(x, z), positive entries only
    p_yxz = {}  # P(Y=1, x, z)
    for assignment, p in joint.items():
        p = Fraction(p)
        if p == 0:
            continue
        if p < 0:
            raise NotNormalizedError("joint contains negative mass")
        x = _as01(assignment[ti], treatment)
        y = _as01(assignment[oi], outcome)
        key = tuple(assignment[i] for i in zis)
        p_z[key] = p_z.get(key, 0) + p
        p_xz[x, key] = p_xz.get((x, key), 0) + p
        if y:
            p_yxz[x, key] = p_yxz.get((x, key), 0) + p

    # P(Y=1 | do(x)) = sum_z P(Y=1 | x, z) P(z), with P(z) renormalised
    # over the strata where arm x is observed
    p_do = {}
    dropped = 0
    for x in (0, 1):
        support = [key for key in p_z if (x, key) in p_xz]
        dropped += len(p_z) - len(support)
        if support:
            backdoor = sum(p_yxz.get((x, k), 0) / p_xz[x, k] * p_z[k] for k in support)
            p_do[x] = backdoor / sum(p_z[k] for k in support)
    covered = sum(p for key, p in p_z.items() if (0, key) in p_xz and (1, key) in p_xz)
    return DoEstimate(
        p_outcome_given_do=p_do,
        covered_mass=covered / total,
        dropped_strata=dropped,
    )
