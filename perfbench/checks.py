"""Correctness checks applied to every op's output.

Each check returns None when it passes and a one-line reason when it
fails, so a run can count failed ops and say why.
"""

import hashlib
import json
import math

HYPOTHESES = ("utt", "poc", "soc")


def digest(data):
    return hashlib.sha256(data).hexdigest()


def tolerance(pairs):
    """Allowed distance, in ATE points, between soc ATE and 100 * share.

    Six standard errors of a mean of `pairs` Bernoulli(1/2) outcomes:
    6 * 100 * 0.5 / sqrt(pairs).
    """
    return 300 / math.sqrt(pairs)


def same_bytes(report_bytes, reference):
    if reference is not None and digest(report_bytes) != reference:
        return "report bytes differ from the run's first op"
    return None


def pinned_digest(report_bytes, pinned):
    if pinned is not None and digest(report_bytes) != pinned:
        return f"report digest {digest(report_bytes)[:16]} is not the pinned {pinned[:16]}"
    return None


def heuristic_hundred(report):
    """baseline:heuristic puts poc and soc ATE at exactly 100 (utt is not checked)."""
    for hyp in ("poc", "soc"):
        if report["ate"][hyp] != 100.0:
            return f"{hyp} ATE under baseline:heuristic is {report['ate'][hyp]!r}, not 100.0"
    return None


def soc_follows_share(report, shares):
    """soc ATE near 100 * share per prediction file; exactly 100 at share 1."""
    pairs = report["diagnostics"]["soc"]["pairs"]
    if report["series"] is None:
        values = [report["ate"]["soc"]]
    else:
        errors = [e["checkpoint"] for e in report["series"] if e["error"]]
        if errors:
            return f"checkpoints failed: {errors}"
        values = [e["ate"]["soc"] for e in report["series"]]
    if len(values) != len(shares):
        return f"{len(values)} soc estimates for {len(shares)} prediction files"
    for value, share in zip(values, shares):
        if share == 1 and value != 100.0:
            return f"soc ATE at share 1 is {value!r}, not exactly 100.0"
        if value is None or abs(value - 100 * share) > tolerance(pairs):
            return (f"soc ATE {value!r} is not within {tolerance(pairs):.2f} "
                    f"of {100 * share:.1f} ({pairs} pairs)")
    return None


def tally_matches(observed, tally):
    """observed: (subject, object, soc_count) triples from the library."""
    if not observed:
        return "no soc counts to compare with the generator's tally"
    for s, o, n in observed:
        if n != tally.get((s, o), 0):
            return f"soc_count({s}, {o}) = {n}, generator tally {tally.get((s, o), 0)}"
    return None


def check_report(report_bytes, reference=None, pinned=None, heuristic=False, shares=()):
    """All report checks for one op; returns the list of failure reasons."""
    failures = [same_bytes(report_bytes, reference), pinned_digest(report_bytes, pinned)]
    try:
        report = json.loads(report_bytes)
        if heuristic:
            failures.append(heuristic_hundred(report))
        if shares:
            failures.append(soc_follows_share(report, shares))
    except (ValueError, KeyError, TypeError) as exc:
        failures.append(f"unreadable report: {exc!r}")
    return [f for f in failures if f]


def soc_table_counts(path):
    """(subject, object, soc_count) for every row of an emitted soc table."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        cols = [header.index(c) for c in ("subject", "object", "soc_count")]
        rows = []
        for line in fh:
            cells = line.rstrip("\n").split("\t")
            rows.append((cells[cols[0]], cells[cols[1]], int(cells[cols[2]])))
    return rows
