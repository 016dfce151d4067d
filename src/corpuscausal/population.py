"""Hypothesis population tables: construction, matching, and emission.

Each hypothesis defines a population over (subject, object, relation,
template) units, a treatment flag, a matching recipe, and the confounder
columns its estimation stratifies on:

  - ``utt``:  KB triplets x relation paraphrases; treated rows have the
    instantiated utterance stored in the corpus; controls share the
    triplet but use another, absent pattern.
  - ``poc``:  per (subject, template), the template's most co-occurring
    candidate object (treated) vs the next most co-occurring (control);
    rows whose (template, object) count is not above the frequency floor
    are removed before matching.
  - ``soc``:  per (subject, template) over paraphrases and anti-patterns,
    the subject's most co-occurring candidate (treated) vs the next most
    (control).

Row order in emitted tables is always (relation, subject, object,
template), so identical inputs produce identical files.
"""

import math
from dataclasses import dataclass, fields, replace

from .corpus import BIN_EDGES, bin_count, instantiate, ranked_objects
from .errors import (
    EmptyPopulationError,
    MissingPredictionError,
    MissingStatsError,
    ParseError,
)
from .estimator import ObservationTable
from .predictions import HYPOTHESES, outcome_flag

#: Confounder columns stratified over per hypothesis (the backdoor sums).
STRATIFY_COLUMNS = {
    "utt": ("template", "kbt", "soc_bin"),
    "poc": ("utt_present",),
    "soc": ("soc_bin",),
}

#: Canonical graph variable -> population column.
NODE_TO_COLUMN = {
    "pattern": "template",
    "KBT": "kbt",
    "SOC_so": "soc_bin",
    "utterance": "utt_present",
}

#: Discrete keys each recipe matches treated and control rows on.
MATCH_KEYS = {
    "utt": ("relation", "subject", "object"),
    "poc": ("relation", "subject", "template"),
    "soc": ("relation", "subject", "template"),
}


@dataclass(frozen=True)
class PopulationRow:
    subject: str
    object: str
    relation: str
    template: str
    is_anti: bool
    treatment: int
    soc_count: int
    soc_bin: str
    utt_present: bool
    so_hc: bool
    po_hc: bool
    prediction: str = ""
    outcome: int = 0

    def sort_key(self):
        return (self.relation, self.subject, self.object, self.template, self.is_anti)


POPULATION_FIELDS = tuple(f.name for f in fields(PopulationRow))


@dataclass(frozen=True)
class MatchDiagnostics:
    unmatched_treated: int = 0
    unmatched_samples: tuple = ()
    low_frequency_removed: int = 0


@dataclass(frozen=True)
class MatchedPopulation:
    hypothesis: str
    rows: tuple
    pairs: tuple  # (treated row index, control row index)
    diagnostics: MatchDiagnostics = MatchDiagnostics()

    def treated_rows(self):
        return [self.rows[i] for i, _ in self.pairs]

    def control_rows(self):
        return [self.rows[j] for _, j in self.pairs]


def restrict_candidates(relation, kb):
    """Gold objects of the relation: the type-preserving candidate set."""
    return kb.candidate_objects(relation)


def match_controls(treated, pool, discrete=(), continuous=()):
    """Pair each treated record with its closest pool record.

    Records are mappings. A pool record is eligible when it agrees with
    the treated record on every `discrete` column; among eligible records
    the smallest Euclidean distance over the `continuous` columns wins,
    ties and equal distances resolved by input order. Greedy without
    replacement: a pool record backs at most one treated record. Returns
    (pairs, dropped_indices) over input positions.
    """
    discrete = tuple(discrete)
    continuous = tuple(continuous)
    by_key = {}
    for j, rec in enumerate(pool):
        by_key.setdefault(tuple(rec[c] for c in discrete), []).append(j)
    used = set()
    pairs = []
    dropped = []
    for i, rec in enumerate(treated):
        candidates = by_key.get(tuple(rec[c] for c in discrete), ())
        best = None
        best_dist = math.inf
        for j in candidates:
            if j in used:
                continue
            dist = 0.0
            for c in continuous:
                delta = float(rec[c]) - float(pool[j][c])
                dist += delta * delta
            if dist < best_dist:
                best = j
                best_dist = dist
        if best is None:
            dropped.append(i)
        else:
            used.add(best)
            pairs.append((i, best))
    return pairs, dropped


class _StatsView:
    """Cached per-(relation, subject) and per-(relation, template) rankings."""

    def __init__(self, kb, stats, bin_edges):
        if stats is None:
            raise MissingStatsError("population construction requires a corpus index")
        self.kb = kb
        self.stats = stats
        self.bin_edges = bin_edges
        self._soc_rank = {}
        self._poc_rank = {}
        self._candidates = {}

    def candidates(self, relation):
        if relation not in self._candidates:
            self._candidates[relation] = self.kb.candidate_objects(relation)
        return self._candidates[relation]

    def soc_ranked(self, relation, subject):
        key = (relation, subject)
        if key not in self._soc_rank:
            counts = self.stats.soc_counts(subject, self.candidates(relation))
            self._soc_rank[key] = (ranked_objects(counts), counts)
        return self._soc_rank[key]

    def poc_ranked(self, relation, template):
        key = (relation, template)
        if key not in self._poc_rank:
            counts = self.stats.poc_counts(template, self.candidates(relation))
            self._poc_rank[key] = (ranked_objects(counts), counts)
        return self._poc_rank[key]

    def make_row(self, relation, subject, obj, template, is_anti, treatment):
        soc_ranked, soc_counts = self.soc_ranked(relation, subject)
        poc_ranked, _ = self.poc_ranked(relation, template)
        soc = soc_counts[obj]
        return PopulationRow(
            subject=subject,
            object=obj,
            relation=relation,
            template=template,
            is_anti=is_anti,
            treatment=treatment,
            soc_count=soc,
            soc_bin=bin_count(soc, self.bin_edges),
            utt_present=self.stats.utterance_present(
                instantiate(template, subject, obj)
            ),
            so_hc=obj == soc_ranked[0],
            po_hc=obj == poc_ranked[0],
        )


def _attach_predictions(hypothesis, rows, predictions):
    keys = {(r.subject, r.relation, r.template) for r in rows}
    missing = predictions.missing_keys(keys)
    if missing:
        sample = ", ".join(map(repr, missing[:5]))
        raise MissingPredictionError(
            f"{len(missing)} cloze keys lack predictions (e.g. {sample})",
            missing=missing,
        )
    out = []
    for row in rows:
        rec = predictions.get(row.subject, row.relation, row.template)
        out.append(
            replace(
                row,
                prediction=rec.predicted_object,
                outcome=outcome_flag(hypothesis, row.object, rec.predicted_object),
            )
        )
    return out


def _finalize(hypothesis, paired_rows, pair_keys, diagnostics):
    """Sort rows canonically and re-index the pairs."""
    if not pair_keys:
        raise EmptyPopulationError(
            f"{hypothesis} population has no matched pairs"
        )
    rows = sorted(paired_rows.values(), key=PopulationRow.sort_key)
    index = {_row_key(r): i for i, r in enumerate(rows)}
    pairs = tuple(
        sorted((index[tk], index[ck]) for tk, ck in pair_keys)
    )
    return MatchedPopulation(
        hypothesis=hypothesis,
        rows=tuple(rows),
        pairs=pairs,
        diagnostics=diagnostics,
    )


def _row_key(row):
    return (row.relation, row.subject, row.object, row.template, row.is_anti)


def _build_utt(kb, view):
    treated = []
    pool = []
    for trip in sorted(kb.triplets):
        for pat in sorted(kb.paraphrases(trip.relation)):
            row = view.make_row(
                trip.relation, trip.subject, trip.object, pat.template, False, 0
            )
            if row.utt_present:
                treated.append(replace(row, treatment=1))
            else:
                pool.append(row)
    t_recs = [{"relation": r.relation, "subject": r.subject, "object": r.object} for r in treated]
    p_recs = [{"relation": r.relation, "subject": r.subject, "object": r.object} for r in pool]
    pairs, dropped = match_controls(t_recs, p_recs, discrete=MATCH_KEYS["utt"])
    paired_rows = {}
    pair_keys = []
    for i, j in pairs:
        paired_rows[_row_key(treated[i])] = treated[i]
        paired_rows[_row_key(pool[j])] = pool[j]
        pair_keys.append((_row_key(treated[i]), _row_key(pool[j])))
    diagnostics = MatchDiagnostics(
        unmatched_treated=len(dropped),
        unmatched_samples=tuple(
            (treated[i].subject, treated[i].relation, treated[i].template)
            for i in dropped[:5]
        ),
    )
    return _finalize("utt", paired_rows, pair_keys, diagnostics)


def _build_poc(kb, view, min_poc_frequency):
    treated = []
    pool = []
    removed = 0
    for relation in kb.relations:
        subjects = kb.subjects(relation)
        for pat in sorted(kb.paraphrases(relation)):
            ranked, counts = view.poc_ranked(relation, pat.template)
            top = ranked[0]
            runner = ranked[1] if len(ranked) > 1 else None
            top_ok = counts[top] > min_poc_frequency
            runner_ok = runner is not None and counts[runner] > min_poc_frequency
            for subject in subjects:
                if top_ok:
                    treated.append(
                        view.make_row(relation, subject, top, pat.template, False, 1)
                    )
                else:
                    removed += 1
                if runner is not None and runner_ok:
                    pool.append(
                        view.make_row(relation, subject, runner, pat.template, False, 0)
                    )
                elif runner is not None:
                    removed += 1
    return _match_on_keys("poc", treated, pool, removed)


def _build_soc(kb, view):
    treated = []
    pool = []
    for relation in kb.relations:
        patterns = sorted(kb.paraphrases(relation)) + sorted(kb.anti_patterns(relation))
        for subject in kb.subjects(relation):
            ranked, _ = view.soc_ranked(relation, subject)
            top = ranked[0]
            runner = ranked[1] if len(ranked) > 1 else None
            for pat in patterns:
                treated.append(
                    view.make_row(relation, subject, top, pat.template, pat.is_anti, 1)
                )
                if runner is not None:
                    pool.append(
                        view.make_row(
                            relation, subject, runner, pat.template, pat.is_anti, 0
                        )
                    )
    return _match_on_keys("soc", treated, pool, 0)


def _match_on_keys(hypothesis, treated, pool, removed):
    keys = MATCH_KEYS[hypothesis]
    t_recs = [
        {"relation": r.relation, "subject": r.subject, "template": r.template}
        for r in treated
    ]
    p_recs = [
        {"relation": r.relation, "subject": r.subject, "template": r.template}
        for r in pool
    ]
    pairs, dropped = match_controls(t_recs, p_recs, discrete=keys)
    paired_rows = {}
    pair_keys = []
    for i, j in pairs:
        paired_rows[_row_key(treated[i])] = treated[i]
        paired_rows[_row_key(pool[j])] = pool[j]
        pair_keys.append((_row_key(treated[i]), _row_key(pool[j])))
    diagnostics = MatchDiagnostics(
        unmatched_treated=len(dropped),
        unmatched_samples=tuple(
            (treated[i].subject, treated[i].relation, treated[i].template)
            for i in dropped[:5]
        ),
        low_frequency_removed=removed,
    )
    return _finalize(hypothesis, paired_rows, pair_keys, diagnostics)


def build_structure(hypothesis, kb, stats, min_poc_frequency=5, bin_edges=BIN_EDGES):
    """Construct the matched population without predictions attached.

    Checkpoint sweeps build this once and re-score it per prediction set.
    """
    if hypothesis not in HYPOTHESES:
        raise ValueError(f"unknown hypothesis: {hypothesis!r}")
    view = _StatsView(kb, stats, bin_edges)
    if hypothesis == "utt":
        return _build_utt(kb, view)
    if hypothesis == "poc":
        return _build_poc(kb, view, min_poc_frequency)
    return _build_soc(kb, view)


def score_population(pop, predictions):
    """Attach predictions and outcome flags to a built population.

    Row order is unchanged (the sort key ignores predictions), so pair
    indices stay valid.
    """
    rows = _attach_predictions(pop.hypothesis, pop.rows, predictions)
    return replace(pop, rows=tuple(rows))


def build_table(
    hypothesis,
    kb,
    stats,
    predictions,
    min_poc_frequency=5,
    bin_edges=BIN_EDGES,
):
    """Construct the matched, scored population table for one hypothesis."""
    structure = build_structure(
        hypothesis, kb, stats, min_poc_frequency=min_poc_frequency, bin_edges=bin_edges
    )
    return score_population(structure, predictions)


# --- table emission and estimation adapters ---------------------------------


def _cell(value):
    if isinstance(value, bool):
        return "True" if value else "False"
    return str(value)


def write_population(pop, table_path, pairs_path=None):
    """Emit the population as TSV (header = row field names) plus pair ids."""
    with open(table_path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(POPULATION_FIELDS) + "\n")
        for row in pop.rows:
            fh.write(
                "\t".join(_cell(getattr(row, name)) for name in POPULATION_FIELDS)
                + "\n"
            )
    if pairs_path is not None:
        with open(pairs_path, "w", encoding="utf-8") as fh:
            fh.write("treated\tcontrol\n")
            for i, j in pop.pairs:
                fh.write(f"{i}\t{j}\n")


def _parse_cell(name, value, lineno):
    try:
        if name in ("is_anti", "utt_present", "so_hc", "po_hc"):
            if value not in ("True", "False"):
                raise ValueError(value)
            return value == "True"
        if name in ("treatment", "soc_count", "outcome"):
            return int(value)
        return value
    except ValueError as exc:
        raise ParseError(f"bad value {value!r} for column {name!r}", line=lineno) from exc


def read_population(table_path, pairs_path, hypothesis):
    """Read back a population emitted by `write_population`."""
    rows = []
    with open(table_path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        if tuple(header) != POPULATION_FIELDS:
            raise ParseError(f"unexpected population header in {table_path}", line=1)
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            cells = line.split("\t")
            if len(cells) != len(POPULATION_FIELDS):
                raise ParseError("wrong cell count", line=lineno)
            rows.append(
                PopulationRow(
                    **{
                        name: _parse_cell(name, cell, lineno)
                        for name, cell in zip(POPULATION_FIELDS, cells)
                    }
                )
            )
    pairs = []
    with open(pairs_path, encoding="utf-8") as fh:
        fh.readline()
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                i, j = map(int, line.split("\t"))
            except ValueError as exc:
                raise ParseError("bad pair line", line=lineno) from exc
            pairs.append((i, j))
    return MatchedPopulation(
        hypothesis=hypothesis, rows=tuple(rows), pairs=tuple(pairs)
    )


def population_observation_table(pop):
    """Adapt a matched population to the estimator's table schema.

    Adds the derived ``kbt`` column (1 on non-anti rows of KB-triplet
    populations, 0 on anti-pattern rows) alongside the stratification
    columns; values are stringified exactly as in the emitted TSV.
    """
    columns = (
        "relation",
        "template",
        "kbt",
        "soc_bin",
        "utt_present",
        "treatment",
        "outcome",
    )
    rows = []
    for row in pop.rows:
        rows.append(
            (
                row.relation,
                row.template,
                "0" if row.is_anti else "1",
                row.soc_bin,
                _cell(row.utt_present),
                str(row.treatment),
                str(row.outcome),
            )
        )
    return ObservationTable.from_rows(columns, rows)
