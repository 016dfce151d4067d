"""Hypothesis population tables: construction, pairing, and emission.

Each hypothesis defines a population over (subject, object, relation,
template) units, a treatment flag, a pairing recipe, and the confounder
columns its estimation stratifies on. Each builder emits its (treated,
control) pairs as it makes the rows, and counts a treated row with no
partner as unmatched where it arises:

  - ``utt``:  per KB triplet, over its sorted paraphrases, the i-th one
    whose instantiated utterance is stored in the corpus (treated) pairs
    with the i-th one whose utterance is absent (control).
  - ``poc``:  per (subject, template), the template's most co-occurring
    candidate object (treated) vs the next most co-occurring (control);
    an object whose (template, object) count is not above the frequency
    floor is removed, and its unit with it.
  - ``soc``:  per (subject, template) over paraphrases and anti-patterns,
    the subject's most co-occurring candidate (treated) vs the next most
    (control).

Rows are structure: a `PopulationRow` is a plain named tuple of what the
corpus, the KB and the pairing fix, so rows are built positionally,
keyed with `itemgetter` and written cell by cell, and none changes once
built. The most and next most co-occurring objects come from the
rankings the corpus index keeps beside each count map, sorted once per
index rather than once per population or per query. Scores are columns:
`score_population` returns the same rows with a ``predicted`` and an
``outcomes`` tuple aligned with them, so re-scoring a population for
another prediction set (one per checkpoint) copies no row. Emitted
tables join the two back into one file with a ``prediction`` and an
``outcome`` column; an unscored population writes ``""`` and ``0`` there.

Row order in emitted tables is always (relation, subject, object,
template), so identical inputs produce identical files.

Both stored forms of a population live here, the emitted tables and the
population-cache entry, and their readers share one pair check.
"""

import json
from array import array
from dataclasses import asdict, astuple, dataclass, field, replace
from itertools import chain, starmap
from operator import eq, itemgetter
from typing import NamedTuple

from .corpus import BIN_EDGES, bin_count, instantiate, unseal, write_sealed
from .errors import (
    EmptyPopulationError,
    MissingPredictionError,
    MissingStatsError,
    ParseError,
)
from .estimator import ObservationTable
from .graph import CANONICAL_ADJUSTMENTS
from .predictions import HYPOTHESES, outcome_flag

#: Canonical graph variable -> population column.
NODE_TO_COLUMN = {
    "pattern": "template",
    "KBT": "kbt",
    "SOC_so": "soc_bin",
    "utterance": "utt_present",
}

#: Confounder columns stratified over per hypothesis (the backdoor sums):
#: the `stratify` sets of the canonical adjustments, whose backdoor
#: validity the pipeline checks against the built-in graph.
STRATIFY_COLUMNS = {
    adj.hypothesis: tuple(NODE_TO_COLUMN[node] for node in adj.stratify)
    for adj in CANONICAL_ADJUSTMENTS
}

class PopulationRow(NamedTuple):
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


ROW_FIELDS = PopulationRow._fields

#: The canonical row order: (relation, subject, object, template, is_anti).
_sort_key = itemgetter(
    *map(ROW_FIELDS.index, ("relation", "subject", "object", "template", "is_anti"))
)

#: A row's cloze key, (subject, relation, template), and its object.
_cloze_key = itemgetter(*map(ROW_FIELDS.index, ("subject", "relation", "template")))
_object = itemgetter(ROW_FIELDS.index("object"))

#: Columns of an emitted population table: the row fields, then the scores.
POPULATION_FIELDS = ROW_FIELDS + ("prediction", "outcome")


@dataclass(frozen=True)
class MatchDiagnostics:
    unmatched_treated: int = 0
    low_frequency_removed: int = 0


@dataclass(frozen=True)
class MatchedPopulation:
    """Matched rows and pairs, with the scores of one prediction set.

    The last three fields encode the rows, so that scoring against each
    prediction set needs one lookup per distinct cloze key: the sorted
    distinct keys, each row's index into them, and each row's object with
    its whitespace trimmed. They follow from the rows, so they are set
    when the population is made (built or read back), not passed in.
    """

    hypothesis: str
    rows: tuple
    pairs: tuple  # (treated row index, control row index)
    diagnostics: MatchDiagnostics = MatchDiagnostics()
    predicted: tuple = ()  # predicted object per row, aligned with `rows`
    outcomes: tuple = ()  # outcome flag (0/1) per row, aligned with `rows`
    cloze_keys: tuple = field(default=(), repr=False, compare=False)
    key_index: array = field(default=(), repr=False, compare=False)
    stripped_objects: tuple = field(default=(), repr=False, compare=False)

    def __post_init__(self):
        if len(self.key_index) == len(self.rows):
            return  # encoded already: `replace` passes the fields on
        keys = tuple(sorted(dict.fromkeys(map(_cloze_key, self.rows))))
        position = dict(zip(keys, range(len(keys))))
        index = array("I", map(position.__getitem__, map(_cloze_key, self.rows)))
        stripped = tuple(map(str.strip, map(_object, self.rows)))
        for name, value in (
            ("cloze_keys", keys), ("key_index", index), ("stripped_objects", stripped)
        ):
            object.__setattr__(self, name, value)


class _StatsView:
    """Rows, and per-(relation, subject) and per-(relation, template) rankings.

    The view keeps no memo: it asks the corpus index, the one memo of
    rankings, with each relation's candidate tuple, taken once from the KB.
    """

    def __init__(self, kb, stats, bin_edges):
        if stats is None:
            raise MissingStatsError("population construction requires a corpus index")
        self.stats = stats
        self.bin_edges = bin_edges
        self.candidates = {r: kb.candidate_objects(r) for r in kb.relations}

    def soc_ranked(self, relation, subject):
        return self.stats.soc_ranked(subject, self.candidates[relation])

    def poc_ranked(self, relation, template):
        return self.stats.poc_ranked(template, self.candidates[relation])

    def make_row(self, relation, subject, obj, template, is_anti, treatment):
        soc_order, soc_map = self.soc_ranked(relation, subject)
        poc_order, _ = self.poc_ranked(relation, template)
        soc = soc_map[obj]
        return PopulationRow(
            subject,
            obj,
            relation,
            template,
            is_anti,
            treatment,
            soc,
            bin_count(soc, self.bin_edges),
            self.stats.utterance_present(instantiate(template, subject, obj)),
            obj == soc_order[0],
            obj == poc_order[0],
        )

    def make_pair(self, relation, subject, top, runner, template, is_anti=False):
        """The (treated, control) rows of one unit: its top and runner-up objects."""
        return (
            self.make_row(relation, subject, top, template, is_anti, 1),
            self.make_row(relation, subject, runner, template, is_anti, 0),
        )


def _build_utt(kb, view):
    pairs = []
    unmatched = 0
    for trip in sorted(kb.triplets):
        rows = [
            view.make_row(trip.relation, trip.subject, trip.object, pat.template, False, 0)
            for pat in sorted(kb.paraphrases(trip.relation))
        ]
        present = [row._replace(treatment=1) for row in rows if row.utt_present]
        absent = [row for row in rows if not row.utt_present]
        pairs += zip(present, absent)
        unmatched += max(0, len(present) - len(absent))
    return _sorted_population("utt", pairs, unmatched)


def _build_poc(kb, view, min_poc_frequency):
    pairs = []
    unmatched = removed = 0
    for relation in kb.relations:
        subjects = kb.subjects(relation)
        for pat in sorted(kb.paraphrases(relation)):
            ranked, counts = view.poc_ranked(relation, pat.template)
            # the floor keeps a prefix: the top object has the largest count
            top_two = ranked[:2]
            kept = [obj for obj in top_two if counts[obj] > min_poc_frequency]
            removed += (len(top_two) - len(kept)) * len(subjects)
            if len(kept) == 1:
                unmatched += len(subjects)
            elif kept:
                pairs += (view.make_pair(relation, s, *kept, pat.template) for s in subjects)
    return _sorted_population("poc", pairs, unmatched, removed)


def _build_soc(kb, view):
    pairs = []
    unmatched = 0
    for relation in kb.relations:
        patterns = sorted(kb.paraphrases(relation)) + sorted(kb.anti_patterns(relation))
        for subject in kb.subjects(relation):
            ranked, _ = view.soc_ranked(relation, subject)
            if len(ranked) < 2:
                unmatched += len(patterns)
                continue
            pairs += (
                view.make_pair(relation, subject, *ranked[:2], pat.template, pat.is_anti)
                for pat in patterns
            )
    return _sorted_population("soc", pairs, unmatched)


def _sorted_population(hypothesis, pairs, unmatched, removed=0):
    """Sort the paired rows canonically and re-index the pairs into them.

    No two rows are equal, so each row is its own index key.
    """
    if not pairs:
        raise EmptyPopulationError(f"{hypothesis} population has no matched pairs")
    rows = tuple(sorted({row for pair in pairs for row in pair}, key=_sort_key))
    index = {row: i for i, row in enumerate(rows)}
    return MatchedPopulation(
        hypothesis=hypothesis,
        rows=rows,
        pairs=tuple(sorted((index[t], index[c]) for t, c in pairs)),
        diagnostics=MatchDiagnostics(unmatched_treated=unmatched, low_frequency_removed=removed),
    )


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
    """Score a built population against one prediction set.

    Returns the population with its ``predicted`` and ``outcomes`` columns
    set; the rows and pairs are shared, not copied. Raises
    `MissingPredictionError` when a row's cloze key has no prediction.
    Each distinct cloze key is looked up and its prediction stripped once;
    a row's outcome is then its stripped object == its key's stripped
    prediction, which is what `outcome_flag` tests.
    """
    records = predictions.records
    try:
        by_key = tuple(map(records.__getitem__, pop.cloze_keys))
    except KeyError:
        missing = [key for key in pop.cloze_keys if key not in records]
        sample = ", ".join(map(repr, missing[:5]))
        raise MissingPredictionError(
            f"{len(missing)} cloze keys lack predictions (e.g. {sample})",
            missing=missing,
        ) from None
    predicted = tuple(map(by_key.__getitem__, pop.key_index))
    if pop.hypothesis not in HYPOTHESES or None in by_key or "" in pop.stripped_objects:
        # raise what `outcome_flag` raises, for the first row it rejects
        for row, prediction in zip(pop.rows, predicted):
            outcome_flag(pop.hypothesis, row.object, prediction)
    stripped = tuple(map(str.strip, map(str, by_key)))
    hits = map(eq, pop.stripped_objects, map(stripped.__getitem__, pop.key_index))
    return replace(pop, predicted=predicted, outcomes=tuple(map(int, hits)))


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


_PAIRS_HEADER = "treated\tcontrol"


def write_population(pop, table_path, pairs_path):
    """Emit the population as TSV (header `POPULATION_FIELDS`) plus pair ids."""
    predicted = pop.predicted or ("",) * len(pop.rows)
    outcomes = pop.outcomes or (0,) * len(pop.rows)
    with open(table_path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(POPULATION_FIELDS) + "\n")
        for row, prediction, outcome in zip(pop.rows, predicted, outcomes, strict=True):
            cells = "\t".join(map(str, row))
            fh.write(f"{cells}\t{prediction}\t{outcome}\n")
    with open(pairs_path, "w", encoding="utf-8") as fh:
        fh.write(_PAIRS_HEADER + "\n")
        for i, j in pop.pairs:
            fh.write(f"{i}\t{j}\n")


_BOOL = {"True": True, "False": False}


def _parse_cell(name, value, lineno):
    try:
        if name in ("is_anti", "utt_present", "so_hc", "po_hc"):
            return _BOOL[value]
        if name in ("treatment", "soc_count", "outcome"):
            return int(value)
        return value
    except (KeyError, ValueError) as exc:
        raise ParseError(f"bad value {value!r} for column {name!r}", line=lineno) from exc


class _PairingError(ValueError):
    """Pairs that are no partition: `pair` is the first one at fault, else `row` is unpaired."""

    def __init__(self, message, pair=None, row=None):
        super().__init__(message)
        self.pair, self.row = pair, row


def _check_pairs(treatment, pairs):
    """Check that `pairs` partition the rows by arm, as a built population's do.

    Every row is in exactly one pair, as its treated row if its
    `treatment` is 1 and as its control row if 0.
    """
    n = len(treatment)
    paired = bytearray(n)
    for k, (i, j) in enumerate(pairs):
        for index, arm in ((i, 1), (j, 0)):
            if not 0 <= index < n:
                raise _PairingError(f"pair index {index} outside the {n} table rows", k)
            if treatment[index] != arm:
                raise _PairingError(
                    f"pair row {index} has treatment {treatment[index]}, expected {arm}", k
                )
            if paired[index]:
                raise _PairingError(f"row {index} is in more than one pair", k)
            paired[index] = 1
    if 2 * len(pairs) != n:
        row = paired.index(0)
        raise _PairingError(f"row {row} is in no pair", row=row)


def read_population(table_path, pairs_path, hypothesis):
    """Read back a population emitted by `write_population`.

    The file's ``prediction``/``outcome`` cells come back as the
    ``predicted``/``outcomes`` columns. The pairs must partition the
    rows, as a built population's do: each row is in exactly one pair.
    """
    rows = []
    predicted = []
    outcomes = []
    with open(table_path, encoding="utf-8") as table_lines:
        header = next(table_lines, "").rstrip("\n").split("\t")
        if tuple(header) != POPULATION_FIELDS:
            raise ParseError(f"unexpected population header in {table_path}", line=1)
        for lineno, line in enumerate(table_lines, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            cells = line.split("\t")
            if len(cells) != len(POPULATION_FIELDS):
                raise ParseError("wrong cell count", line=lineno)
            *values, prediction, outcome = (
                _parse_cell(name, cell, lineno) for name, cell in zip(POPULATION_FIELDS, cells)
            )
            rows.append(PopulationRow(*values))
            predicted.append(prediction)
            outcomes.append(outcome)
    pairs, linenos = [], []
    with open(pairs_path, encoding="utf-8") as pairs_lines:
        if next(pairs_lines, "").rstrip("\n") != _PAIRS_HEADER:
            raise ParseError(f"unexpected pairs header in {pairs_path}", line=1)
        for lineno, line in enumerate(pairs_lines, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                i, j = map(int, line.split("\t"))
            except ValueError as exc:
                raise ParseError("bad pair line", line=lineno) from exc
            pairs.append((i, j))
            linenos.append(lineno)
    try:
        _check_pairs([row.treatment for row in rows], pairs)
    except _PairingError as exc:
        if exc.pair is None:
            message = f"row {exc.row} of {table_path} is in no pair in {pairs_path}"
            raise ParseError(message) from None
        raise ParseError(str(exc), line=linenos[exc.pair]) from None
    return MatchedPopulation(
        hypothesis=hypothesis,
        rows=tuple(rows),
        pairs=tuple(pairs),
        predicted=tuple(predicted),
        outcomes=tuple(outcomes),
    )


# --- the population cache ---------------------------------------------------


#: A population-cache entry is a sealed file (`write_sealed`) with this magic.
#: Bump the version whenever `build_structure` can give different rows, pairs
#: or diagnostics for the same inputs: the cache key digests only the inputs,
#: so entries of the old build logic would be read back as current.
_CACHE_MAGIC = b"CCPOP001"

#: Row fields an entry stores as indices into its string table.
_STRING_COLUMNS = tuple(
    ROW_FIELDS.index(name) for name in ("subject", "object", "relation", "template", "soc_bin")
)
_TREATMENT = ROW_FIELDS.index("treatment")

_encode = json.JSONEncoder(separators=(",", ":")).encode


def write_cache_entry(pop, path):
    """Write a built population as a cache entry, a sealed file of JSON lines.

    Each line is encoded on its own: a header with the diagnostics and the
    string table, one column per `PopulationRow` field in field order, then
    the treated and the control row of each pair.
    """
    strings = dict.fromkeys(
        chain.from_iterable(map(itemgetter(i), pop.rows) for i in _STRING_COLUMNS)
    )
    position = dict(zip(strings, range(len(strings))))
    header = {"diagnostics": asdict(pop.diagnostics), "strings": list(strings)}
    # one column at a time, by field: `zip(*pop.rows)` would make an iterator
    # per row, enough to set off a full pass of the cyclic garbage collector
    columns = (
        tuple(map(position.__getitem__, map(itemgetter(i), pop.rows)))
        if i in _STRING_COLUMNS
        else tuple(map(itemgetter(i), pop.rows))
        for i in range(len(ROW_FIELDS))
    )
    arms = (tuple(map(itemgetter(i), pop.pairs)) for i in (0, 1))
    lines = chain([header], columns, arms)
    write_sealed(path, _CACHE_MAGIC, (_encode(line).encode() + b"\n" for line in lines))


def read_cache_entry(path, hypothesis):
    """Read a cache entry back, checking its seal and then its structure.

    Raises `OSError`, `ValueError`, `KeyError`, `TypeError` or `IndexError`
    for an entry that cannot be used.
    """
    body, _ = unseal(path.read_bytes(), _CACHE_MAGIC)
    header, *columns, treated, control = map(json.loads, bytes(body).splitlines())
    strings = header["strings"]
    for i in _STRING_COLUMNS:
        columns[i] = map(strings.__getitem__, columns[i])
    rows = tuple(starmap(PopulationRow, zip(*columns, strict=True)))
    pairs = tuple(zip(treated, control, strict=True))
    _check_pairs(columns[_TREATMENT], pairs)
    diagnostics = MatchDiagnostics(**header["diagnostics"])
    if not all(type(n) is int and n >= 0 for n in astuple(diagnostics)):
        raise ValueError(f"the diagnostics in {path} are not counts")
    return MatchedPopulation(hypothesis, rows, pairs, diagnostics)


def population_observation_table(pop):
    """Adapt a matched population to the estimator's table schema.

    Adds the derived ``kbt`` column (1 on non-anti rows of KB-triplet
    populations, 0 on anti-pattern rows) alongside the stratification
    columns; values stay native (ints and bools), as on `PopulationRow`.
    ``outcome`` is the scored `outcomes` column, so `pop` must be scored.
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
    rows = [
        (
            row.relation,
            row.template,
            0 if row.is_anti else 1,
            row.soc_bin,
            row.utt_present,
            row.treatment,
            outcome,
        )
        for row, outcome in zip(pop.rows, pop.outcomes, strict=True)
    ]
    return ObservationTable(columns, tuple(rows))
