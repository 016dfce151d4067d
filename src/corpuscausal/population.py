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
corpus, the KB and the pairing fix, and none changes once built. A build
runs one array pass per relation, over the relation's `RelationView`:
its KB subjects, candidates and the build's templates, with their soc and
poc count matrices, which the corpus index counts once per index, and
their rankings. A builder picks its pairs as (subject, candidate,
pattern) index arrays, and `_population` reads the rest from them: the
counts, the flags against rank 0, the bins (each distinct count binned
once) and the codes of the strings the rows use. A row's utterance flag
is the view's probe of its (subject, template) unit and its object, the
probe heuristic-utt makes.

`PopulationRow`'s annotations state the row schema once: the column
types, the string fields, the cache entry's layout and how a table cell
is read follow from them. A `MatchedPopulation` holds its rows as
integer columns, `pop.codes`, its string fields coded into one string
table, `pop.strings`, that `_encode` makes from (values, index) parts,
whether the rows are built or read back; a build sorts and pairs its
rows as codes. Scoring, the observation table and emission read the
columns; the cloze keys are read from them when first asked for, and
the rows are built only when something asks for them (the public API,
tests). Scores are columns too: `score_population` returns the
population with a ``predicted`` and an ``outcomes`` tuple aligned with
its rows, and copies no row. A run scores all its populations through
one `ClozeKeyTable`, which holds the object id each prediction set
gives each of their cloze keys: a prediction file is read straight into
those ids (`load_predictions`), any other set takes one lookup pass over
the keys. The table also counts each scored population's
(stratum, arm, outcome) cells for its ATE (`cells`), and takes the share
of utt keys answered with a gold object (`accuracy`). Emitted tables join
the two back into one file with a ``prediction`` and an ``outcome``
column; an unscored population writes ``""`` and ``0`` there.

Row order in emitted tables is always (relation, subject, object,
template), so identical inputs produce identical files.

Both stored forms of a population live here, the emitted tables and the
population-cache entry, and their readers share one pair check. The TSV
format of every table the library emits (population tables, pairs
files, cloze queries, delimited reports) lives here too, in one writer,
`tsv_blocks`, and one reader, `read_tsv`.
"""

import json
from dataclasses import asdict, astuple, dataclass, field, replace
from functools import cached_property
from itertools import chain, islice
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .corpus import BIN_EDGES, RelationView, bin_count, landing, unseal, write_sealed
from .errors import (
    EmptyPopulationError,
    InputError,
    MissingPredictionError,
    MissingStatsError,
    ParseError,
)
from .estimator import ObservationTable
from .graph import CANONICAL_ADJUSTMENTS
from .kb import _Normalised
from .predictions import HYPOTHESES, candidate_ids, outcome_flag

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

#: The canonical row order, by these fields in turn.
_ORDER_FIELDS = ("relation", "subject", "object", "template", "is_anti")

#: The kind of each column of an emitted population table: the row
#: fields, then the scores.
_CELL_KINDS = {**PopulationRow.__annotations__, "prediction": str, "outcome": int}
POPULATION_FIELDS = tuple(_CELL_KINDS)

#: Row fields held as codes into the string table, and the numpy type of
#: each field's column: a code or an int is int32 and a bool is a numpy
#: bool, but `treatment`, 0 or 1, takes one byte.
_STRING_FIELDS = tuple(name for name in ROW_FIELDS if _CELL_KINDS[name] is str)
_DTYPES = {
    name: {str: np.int32, int: np.int32, bool: np.bool_}[_CELL_KINDS[name]] for name in ROW_FIELDS
} | {"treatment": np.uint8}


@dataclass(frozen=True)
class MatchDiagnostics:
    unmatched_treated: int = 0
    low_frequency_removed: int = 0


def _encode(texts):
    """The string table of `texts`, and each string field's column of codes into it.

    `texts` maps each of `_STRING_FIELDS` to its parts, (values, index)
    pairs: the field's column is each part's ``values[index]`` in turn.
    The table holds the values some index reads, distinct and in text
    order, so that codes sort as their strings do.
    """
    used = set()
    for values, index in chain.from_iterable(texts.values()):
        mask = np.zeros(len(values), np.bool_)
        mask[index] = True
        used.update(map(values.__getitem__, np.flatnonzero(mask).tolist()))
    strings = tuple(sorted(used))
    position = dict(zip(strings, range(len(strings))))
    # a value no row uses has no code, and no index reads its -1
    return strings, {
        name: np.concatenate([
            np.array([position.get(value, -1) for value in values], np.int32)[index]
            for values, index in parts
        ])
        for name, parts in texts.items()
    }


def _decode(pop):
    """The values of each of `ROW_FIELDS` in turn, read from `pop`'s columns."""
    codes, strings = pop.codes, np.array(pop.strings, object)
    return [
        (strings[codes[name]] if name in _STRING_FIELDS else codes[name]).tolist()
        for name in ROW_FIELDS
    ]


def _distinct(*columns):
    """The sorted distinct rows of the columns, as a list per column, and each row's index.

    Each row is numbered in mixed radix over its columns' code ranges, so
    one 1-D `np.unique` sorts and numbers the rows; a number about to
    outgrow int64 is first renumbered densely.
    """
    number, bound = np.zeros(len(columns[0]), np.int64), 1
    for column in columns:
        radix = int(column.max(initial=0)) + 1
        if bound * radix >= 1 << 62:
            _, number = np.unique(number, return_inverse=True)
            bound = len(number)
        number, bound = number * radix + column, bound * radix
    _, first, inverse = np.unique(number, return_index=True, return_inverse=True)
    return [column[first].tolist() for column in columns], inverse.reshape(-1)


@dataclass(frozen=True)
class MatchedPopulation:
    """Matched rows and pairs, with the scores of one prediction set.

    The rows are integer columns: `codes` maps each `PopulationRow` field
    to a numpy column, the string fields as codes into `strings`, the
    string table in text order, so that codes sort as their strings do.
    `cloze_keys`, the sorted distinct (subject, relation, template) keys,
    and `key_index`, each row's index into them, are read from the codes
    when first asked for, and `rows` builds the `PopulationRow`s when
    first asked for. A scored copy (`dataclasses.replace`) shares the
    columns and the pairs, and computes neither. Equality compares the
    columns decoded, so it builds no row.
    """

    hypothesis: str
    strings: tuple = field(repr=False)
    codes: dict = field(repr=False)
    pairs: tuple  # (treated row index, control row index)
    diagnostics: MatchDiagnostics = MatchDiagnostics()
    predicted: tuple = ()  # predicted object per row, aligned with `rows`
    outcomes: tuple = ()  # outcome flag (0/1) per row, aligned with `rows`

    @cached_property
    def _keys(self):
        keys, index = _distinct(*map(self.codes.__getitem__, ("subject", "relation", "template")))
        return tuple(zip(*(map(self.strings.__getitem__, key) for key in keys))), index

    cloze_keys = property(lambda self: self._keys[0])
    key_index = property(lambda self: self._keys[1])

    @cached_property
    def rows(self):
        return tuple(map(PopulationRow._make, zip(*_decode(self))))

    def __len__(self):
        return len(self.codes["treatment"])

    def __eq__(self, other):
        if not isinstance(other, MatchedPopulation):
            return NotImplemented
        fields = attrgetter("hypothesis", "pairs", "diagnostics", "predicted", "outcomes")
        return self is other or fields(self) == fields(other) and _decode(self) == _decode(other)


def _relations(kb, stats, anti=False):
    """Each relation's view, and its sorted paraphrases then, if `anti`, anti-patterns."""
    for relation in kb.relations:
        patterns = sorted(kb.paraphrases(relation))
        patterns += sorted(kb.anti_patterns(relation)) if anti else []
        subjects, candidates = kb.subjects(relation), kb.candidate_objects(relation)
        templates = [pat.template for pat in patterns]
        yield RelationView(stats, relation, subjects, candidates, templates), patterns


def _pairs(treated, control):
    """Treated and control rows' indices side by side: one pair per row."""
    return np.stack((treated, control), axis=1)


def _build_utt(kb, stats, bin_edges):
    triplets = {}
    for trip in kb.triplets:
        triplets.setdefault(trip.relation, []).append(trip)
    blocks, unmatched = [], 0
    for rel, patterns in _relations(kb, stats):
        # the subjects and candidates are in text order: a search finds each triplet's
        s = np.array(rel.subjects, object).searchsorted([t.subject for t in triplets[rel.name]])
        o = np.array(rel.candidates, object).searchsorted([t.object for t in triplets[rel.name]])
        # one row per (triplet, paraphrase), the paraphrases in order
        n, k = len(s), len(patterns)
        present = rel.stored(s.repeat(k), o.repeat(k), np.tile(np.arange(k), n)).reshape(n, k)
        stored = present.sum(axis=1, keepdims=True)
        matched = np.minimum(stored, k - stored)
        unmatched += int((stored - matched).sum())
        # a triplet's i-th stored paraphrase pairs with its i-th absent one: both
        # arms run through the triplets in order, `matched` rows of each per triplet
        rank = np.where(present, present.cumsum(axis=1), (~present).cumsum(axis=1))
        (tu, tj), (cu, cj) = (np.nonzero(arm & (rank <= matched)) for arm in (present, ~present))
        flags = _pairs(np.ones(len(tu), np.bool_), np.zeros(len(cu), np.bool_))
        blocks.append((rel, patterns, _pairs(s[tu], s[cu]), _pairs(o[tu], o[cu]), _pairs(tj, cj),
                       flags))
    return _population("utt", blocks, bin_edges, unmatched)


def _build_poc(kb, stats, bin_edges, min_poc_frequency):
    blocks = []
    unmatched = removed = 0
    for rel, patterns in _relations(kb, stats):
        n = len(rel.subjects)
        # each template's top two objects; the floor keeps a prefix of them,
        # since the top object has the largest count
        top_two = rel.poc_ranking[:, :2]
        kept = np.take_along_axis(rel.poc, top_two, axis=1) > min_poc_frequency
        removed += int((~kept).sum()) * n
        unmatched += int((kept.sum(axis=1) == 1).sum()) * n
        units = np.flatnonzero(kept.sum(axis=1) == 2)  # templates that keep two objects
        if len(units):
            t, (top, runner) = units.repeat(n), top_two[units].repeat(n, axis=0).T
            s = np.tile(np.arange(n), len(units))
            blocks.append((rel, patterns, _pairs(s, s), _pairs(top, runner), _pairs(t, t), None))
    return _population("poc", blocks, bin_edges, unmatched, removed)


def _build_soc(kb, stats, bin_edges):
    blocks, unmatched = [], 0
    for rel, patterns in _relations(kb, stats, anti=True):
        n, k = len(rel.subjects), len(patterns)
        if len(rel.candidates) < 2:
            unmatched += n * k
            continue
        s, t = np.repeat(np.arange(n), k), np.tile(np.arange(k), n)
        blocks.append((rel, patterns, _pairs(s, s), rel.soc_ranking[s, :2], _pairs(t, t), None))
    return _population("soc", blocks, bin_edges, unmatched)


def _population(hypothesis, blocks, bin_edges, unmatched, removed=0):
    """The population of a build's pairs, its rows sorted canonically.

    Each block is one relation's view and patterns, and its pairs, as
    arrays of shape (pairs, 2) of the treated and control rows' subject,
    candidate and pattern indices, and of their utterance flags, or None
    where the view's `stored` is to read them. A row's bin is read from
    its count, each distinct count binned once, and `_encode` codes the
    strings. No two rows are equal, so one sort of the codes orders the
    rows; pair k is rows 2k and 2k+1 before the sort.
    """
    blocks = [block for block in blocks if block[2].size]
    if not blocks:
        raise _no_pairs(hypothesis)
    texts = {name: [] for name in _STRING_FIELDS}
    codes = {name: [] for name in ROW_FIELDS if name not in texts}
    for rel, patterns, s, o, t, present in blocks:
        s, o, t = s.reshape(-1), o.reshape(-1), t.reshape(-1)
        texts["subject"].append((rel.subjects, s))
        texts["object"].append((rel.candidates, o))
        texts["relation"].append(((rel.name,), np.zeros_like(s)))
        texts["template"].append((tuple(pat.template for pat in patterns), t))
        codes["is_anti"].append(np.array([pat.is_anti for pat in patterns], np.bool_)[t])
        codes["treatment"].append(np.tile(np.array([1, 0], _DTYPES["treatment"]), len(s) // 2))
        codes["soc_count"].append(rel.soc[s, o])
        codes["utt_present"].append(
            (rel.stored(s, o, t) if present is None else present).reshape(-1)
        )
        codes["so_hc"].append(o == rel.soc_ranking[s, 0])
        codes["po_hc"].append(o == rel.poc_ranking[t, 0])
    codes = {name: np.concatenate(parts) for name, parts in codes.items()}
    counts, bins = np.unique(codes["soc_count"], return_inverse=True)
    texts["soc_bin"].append(([bin_count(count, bin_edges) for count in counts.tolist()], bins))
    strings, text_codes = _encode(texts)
    codes.update(text_codes)
    order = np.lexsort([codes[name] for name in reversed(_ORDER_FIELDS)])
    return MatchedPopulation(
        hypothesis=hypothesis,
        strings=strings,
        codes={name: codes[name][order] for name in ROW_FIELDS},
        pairs=tuple(sorted(map(tuple, order.argsort().reshape(-1, 2).tolist()))),
        diagnostics=MatchDiagnostics(unmatched_treated=unmatched, low_frequency_removed=removed),
    )


def _no_pairs(hypothesis):
    return EmptyPopulationError(f"{hypothesis} population has no matched pairs")


def build_structure(hypothesis, kb, stats, min_poc_frequency=5, bin_edges=BIN_EDGES):
    """Construct the matched population without predictions attached.

    Checkpoint sweeps build this once and re-score it per prediction set.
    """
    if hypothesis not in HYPOTHESES:
        raise ValueError(f"unknown hypothesis: {hypothesis!r}")
    if stats is None:
        raise MissingStatsError("population construction requires a corpus index")
    if hypothesis == "utt":
        return _build_utt(kb, stats, bin_edges)
    if hypothesis == "poc":
        return _build_poc(kb, stats, bin_edges, min_poc_frequency)
    return _build_soc(kb, stats, bin_edges)


class ClozeKeyTable:
    """The cloze keys of a run's populations, looked up once per prediction set.

    `keys` is the union of the populations' `cloze_keys`, in the order
    they first appear, `position` each key's place in it, and `object_ids`
    one id table of trimmed objects: the candidates of `kb`, if given,
    first, then each population's. For each hypothesis, `key_rows[hyp]`
    holds the position in `keys` of each of its cloze keys, `rows[hyp]`
    that of each row's key, and `row_objects[hyp]` each row's object id.
    Scoring a prediction set is one id per key, then a gather and a
    compare per population, which `cells` counts and `accuracy` checks
    against the KB's golds; strata and golds are numbered when first
    asked for. A set `load_predictions` read for this table carries its
    ids, read with the table's `candidate_ids` and its normalisation memo
    `normal`, which every file of the run shares; any other set takes
    one lookup pass over `keys` and then carries the ids it found, until
    another table scores it. The table keeps no prediction set.
    """

    def __init__(self, populations, kb=None):
        self.populations, self.kb = populations, kb
        self.position, ids = {}, {}
        self.candidate_ids = {} if kb is None else candidate_ids(kb, ids)
        self.normal = _Normalised()
        self.key_rows, self.rows, self.row_objects = {}, {}, {}
        for hyp, pop in populations.items():
            self.key_rows[hyp] = np.fromiter(
                (self.position.setdefault(key, len(self.position)) for key in pop.cloze_keys),
                np.intp, len(pop.cloze_keys),
            )
            self.rows[hyp] = self.key_rows[hyp][pop.key_index]
            (objects,), object_index = _distinct(pop.codes["object"])
            local = [ids.setdefault(pop.strings[code].strip(), len(ids)) for code in objects]
            self.row_objects[hyp] = np.array(local, np.intp)[object_index]
        self.keys, self.object_ids = tuple(self.position), ids
        self._strata = {}

    def _key_pass(self, predictions):
        values = list(map(predictions.records.get, self.keys))
        ids = self.object_ids
        id_of = {value: -2 if value is None else ids.get(str(value).strip(), -1)
                 for value in dict.fromkeys(values)}
        return np.fromiter(map(id_of.__getitem__, values), np.intp, len(values))

    def _checked(self, hypothesis, predictions):
        """Each key's trimmed object id under `predictions`: -1 none, -2 no prediction.

        It raises what `score_population` raises, if that raises. A set
        that carries no ids for this table is looked up (`_key_pass`), and
        then carries them (`PredictionSet.key_ids`).
        """
        pop = self.populations[hypothesis]
        table, found = predictions.key_ids or (None, None)
        if table is not self:
            found = self._key_pass(predictions)
            object.__setattr__(predictions, "key_ids", (self, found))
        blank = self.object_ids.get("", -1)
        if (pop.hypothesis not in HYPOTHESES or (self.row_objects[hypothesis] == blank).any()
                or (found[self.key_rows[hypothesis]] == -2).any()):
            _reject(pop, predictions)
        return found

    def outcomes(self, hypothesis, predictions):
        """The population's outcome (uint8) per row under `predictions` (`_checked`)."""
        found = self._checked(hypothesis, predictions)
        return (found[self.rows[hypothesis]] == self.row_objects[hypothesis]).view(np.uint8)

    def cells(self, hypothesis, predictions):
        """The population's (stratum, arm, outcome) counts under `predictions`: `do_from_cells`'s.

        `outcomes` checks the set before the strata are numbered.
        """
        outcomes = self.outcomes(hypothesis, predictions)
        if hypothesis not in self._strata:
            self._strata[hypothesis] = self._number_strata(hypothesis)
        cell, strata = self._strata[hypothesis]
        return np.bincount(2 * cell + outcomes, minlength=4 * strata).reshape(-1, 2, 2)

    def _number_strata(self, hypothesis):
        """Each row's ``2 * stratum + treatment``, and the number of `STRATIFY_COLUMNS` strata."""
        pop = self.populations[hypothesis]
        strata, stratum = _distinct(*(pop.codes["is_anti" if name == "kbt" else name]
                                      for name in STRATIFY_COLUMNS[pop.hypothesis]))
        return 2 * stratum + pop.codes["treatment"], len(strata[0])

    def accuracy(self, predictions):
        """Share of utt cloze keys answered with a KB gold object, None with no utt population.

        The set is checked as scoring the utt population checks it.
        """
        if "utt" not in self.populations:
            return None
        predicted = self._checked("utt", predictions)[self.key_rows["utt"]]
        codes = np.arange(len(predicted)) * len(self.object_ids) + predicted
        codes[predicted < 0] = -1
        golds = self._golds
        hits = golds.take(np.searchsorted(golds, codes), mode="clip") == codes
        return int(hits.sum()) / len(predicted)

    @cached_property
    def _golds(self):
        """Sorted codes ``k * len(object_ids) + id``: utt key k has the gold object of that id.

        Every object a run reads is in normal form (`load_kb`,
        `load_predictions`), so comparing trimmed ids compares the strings.
        """
        ids = self.object_ids
        return np.array(sorted(
            k * len(ids) + ids[gold.strip()]
            for k, (subject, relation, _) in enumerate(self.populations["utt"].cloze_keys)
            for gold in self.kb.objects_of(subject, relation)
        ), np.int64)

    def score(self, hypothesis, predictions):
        """The population with its ``predicted`` and ``outcomes`` columns set."""
        outcomes = self.outcomes(hypothesis, predictions)
        pop = self.populations[hypothesis]
        values = list(map(predictions.records.__getitem__, pop.cloze_keys))
        predicted = np.array(values, object)[pop.key_index]
        return replace(pop, predicted=tuple(predicted.tolist()), outcomes=tuple(outcomes.tolist()))


def _reject(pop, predictions):
    """Raise what scoring `pop` with `predictions` raises.

    A cloze key with no prediction is a `MissingPredictionError` naming
    every such key; otherwise what `outcome_flag` raises, for the first
    row it rejects.
    """
    records = predictions.records
    missing = [key for key in pop.cloze_keys if key not in records]
    if missing:
        sample = ", ".join(map(repr, missing[:5]))
        raise MissingPredictionError(
            f"{len(missing)} cloze keys lack predictions (e.g. {sample})", missing=missing
        )
    by_key = [records[key] for key in pop.cloze_keys]
    objects = map(pop.strings.__getitem__, pop.codes["object"].tolist())
    for obj, key in zip(objects, pop.key_index.tolist()):
        outcome_flag(pop.hypothesis, obj, by_key[key])


def score_population(pop, predictions):
    """Score a built population against one prediction set.

    Returns the population with its ``predicted`` and ``outcomes`` columns
    set; the rows and pairs are shared, not copied. Raises
    `MissingPredictionError` when a row's cloze key has no prediction.
    Each distinct cloze key is looked up and its prediction trimmed once
    (`ClozeKeyTable`); a row's outcome is then whether its key's trimmed
    prediction is its trimmed object, compared as object ids, which is
    what `outcome_flag` tests.
    """
    return ClozeKeyTable({pop.hypothesis: pop}).score(pop.hypothesis, predictions)


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


def tsv_blocks(header, rows, checked=False):
    """A TSV table's text: its header line, then its rows' lines 256 at a time.

    A row's line is its string cells, one per column, joined by tabs. Each
    block is checked whole, unless the caller has `checked` every cell:
    `read_tsv` could not read back a cell holding a tab, LF or CR, so such
    a cell is an `InputError` (`_refuse_breaks`).
    """
    yield "\t".join(header) + "\n"
    rows = iter(rows)
    while block := list(islice(rows, 256)):
        text = "\n".join(map("\t".join, block)) + "\n"
        if not checked and (
            "\r" in text or text.count("\t") + text.count("\n") != len(header) * len(block)
        ):
            _refuse_breaks(header, block)
        yield text


def _holds_break(texts):
    """Whether any of `texts` holds a tab, LF or CR."""
    text = "".join(texts)
    return "\t" in text or "\n" in text or "\r" in text


def _refuse_breaks(header, rows):
    """Raise an `InputError` naming the first cell of `rows`, in row order, holding a break.

    A break is a tab, LF or CR.
    """
    for row in rows:
        for name, cell in zip(header, row, strict=True):
            if _holds_break((cell,)):
                raise InputError(f"a {name!r} cell holds a tab or line break: {cell!r}")


#: How a TSV cell of each kind is read.
_PARSE = {str: str, int: int, bool: {"True": True, "False": False}.__getitem__}


def read_tsv(path, kinds, what):
    """Each non-blank line after a TSV file's header: its number and its cells.

    `kinds` maps each column, in header order, to the kind its cells are
    read as. A `ParseError` names the line at fault, and `what` the table.
    """
    with open(path, encoding="utf-8") as lines:
        if next(lines, "").rstrip("\n").split("\t") != list(kinds):
            raise ParseError(f"unexpected {what} header in {path}", line=1)
        for lineno, line in enumerate(lines, start=2):
            values = line.rstrip("\n").split("\t")
            if values == [""]:
                continue
            if len(values) != len(kinds):
                raise ParseError("wrong cell count", line=lineno)
            cells = []
            for (name, kind), value in zip(kinds.items(), values):
                try:
                    cells.append(_PARSE[kind](value))
                except (KeyError, ValueError) as exc:
                    raise ParseError(f"bad value {value!r} for column {name!r}", lineno) from exc
            yield lineno, tuple(cells)


_PAIR_KINDS = {"treated": int, "control": int}  # a pairs file's columns


def _formatted(column):
    """`str` of each value of an int or bool column, a list: `str` runs once per distinct value."""
    if column.min(initial=0) < 0:  # `bincount` counts from 0
        values, index = np.unique(column, return_inverse=True)
        labels = np.array(list(map(str, values.tolist())), object)
    else:
        index = column.astype(np.intp)
        labels = np.empty(index.max(initial=-1) + 1, object)
        present = np.flatnonzero(np.bincount(index, minlength=len(labels)))
        labels[present] = list(map(str, present.astype(column.dtype).tolist()))
    return labels[index].tolist()


def write_population(pop, table_path, pairs_path):
    """Emit the population as TSV (header `POPULATION_FIELDS`) plus pair ids.

    Each column is formatted per distinct value: a string column is the
    string table taken by its codes, an int or bool column `str` of each
    distinct value taken by index, and a cell is checked for a tab or
    line break once per string-table entry and distinct prediction; only
    if one holds one are the cells walked, to name the first such cell in
    row order. Each file lands whole (`landing`), and both are written
    out before either is renamed into place: a write that fails, or a
    cell the table refuses, leaves both paths as they were.
    """
    strings = list(map(str, pop.strings))
    predicted = pop.predicted or ("",) * len(pop)
    distinct = set(predicted)
    if any(type(value) is not str for value in distinct):
        predicted = list(map(str, predicted))
        distinct = set(predicted)
    texts = np.array(strings, object)
    columns = [
        texts[pop.codes[name]].tolist() if name in _STRING_FIELDS else _formatted(pop.codes[name])
        for name in ROW_FIELDS
    ]
    outcomes = _formatted(np.asarray(pop.outcomes)) if pop.outcomes else ["0"] * len(pop)
    columns += [predicted, outcomes]
    if _holds_break(chain(strings, distinct)):
        _refuse_breaks(POPULATION_FIELDS, zip(*columns, strict=True))
    with landing(table_path) as table, landing(pairs_path) as pairs:
        table.writelines(tsv_blocks(POPULATION_FIELDS, zip(*columns, strict=True), checked=True))
        cells = map(str, chain.from_iterable(pop.pairs))
        pairs.writelines(tsv_blocks(_PAIR_KINDS, zip(cells, cells)))
        table.flush()


class _PairingError(ValueError):
    """Pairs that are no partition: `pair` is the first one at fault, else `row` is unpaired."""

    def __init__(self, message, pair=None, row=None):
        super().__init__(message)
        self.pair, self.row = pair, row


def _check_pairs(treatment, pairs):
    """Check that `pairs` partition the rows by arm, as a built population's do.

    Every row is in exactly one pair, as its treated row if its
    `treatment` is 1 and as its control row if 0. `treatment` and the
    (treated, control) rows of `pairs` are arrays. Sound pairs pass one
    test of all of them at once; only pairs that fail it are walked, one
    after another, so that the error names the first pair at fault.
    """
    n = len(treatment)
    index = pairs.reshape(-1)  # treated, control, treated, control, ...
    order = np.argsort(index)
    # the indices are the rows, once each, and row r, at place order[r], is
    # treated (1) at an even place and control (0) at an odd one
    if (2 * len(pairs) == n and np.array_equal(index[order], np.arange(n))
            and np.array_equal(treatment, 1 - order % 2)):
        return
    arms, paired = treatment.tolist(), set()
    for k, pair in enumerate(pairs.tolist()):
        for row, arm in zip(pair, (1, 0)):
            if not 0 <= row < n:
                raise _PairingError(f"pair index {row} outside the {n} table rows", k)
            if arms[row] != arm:
                raise _PairingError(f"pair row {row} has treatment {arms[row]}, expected {arm}", k)
            if row in paired:
                raise _PairingError(f"row {row} is in more than one pair", k)
            paired.add(row)
    row = min(set(range(n)) - paired)
    raise _PairingError(f"row {row} is in no pair", row=row)


def read_population(table_path, pairs_path, hypothesis):
    """Read back a population emitted by `write_population`.

    The file's ``prediction``/``outcome`` cells come back as the
    ``predicted``/``outcomes`` columns. The pairs must partition the
    rows, as a built population's do: each row is in exactly one pair.
    """
    rows = [cells for _, cells in read_tsv(table_path, _CELL_KINDS, "population")]
    cells = dict(zip(POPULATION_FIELDS, zip(*rows) if rows else [()] * len(POPULATION_FIELDS)))
    numbered = list(read_tsv(pairs_path, _PAIR_KINDS, "pairs"))
    pairs = tuple(pair for _, pair in numbered)
    try:
        _check_pairs(np.array(cells["treatment"]), np.array(pairs).reshape(-1, 2))
    except _PairingError as exc:
        if exc.pair is None:
            message = f"row {exc.row} of {table_path} is in no pair in {pairs_path}"
            raise ParseError(message) from None
        raise ParseError(str(exc), line=numbered[exc.pair][0]) from None
    every = np.arange(len(cells["treatment"]))
    strings, codes = _encode({name: [(cells[name], every)] for name in _STRING_FIELDS})
    codes |= {name: np.array(cells[name], _DTYPES[name]) for name in _DTYPES if name not in codes}
    return MatchedPopulation(
        hypothesis=hypothesis,
        strings=strings,
        codes=codes,
        pairs=pairs,
        predicted=tuple(cells["prediction"]),
        outcomes=tuple(cells["outcome"]),
    )


# --- the population cache ---------------------------------------------------


#: A population-cache entry is a sealed file (`write_sealed`) with this magic.
#: Bump the version whenever `build_structure` can give different rows, pairs
#: or diagnostics for the same inputs: the cache key digests only the inputs,
#: so entries of the old build logic would be read back as current. Bump it
#: also when the entry's own rules change, as when version 3 required the
#: string table in text order.
_CACHE_MAGIC = b"CCPOP003"

#: The columns of an entry, in file order: the int32 row columns as `<i4`,
#: the pairs' `<i4` treated and control rows, then the one-byte row
#: columns as `u1`, each in `ROW_FIELDS` order.
_INT_FIELDS = tuple(name for name in ROW_FIELDS if _DTYPES[name] is np.int32)
_FLAG_FIELDS = tuple(name for name in ROW_FIELDS if _DTYPES[name] is not np.int32)


def write_cache_entry(pop, path):
    """Write a built population as a cache entry: a sealed file.

    Its body is a JSON header line, with the diagnostics, the string table
    and the row and pair counts, then fixed-width little-endian columns
    in `_INT_FIELDS`, pairs, `_FLAG_FIELDS` order. `pop` None writes the
    entry of a population with no matched pairs: no rows and no pairs.
    """
    if pop is None:
        header = {"diagnostics": asdict(MatchDiagnostics()), "pairs": 0, "rows": 0,
                  "strings": []}
        columns = []
    else:
        codes = pop.codes
        header = {"diagnostics": asdict(pop.diagnostics), "pairs": len(pop.pairs),
                  "rows": len(pop), "strings": list(pop.strings)}
        columns = [
            *(codes[name].astype("<i4") for name in _INT_FIELDS),
            np.array(pop.pairs, "<i4").reshape(-1, 2).T,
            *(codes[name].astype("u1") for name in _FLAG_FIELDS),
        ]
    head = json.dumps(header, separators=(",", ":")).encode() + b"\n"
    write_sealed(path, _CACHE_MAGIC, chain([head], map(np.ndarray.tobytes, columns)))


def read_cache_entry(path, hypothesis):
    """Read a cache entry back, checking its seal and then its structure.

    Raises `OSError`, `ValueError`, `KeyError`, `TypeError` or `IndexError`
    for an entry that cannot be used, and the build's `EmptyPopulationError`
    for the entry of a population with no matched pairs.
    """
    body, _ = unseal(path.read_bytes(), _CACHE_MAGIC)
    header, _, data = bytes(body).partition(b"\n")
    header = json.loads(header)
    strings, n, m = tuple(header["strings"]), header["rows"], header["pairs"]
    diagnostics = MatchDiagnostics(**header["diagnostics"])
    if not all(type(k) is int and k >= 0 for k in (*astuple(diagnostics), n, m)):
        raise ValueError(f"the diagnostics or counts in {path} are not counts")
    # strictly rising: in text order, and so distinct
    if not all(type(s) is str for s in strings) or not all(map(str.__lt__, strings, strings[1:])):
        raise ValueError(f"the string table in {path} is not strings in rising order")
    if len(data) != 4 * (len(_INT_FIELDS) * n + 2 * m) + len(_FLAG_FIELDS) * n:
        raise ValueError(f"{path} does not hold {n} rows and {m} pairs")
    ints = np.frombuffer(data, "<i4", len(_INT_FIELDS) * n + 2 * m)
    flags = np.frombuffer(data, "u1", offset=ints.nbytes).reshape(len(_FLAG_FIELDS), n)
    codes = dict(zip(_INT_FIELDS, ints[: len(_INT_FIELDS) * n].reshape(len(_INT_FIELDS), n)))
    for name in _STRING_FIELDS:
        if n and not 0 <= codes[name].min() <= codes[name].max() < len(strings):
            raise IndexError(f"a {name} code in {path} is outside its string table")
    if n and flags.max() > 1:
        raise ValueError(f"a flag in {path} is neither 0 nor 1")
    codes.update((name, flag.view(_DTYPES[name])) for name, flag in zip(_FLAG_FIELDS, flags))
    treated, control = ints[len(_INT_FIELDS) * n :].reshape(2, m)
    _check_pairs(codes["treatment"], np.stack((treated, control), axis=1))
    if not n:
        raise _no_pairs(hypothesis)
    pairs = tuple(zip(treated.tolist(), control.tolist()))
    return MatchedPopulation(hypothesis, strings, codes, pairs, diagnostics)


#: The columns of a population's observation table. A population's rows
#: hold ``kbt`` as ``is_anti``; the other columns but ``outcome`` are theirs.
_OBSERVATION_COLUMNS = (
    "relation", "template", "kbt", "soc_bin", "utt_present", "treatment", "outcome"
)


def population_observation_table(pop):
    """Adapt a matched population to the estimator's table schema.

    Adds the derived ``kbt`` column (1 on non-anti rows of KB-triplet
    populations, 0 on anti-pattern rows) alongside the stratification
    columns; values stay native (ints and bools), as on `PopulationRow`.
    ``outcome`` is the scored `outcomes` column, so `pop` must be scored.
    The rows of one cell, the distinct values of every column but
    ``outcome``, share one tuple per outcome.
    """
    outcomes = pop.outcomes
    if len(outcomes) != len(pop):
        raise ValueError(f"{len(outcomes)} outcomes for {len(pop)} rows: score the population")
    if not set(outcomes) <= {0, 1}:
        bad = next(value for value in outcomes if value not in (0, 1))
        raise ValueError(f"column 'outcome' must be binary 0/1, got {bad!r}")
    strings = pop.strings
    cells, cell = _distinct(*(pop.codes["is_anti" if name == "kbt" else name]
                              for name in _OBSERVATION_COLUMNS[:-1]))
    cell_rows = tuple(
        (strings[relation], strings[template], 0 if is_anti else 1, strings[soc_bin],
         utt_present, treatment, outcome)
        for relation, template, is_anti, soc_bin, utt_present, treatment in zip(*cells)
        for outcome in (0, 1)
    )
    index = 2 * cell + np.fromiter(outcomes, np.intp, len(outcomes))
    return ObservationTable(_OBSERVATION_COLUMNS, tuple(map(cell_rows.__getitem__, index.tolist())))
