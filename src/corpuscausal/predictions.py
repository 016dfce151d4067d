"""Per-cloze predictions: loaded from files or generated by control baselines.

Prediction files are UTF-8 JSON lines with fields ``subject``,
``relation``, ``template``, ``prediction``, ``source_id``. Predictions
must stay inside the relation's candidate set; violations are rejected
at load time rather than silently projected.
"""

import hashlib
import json
from dataclasses import dataclass
from operator import itemgetter

from .corpus import in_normal_form, normalize_text, ranked_columns, split_around
from .errors import (
    CandidateViolationError,
    DuplicateKeyError,
    MissingReferenceError,
    MissingStatsError,
    ParseError,
)
from .kb import _jsonl_records, _required

BASELINE_KINDS = ("heuristic-utt", "heuristic-poc", "heuristic-soc", "perfect", "random")

HYPOTHESES = ("utt", "poc", "soc")


@dataclass(frozen=True)
class PredictionSet:
    """`records` maps each (subject, relation, template) key to its predicted object."""

    records: dict
    source_id: str

    def get(self, subject, relation, template):
        return self.records.get((subject, relation, template))

    def __len__(self):
        return len(self.records)


#: The fields of a prediction record, in the order they are checked.
_FIELDS = ("subject", "relation", "template", "prediction", "source_id")
_raw_fields = itemgetter(*_FIELDS)


class _Normalised(dict):
    """Raw field string -> normalised value, each distinct string checked once.

    A value `_required` would reject is never stored; looking it up raises
    `KeyError`, and the caller lets `_required` name the error.
    """

    def __missing__(self, raw):
        if not isinstance(raw, str) or not raw.strip():
            raise KeyError(raw)
        value = self[raw] = normalize_text(raw)
        return value


def load_predictions(path, kb):
    """Load a prediction file, enforcing candidate restriction per relation.

    A file repeats a few hundred distinct strings over all its records, so
    each distinct raw string is checked and normalised once, and each
    record's (relation, prediction) is one lookup in the set of the KB's
    (relation, candidate) pairs; an error still names the first line it
    occurs on.
    """
    records = {}
    source_id = None
    normal = _Normalised()
    allowed = {(r, obj) for r in kb.relations for obj in kb.candidate_objects(r)}
    for lineno, record in _jsonl_records(path):
        try:
            fields = tuple(map(normal.__getitem__, _raw_fields(record)))
        except (KeyError, TypeError):  # a field missing, unhashable or rejected
            fields = tuple(_required(record, key, lineno) for key in _FIELDS)
        subject, relation, template, predicted, record_source = fields
        if source_id is None:
            source_id = record_source
        elif record_source != source_id:
            raise ParseError(
                f"mixed source_id values: {source_id!r} vs {record_source!r}",
                line=lineno,
            )
        if (relation, predicted) not in allowed:
            if relation not in kb.relations:
                raise ParseError(f"unknown relation {relation!r}", line=lineno)
            raise CandidateViolationError(
                f"line {lineno}: prediction {predicted!r} for "
                f"({subject!r}, {relation!r}, {template!r}) is outside "
                f"the relation's candidate set"
            )
        key = (subject, relation, template)
        if key in records:
            raise DuplicateKeyError(f"line {lineno}: duplicate key {key!r}")
        records[key] = predicted
    if source_id is None:
        raise ParseError(f"no prediction records in {path}")
    return PredictionSet(records=records, source_id=source_id)


def save_predictions(predictions, path):
    with open(path, "w", encoding="utf-8") as fh:
        for (subject, relation, template), predicted in sorted(predictions.records.items()):
            record = {"subject": subject, "relation": relation, "template": template,
                      "prediction": predicted, "source_id": predictions.source_id}
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def _random_index(seed, subject, relation, template, n):
    """Per-query uniform draw, independent of query order.

    Each query derives its own integer from a keyed hash, so generating
    predictions in parallel or in any order yields identical results.
    """
    payload = f"{seed}\x1f{subject}\x1f{relation}\x1f{template}".encode("utf-8")
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return int.from_bytes(digest, "big") % n


def baseline_predict(kind, kb, stats=None, queries=(), seed=None):
    """Generate control-baseline predictions for the given cloze keys.

    Kinds: ``heuristic-soc`` predicts the subject's most co-occurring
    candidate; ``heuristic-poc`` the template's most co-occurring
    candidate; ``heuristic-utt`` the first candidate whose instantiated
    utterance is stored (falling back to the soc argmax when none is);
    ``perfect`` the KB object; ``random`` a seed-reproducible uniform
    candidate.
    """
    if kind not in BASELINE_KINDS:
        raise ValueError(f"unknown baseline kind: {kind!r}")
    if kind == "random" and seed is None:
        raise ValueError("random baseline requires a seed")
    if kind.startswith("heuristic") and stats is None:
        raise MissingStatsError(f"{kind} requires a corpus index")

    source_id = f"random:{seed}" if kind == "random" else kind
    records = {}
    candidates_of = {}  # relation -> its candidates, taken from the KB once
    normal_of = {}  # relation -> whether each candidate is in normal form
    soc_top = {}  # (subject, relation) -> the candidate the subject co-occurs with most

    def most_co_occurring(subject, relation):
        if (subject, relation) not in soc_top:
            # the relation's count matrix, which its populations count too;
            # a subject outside the KB gets a matrix of its own
            subjects = kb.subjects(relation)
            if subject not in subjects:
                subjects = (subject,)
            candidates = candidates_of[relation]
            top = ranked_columns(stats.soc_matrix(subjects, candidates))[:, 0].tolist()
            soc_top.update(
                ((s, relation), candidates[j]) for s, j in zip(subjects, top)
            )
        return soc_top[subject, relation]

    for subject, relation, template in queries:
        key = (subject, relation, template)
        if key in records:
            continue
        if relation not in candidates_of:
            candidates_of[relation] = kb.candidate_objects(relation)
        candidates = candidates_of[relation]
        if kind == "perfect":
            golds = kb.objects_of(subject, relation)
            if not golds:
                raise MissingReferenceError(
                    f"no gold object for ({subject!r}, {relation!r})"
                )
            predicted = golds[0]
        elif kind == "random":
            predicted = candidates[
                _random_index(seed, subject, relation, template, len(candidates))
            ]
        elif kind == "heuristic-soc":
            predicted = most_co_occurring(subject, relation)
        elif kind == "heuristic-poc":
            predicted = stats.poc_ranked(template, candidates)[0][0]
        else:  # heuristic-utt
            if relation not in normal_of:
                normal_of[relation] = [in_normal_form(o) for o in candidates]
            # a probe of values and template in normal form is looked up as
            # it is (`in_normal_form`); any other is normalised first
            as_is = in_normal_form(subject) and in_normal_form(template)
            left, right = split_around(template, "[Y]", subject)
            present = (
                o
                for o, normal in zip(candidates, normal_of[relation])
                if (left + o + right in stats.sentence_set if as_is and normal
                    else stats.utterance_present(left + o + right))
            )
            predicted = next(present, None)
            if predicted is None:
                predicted = most_co_occurring(subject, relation)
        records[key] = predicted
    return PredictionSet(records=records, source_id=source_id)


def outcome_flag(hypothesis, reference_object, prediction):
    """1 iff the prediction equals the hypothesis's reference object.

    Strict comparison: whitespace is trimmed, nothing else (no case
    folding, no punctuation leniency).
    """
    if hypothesis not in HYPOTHESES:
        raise ValueError(f"unknown hypothesis: {hypothesis!r}")
    if reference_object is None or not str(reference_object).strip():
        raise MissingReferenceError(f"no reference object for hypothesis {hypothesis}")
    if prediction is None:
        raise MissingReferenceError("no prediction to compare")
    return int(str(prediction).strip() == str(reference_object).strip())
