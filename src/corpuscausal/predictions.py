"""Per-cloze predictions: loaded from files or generated by control baselines.

Prediction files are UTF-8 JSON lines with fields ``subject``,
``relation``, ``template``, ``prediction``, ``source_id``. Predictions
must stay inside the relation's candidate set; violations are rejected
at load time rather than silently projected.
"""

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .corpus import RelationView, landing
from .errors import (
    CandidateViolationError,
    DuplicateKeyError,
    MissingReferenceError,
    MissingStatsError,
    ParseError,
)
from .kb import _jsonl_records

BASELINE_KINDS = ("heuristic-utt", "heuristic-poc", "heuristic-soc", "perfect", "random")

HYPOTHESES = ("utt", "poc", "soc")


@dataclass(frozen=True)
class PredictionSet:
    """`records` maps each (subject, relation, template) key to its predicted object.

    `key_ids` is a `ClozeKeyTable` and the predicted object id of each of
    its keys: `load_predictions` sets it on a set it reads for a table,
    and a table on a set that carries no ids for it when it scores it. A
    set is read as immutable once scored: its ids are never checked
    against its records again.
    """

    records: dict
    source_id: str
    key_ids: tuple = field(init=False, default=None, compare=False, repr=False)

    def get(self, subject, relation, template):
        return self.records.get((subject, relation, template))

    def __len__(self):
        return len(self.records)


#: The fields of a prediction record, in the order they are checked.
_FIELDS = ("subject", "relation", "template", "prediction", "source_id")


def candidate_ids(kb, ids):
    """(relation, candidate) -> the id in `ids` of the trimmed candidate, for each of `kb`'s.

    A trimmed candidate not yet in `ids` is added with the next id.
    """
    return {(relation, obj): ids.setdefault(str(obj).strip(), len(ids))
            for relation in kb.relations for obj in kb.candidate_objects(relation)}


def load_predictions(path, kb, keys=None):
    """Load a prediction file, enforcing candidate restriction per relation.

    Each record's (relation, prediction) is one lookup in the map of the
    KB's (relation, candidate) pairs to object ids; an error names the
    first line it occurs on. Given `keys`, the run's `ClozeKeyTable` over
    `kb` (a table over another KB is a `ValueError`), the file is read
    with the table's normalisation memo and candidate map, and each
    record on one of its keys writes its object id into the set's id
    column (`PredictionSet.key_ids`), so that scoring the set looks no
    key up.
    """
    if keys is None:
        object_id, normal, position = candidate_ids(kb, {}), None, {}
    elif keys.kb is not kb:
        raise ValueError("the key table is over another knowledge base")
    else:
        object_id, normal, position = keys.candidate_ids, keys.normal, keys.position
    column = [-2] * len(position)  # -2: no prediction, as `ClozeKeyTable` reads it
    records = {}
    source_id = None
    for lineno, _, fields in _jsonl_records(path, _FIELDS, normal):
        subject, relation, template, predicted, record_source = fields
        if source_id is None:
            source_id = record_source
        elif record_source != source_id:
            raise ParseError(
                f"mixed source_id values: {source_id!r} vs {record_source!r}",
                line=lineno,
            )
        found = object_id.get((relation, predicted))
        if found is None:
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
        at = position.get(key)
        if at is not None:
            column[at] = found
    if source_id is None:
        raise ParseError(f"no prediction records in {path}")
    predictions = PredictionSet(records, source_id)
    if keys is not None:
        object.__setattr__(predictions, "key_ids", (keys, np.array(column, np.intp)))
    return predictions


def save_predictions(predictions, path):
    with landing(path) as fh:
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

    by_relation = {}  # relation -> its distinct query keys, as a dict in query order
    for key in queries:
        by_relation.setdefault(key[1], {})[key] = None
    records = {}
    for relation, keys in by_relation.items():
        records.update(zip(keys, _predict(kind, kb, stats, seed, relation, keys)))
    return PredictionSet(records, f"random:{seed}" if kind == "random" else kind)


def _predict(kind, kb, stats, seed, relation, keys):
    """The predictions of one relation's distinct query keys, in their order.

    A heuristic reads the relation's view, as the builders do: its subjects
    are the KB's, then the query subjects outside them in text order.
    heuristic-utt probes each (subject, template) unit with every candidate
    in one pass.
    """
    candidates = kb.candidate_objects(relation)
    if kind == "perfect":
        missing = [subject for subject, _, _ in keys if not kb.objects_of(subject, relation)]
        if missing:
            raise MissingReferenceError(f"no gold object for ({missing[0]!r}, {relation!r})")
        return [kb.objects_of(subject, relation)[0] for subject, _, _ in keys]
    if kind == "random":
        return [candidates[_random_index(seed, *key, len(candidates))] for key in keys]
    templates = dict.fromkeys(template for _, _, template in keys)
    subjects = kb.subjects(relation)
    subjects += tuple(sorted({subject for subject, _, _ in keys}.difference(subjects)))
    rel = RelationView(stats, relation, subjects, candidates, templates)
    if kind == "heuristic-poc":
        top = dict(zip(rel.templates, rel.poc_ranking[:, 0].tolist()))
        return [candidates[top[template]] for _, _, template in keys]
    if kind == "heuristic-soc":
        top = _soc_argmax(rel, dict.fromkeys(subject for subject, _, _ in keys))
        return [top[subject] for subject, _, _ in keys]
    units = list(dict.fromkeys((subject, template) for subject, _, template in keys))
    s_of, t_of = ({text: i for i, text in enumerate(texts)} for texts in (subjects, rel.templates))
    s, t = np.array([(s_of[x], t_of[y]) for x, y in units], np.intp).reshape(-1, 2).T
    n, k = len(units), len(candidates)
    present = rel.stored(s.repeat(k), np.tile(np.arange(k), n), t.repeat(k)).reshape(n, k)
    first = dict(zip(units, np.where(present.any(axis=1), present.argmax(axis=1), -1).tolist()))
    top = _soc_argmax(rel, {subject for (subject, _), j in first.items() if j < 0})
    return [
        candidates[first[subject, template]] if first[subject, template] >= 0 else top[subject]
        for subject, _, template in keys
    ]


def _soc_argmax(rel, subjects):
    """Each of `subjects`, subjects of `rel`, -> its soc rank-0 candidate."""
    top = dict(zip(rel.subjects, rel.soc_ranking[:, 0].tolist())) if subjects else {}
    return {subject: rel.candidates[top[subject]] for subject in subjects}


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
