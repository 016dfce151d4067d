"""Per-cloze predictions: loaded from files or generated by control baselines.

Prediction files are UTF-8 JSON lines with fields ``subject``,
``relation``, ``template``, ``prediction``, ``source_id``. Predictions
must stay inside the relation's candidate set; violations are rejected
at load time rather than silently projected.
"""

import hashlib
import json
from dataclasses import dataclass

from .corpus import argmax_object, instantiate
from .errors import (
    CandidateViolationError,
    DuplicateKeyError,
    EmptyCandidateSetError,
    MissingReferenceError,
    MissingStatsError,
    ParseError,
)
from .kb import _jsonl_records, _required

BASELINE_KINDS = ("heuristic-utt", "heuristic-poc", "heuristic-soc", "perfect", "random")

HYPOTHESES = ("utt", "poc", "soc")


@dataclass(frozen=True)
class PredictionRecord:
    subject: str
    relation: str
    template: str
    predicted_object: str
    source_id: str

    @property
    def key(self):
        return (self.subject, self.relation, self.template)


@dataclass(frozen=True)
class PredictionSet:
    """At most one record per (subject, relation, template) key."""

    records: dict
    source_id: str

    def get(self, subject, relation, template):
        return self.records.get((subject, relation, template))

    def missing_keys(self, keys):
        return sorted(k for k in set(keys) if k not in self.records)

    def __len__(self):
        return len(self.records)


def load_predictions(path, kb):
    """Load a prediction file, enforcing candidate restriction per relation."""
    records = {}
    source_id = None
    known_relations = set(kb.relations)
    candidates = {}
    for lineno, record in _jsonl_records(path):
        rec = PredictionRecord(
            subject=_required(record, "subject", lineno),
            relation=_required(record, "relation", lineno),
            template=_required(record, "template", lineno),
            predicted_object=_required(record, "prediction", lineno),
            source_id=_required(record, "source_id", lineno),
        )
        if source_id is None:
            source_id = rec.source_id
        elif rec.source_id != source_id:
            raise ParseError(
                f"mixed source_id values: {source_id!r} vs {rec.source_id!r}",
                line=lineno,
            )
        if rec.relation not in known_relations:
            raise ParseError(f"unknown relation {rec.relation!r}", line=lineno)
        if rec.relation not in candidates:
            candidates[rec.relation] = set(kb.candidate_objects(rec.relation))
        if rec.predicted_object not in candidates[rec.relation]:
            raise CandidateViolationError(
                f"line {lineno}: prediction {rec.predicted_object!r} for "
                f"({rec.subject!r}, {rec.relation!r}, {rec.template!r}) is outside "
                f"the relation's candidate set"
            )
        if rec.key in records:
            raise DuplicateKeyError(
                f"line {lineno}: duplicate key {rec.key!r}"
            )
        records[rec.key] = rec
    if source_id is None:
        raise ParseError(f"no prediction records in {path}")
    return PredictionSet(records=records, source_id=source_id)


def save_predictions(predictions, path):
    with open(path, "w", encoding="utf-8") as fh:
        for key in sorted(predictions.records):
            rec = predictions.records[key]
            fh.write(
                json.dumps(
                    {
                        "subject": rec.subject,
                        "relation": rec.relation,
                        "template": rec.template,
                        "prediction": rec.predicted_object,
                        "source_id": rec.source_id,
                    },
                    ensure_ascii=False,
                )
                + "\n"
            )


def _random_index(seed, subject, relation, template, n):
    """Per-query uniform draw, independent of query order.

    Each query derives its own integer from a keyed hash, so generating
    predictions in parallel or in any order yields identical results.
    """
    payload = f"{seed}\x1f{subject}\x1f{relation}\x1f{template}".encode("utf-8")
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return int.from_bytes(digest, "big") % n


def baseline_predict(kind, kb, stats=None, queries=(), seed=None, utt_fallback="soc"):
    """Generate control-baseline predictions for the given cloze keys.

    Kinds: ``heuristic-soc`` predicts the subject's most co-occurring
    candidate; ``heuristic-poc`` the template's most co-occurring
    candidate; ``heuristic-utt`` the object whose instantiated utterance
    is stored (falling back per `utt_fallback`: "soc" for the soc argmax,
    "first" for the lexicographically first candidate); ``perfect`` the
    KB object; ``random`` a seed-reproducible uniform candidate.
    """
    if kind not in BASELINE_KINDS:
        raise ValueError(f"unknown baseline kind: {kind!r}")
    if kind == "random" and seed is None:
        raise ValueError("random baseline requires a seed")
    if kind.startswith("heuristic") and stats is None:
        raise MissingStatsError(f"{kind} requires a corpus index")
    if utt_fallback not in ("soc", "first"):
        raise ValueError(f"unknown utt fallback: {utt_fallback!r}")

    source_id = f"random:{seed}" if kind == "random" else kind
    records = {}
    candidate_cache = {}
    for subject, relation, template in queries:
        key = (subject, relation, template)
        if key in records:
            continue
        if relation not in candidate_cache:
            candidate_cache[relation] = kb.candidate_objects(relation)
        candidates = candidate_cache[relation]
        if not candidates:
            raise EmptyCandidateSetError(f"relation {relation!r} has no candidates")

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
            predicted = argmax_object(stats.soc_counts(subject, candidates))
        elif kind == "heuristic-poc":
            predicted = argmax_object(stats.poc_counts(template, candidates))
        else:  # heuristic-utt
            present = [
                o
                for o in candidates
                if stats.utterance_present(instantiate(template, subject, o))
            ]
            if present:
                predicted = present[0]
            elif utt_fallback == "soc":
                predicted = argmax_object(stats.soc_counts(subject, candidates))
            else:
                predicted = candidates[0]
        records[key] = PredictionRecord(
            subject=subject,
            relation=relation,
            template=template,
            predicted_object=predicted,
            source_id=source_id,
        )
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
