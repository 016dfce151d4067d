"""Knowledge-base triplets, relation patterns, and anti-patterns.

Both inputs are UTF-8 JSON-lines files: triplet records carry
``subject``/``relation``/``object``; pattern records carry
``relation``/``template``/``is_anti``. Anti-patterns are ordinary input
records flagged true, not a bundled resource.
"""

import json
from dataclasses import dataclass, field
from operator import itemgetter

from .corpus import normalize_text, template_parts
from .errors import (
    EmptyKbError,
    EncodingError,
    MalformedPatternError,
    ParseError,
    UnknownRelationError,
)


@dataclass(frozen=True, order=True)
class Triplet:
    subject: str
    relation: str
    object: str


@dataclass(frozen=True, order=True)
class PatternSpec:
    relation: str
    template: str
    is_anti: bool = False


@dataclass(frozen=True)
class KnowledgeBase:
    """Triplets and patterns, indexed once by relation and by subject.

    Repeated triplets and patterns are dropped, the first one kept. Lookups
    return the tuples built at construction, shared by every caller.
    """

    triplets: tuple
    patterns: tuple
    relations: tuple = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "triplets", tuple(dict.fromkeys(self.triplets)))
        object.__setattr__(self, "patterns", tuple(dict.fromkeys(self.patterns)))
        relations = tuple(sorted({t.relation for t in self.triplets}))
        object.__setattr__(self, "relations", relations)
        subjects = {r: set() for r in relations}
        candidates = {r: set() for r in relations}
        objects = {}
        for t in self.triplets:
            subjects[t.relation].add(t.subject)
            candidates[t.relation].add(t.object)
            objects.setdefault((t.subject, t.relation), set()).add(t.object)
        paraphrases = {r: [] for r in relations}
        anti_patterns = {r: [] for r in relations}
        for pat in self.patterns:
            if pat.relation not in paraphrases:
                raise UnknownRelationError(
                    f"pattern relation {pat.relation!r} has no triplets"
                )
            (anti_patterns if pat.is_anti else paraphrases)[pat.relation].append(pat)
        missing = [r for r in relations if not paraphrases[r]]
        if missing:
            raise UnknownRelationError(
                f"relations without a non-anti pattern: {missing}"
            )
        for name, index in (
            ("_subjects", {r: tuple(sorted(v)) for r, v in subjects.items()}),
            ("_candidates", {r: tuple(sorted(v)) for r, v in candidates.items()}),
            ("_objects", {k: tuple(sorted(v)) for k, v in objects.items()}),
            ("_paraphrases", {r: tuple(v) for r, v in paraphrases.items()}),
            ("_anti_patterns", {r: tuple(v) for r, v in anti_patterns.items()}),
        ):
            object.__setattr__(self, name, index)

    def _of_relation(self, index, relation):
        if relation not in index:
            raise UnknownRelationError(f"unknown relation: {relation!r}")
        return index[relation]

    def candidate_objects(self, relation):
        """Gold objects of a relation (the type-preserving candidate set)."""
        return self._of_relation(self._candidates, relation)

    def subjects(self, relation):
        return self._of_relation(self._subjects, relation)

    def objects_of(self, subject, relation):
        """Gold objects recorded for one subject under one relation."""
        return self._objects.get((subject, relation), ())

    def paraphrases(self, relation):
        return self._paraphrases.get(relation, ())

    def anti_patterns(self, relation):
        return self._anti_patterns.get(relation, ())


#: Decodes one JSON value at the start of a string; `json.loads` adds two
#: Python calls per line around it.
_decode = json.JSONDecoder().raw_decode


class _Normalised(dict):
    """Raw field string -> normalised value, each distinct string checked once.

    A value `_required` would reject is never stored; looking it up raises
    `KeyError`, and the reader lets `_required` name the error.
    """

    def __missing__(self, raw):
        if not isinstance(raw, str) or not raw.strip():
            raise KeyError(raw)
        value = self[raw] = normalize_text(raw)
        return value


def _jsonl_records(path, fields, normal=None):
    """Yield (line number, record, values) per record of a JSON-lines file.

    `values` are the record's required string `fields` (two or more),
    normalised through `normal`, a `_Normalised` memo that the files of a
    run may share (by default the file's own): each distinct raw string
    is checked and normalised once.
    """
    normalised = (_Normalised() if normal is None else normal).__getitem__
    raw_fields = itemgetter(*fields)
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line:
                    continue
                try:
                    record, end = _decode(line)
                    if end != len(line):
                        raise ValueError("extra data")
                except ValueError:
                    try:  # json.loads names the error
                        record = json.loads(line)
                    except json.JSONDecodeError as exc:
                        raise ParseError(
                            f"invalid JSON record: {exc.msg}", line=lineno
                        ) from exc
                if not isinstance(record, dict):
                    raise ParseError("record must be a JSON object", line=lineno)
                try:
                    values = tuple(map(normalised, raw_fields(record)))
                except (KeyError, TypeError):  # a field missing, unhashable or rejected
                    values = tuple(_required(record, key, lineno) for key in fields)
                yield lineno, record, values
    except UnicodeDecodeError as exc:
        raise EncodingError(f"{path} is not valid UTF-8") from exc


def _required(record, key, lineno):
    if key not in record:
        raise ParseError(f"missing field {key!r}", line=lineno)
    value = record[key]
    if not isinstance(value, str) or not value.strip():
        raise ParseError(f"field {key!r} must be a non-empty string", line=lineno)
    return normalize_text(value)


def load_kb(path):
    """Load the triplet records as a tuple, in file order (`KnowledgeBase` drops repeats)."""
    records = _jsonl_records(path, ("subject", "relation", "object"))
    triplets = tuple(Triplet(*values) for _, _, values in records)
    if not triplets:
        raise EmptyKbError(f"no triplets found in {path}")
    return triplets


def load_patterns(path):
    """Load pattern records in file order, validating both slots in every template.

    `KnowledgeBase` drops repeats.
    """
    patterns = []
    for lineno, record, (relation, template) in _jsonl_records(path, ("relation", "template")):
        try:
            template_parts(template)
        except MalformedPatternError as exc:
            raise MalformedPatternError(f"line {lineno}: {exc}") from exc
        is_anti = record.get("is_anti", False)
        if not isinstance(is_anti, bool):
            raise ParseError("field 'is_anti' must be a boolean", line=lineno)
        patterns.append(PatternSpec(relation=relation, template=template, is_anti=is_anti))
    return tuple(patterns)


def load_knowledge_base(triplet_path, pattern_path):
    """Assemble a validated KnowledgeBase from the two input files."""
    return KnowledgeBase(load_kb(triplet_path), load_patterns(pattern_path))

