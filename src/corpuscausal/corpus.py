"""Corpus indexing and the co-occurrence statistics derived from it.

The index stores normalized sentences plus a token-level inverted index.
Entity postings are resolved lazily: token postings are intersected to
get candidate sentences (the hot kernel), then a word-boundary regex
verifies the surface string. Pair and pattern counts are cached, and so
are the per-subject and per-template count maps over a candidate set, so
each count is computed once per index.

Conventions, fixed for determinism:
  - sentences split on newlines, then on ``.!?`` followed by whitespace;
  - whitespace runs collapse to single spaces, nothing else is altered;
  - entity matching is exact, case-sensitive, at word boundaries;
  - a sentence contributes at most 1 to any pair count.
"""

import re
import struct
from pathlib import Path
from types import MappingProxyType

import numpy as np

from . import kernels
from .errors import (
    EmptyCandidateSetError,
    EncodingError,
    IoFailureError,
    MalformedPatternError,
)

_MAGIC = b"CCIDX001"
_WORD_RE = re.compile(r"\w+")
_SENTENCE_SPLIT_RE = re.compile(r"(?<=[.!?])\s+")
_WS_RE = re.compile(r"\s+")
_SLOT_RE = re.compile(r"(\[X\]|\[Y\])")

#: Count-bin boundaries: [0,1] XS, (1,10] S, (10,100] M, (100,1000] L, (1000,inf) XL.
BIN_EDGES = (1, 10, 100, 1000)
BIN_LABELS = ("XS", "S", "M", "L", "XL")


def normalize_text(text):
    """Collapse whitespace runs to single spaces and strip the ends."""
    return _WS_RE.sub(" ", text).strip()


def segment_sentences(text):
    """Split text into sentences: newlines first, then ``.!?`` + whitespace."""
    sentences = []
    for line in text.splitlines():
        for piece in _SENTENCE_SPLIT_RE.split(line):
            piece = normalize_text(piece)
            if piece:
                sentences.append(piece)
    return sentences


def bin_count(n, edges=BIN_EDGES):
    """Map a nonnegative count onto its size-bin label."""
    if n < 0:
        raise ValueError("counts are nonnegative")
    for label, edge in zip(BIN_LABELS, edges):
        if n <= edge:
            return label
    return BIN_LABELS[len(edges)]


def argmax_object(counts):
    """Object with the maximal count; ties broken lexicographically."""
    if not counts:
        raise EmptyCandidateSetError("argmax over an empty candidate mapping")
    return min(counts, key=lambda obj: (-counts[obj], obj))


def ranked_objects(counts):
    """Objects sorted by descending count, lexicographic within ties."""
    if not counts:
        raise EmptyCandidateSetError("ranking an empty candidate mapping")
    return sorted(counts, key=lambda obj: (-counts[obj], obj))


def template_parts(template):
    """Split a template around its slots.

    Returns (pieces, slots) where pieces has three literal segments and
    slots is the two slot names in textual order. Raises
    MalformedPatternError unless exactly one [X] and one [Y] are present.
    """
    segments = _SLOT_RE.split(template)
    slots = [s for s in segments if s in ("[X]", "[Y]")]
    if sorted(slots) != ["[X]", "[Y]"]:
        raise MalformedPatternError(
            f"template must contain exactly one [X] and one [Y]: {template!r}"
        )
    pieces = []
    current = []
    for seg in segments:
        if seg in ("[X]", "[Y]"):
            pieces.append("".join(current))
            current = []
        else:
            current.append(seg)
    pieces.append("".join(current))
    return tuple(pieces), tuple(slots)


def instantiate(template, subject, obj):
    """Fill [X] with the subject and [Y] with the object (or a mask token).

    Values are spliced between the template's literal pieces, so slot
    markers inside the values themselves stay inert.
    """
    pieces, slots = template_parts(template)
    values = {"[X]": subject, "[Y]": obj}
    return normalize_text(
        pieces[0] + values[slots[0]] + pieces[1] + values[slots[1]] + pieces[2]
    )


class CorpusIndex:
    """Immutable sentence index with lazy entity postings and count caches."""

    def __init__(self, sentences, token_postings):
        self.sentences = list(sentences)
        self._sentence_set = set(self.sentences)
        self._token_postings = token_postings
        self._entity_cache = {}
        self._pair_cache = {}
        self._pattern_cache = {}
        self._soc_maps = {}
        self._poc_maps = {}

    def __len__(self):
        return len(self.sentences)

    # --- membership and counting -----------------------------------------

    def utterance_present(self, utterance):
        """Exact membership of the normalized utterance among sentences."""
        return normalize_text(utterance) in self._sentence_set

    def _all_ids(self):
        return np.arange(len(self.sentences), dtype=np.int32)

    def _candidates_for_tokens(self, tokens):
        """Sentence ids containing every token, rarest-first intersection.

        Equal posting lengths are ordered by token, so which intersections
        run (the loop stops at the first empty result) does not depend on
        string hashing.
        """
        postings = {}
        for tok in set(tokens):
            arr = self._token_postings.get(tok)
            if arr is None:
                return np.empty(0, dtype=np.int32)
            postings[tok] = arr
        if not postings:
            return self._all_ids()
        order = sorted(postings, key=lambda tok: (len(postings[tok]), tok))
        out = postings[order[0]]
        for tok in order[1:]:
            out = kernels.intersect_sorted(out, postings[tok])
            if len(out) == 0:
                break
        return out

    def entity_postings(self, surface):
        """Sorted ids of sentences containing the surface string.

        Containment is exact and case-sensitive at word boundaries
        (``Paris`` does not match inside ``Parisian``).
        """
        surface = normalize_text(surface)
        cached = self._entity_cache.get(surface)
        if cached is not None:
            return cached
        if not surface:
            ids = np.empty(0, dtype=np.int32)
            self._entity_cache[surface] = ids
            return ids
        candidates = self._candidates_for_tokens(_WORD_RE.findall(surface))
        rx = re.compile(r"(?<!\w)" + re.escape(surface) + r"(?!\w)")
        ids = np.asarray(
            [i for i in candidates.tolist() if rx.search(self.sentences[i])],
            dtype=np.int32,
        )
        self._entity_cache[surface] = ids
        return ids

    def entity_sentence_count(self, surface):
        return int(len(self.entity_postings(surface)))

    def soc_count(self, subject, obj):
        """Number of sentences mentioning both surface strings."""
        a = normalize_text(subject)
        b = normalize_text(obj)
        key = (a, b) if a <= b else (b, a)
        cached = self._pair_cache.get(key)
        if cached is not None:
            return cached
        count = int(
            kernels.intersect_count(self.entity_postings(a), self.entity_postings(b))
        )
        self._pair_cache[key] = count
        return count

    def soc_counts(self, subject, objects):
        """``{object: soc_count(subject, object)}`` over a candidate tuple.

        Memoised per (subject, objects), so callers that rank the same
        candidates again get the same mapping back without recounting.
        The mapping is read-only because every caller shares it.
        """
        return self._count_map(self._soc_maps, self.soc_count, subject, objects)

    def poc_counts(self, template, objects):
        """``{object: poc_count(template, object)}`` over a candidate tuple.

        Memoised per (template, objects), like `soc_counts`.
        """
        return self._count_map(self._poc_maps, self.poc_count, template, objects)

    @staticmethod
    def _count_map(maps, count, first, objects):
        objects = tuple(objects)
        key = (normalize_text(first), objects)
        cached = maps.get(key)
        if cached is None:
            cached = MappingProxyType({o: count(first, o) for o in objects})
            maps[key] = cached
        return cached

    def poc_count(self, template, obj):
        """Sentences matching the template with [Y]=object and [X] wildcarded.

        The wildcard covers any non-empty span within one sentence; the
        instantiated template must match the whole sentence.
        """
        template = normalize_text(template)
        obj = normalize_text(obj)
        key = (template, obj)
        cached = self._pattern_cache.get(key)
        if cached is not None:
            return cached
        pieces, slots = template_parts(template)
        rendered = []
        literal_tokens = []
        for piece, slot in zip(pieces, slots + ("",)):
            rendered.append(re.escape(piece))
            literal_tokens.extend(_WORD_RE.findall(piece))
            if slot == "[X]":
                rendered.append("(.+)")
            elif slot == "[Y]":
                rendered.append(re.escape(obj))
                literal_tokens.extend(_WORD_RE.findall(obj))
        rx = re.compile("".join(rendered))
        candidates = self._candidates_for_tokens(literal_tokens)
        count = sum(
            1 for i in candidates.tolist() if rx.fullmatch(self.sentences[i])
        )
        self._pattern_cache[key] = count
        return count

    # --- persistence -------------------------------------------------------

    def save(self, path):
        """Write the index in the versioned binary format."""
        tokens = sorted(self._token_postings)
        offsets = np.zeros(len(tokens) + 1, dtype=np.int64)
        chunks = []
        for i, tok in enumerate(tokens):
            arr = self._token_postings[tok]
            offsets[i + 1] = offsets[i] + len(arr)
            chunks.append(arr)
        flat = (
            np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int32)
        ).astype(np.int32)
        sent_blob = "\n".join(self.sentences).encode("utf-8")
        tok_blob = "\n".join(tokens).encode("utf-8")
        try:
            with open(path, "wb") as fh:
                fh.write(_MAGIC)
                fh.write(struct.pack("<IQ", len(self.sentences), len(sent_blob)))
                fh.write(sent_blob)
                fh.write(struct.pack("<IQ", len(tokens), len(tok_blob)))
                fh.write(tok_blob)
                fh.write(offsets.tobytes())
                fh.write(flat.tobytes())
        except OSError as exc:
            raise IoFailureError(f"cannot write index to {path}: {exc}") from exc

    @classmethod
    def load(cls, path):
        try:
            with open(path, "rb") as fh:
                blob = fh.read()
        except OSError as exc:
            raise IoFailureError(f"cannot read index from {path}: {exc}") from exc
        if blob[: len(_MAGIC)] != _MAGIC:
            raise IoFailureError(f"{path} is not a corpus index (bad magic/version)")
        pos = len(_MAGIC)
        n_sent, sent_len = struct.unpack_from("<IQ", blob, pos)
        pos += struct.calcsize("<IQ")
        sent_blob = blob[pos : pos + sent_len]
        pos += sent_len
        n_tok, tok_len = struct.unpack_from("<IQ", blob, pos)
        pos += struct.calcsize("<IQ")
        tok_blob = blob[pos : pos + tok_len]
        pos += tok_len
        offsets = np.frombuffer(blob, dtype=np.int64, count=n_tok + 1, offset=pos)
        pos += offsets.nbytes
        flat = np.frombuffer(blob, dtype=np.int32, offset=pos)
        try:
            sentences = sent_blob.decode("utf-8").split("\n") if n_sent else []
            tokens = tok_blob.decode("utf-8").split("\n") if n_tok else []
        except UnicodeDecodeError as exc:
            raise EncodingError(f"corrupt index text block in {path}") from exc
        if len(sentences) != n_sent or len(tokens) != n_tok:
            raise IoFailureError(f"corrupt index structure in {path}")
        postings = {
            tok: flat[offsets[i] : offsets[i + 1]].copy()
            for i, tok in enumerate(tokens)
        }
        return cls(sentences, postings)


def _read_corpus_lines(source):
    """Yield text lines from a path (file or directory of files) or iterable."""
    if isinstance(source, (str, Path)):
        path = Path(source)
        try:
            if path.is_dir():
                for child in sorted(p for p in path.iterdir() if p.is_file()):
                    with open(child, encoding="utf-8") as fh:
                        yield from fh
            else:
                with open(path, encoding="utf-8") as fh:
                    yield from fh
        except OSError as exc:
            raise IoFailureError(f"cannot read corpus from {source}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise EncodingError(f"corpus at {source} is not valid UTF-8") from exc
    else:
        yield from source


def _postings_from_sentences(sentences, base_id=0):
    postings = {}
    for sid, sentence in enumerate(sentences, start=base_id):
        for tok in _WORD_RE.findall(sentence):
            lst = postings.setdefault(tok, [])
            if not lst or lst[-1] != sid:
                lst.append(sid)
    return postings


def _merge_postings(parts):
    merged = {}
    for part in parts:
        for tok, lst in part.items():
            merged.setdefault(tok, []).extend(lst)
    return {
        tok: np.asarray(lst, dtype=np.int32) for tok, lst in merged.items()
    }


def build_index(source, shards=1):
    """Segment, normalize, and index a corpus.

    `shards` splits the sentence stream into contiguous chunks indexed
    independently and merged; the result is identical to sequential
    construction (merging is associative, ids are global).
    """
    sentences = []
    for line in _read_corpus_lines(source):
        sentences.extend(segment_sentences(line))
    if shards <= 1:
        parts = [_postings_from_sentences(sentences)]
    else:
        size = max(1, -(-len(sentences) // shards))
        parts = [
            _postings_from_sentences(sentences[i : i + size], base_id=i)
            for i in range(0, max(len(sentences), 1), size)
        ]
    return CorpusIndex(sentences, _merge_postings(parts))
