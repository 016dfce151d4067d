r"""Corpus indexing and the co-occurrence statistics derived from it.

The index stores normalized sentences plus a token-level inverted index.
Entity postings are resolved lazily. A surface that is one ``\w+`` token
reads that token's postings directly: the index tokenises with the same
``\w+``, so they are exactly its word-boundary matches. A multi-token
surface intersects its tokens' postings to get candidate sentences (the
hot kernel), then a word-boundary regex verifies the surface string. A
poc row prefilters on the template's literal tokens, once, and on each
object's remaining tokens the same way, then tests each candidate for
the literal prefix and suffix around the [X] wildcard.

The index memoises what it counts: entity postings, and the soc and poc
count matrices of a relation's subjects and templates x its candidates,
each poc row on its own, so that every matrix over it shares it (a single
`soc_count` or `poc_count` call is not memoised). Postings are keyed by
the caller's text, normalised on first sight only. A `RelationView` is
all that the population builders and the heuristic baselines read of a
relation. A saved index is a sealed file (`write_sealed`, `unseal`),
checked whole when it is loaded; its sentence list, sentence set and
postings dict are made when first read. Every file the library writes
lands whole or not at all (`landing`).

Conventions, fixed for determinism:
  - sentences split on newlines, then on ``.!?`` followed by whitespace;
  - whitespace runs collapse to single spaces, nothing else is altered;
  - entity matching is exact, case-sensitive, at word boundaries;
  - a sentence contributes at most 1 to any pair count.
"""

import contextlib
import functools
import hashlib
import os
import re
import stat
import struct
from functools import cached_property
from pathlib import Path

import numpy as np

from . import kernels
from .errors import (
    EmptyCandidateSetError,
    EncodingError,
    IoFailureError,
    MalformedPatternError,
)

_MAGIC = b"CCIDX002"
_DIGEST_SIZE = 16
_WORD_RE = re.compile(r"\w+")
_SENTENCE_SPLIT_RE = re.compile(r"(?<=[.!?])\s+")
_SLOT_RE = re.compile(r"(\[X\]|\[Y\])")

#: Count-bin boundaries: [0,1] XS, (1,10] S, (10,100] M, (100,1000] L, (1000,inf) XL.
BIN_EDGES = (1, 10, 100, 1000)
BIN_LABELS = ("XS", "S", "M", "L", "XL")


def normalize_text(text):
    """Collapse whitespace runs to single spaces and strip the ends."""
    return " ".join(text.split())


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


def ranked_objects(counts):
    """Objects sorted by descending count, lexicographic within ties."""
    if not counts:
        raise EmptyCandidateSetError("ranking an empty candidate mapping")
    return sorted(counts, key=lambda obj: (-counts[obj], obj))


def ranked_columns(counts):
    """Each row's column indices in `ranked_objects` order, for columns in text order.

    Descending count, then column index, which is then text order: a
    stable sort of the negated counts.
    """
    return np.argsort(-counts, axis=-1, kind="stable")


@functools.lru_cache(maxsize=4096)
def template_parts(template):
    """Split a template around its slots.

    Returns (pieces, slots) where pieces has three literal segments and
    slots is the two slot names in textual order. Raises
    MalformedPatternError unless exactly one [X] and one [Y] are present.
    Memoised on the template string; a malformed template raises on
    every call, since a raised call is never cached.
    """
    segments = _SLOT_RE.split(template)
    # the split pattern is one group, so literals and slots alternate
    pieces, slots = segments[0::2], segments[1::2]
    if sorted(slots) != ["[X]", "[Y]"]:
        raise MalformedPatternError(
            f"template must contain exactly one [X] and one [Y]: {template!r}"
        )
    return tuple(pieces), tuple(slots)


def _forms(texts):
    """Whether each of `texts` is in normal form, and whether it is not blank: two bool arrays.

    A text is in normal form if it is not blank and `normalize_text`
    leaves it as it is, and blank if `normalize_text` leaves nothing of
    it. A template in normal form with both slots filled by values in
    normal form is in normal form too: its only whitespace is single
    spaces, the template's own were neither doubled nor at its ends, and
    each value starts and ends with a non-space, so no two spaces meet
    and none ends the text.
    """
    normal = list(map(normalize_text, texts))
    filled = np.array([n != "" for n in normal], np.bool_)
    return filled & np.array([n == x for n, x in zip(normal, texts)], np.bool_), filled


def _slots_apart(pieces):
    """Whether a template's `pieces` (`template_parts`) keep each slot apart from words.

    They do if a non-word character or the text's edge is on either side
    of each slot, and so not the other slot.
    """
    head, mid, tail = pieces
    return bool(mid) and not any(map(_WORD_RE.match, (head[-1:], mid[:1], mid[-1:], tail[:1])))


def split_around(template, slot, value):
    """The raw text on either side of `slot`, the other slot filled by `value`.

    Returns (left, right) such that ``normalize_text(left + v + right)``
    is the template instantiated with `v` in `slot` and `value` in the
    other slot.
    """
    pieces, slots = template_parts(template)
    if slot not in slots:
        raise ValueError(f"unknown slot: {slot!r}")
    if slots[0] == slot:
        return pieces[0], pieces[1] + value + pieces[2]
    return pieces[0] + value + pieces[1], pieces[2]


def instantiate(template, subject, obj):
    """Fill [X] with the subject and [Y] with the object (or a mask token).

    Values are spliced between the template's literal pieces, so slot
    markers inside the values themselves stay inert.
    """
    left, right = split_around(template, "[Y]", subject)
    return normalize_text(left + obj + right)


def _blake2b(data=b""):
    return hashlib.blake2b(data, digest_size=_DIGEST_SIZE)


@contextlib.contextmanager
def landing(path, mode="w"):
    """An open file (UTF-8 text, or bytes with ``mode="wb"``) that lands at `path` whole.

    A regular file, or a new one, is written under a temporary name
    beside the file `path` resolves to, and renamed into place, with the
    old file's permission bits, when the block ends: a reader sees the
    old file or the whole new one, a symlink at `path` keeps pointing at
    it, and a block that raises leaves no trace. Anything else, a FIFO
    or a device, is written in place. A file that cannot be opened fails
    as opening `path` itself would, naming `path`. Nothing is fsynced:
    a file lands whole if the process fails, not if the machine does.
    """
    encoding = None if "b" in mode else "utf-8"
    try:
        old_mode = os.stat(path).st_mode
    except OSError:  # no file yet; opening the temporary file names any other fault
        old_mode = None
    if old_mode is not None and not stat.S_ISREG(old_mode):
        with open(path, mode, encoding=encoding) as fh:
            yield fh
        return
    target = Path(os.path.realpath(path) if os.path.islink(path) else path)
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        fh = open(tmp, mode, encoding=encoding)
    except OSError as exc:
        raise type(exc)(exc.errno, exc.strerror, os.fspath(path)) from None
    try:
        with fh:
            yield fh
        if old_mode is not None:
            os.chmod(tmp, stat.S_IMODE(old_mode))
        os.replace(tmp, target)
    finally:
        tmp.unlink(missing_ok=True)


def write_sealed(path, magic, chunks):
    """Write `magic`, a blake2b digest of the body, then the body: the byte `chunks`.

    The chunks are digested as they stream to the file (`landing`), and
    the magic and digest go in last.
    """
    digest = _blake2b()
    with landing(path, "wb") as fh:
        fh.write(bytes(len(magic) + _DIGEST_SIZE))
        for chunk in chunks:
            digest.update(chunk)
            fh.write(chunk)
        fh.seek(0)
        fh.write(magic + digest.digest())


def unseal(blob, magic):
    """The ``(body, digest)`` of the bytes of a `write_sealed` file; body is a memoryview.

    Raises `ValueError` unless `blob` starts with `magic` and its digest matches.
    """
    start = len(magic) + _DIGEST_SIZE
    if blob[: len(magic)] != magic:
        raise ValueError(f"the file does not start with {magic.decode()}")
    body = memoryview(blob)[start:]
    digest = _blake2b(body).digest()
    if blob[len(magic) : start] != digest:
        raise ValueError("the digest does not match the contents")
    return body, digest


class CorpusIndex:
    """Immutable sentence index with lazy entity postings and count caches.

    `sentence_set` holds the sentences, each in normal form, so a text
    known to be normal is tested for membership with no `normalize_text`.
    It, the sentence list and the token postings of an index read back
    by `load` are made the first time something reads them.
    """

    def __init__(self, sentences, token_postings):
        self.sentences = list(sentences)
        self._token_postings = token_postings
        self._init_memos(len(self.sentences))

    def _init_memos(self, size):
        """Start the memos of an index of `size` sentences."""
        self._size = size
        self._entity_cache = {}
        self._soc_matrices = {}
        self._poc_matrices = {}
        self._poc_rows = {}

    def __len__(self):
        return self._size

    @cached_property
    def sentences(self):
        """The sentence list; `__init__` sets it, `load` leaves the checked text to split."""
        text = self.__dict__.pop("_text")
        return text.split("\n") if text else []

    @cached_property
    def _token_postings(self):
        """Token -> its sorted sentence ids; `load` leaves the checked parts to slice."""
        tokens, flat, offsets = self.__dict__.pop("_posting_parts")
        bounds = offsets.tolist()
        return {tok: flat[a:b] for tok, a, b in zip(tokens, bounds, bounds[1:])}

    sentence_set = cached_property(lambda self: frozenset(self.sentences))

    # --- membership and counting -----------------------------------------

    def utterance_present(self, utterance):
        """Exact membership of the normalized utterance among sentences."""
        return normalize_text(utterance) in self.sentence_set

    def _candidates_for_tokens(self, tokens, ids=None):
        """Sentence ids containing every token, rarest-first intersection.

        Starts from `ids` when given. Equal posting lengths are ordered by
        token, so which intersections run (the loop stops at the first
        empty result) does not depend on string hashing.
        """
        postings = {}
        for tok in set(tokens):
            arr = self._token_postings.get(tok)
            if arr is None:
                return np.empty(0, dtype=np.int32)
            postings[tok] = arr
        order = sorted(postings, key=lambda tok: (len(postings[tok]), tok))
        if ids is None:
            if not order:
                return np.arange(len(self), dtype=np.int32)
            ids, order = postings[order[0]], order[1:]
        for tok in order:
            if len(ids) == 0:
                break
            ids = kernels.intersect_sorted(ids, postings[tok])
        return ids

    def entity_postings(self, surface):
        """Sorted ids of sentences containing the surface string.

        Containment is exact and case-sensitive at word boundaries
        (``Paris`` does not match inside ``Parisian``).
        """
        ids = self._entity_cache.get(surface)
        if ids is not None:
            return ids
        key = normalize_text(surface)
        if key not in self._entity_cache:
            tokens = _WORD_RE.findall(key)
            if tokens == [key]:
                # a whole token matches exactly where the index found the token
                ids = np.asarray(self._token_postings.get(key, ()), dtype=np.int32)
            elif not key:
                ids = np.empty(0, dtype=np.int32)
            else:
                candidates = self._candidates_for_tokens(tokens)
                rx = re.compile(r"(?<!\w)" + re.escape(key) + r"(?!\w)")
                ids = np.asarray(
                    [i for i in candidates.tolist() if rx.search(self.sentences[i])],
                    dtype=np.int32,
                )
            self._entity_cache[key] = ids
        self._entity_cache[surface] = self._entity_cache[key]
        return self._entity_cache[key]

    def soc_count(self, subject, obj):
        """Number of sentences mentioning both surface strings."""
        a = self.entity_postings(subject)
        b = self.entity_postings(obj)
        return int(kernels.intersect_count(a, b))

    def soc_matrix(self, subjects, objects):
        """The memoised soc counts of `subjects` x `objects`, a read-only int32 array.

        Entry (i, j) is ``soc_count(subjects[i], objects[j])``. The objects'
        postings are concatenated once, each offset by its column times the
        sentence count, so that they stay sorted; a subject's postings,
        shifted by every column's offset, are then searched in them at
        once, and a row-sum of the hits is the subject's row. Raises
        `EmptyCandidateSetError` on an empty object set.
        """
        key = (tuple(subjects), tuple(objects))
        matrix = self._soc_matrices.get(key)
        if matrix is not None:
            return matrix
        subjects, objects = key
        if not objects:
            raise EmptyCandidateSetError("counting over an empty candidate set")
        offsets = np.arange(len(objects), dtype=np.int64)[:, None] * len(self)
        flat = np.concatenate([
            offset + postings
            for offset, postings in zip(offsets, map(self.entity_postings, objects))
        ])
        matrix = np.zeros((len(subjects), len(objects)), dtype=np.int32)
        if len(flat):
            for row, subject in zip(matrix, subjects):
                probes = offsets + self.entity_postings(subject)
                # as in `kernels`: a probe past the end reads the last element
                row[:] = (flat.take(flat.searchsorted(probes), mode="clip") == probes).sum(1)
        matrix.flags.writeable = False
        self._soc_matrices[key] = matrix
        return matrix

    def poc_matrix(self, templates, objects):
        """The memoised poc counts of `templates` x `objects`, a read-only int32 array.

        Entry (i, j) is ``poc_count(templates[i], objects[j])``. Each row is
        counted once per (template, objects) and memoised on its own, so a
        matrix over other templates shares the rows it has in common with
        this one. Raises `EmptyCandidateSetError` on an empty object set.
        """
        key = (tuple(templates), tuple(objects))
        matrix = self._poc_matrices.get(key)
        if matrix is not None:
            return matrix
        templates, objects = key
        if not objects:
            raise EmptyCandidateSetError("counting over an empty candidate set")
        matrix = np.zeros((len(templates), len(objects)), dtype=np.int32)
        for row, template in zip(matrix, templates):
            if (template, objects) not in self._poc_rows:
                self._poc_rows[template, objects] = self._poc_row(template, objects)
            row[:] = self._poc_rows[template, objects]
        matrix.flags.writeable = False
        self._poc_matrices[key] = matrix
        return matrix

    def poc_count(self, template, obj):
        """Sentences matching the template with [Y]=object and [X] wildcarded.

        The wildcard covers any non-empty span within one sentence; the
        instantiated template must match the whole sentence.
        """
        return int(self._poc_row(template, (obj,))[0])

    def _poc_row(self, template, objects):
        """``poc_count(template, o)`` for each of `objects`, an int32 array.

        A literal word that touches neither slot is a whole token of any
        sentence that matches, so the sentences holding all such words are
        found once; each object then intersects only its remaining tokens.
        """
        template = normalize_text(template)
        pieces, _ = template_parts(template)
        literal = {
            m.group() for k, piece in enumerate(pieces) for m in _WORD_RE.finditer(piece)
            if (k == 0 or m.start() > 0) and (k == 2 or m.end() < len(piece))
        }
        shared = self._candidates_for_tokens(literal)
        row = np.zeros(len(objects), dtype=np.int32)
        for j, obj in enumerate(objects):
            left, right = split_around(template, "[X]", normalize_text(obj))
            # A word of a run is a whole sentence token unless it touches [X],
            # where the wildcard may extend it.
            tokens = {m.group() for m in _WORD_RE.finditer(left) if m.end() < len(left)}
            tokens.update(m.group() for m in _WORD_RE.finditer(right) if m.start() > 0)
            candidates = self._candidates_for_tokens(tokens - literal, shared)
            # the same test as fullmatch(left + "(.+)" + right): "." stops at "\n"
            head, tail = len(left), len(right)
            count = 0
            for i in candidates.tolist():
                s = self.sentences[i]
                if (
                    len(s) > head + tail
                    and s.startswith(left)
                    and s.endswith(right)
                    and "\n" not in s[head : len(s) - tail]
                ):
                    count += 1
            row[j] = count
        return row

    # --- persistence -------------------------------------------------------

    def _body(self):
        """The chunks of the saved form's body: counts, text blocks, postings."""
        tokens = sorted(self._token_postings)
        arrays = [self._token_postings[tok] for tok in tokens]
        offsets = np.cumsum([0, *map(len, arrays)], dtype=np.int64)
        flat = np.concatenate([np.empty(0, dtype=np.int32), *arrays]).astype(np.int32)
        sent_blob = "\n".join(self.sentences).encode("utf-8")
        tok_blob = "\n".join(tokens).encode("utf-8")
        return [
            struct.pack("<IQ", len(self.sentences), len(sent_blob)),
            sent_blob,
            struct.pack("<IQ", len(tokens), len(tok_blob)),
            tok_blob,
            offsets.tobytes(),
            flat.tobytes(),
        ]

    @functools.cached_property
    def digest(self):
        """The body digest: set by `load` from the file, else of what `save` would write."""
        digest = _blake2b()
        for chunk in self._body():
            digest.update(chunk)
        return digest.digest()

    def save(self, path):
        """Write the index as a sealed file: magic, digest, then the body."""
        try:
            write_sealed(path, _MAGIC, self._body())
        except OSError as exc:
            raise IoFailureError(f"cannot write index to {path}: {exc}") from exc

    @classmethod
    def load(cls, path):
        """Read a saved index back, checking its seal and its whole structure.

        A corrupt file raises here, whatever a run later reads of it.
        """
        try:
            blob = Path(path).read_bytes()
        except OSError as exc:
            raise IoFailureError(f"cannot read index from {path}: {exc}") from exc
        if blob.startswith(b"CCIDX001"):
            raise IoFailureError(f"{path} is a version-1 index: re-run `corpuscausal index`")

        def corrupt(what):
            return IoFailureError(f"corrupt index structure in {path}: {what}")

        try:
            body, digest = unseal(blob, _MAGIC)
        except ValueError as exc:
            raise corrupt(exc) from None
        header = struct.Struct("<IQ")
        blocks = []
        pos = 0
        for _ in range(2):
            if pos + header.size > len(body):
                raise corrupt("header past the end of the file")
            count, length = header.unpack_from(body, pos)
            pos += header.size
            if pos + length > len(body):
                raise corrupt("text block past the end of the file")
            blocks.append((count, body[pos : pos + length]))
            pos += length
        (n_sent, sent_blob), (n_tok, tok_blob) = blocks
        offsets_size = (n_tok + 1) * 8
        if pos + offsets_size > len(body):
            raise corrupt("posting offsets past the end of the file")
        # copies, so that nothing the index keeps holds the file's bytes alive
        offsets = np.frombuffer(body, dtype=np.int64, count=n_tok + 1, offset=pos).copy()
        pos += offsets_size
        if offsets[0] != 0 or np.any(offsets[1:] < offsets[:-1]):
            raise corrupt("posting offsets do not start at 0 and rise")
        if len(body) - pos != int(offsets[-1]) * 4:
            raise corrupt("postings do not end where the file ends")
        flat = np.frombuffer(body, dtype=np.int32, offset=pos).copy()
        try:
            text = str(sent_blob, "utf-8")
            tokens = str(tok_blob, "utf-8").split("\n") if tok_blob else []
        except UnicodeDecodeError as exc:
            raise EncodingError(f"corrupt index text block in {path}") from exc
        # each newline is one 0x0a byte in UTF-8; numpy counts them 10x faster than str.count
        lines = np.count_nonzero(np.frombuffer(sent_blob, np.uint8) == 10) + 1 if text else 0
        if lines != n_sent or len(tokens) != n_tok:
            raise corrupt("entry counts do not match the text blocks")
        if flat.size and not 0 <= flat.min() <= flat.max() < n_sent:
            raise corrupt("a posting is not a sentence")
        # the postings may fall only where a token's postings start
        falls = np.flatnonzero(flat[1:] <= flat[:-1]) + 1
        if not np.array_equal(offsets[offsets.searchsorted(falls)], falls):
            raise corrupt("a token's postings do not strictly rise")
        if not all(map(str.__lt__, tokens, tokens[1:])):
            raise corrupt("the token table does not strictly rise")
        index = cls.__new__(cls)  # `__init__` takes the made objects; these are made on first read
        index._text, index._posting_parts = text, (tokens, flat, offsets)
        index._init_memos(n_sent)
        index.digest = digest
        return index


class RelationView:
    """One relation's subjects, candidates and templates, and the index's counts of them.

    The candidates are in text order (`KnowledgeBase.candidate_objects`
    sorts them), so row i of `soc_ranking` (`poc_ranking`) is subject
    (template) i's candidates in `ranked_objects` order. Each matrix is
    taken from the index when first read.
    """

    def __init__(self, index, name, subjects, candidates, templates=()):
        self.index, self.name = index, name
        self.subjects, self.candidates = tuple(subjects), tuple(candidates)
        self.templates = tuple(templates)

    soc = cached_property(lambda self: self.index.soc_matrix(self.subjects, self.candidates))
    soc_ranking = cached_property(lambda self: ranked_columns(self.soc))
    poc = cached_property(lambda self: self.index.poc_matrix(self.templates, self.candidates))
    poc_ranking = cached_property(lambda self: ranked_columns(self.poc))

    def stored(self, s, o, t):
        """Whether the utterance of each row is stored in the corpus.

        Row k fills template ``templates[t[k]]`` with subject
        ``subjects[s[k]]`` and candidate ``candidates[o[k]]``. Its probe
        is ``left + candidate + right``, with ``left, right =
        split_around(template, "[Y]", subject)``, looked up as it is when
        all three are in normal form, else first normalised (`_forms`).

        A stored utterance names both of its values, so it is stored only
        where their soc count is above 0. A row is read as not stored,
        with no probe, when neither value is blank once normalised, its
        template has a non-word character or the text's edge on either
        side of each slot, and the soc count is 0: each value is then
        whole words of the utterance, where `entity_postings` finds it.
        Every other row is probed; in ``[X]s``, ``x[Y]`` or ``[X][Y]`` a
        value runs into a word, and its utterance may be stored with a
        count of 0. Each probed (subject, template) unit's two sides are
        spliced once, as arrays.
        """
        s, o, t = (np.asarray(a, np.intp) for a in (s, o, t))
        parts = [template_parts(template) for template in self.templates]
        (normal_s, filled_s), (normal_o, filled_o), (normal_t, _) = map(
            _forms, (self.subjects, self.candidates, self.templates))
        apart = np.array([_slots_apart(pieces) for pieces, _ in parts], np.bool_)
        pruned = filled_s[s] & apart[t] & filled_o[o]
        if pruned.any():
            rows = np.flatnonzero(pruned)
            pruned[rows] = self.soc[s[rows], o[rows]] == 0
        found = np.zeros(len(o), np.bool_)
        live = np.flatnonzero(~pruned)
        if not len(live):
            return found
        s, o, t = s[live], o[live], t[live]
        # the units with a live row, and each live row's place among them
        unit = t * len(self.subjects) + s
        units = np.flatnonzero(np.bincount(unit))
        place = np.zeros(units[-1] + 1, np.intp)
        place[units] = np.arange(len(units))
        unit, (ut, us) = place[unit], np.divmod(units, len(self.subjects))
        # a unit's sides, as `split_around(template, "[Y]", subject)` splits them
        head, mid, tail = (np.array(piece, object)[ut] for piece in zip(*(p for p, _ in parts)))
        x_first = np.array([slots[0] == "[X]" for _, slots in parts], np.bool_)[ut]
        value = np.array(self.subjects, object)[us]
        head[x_first] += value[x_first] + mid[x_first]
        tail[~x_first] = mid[~x_first] + value[~x_first] + tail[~x_first]
        probes = (head[unit] + np.array(self.candidates, object)[o] + tail[unit]).tolist()
        for row in np.flatnonzero(~(normal_s[s] & normal_o[o] & normal_t[t])).tolist():
            probes[row] = normalize_text(probes[row])
        found[live] = np.fromiter(map(self.index.sentence_set.__contains__, probes), bool,
                                  len(probes))
        return found


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


def build_index(source):
    """Segment, normalize, and index a corpus."""
    sentences = []
    for line in _read_corpus_lines(source):
        sentences.extend(segment_sentences(line))
    postings = {}
    for sid, sentence in enumerate(sentences):
        for tok in _WORD_RE.findall(sentence):
            lst = postings.setdefault(tok, [])
            if not lst or lst[-1] != sid:
                lst.append(sid)
    return CorpusIndex(
        sentences,
        {tok: np.asarray(lst, dtype=np.int32) for tok, lst in postings.items()},
    )
