"""Indexing, membership, co-occurrence counts, binning, persistence."""

import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpuscausal
from corpuscausal import kernels
from corpuscausal.corpus import (
    BIN_LABELS,
    CorpusIndex,
    argmax_object,
    bin_count,
    build_index,
    instantiate,
    normalize_text,
    ranked_objects,
    segment_sentences,
    template_parts,
)
from corpuscausal.errors import (
    EmptyCandidateSetError,
    IoFailureError,
    MalformedPatternError,
)


class TestSegmentation:
    def test_one_sentence_per_line(self):
        assert segment_sentences("First line\nSecond line") == [
            "First line",
            "Second line",
        ]

    def test_split_within_line(self):
        assert segment_sentences("A met B. A likes C! Fine? Yes") == [
            "A met B.",
            "A likes C!",
            "Fine?",
            "Yes",
        ]

    def test_punctuation_split_is_purely_mechanical(self):
        # the rule is fixed: any .!? followed by whitespace ends a sentence
        assert segment_sentences("He lives in the U.S. today.") == [
            "He lives in the U.S.",
            "today.",
        ]

    def test_whitespace_normalization(self):
        assert normalize_text("  a\t b   c ") == "a b c"


class TestBuildIndex:
    def test_two_line_file(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("one sentence here\nanother sentence\n", encoding="utf-8")
        idx = build_index(path)
        assert len(idx) == 2

    def test_empty_file(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("", encoding="utf-8")
        idx = build_index(path)
        assert len(idx) == 0
        assert idx.soc_count("a", "b") == 0

    def test_directory_input(self, tmp_path):
        d = tmp_path / "corpus"
        d.mkdir()
        (d / "a.txt").write_text("Alpha beta.\n", encoding="utf-8")
        (d / "b.txt").write_text("Gamma delta.\n", encoding="utf-8")
        idx = build_index(d)
        assert len(idx) == 2

    def test_missing_path(self, tmp_path):
        with pytest.raises(IoFailureError):
            build_index(tmp_path / "nope.txt")

    def test_membership_by_construction(self):
        idx = build_index(["Paris is the capital of France."])
        assert idx.utterance_present("Paris is the capital of France.")


class TestUtterancePresent:
    def test_verbatim_true(self):
        idx = build_index(["Paris is the capital of France."])
        assert idx.utterance_present("Paris is the capital of France.")

    def test_inserted_comma_is_different(self):
        idx = build_index(["Paris is the capital of France."])
        assert not idx.utterance_present("Paris, is the capital of France.")

    def test_never_stored(self):
        idx = build_index(["Paris is the capital of France."])
        assert not idx.utterance_present("Rome is the capital of Italy.")

    def test_whitespace_insensitive(self):
        idx = build_index(["Paris  is the capital of France."])
        assert idx.utterance_present("Paris is the capital of  France.")


class TestSocCount:
    def test_enumerated(self):
        idx = build_index(["A met B.", "A likes C.", "B saw A."])
        assert idx.soc_count("A", "B") == 2

    def test_absent_subject(self):
        idx = build_index(["A met B."])
        assert idx.soc_count("zzz", "B") == 0

    def test_symmetry(self):
        idx = build_index(["A met B.", "B saw A.", "C ignored A."])
        for a, b in [("A", "B"), ("A", "C"), ("B", "C")]:
            assert idx.soc_count(a, b) == idx.soc_count(b, a)

    def test_word_boundaries(self):
        idx = build_index(["Parisian cafes in France.", "Paris in France."])
        assert idx.soc_count("Paris", "France") == 1

    def test_multiword_entities(self):
        idx = build_index(
            ["True Detective aired on HBO.", "Detective shows on HBO."]
        )
        assert idx.soc_count("True Detective", "HBO") == 1

    def test_same_sentence_multiple_mentions_count_once(self):
        idx = build_index(["A saw A and B with B."])
        assert idx.soc_count("A", "B") == 1

    def test_bounded_by_entity_counts(self):
        idx = build_index(["A met B.", "A alone.", "B alone.", "A met B again."])
        assert idx.soc_count("A", "B") <= min(
            idx.entity_sentence_count("A"), idx.entity_sentence_count("B")
        )


class TestPocCount:
    def test_enumerated(self):
        idx = build_index(
            ["Rome is the capital of Italy.", "Paris is the capital of France."]
        )
        assert idx.poc_count("[X] is the capital of [Y].", "France") == 1

    def test_absent_object(self):
        idx = build_index(["Rome is the capital of Italy."])
        assert idx.poc_count("[X] is the capital of [Y].", "Spain") == 0

    def test_wildcard_subject_counts_distinct_sentences(self):
        idx = build_index(
            ["Rome is the capital of Italy.", "Turin is the capital of Italy."]
        )
        assert idx.poc_count("[X] is the capital of [Y].", "Italy") == 2

    def test_wildcard_spans_multiple_tokens(self):
        idx = build_index(["The Big Bang Theory debuted on CBS."])
        assert idx.poc_count("[X] debuted on [Y].", "CBS") == 1

    def test_full_sentence_match_required(self):
        idx = build_index(["Apparently Rome is the capital of Italy."])
        # prefix text means the sentence is not an instantiation of the pattern
        assert idx.poc_count("[X] is the capital of [Y].", "Italy") == 1
        idx2 = build_index(["Rome is the capital of Italy, mostly."])
        assert idx2.poc_count("[X] is the capital of [Y].", "Italy") == 0

    def test_reversed_slot_order(self):
        idx = build_index(["HBO released True Detective."])
        assert idx.poc_count("[Y] released [X].", "HBO") == 1

    def test_malformed_pattern(self):
        idx = build_index(["anything"])
        with pytest.raises(MalformedPatternError):
            idx.poc_count("[X] was born.", "France")
        with pytest.raises(MalformedPatternError):
            idx.poc_count("[X] and [X] like [Y].", "France")


class TestIntersectionOrder:
    # p, q and r each have two postings: p & q and q & r overlap, p & r do
    # not, so the work done depends on which pair is intersected first
    CODE = """
from corpuscausal import corpus, kernels
calls = []
inner = kernels.intersect_sorted
def counting(a, b):
    calls.append(1)
    return inner(a, b)
kernels.intersect_sorted = counting
idx = corpus.build_index(["p q", "q r", "p x", "r y"])
assert idx.entity_postings("p q r").tolist() == []
print(len(calls))
"""

    def test_work_does_not_depend_on_hash_seed(self):
        src = str(Path(corpuscausal.__file__).resolve().parent.parent)
        calls = []
        # under these two seeds, set iteration order puts different pairs first
        for seed in ("0", "3"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            out = subprocess.run(
                [sys.executable, "-c", self.CODE],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            )
            calls.append(int(out.stdout))
        assert calls[0] == calls[1]


class CountingKernels:
    """Counts calls to the intersection kernels while installed."""

    def __init__(self, monkeypatch):
        self.calls = 0
        for name in ("intersect_count", "intersect_sorted"):
            monkeypatch.setattr(kernels, name, self._counted(getattr(kernels, name)))

    def _counted(self, fn):
        def counted(a, b):
            self.calls += 1
            return fn(a, b)

        return counted


class TestBatchedCounts:
    SENTENCES = [
        "Rome is the capital of Italy.",
        "Paris is the capital of France.",
        "Lyon is the capital of France.",
        "Rome met Paris in France.",
        "Rome alone.",
    ]

    def test_subject_among_objects(self):
        idx = build_index(self.SENTENCES)
        counts = idx.soc_counts("Rome", ("France", "Rome", "Italy"))
        assert dict(counts) == {
            obj: naive_soc(self.SENTENCES, "Rome", obj)
            for obj in ("France", "Rome", "Italy")
        }
        assert counts["Rome"] == idx.entity_sentence_count("Rome") == 3

    def test_object_without_postings(self):
        idx = build_index(self.SENTENCES)
        assert dict(idx.soc_counts("Rome", ("Spain", "Italy"))) == {
            "Spain": 0,
            "Italy": 1,
        }
        template = "[X] is the capital of [Y]."
        assert dict(idx.poc_counts(template, ("Spain", "France"))) == {
            "Spain": 0,
            "France": 2,
        }

    def test_whitespace_variants_share_one_key(self, monkeypatch):
        idx = build_index(self.SENTENCES)
        kernel = CountingKernels(monkeypatch)
        counts = idx.soc_counts("Rome", ("France", " France  "))
        assert counts["France"] == counts[" France  "] == 1
        assert kernel.calls == 1
        assert idx.soc_counts(" Rome ", ("France", " France  ")) is counts
        template = "[X] is the capital of [Y]."
        pocs = idx.poc_counts(template, ("France", "France "))
        assert pocs["France"] == pocs["France "] == 2
        assert idx.poc_counts(template.replace(" ", "  "), ("France", "France ")) is pocs

    def test_second_call_is_cached(self, monkeypatch):
        idx = build_index(self.SENTENCES)
        kernel = CountingKernels(monkeypatch)
        objects = ("France", "Italy", "Rome")
        template = "[X] is the capital of [Y]."
        soc = idx.soc_counts("Paris", objects)
        poc = idx.poc_counts(template, objects)
        assert kernel.calls > 0
        kernel.calls = 0
        assert idx.soc_counts("Paris", objects) is soc
        assert idx.poc_counts(template, list(objects)) is poc
        assert kernel.calls == 0

    def test_counts_are_read_only(self):
        idx = build_index(self.SENTENCES)
        counts = idx.soc_counts("Rome", ("France",))
        with pytest.raises(TypeError):
            counts["France"] = 7


class TestTemplates:
    def test_parts(self):
        pieces, slots = template_parts("[X] is the capital of [Y].")
        assert pieces == ("", " is the capital of ", ".")
        assert slots == ("[X]", "[Y]")

    def test_instantiate(self):
        assert (
            instantiate("[X] is the capital of [Y].", "Paris", "France")
            == "Paris is the capital of France."
        )

    def test_instantiate_mask(self):
        assert (
            instantiate("[X] is the capital of [Y].", "Paris", "[MASK]")
            == "Paris is the capital of [MASK]."
        )

    def test_instantiate_missing_slot(self):
        with pytest.raises(MalformedPatternError):
            instantiate("[X] was born.", "Paris", "France")

    def test_slot_markers_in_values_stay_inert(self):
        out = instantiate("[X] likes [Y].", "[Y]", "cake")
        assert out == "[Y] likes cake."


class TestArgmax:
    def test_larger_count_wins(self):
        assert argmax_object({"Apple": 269, "Google": 256}) == "Apple"

    def test_tie_breaks_lexicographic(self):
        assert argmax_object({"B": 5, "A": 5}) == "A"

    def test_singleton_zero(self):
        assert argmax_object({"X": 0}) == "X"

    def test_empty_rejected(self):
        with pytest.raises(EmptyCandidateSetError):
            argmax_object({})

    def test_ranked_objects(self):
        assert ranked_objects({"B": 5, "A": 5, "C": 9}) == ["C", "A", "B"]


class TestBinning:
    @pytest.mark.parametrize(
        "n,label",
        [
            (0, "XS"),
            (1, "XS"),
            (2, "S"),
            (10, "S"),
            (11, "M"),
            (100, "M"),
            (101, "L"),
            (116, "L"),
            (112, "L"),
            (1000, "L"),
            (1001, "XL"),
            (3042, "XL"),
            (7147, "XL"),
        ],
    )
    def test_boundaries(self, n, label):
        assert bin_count(n) == label

    def test_monotone_and_partition(self):
        labels = [bin_count(n) for n in range(0, 1500)]
        order = {lab: i for i, lab in enumerate(BIN_LABELS)}
        assert all(
            order[a] <= order[b] for a, b in zip(labels, labels[1:])
        )
        assert set(labels) == set(BIN_LABELS[:4]) | {"XL"} - (
            set() if 1001 < 1500 else {"XL"}
        )

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bin_count(-1)

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=200)
    def test_every_count_gets_exactly_one_bin(self, n):
        assert bin_count(n) in BIN_LABELS


def naive_soc(sentences, a, b):
    rx_a = re.compile(r"(?<!\w)" + re.escape(a) + r"(?!\w)")
    rx_b = re.compile(r"(?<!\w)" + re.escape(b) + r"(?!\w)")
    return sum(1 for s in sentences if rx_a.search(s) and rx_b.search(s))


def naive_poc(sentences, template, obj):
    pattern = re.escape(template).replace(r"\[X\]", "(.+)").replace(
        r"\[Y\]", re.escape(obj)
    )
    rx = re.compile(pattern)
    return sum(1 for s in sentences if rx.fullmatch(s))


def synthetic_corpus(rng, n_sentences):
    entities = [f"Ent{i}" for i in range(12)]
    verbs = ["met", "likes", "saw", "debuted on", "works at"]
    sentences = []
    for _ in range(n_sentences):
        a, b = rng.sample(entities, 2)
        verb = rng.choice(verbs)
        if rng.random() < 0.15:
            sentences.append(f"{a} {verb} {b} and {rng.choice(entities)}.")
        else:
            sentences.append(f"{a} {verb} {b}.")
    return entities, sentences


class TestAgainstNaiveScan:
    def test_soc_and_poc_match_oracle(self):
        rng = random.Random(13)
        entities, sentences = synthetic_corpus(rng, 400)
        idx = build_index(sentences)
        for _ in range(60):
            a, b = rng.sample(entities, 2)
            assert idx.soc_count(a, b) == naive_soc(sentences, a, b)
        for verb in ("met", "debuted on"):
            for obj in entities[:6]:
                template = f"[X] {verb} [Y]."
                assert idx.poc_count(template, obj) == naive_poc(
                    sentences, template, obj
                )


class TestSharding:
    def test_sharded_equals_sequential(self):
        rng = random.Random(3)
        _, sentences = synthetic_corpus(rng, 200)
        seq = build_index(sentences)
        for shards in (2, 3, 7):
            sharded = build_index(sentences, shards=shards)
            assert sharded.sentences == seq.sentences
            assert set(sharded._token_postings) == set(seq._token_postings)
            for tok, arr in seq._token_postings.items():
                assert sharded._token_postings[tok].tolist() == arr.tolist()


class TestPersistence:
    def test_round_trip(self, tmp_path):
        rng = random.Random(7)
        entities, sentences = synthetic_corpus(rng, 120)
        idx = build_index(sentences)
        path = tmp_path / "corpus.idx"
        idx.save(path)
        loaded = CorpusIndex.load(path)
        assert loaded.sentences == idx.sentences
        a, b = entities[0], entities[1]
        assert loaded.soc_count(a, b) == idx.soc_count(a, b)
        assert loaded.utterance_present(sentences[0])

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bogus.idx"
        path.write_bytes(b"NOTANIDX" + b"\x00" * 32)
        with pytest.raises(IoFailureError):
            CorpusIndex.load(path)

    def test_empty_round_trip(self, tmp_path):
        idx = build_index([])
        path = tmp_path / "empty.idx"
        idx.save(path)
        loaded = CorpusIndex.load(path)
        assert len(loaded) == 0
