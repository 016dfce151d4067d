"""Indexing, membership, co-occurrence counts, binning, persistence."""

import hashlib
import os
import random
import re
import struct
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpuscausal
from corpuscausal import kernels
from corpuscausal.corpus import (
    BIN_LABELS,
    CorpusIndex,
    bin_count,
    build_index,
    instantiate,
    normalize_text,
    ranked_columns,
    ranked_objects,
    segment_sentences,
    split_around,
    template_parts,
    unseal,
    write_sealed,
)
from corpuscausal.errors import (
    EmptyCandidateSetError,
    IoFailureError,
    MalformedPatternError,
)

import golden_fixture
from conftest import CROSSED_PATTERNS


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

    def test_every_whitespace_code_point_matches_the_regex_form(self):
        # str.split() and re's \s must agree on what whitespace is
        ws = re.compile(r"\s")
        spaces = [
            c for c in map(chr, range(0x110000)) if c.isspace() or ws.fullmatch(c)
        ]
        assert "\u3000" in spaces and "\x1c" in spaces
        for c in spaces:
            for text in (f"a{c}b", f"{c}a b{c}", f"{c}{c}a {c}{c}b{c}{c}"):
                assert normalize_text(text) == re.sub(r"\s+", " ", text).strip()


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
            len(idx.entity_postings("A")), len(idx.entity_postings("B"))
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

    @pytest.mark.parametrize(
        "sentence, template, obj",
        [
            ("Rome is Parisian.", "[X] is [Y]ian.", "Paris"),
            ("Milan is preParis now.", "[X] is pre[Y] now.", "Paris"),
            ("Romanian is Paris.", "[X]ian is [Y].", "Paris"),
            ("Paris is the Romanian capital.", "[Y] is the [X]ian capital.", "Paris"),
        ],
    )
    def test_words_fused_with_a_slot(self, sentence, template, obj):
        # a template word glued to a slot is not a token of its own in the
        # sentence, so the token prefilter must not require it
        idx = build_index([sentence, "Rome is the capital of Italy."])
        expected = naive_poc(idx.sentences, template, obj)
        assert expected == 1
        assert idx.poc_count(template, obj) == expected

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
        objects = ("France", "Rome", "Italy")
        (row,) = idx.soc_matrix(("Rome",), objects).tolist()
        assert row == [naive_soc(self.SENTENCES, "Rome", obj) for obj in objects]
        assert row[1] == len(idx.entity_postings("Rome")) == 3

    def test_object_without_postings(self):
        idx = build_index(self.SENTENCES)
        assert idx.soc_matrix(("Rome",), ("Spain", "Italy")).tolist() == [[0, 1]]
        assert idx.soc_matrix(("Spain",), ("Rome", "Italy")).tolist() == [[0, 0]]
        template = "[X] is the capital of [Y]."
        assert idx.poc_matrix((template,), ("Spain", "France")).tolist() == [[0, 2]]

    def test_whitespace_variants_share_one_key(self, monkeypatch):
        idx = build_index(self.SENTENCES)
        kernel = CountingKernels(monkeypatch)
        soc = idx.soc_matrix(("Rome", " Rome "), ("France", " France  "))
        assert soc.tolist() == [[1, 1], [1, 1]]
        # the variants share the postings of their normal form
        assert idx.entity_postings(" France  ") is idx.entity_postings("France")
        assert idx.entity_postings(" Rome ") is idx.entity_postings("Rome")
        assert kernel.calls == 0  # one-token surfaces read their token's postings
        # a whitespace variant of an object or a template counts alike
        template = "[X] is the capital of [Y]."
        assert idx.poc_matrix((template,), ("France", "France ")).tolist() == [[2, 2]]
        variants = (template, template.replace(" ", "  "), f" {template}\t")
        assert idx.poc_matrix(variants, ("France",)).tolist() == [[2], [2], [2]]

    def test_second_call_is_cached(self, monkeypatch):
        idx = build_index(self.SENTENCES)
        kernel = CountingKernels(monkeypatch)
        objects = ("France", "Italy", "Rome")
        template = "[X] is the capital of [Y]."
        soc = idx.soc_matrix(("Paris", "Rome met"), objects)
        poc = idx.poc_matrix((template,), objects)
        assert kernel.calls > 0
        kernel.calls = 0
        assert idx.soc_matrix(["Paris", "Rome met"], list(objects)) is soc
        assert idx.poc_matrix([template], list(objects)) is poc
        assert kernel.calls == 0

    def test_poc_matrices_share_their_rows(self, monkeypatch):
        idx = build_index(self.SENTENCES)
        objects = ("France", "Italy", "Rome")
        first, second = "[X] is the capital of [Y].", "[X] met Paris in [Y]."
        counted = []
        poc_row = CorpusIndex._poc_row

        def spy(index, template, objects):
            counted.append(template)
            return poc_row(index, template, objects)

        monkeypatch.setattr(CorpusIndex, "_poc_row", spy)
        one = idx.poc_matrix((first,), objects)
        both = idx.poc_matrix((second, first), objects)
        # a matrix over other templates counts only the rows it does not share
        assert counted == [first, second]
        assert both.tolist() == [
            [naive_poc(self.SENTENCES, template, obj) for obj in objects]
            for template in (second, first)
        ]
        assert both[1].tolist() == one[0].tolist() == [2, 1, 0]
        # a row over other objects is a row of its own
        idx.poc_matrix((first,), objects[:2])
        assert counted == [first, second, first]

    def test_counts_are_read_only(self):
        idx = build_index(self.SENTENCES)
        soc = idx.soc_matrix(("Rome",), ("France",))
        with pytest.raises(ValueError):
            soc[0, 0] = 7
        poc = idx.poc_matrix(("[X] is the capital of [Y].",), ("France",))
        with pytest.raises(ValueError):
            poc[0, 0] = 7

    def test_rankings_equal_ranked_objects_of_their_maps(self):
        sentences = self.SENTENCES + ["Italy and Spain.", "Rome in Spain."]
        idx = build_index(sentences)
        # Rome co-occurs once each with France, Italy and Spain: a three-way tie
        objects = ("France", "Italy", "Lyon", "Rome", "Spain")  # in text order
        subjects = ("Rome", "Paris")
        soc = idx.soc_matrix(subjects, objects)
        for subject, row, ranking in zip(subjects, soc.tolist(), ranked_columns(soc).tolist()):
            counts = {o: naive_soc(sentences, subject, o) for o in objects}
            assert dict(zip(objects, row)) == counts
            assert [objects[j] for j in ranking] == ranked_objects(counts)
        assert [objects[j] for j in ranked_columns(soc)[0]][:4] == [
            "Rome", "France", "Italy", "Spain"
        ]
        template = "[X] is the capital of [Y]."
        # whitespace variants of the template count and rank alike
        templates = (template, f"  {template} ", template.replace(" ", "   "))
        poc = idx.poc_matrix(templates, objects)
        counts = {o: naive_poc(sentences, template, o) for o in objects}
        for row, ranking in zip(poc.tolist(), ranked_columns(poc).tolist()):
            assert dict(zip(objects, row)) == counts
            assert [objects[j] for j in ranking] == ranked_objects(counts)

    def test_ranking_an_empty_candidate_set_is_rejected(self):
        idx = build_index(self.SENTENCES)
        for _ in range(2):  # a rejected set is not memoised
            with pytest.raises(EmptyCandidateSetError):
                idx.soc_matrix(("Rome",), ())
            with pytest.raises(EmptyCandidateSetError):
                idx.poc_matrix(("[X] is the capital of [Y].",), ())

    def test_soc_count_normalises_each_surface_once(self, monkeypatch):
        idx = build_index(self.SENTENCES)
        idx.soc_count("Rome", "France")
        idx.soc_count("Paris", "Italy")
        calls = []
        monkeypatch.setattr(
            corpuscausal.corpus,
            "normalize_text",
            lambda text: calls.append(text) or normalize_text(text),
        )
        # a new pair of surfaces whose postings are already cached
        assert idx.soc_count("Rome", "Italy") == naive_soc(self.SENTENCES, "Rome", "Italy")
        assert calls == []
        # a surface seen for the first time is normalised once
        assert idx.soc_count("Lyon", "France") == naive_soc(self.SENTENCES, "Lyon", "France")
        assert idx.soc_count("France", "Lyon") == naive_soc(self.SENTENCES, "Lyon", "France")
        assert calls == ["Lyon"]

    def test_repeated_ranking_is_one_lookup(self, monkeypatch):
        idx = build_index(self.SENTENCES)
        objects = ("France", "Italy", "Rome")
        template = "[X] is the capital of [Y]."
        soc = idx.soc_matrix(("Paris",), objects)
        poc = idx.poc_matrix((template,), objects)
        kernel = CountingKernels(monkeypatch)
        calls = []
        monkeypatch.setattr(
            corpuscausal.corpus,
            "normalize_text",
            lambda text: calls.append(text) or normalize_text(text),
        )
        assert idx.soc_matrix(("Paris",), objects) is soc
        assert idx.poc_matrix((template,), objects) is poc
        assert calls == []
        # a whitespace variant of a subject is normalised on first sight only
        for _ in range(2):
            assert np.array_equal(idx.soc_matrix((" Paris ",), objects), soc)
        assert calls == [" Paris "]
        assert kernel.calls == 0
        # one of a template is a row of its own, counted alike, once
        variant = template.replace(" ", "  ")
        assert np.array_equal(idx.poc_matrix((variant,), objects), poc)
        calls.clear()
        assert idx.poc_matrix((variant,), objects) is idx.poc_matrix((variant,), objects)
        assert calls == []


#: Surfaces for the matrix property: one-token and multi-token surfaces,
#: whitespace variants of them, and surfaces no sentence holds.
_SURFACES = ("Ann", " Ann", "Ann  ", "Bo", "Bo Cy", "Bo  Cy", "\tBo Cy ", "Cy", "Di",
             "Ann Bo", "Zed", "Q Zed", "none", "no one", "")
_WORDS = ("Ann", "Bo", "Cy", "Di", "Zed", "Q", "met", "and", "no", "one")


class TestSocMatrix:
    @given(
        st.lists(st.lists(st.sampled_from(_WORDS), max_size=6).map(" ".join), max_size=25),
        st.lists(st.sampled_from(_SURFACES), min_size=0, max_size=6),
        st.lists(st.sampled_from(_SURFACES), min_size=1, max_size=6, unique=True),
    )
    @settings(max_examples=150, deadline=None)
    def test_the_matrix_is_soc_count_on_every_pair(self, lines, subjects, objects):
        idx = build_index(lines)
        matrix = idx.soc_matrix(subjects, objects)
        assert matrix.shape == (len(subjects), len(objects))
        assert matrix.tolist() == [
            [idx.soc_count(subject, obj) for obj in objects] for subject in subjects
        ]
        # with the objects in text order, the code ranking is `ranked_objects`'
        objects = sorted(objects)
        matrix = idx.soc_matrix(subjects, objects)
        for subject, ranking in zip(subjects, ranked_columns(matrix).tolist()):
            counts = {obj: idx.soc_count(subject, obj) for obj in objects}
            assert [objects[j] for j in ranking] == ranked_objects(counts)


#: Templates for the poc property: [Y] before [X], an object glued to a
#: literal word, slots side by side, and whitespace variants.
_TEMPLATES = ("[X] met [Y].", "[Y] met [X].", "[X] met in[Y].", "no [X] and [Y] one",
              "[Y][X]", "  [X]  met [Y]. ", "[Y] and\t[X]", "Q [X] met [Y]")


class TestPocMatrix:
    @given(
        st.lists(
            st.one_of(
                st.lists(st.sampled_from(_WORDS), max_size=6).map(" ".join),
                st.builds(
                    instantiate,
                    st.sampled_from(_TEMPLATES),
                    st.lists(st.sampled_from(_WORDS), min_size=1, max_size=3).map(" ".join),
                    st.sampled_from(_SURFACES),
                ),
            ),
            max_size=25,
        ),
        st.lists(st.sampled_from(_TEMPLATES), min_size=0, max_size=4),
        st.lists(st.sampled_from(_SURFACES), min_size=1, max_size=6, unique=True),
    )
    @settings(max_examples=150, deadline=None)
    def test_the_matrix_is_the_quadratic_scan(self, lines, templates, objects):
        idx = build_index(lines)
        objects = sorted(objects)  # in text order, as a relation's candidates are
        matrix = idx.poc_matrix(templates, objects)
        assert matrix.shape == (len(templates), len(objects))
        assert not matrix.flags.writeable
        expected = [
            {o: naive_poc(idx.sentences, normalize_text(t), normalize_text(o)) for o in objects}
            for t in templates
        ]
        assert matrix.tolist() == [[counts[o] for o in objects] for counts in expected]
        for counts, ranking in zip(expected, ranked_columns(matrix).tolist()):
            assert [objects[j] for j in ranking] == ranked_objects(counts)
        for _ in range(2):  # a rejected set is not memoised
            with pytest.raises(EmptyCandidateSetError):
                idx.poc_matrix(templates, ())


class TestTemplates:
    def test_parts(self):
        pieces, slots = template_parts("[X] is the capital of [Y].")
        assert pieces == ("", " is the capital of ", ".")
        assert slots == ("[X]", "[Y]")

    def test_parts_of_adjacent_slots_in_either_order(self):
        assert template_parts("[Y][X]") == (("", "", ""), ("[Y]", "[X]"))

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

    def test_malformed_template_raises_on_every_call(self):
        for template in ("[X] was born.", "[X] and [X] like [Y]."):
            for _ in range(2):
                with pytest.raises(MalformedPatternError):
                    template_parts(template)
            with pytest.raises(MalformedPatternError):
                split_around(template, "[Y]", "Paris")

    @pytest.mark.parametrize(
        "template",
        sorted(
            {t for _, t, _ in golden_fixture.PATTERNS + CROSSED_PATTERNS}
            | {"[X] is [Y]ian.", "[Y] is the [X]ian capital.", " [Y]  [X] "}
        ),
    )
    def test_split_around_rebuilds_instantiate(self, template):
        def fill(subject, obj):
            # one pass over the template's own markers, so markers in the
            # values stay inert; then whitespace collapsed
            filled = re.sub(r"\[X\]|\[Y\]",
                            lambda m: subject if m.group() == "[X]" else obj, template)
            return " ".join(filled.split())

        values = ["Paris", "True Detective", " edge ", "in  ner\tspace", "[X]", "a [Y] b"]
        for v in values:
            for other in values:
                assert instantiate(template, v, other) == fill(v, other)
                left, right = split_around(template, "[X]", other)
                assert normalize_text(left + v + right) == fill(v, other)
                left, right = split_around(template, "[Y]", other)
                assert normalize_text(left + v + right) == fill(other, v)


class TestArgmax:
    """The argmax is the head of `ranked_objects`."""

    def test_larger_count_wins(self):
        assert ranked_objects({"Apple": 269, "Google": 256})[0] == "Apple"

    def test_tie_breaks_lexicographic(self):
        assert ranked_objects({"B": 5, "A": 5})[0] == "A"

    def test_singleton_zero(self):
        assert ranked_objects({"X": 0}) == ["X"]

    def test_empty_rejected(self):
        with pytest.raises(EmptyCandidateSetError):
            ranked_objects({})

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


def hand_index(sentences):
    """A CorpusIndex over raw sentences, tokenised by the ``\\w+`` rule."""
    postings = {}
    for sid, sentence in enumerate(sentences):
        for tok in set(re.findall(r"\w+", sentence)):
            postings.setdefault(tok, []).append(sid)
    return CorpusIndex(
        sentences,
        {tok: np.asarray(ids, dtype=np.int32) for tok, ids in postings.items()},
    )


def naive_entity(sentences, surface):
    rx = re.compile(r"(?<!\w)" + re.escape(surface) + r"(?!\w)")
    return [i for i, s in enumerate(sentences) if rx.search(s)]


class TestFastPathsAgainstRegex:
    SENTENCES = [
        "Zürich is in Switzerland.",
        "Zürichsee is a lake near Zürich",
        "The Zürich-based bank.",
        "東京 is big.",
        "東京都 is the prefecture.",
        "In 東京, people.",
        "a_b is snake case.",
        "a_bc differs from a b.",
        "x a_b!",
        "42 is the answer.",
        "42nd street in 1942.",
        "C++ is a language.",
        "C is a letter.",
        "St. Louis is a city.",
        "St Louis lacks the dot.",
        "Louis\nSt. Louis spans a line.",
    ]

    @pytest.mark.parametrize("surface", ["Zürich", "東京", "a_b", "42", "C++", "St. Louis"])
    def test_entity_postings_equal_the_regex_scan(self, surface):
        idx = hand_index(self.SENTENCES)
        assert idx.entity_postings(surface).tolist() == naive_entity(
            self.SENTENCES, surface
        )

    @pytest.mark.parametrize("surface, token", [("C++", "C"), ("St. Louis", "St")])
    def test_surfaces_beyond_one_token_are_verified(self, surface, token):
        # their token postings hold sentences the surface is not in
        idx = hand_index(self.SENTENCES)
        assert idx.entity_postings(surface).tolist() != idx.entity_postings(
            token
        ).tolist()

    def test_random_surfaces_equal_the_regex_scan(self):
        rng = random.Random(29)
        alphabet = ["a", "b", "é", "東", "_", "1", " ", ".", "+", "-", "\n"]
        sentences = [
            "".join(rng.choices(alphabet, k=rng.randint(1, 12))) for _ in range(60)
        ]
        idx = hand_index(sentences)
        for _ in range(300):
            surface = normalize_text("".join(rng.choices(alphabet, k=rng.randint(1, 4))))
            if not surface:
                continue  # an empty surface has no postings by definition
            assert idx.entity_postings(surface).tolist() == naive_entity(
                sentences, surface
            ), surface

    @pytest.mark.parametrize(
        "template, obj",
        [
            ("[X] is the capital of [Y].", "Italy"),
            ("In [X] lies [Y].", "Italy"),
            ("[Y] released [X].", "HBO"),
            ("ab[X]b[Y]", "a"),
        ],
    )
    def test_poc_count_equals_fullmatch(self, template, obj):
        sentences = [
            "Rome is the capital of Italy.",
            "R is the capital of Italy.",  # one-character wildcard
            " is the capital of Italy.",  # one character too short
            "is the capital of Italy.",
            "Ro\nme is the capital of Italy.",  # "\n" inside the wildcard
            "Rome is the capital of Italy.\n",
            "In Rome lies Italy.",
            "In R lies Italy.",
            "In  lies Italy.",
            "In lies Italy.",
            "In Ro\nme lies Italy.",
            "HBO released True\nDetective.",
            "HBO released X.",
            "HBO released .",
            "abba",
            "abXba",
            "aba",
            "ab\nba",
        ]
        idx = hand_index(sentences)
        expected = naive_poc(sentences, template, obj)
        assert expected > 0
        assert idx.poc_count(template, obj) == expected

    def test_random_templates_equal_fullmatch(self):
        rng = random.Random(31)

        def text(k):
            return "".join(rng.choices(["a", "b", " ", ".", "é"], k=k))

        templates = []
        for _ in range(40):
            slots = rng.sample(["[X]", "[Y]"], 2)
            raw = text(rng.randint(0, 3)) + slots[0] + text(rng.randint(0, 3))
            templates.append(normalize_text(raw + slots[1] + text(rng.randint(0, 3))))
        objects = ["a", "b", "ab", "a b", "é"]
        fillers = ["a", "b", "a b", "a\nb", "\n", "ba", "é."]
        # raw splices keep the "\n" fillers that instantiate would normalise
        sentences = [
            pieces[0] + rng.choice(fillers) + pieces[1]
            for pieces in (
                split_around(rng.choice(templates), "[X]", rng.choice(objects))
                for _ in range(150)
            )
        ] + [text(rng.randint(0, 8)) for _ in range(50)]
        idx = hand_index(sentences)
        hits = 0
        for template in templates:
            for obj in objects:
                expected = naive_poc(sentences, template, obj)
                assert idx.poc_count(template, obj) == expected, (template, obj)
                hits += expected
        assert hits > 0


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

    def test_loaded_postings_equal_the_built_ones(self, tmp_path):
        path, _ = self.saved_index(tmp_path)
        built = build_index(synthetic_corpus(random.Random(7), 120)[1])._token_postings
        loaded = CorpusIndex.load(path)._token_postings
        assert loaded.keys() == built.keys()
        for tok, postings in built.items():
            assert loaded[tok].dtype == np.int32
            assert loaded[tok].tolist() == postings.tolist(), tok

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bogus.idx"
        path.write_bytes(b"NOTANIDX" + b"\x00" * 32)
        with pytest.raises(IoFailureError):
            CorpusIndex.load(path)

    @staticmethod
    def saved_index(tmp_path):
        idx = build_index(synthetic_corpus(random.Random(7), 120)[1])
        path = tmp_path / "corpus.idx"
        idx.save(path)
        return path, path.read_bytes()

    @staticmethod
    def redigested(blob):
        """The file with its digest recomputed, so the structure checks run."""
        digest = hashlib.blake2b(blob[24:], digest_size=16).digest()
        return blob[:8] + digest + blob[24:]

    WRONG_LENGTHS = [
        pytest.param(lambda blob: blob[:-8], id="cut-two-postings"),
        pytest.param(lambda blob: blob[:-9], id="cut-inside-a-posting"),
        # the magic, the digest, the sentence header and 24 bytes of sentences
        pytest.param(lambda blob: blob[:60], id="cut-inside-the-sentences"),
        pytest.param(lambda blob: blob + bytes(8), id="padded"),
    ]

    @pytest.mark.parametrize("damage", WRONG_LENGTHS)
    def test_index_of_the_wrong_length_is_rejected(self, tmp_path, damage):
        path, blob = self.saved_index(tmp_path)
        path.write_bytes(damage(blob))
        with pytest.raises(IoFailureError, match="corrupt index structure"):
            CorpusIndex.load(path)

    @pytest.mark.parametrize("damage", WRONG_LENGTHS)
    def test_redigested_index_of_the_wrong_length_is_rejected(self, tmp_path, damage):
        path, blob = self.saved_index(tmp_path)
        path.write_bytes(self.redigested(damage(blob)))
        with pytest.raises(IoFailureError, match="corrupt index structure") as info:
            CorpusIndex.load(path)
        assert "digest does not match" not in str(info.value)

    def test_flipped_bit_fails_the_digest(self, tmp_path):
        path, blob = self.saved_index(tmp_path)
        flipped = bytearray(blob)
        flipped[len(blob) // 2] ^= 1
        path.write_bytes(bytes(flipped))
        with pytest.raises(IoFailureError, match="digest does not match"):
            CorpusIndex.load(path)

    def test_version_1_index_asks_for_a_rebuild(self, tmp_path):
        path, blob = self.saved_index(tmp_path)
        assert blob[:8] == b"CCIDX002"
        path.write_bytes(b"CCIDX001" + blob[24:])
        with pytest.raises(IoFailureError, match="re-run `corpuscausal index`"):
            CorpusIndex.load(path)

    def test_falling_offsets_are_rejected(self, tmp_path):
        path, blob = self.saved_index(tmp_path)
        idx = CorpusIndex.load(path)
        flat_start = len(blob) - 4 * sum(map(len, idx._token_postings.values()))
        offsets_start = flat_start - 8 * (len(idx._token_postings) + 1)
        offsets = np.frombuffer(blob, dtype=np.int64, count=3, offset=offsets_start)
        assert offsets[1] > 0
        swapped = np.array([offsets[0], offsets[2], offsets[1]], dtype=np.int64)
        path.write_bytes(
            self.redigested(
                blob[:offsets_start] + swapped.tobytes() + blob[offsets_start + 24 :]
            )
        )
        with pytest.raises(IoFailureError, match="corrupt index structure"):
            CorpusIndex.load(path)

    @staticmethod
    def redigested_body(tmp_path, damage):
        """A saved index with its body changed by `damage`, then redigested.

        `damage` edits a namespace of the sentence count `n_sent`, the
        `tokens` and the `flat` postings, where the first token with two
        postings starts at `at`.
        """
        path, blob = TestPersistence.saved_index(tmp_path)
        chunks = CorpusIndex.load(path)._body()
        offsets = np.frombuffer(chunks[4], dtype=np.int64)
        body = SimpleNamespace(
            n_sent=struct.unpack("<IQ", chunks[0])[0],
            tokens=chunks[3].split(b"\n"),
            flat=np.frombuffer(chunks[5], dtype=np.int32).copy(),
            at=int(offsets[np.flatnonzero(np.diff(offsets) >= 2)[0]]),
        )
        damage(body)
        chunks[0] = struct.pack("<IQ", body.n_sent, len(chunks[1]))
        chunks[3], chunks[5] = b"\n".join(body.tokens), body.flat.tobytes()
        chunks[2] = struct.pack("<IQ", len(body.tokens), len(chunks[3]))
        path.write_bytes(TestPersistence.redigested(blob[:24] + b"".join(chunks)))
        return path

    STRUCTURE_DAMAGES = [
        # the sentence block kept: `len` was 0, yet postings named sentence 0
        pytest.param(lambda b: setattr(b, "n_sent", 0), id="sentence-count-zero"),
        pytest.param(lambda b: b.flat.__setitem__(-1, b.n_sent), id="posting-past-the-sentences"),
        pytest.param(lambda b: b.flat.__setitem__(0, -1), id="negative-posting"),
        pytest.param(lambda b: b.flat.__setitem__([b.at, b.at + 1], b.flat[[b.at + 1, b.at]]),
                     id="falling-postings"),
        pytest.param(lambda b: b.flat.__setitem__(b.at + 1, b.flat[b.at]), id="repeated-posting"),
        pytest.param(lambda b: b.tokens.insert(0, b.tokens.pop(1)), id="tokens-out-of-order"),
        pytest.param(lambda b: b.tokens.__setitem__(1, b.tokens[0]), id="repeated-token"),
    ]

    @pytest.mark.parametrize("damage", STRUCTURE_DAMAGES)
    def test_redigested_index_of_a_broken_structure_is_rejected(self, tmp_path, damage):
        path = self.redigested_body(tmp_path, damage)
        with pytest.raises(IoFailureError, match="corrupt index structure"):
            CorpusIndex.load(path)

    def test_empty_round_trip(self, tmp_path):
        idx = build_index([])
        path = tmp_path / "empty.idx"
        idx.save(path)
        loaded = CorpusIndex.load(path)
        assert len(loaded) == 0

    def test_built_index_digest_is_the_saved_files(self, tmp_path):
        path, blob = self.saved_index(tmp_path)
        built = build_index(synthetic_corpus(random.Random(7), 120)[1])
        assert built.digest == blob[8:24] == CorpusIndex.load(path).digest

    def test_failed_save_keeps_the_old_index(self, tmp_path, monkeypatch):
        path, blob = self.saved_index(tmp_path)
        body = CorpusIndex._body

        def fail_after_first_chunk(index):
            yield body(index)[0]
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(CorpusIndex, "_body", fail_after_first_chunk)
        with pytest.raises(IoFailureError, match="cannot write index"):
            build_index(["Another corpus."]).save(path)
        assert path.read_bytes() == blob
        assert len(CorpusIndex.load(path)) == 120
        assert sorted(tmp_path.iterdir()) == [path]


class TestSealedFiles:
    def test_round_trip_streams_the_chunks(self, tmp_path):
        path = tmp_path / "f.bin"
        write_sealed(path, b"MAGIC001", iter([b"ab", b"", b"cd"]))
        blob = path.read_bytes()
        body, digest = unseal(blob, b"MAGIC001")
        assert isinstance(body, memoryview) and body == b"abcd"
        assert blob == b"MAGIC001" + digest + b"abcd"
        assert digest == hashlib.blake2b(b"abcd", digest_size=16).digest()

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda blob: b"MAGIC002" + blob[8:], "does not start with MAGIC001"),
            (lambda blob: blob[:-1], "digest does not match"),
            (lambda blob: blob[:5], "does not start with MAGIC001"),
            (lambda blob: blob[:8], "digest does not match"),
        ],
    )
    def test_bad_seal_is_a_value_error(self, tmp_path, damage, message):
        path = tmp_path / "f.bin"
        write_sealed(path, b"MAGIC001", [b"body"])
        with pytest.raises(ValueError, match=message):
            unseal(damage(path.read_bytes()), b"MAGIC001")
