"""Population construction: pairing recipes, filters, emission."""

import tempfile
from contextlib import ExitStack
from dataclasses import replace
from operator import attrgetter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpuscausal.corpus import (
    BIN_EDGES,
    CorpusIndex,
    bin_count,
    build_index,
    instantiate,
    normalize_text,
    ranked_objects,
    split_around,
)
from corpuscausal.errors import (
    EmptyPopulationError,
    InputError,
    MissingPredictionError,
    MissingReferenceError,
    MissingStatsError,
    ParseError,
)
from corpuscausal.estimator import ObservationTable
from corpuscausal.kb import KnowledgeBase, PatternSpec, Triplet, load_knowledge_base
from corpuscausal import population
from corpuscausal.population import (
    POPULATION_FIELDS,
    MatchDiagnostics,
    ROW_FIELDS,
    STRATIFY_COLUMNS,
    ClozeKeyTable,
    PopulationRow,
    build_structure,
    build_table,
    population_observation_table,
    read_population,
    score_population,
    write_population,
)
from corpuscausal.predictions import (
    HYPOTHESES,
    PredictionSet,
    baseline_predict,
    load_predictions,
    outcome_flag,
)

import golden_fixture
from conftest import crossed_corpus_lines, decode_entry, encode_entry, load_generator


#: The canonical row order, written out here rather than read from the library.
canonical_order = attrgetter("relation", "subject", "object", "template", "is_anti")


def manual_predictions(mapping, source="handmade"):
    return PredictionSet(records=dict(mapping), source_id=source)


def outcome_of(pop, row):
    """The scored outcome aligned with `row` in `pop.outcomes`."""
    return pop.outcomes[pop.rows.index(row)]


def keys_of(pop):
    return sorted({(r.subject, r.relation, r.template) for r in pop.rows})


@pytest.fixture
def crossed_index():
    return build_index(crossed_corpus_lines())


class TestUttTable:
    def test_paired_rows_table2_style(self):
        kb = KnowledgeBase(
            triplets=(
                Triplet("True Detective", "originally-aired-on", "HBO"),
                Triplet("The Big Bang Theory", "originally-aired-on", "CBS"),
                Triplet("Stranger Things", "originally-aired-on", "Netflix"),
                Triplet("News Hour", "originally-aired-on", "NCB"),
            ),
            patterns=(
                PatternSpec("originally-aired-on", "[Y] released [X]."),
                PatternSpec("originally-aired-on", "[Y] is to debut [X]."),
            ),
        )
        lines = ["HBO released True Detective."]
        lines += [f"True Detective and HBO note {i}." for i in range(115)]  # soc 116
        lines += ["CBS is to debut The Big Bang Theory."]
        lines += [f"The Big Bang Theory with CBS {i}." for i in range(199)]  # soc 200
        idx = build_index(lines)
        preds = manual_predictions(
            {
                ("True Detective", "originally-aired-on", "[Y] released [X]."): "Netflix",
                ("True Detective", "originally-aired-on", "[Y] is to debut [X]."): "Netflix",
                ("The Big Bang Theory", "originally-aired-on", "[Y] released [X]."): "CBS",
                ("The Big Bang Theory", "originally-aired-on", "[Y] is to debut [X]."): "CBS",
            }
        )
        pop = build_table("utt", kb, idx, preds)
        rows = {(r.subject, r.template): r for r in pop.rows}
        td_treated = rows[("True Detective", "[Y] released [X].")]
        td_control = rows[("True Detective", "[Y] is to debut [X].")]
        assert td_treated.utt_present and td_treated.treatment == 1
        assert not td_control.utt_present and td_control.treatment == 0
        assert td_treated.soc_count == 116 and td_treated.soc_bin == "L"
        assert td_control.soc_count == 116
        assert outcome_of(pop, td_treated) == 0 and outcome_of(pop, td_control) == 0  # Netflix != HBO
        bbt_treated = rows[("The Big Bang Theory", "[Y] is to debut [X].")]
        bbt_control = rows[("The Big Bang Theory", "[Y] released [X].")]
        assert bbt_treated.soc_count == 200 and bbt_treated.soc_bin == "L"
        assert outcome_of(pop, bbt_treated) == 1 and outcome_of(pop, bbt_control) == 1  # CBS == CBS
        assert len(pop.pairs) == 2
        for i, j in pop.pairs:
            t, c = pop.rows[i], pop.rows[j]
            assert (t.subject, t.object, t.relation) == (c.subject, c.object, c.relation)
            assert t.template != c.template
            assert t.utt_present and not c.utt_present

    def test_treated_without_absent_pattern_dropped(self, crossed_kb):
        # every pattern's utterance stored -> no absent-pattern pool row
        lines = [
            "Paris is the capital of France.",
            "The capital city Paris lies in France.",
            "The capital city Rome lies in Italy.",
        ]
        idx = build_index(lines)
        preds = baseline_predict(
            "perfect",
            crossed_kb,
            queries=[
                (s, "capital-of", p.template)
                for s in ("Paris", "Rome")
                for p in crossed_kb.paraphrases("capital-of")
            ]
            + [
                (s, "aired-on", p.template)
                for s in ("Daria", "True Detective")
                for p in crossed_kb.paraphrases("aired-on")
            ],
        )
        with pytest.raises(EmptyPopulationError):
            # Paris has no absent pattern; Rome pairs fine, but aired-on has
            # no stored utterances at all, leaving relation-level imbalance
            build_table("utt", crossed_kb, build_index(["no utterances here"]), preds)
        pop = build_table("utt", crossed_kb, idx, preds)
        # Paris is present under both paraphrases, so both treated rows
        # lack an absent-pattern control and are dropped
        assert pop.diagnostics.unmatched_treated == 2
        assert {r.subject for r in pop.rows} == {"Rome"}


class TestPocTable:
    def poc_kb(self):
        return KnowledgeBase(
            triplets=(
                Triplet("Daria", "aired-on", "MTV"),
                Triplet("NewsNight", "aired-on", "BBC"),
                Triplet("True Detective", "aired-on", "HBO"),
            ),
            patterns=(PatternSpec("aired-on", "[X] debuted on [Y]."),),
        )

    def poc_corpus(self, mtv=7, bbc=6, hbo=2):
        lines = [f"Show{i} debuted on MTV." for i in range(mtv)]
        lines += [f"Prog{i} debuted on BBC." for i in range(bbc)]
        lines += [f"Series{i} debuted on HBO." for i in range(hbo)]
        return build_index(lines)

    def test_daria_pair_table3_style(self):
        kb = self.poc_kb()
        idx = self.poc_corpus()
        keys = [
            (s, "aired-on", "[X] debuted on [Y].")
            for s in ("Daria", "NewsNight", "True Detective")
        ]
        preds = manual_predictions({k: "MTV" for k in keys})
        pop = build_table("poc", kb, idx, preds)
        rows = {(r.subject, r.object): r for r in pop.rows}
        assert rows[("Daria", "MTV")].treatment == 1
        assert rows[("Daria", "MTV")].po_hc
        assert outcome_of(pop, rows[("Daria", "MTV")]) == 1
        assert rows[("Daria", "BBC")].treatment == 0
        assert not rows[("Daria", "BBC")].po_hc
        assert outcome_of(pop, rows[("Daria", "BBC")]) == 0
        assert len(pop.pairs) == 3
        for i, j in pop.pairs:
            t, c = pop.rows[i], pop.rows[j]
            assert (t.subject, t.template) == (c.subject, c.template)
            assert t.object == "MTV" and c.object == "BBC"

    def test_frequency_floor_blocks_runner(self):
        kb = self.poc_kb()
        idx = self.poc_corpus(mtv=7, bbc=4)
        keys = [
            (s, "aired-on", "[X] debuted on [Y].")
            for s in ("Daria", "NewsNight", "True Detective")
        ]
        preds = manual_predictions({k: "MTV" for k in keys})
        with pytest.raises(EmptyPopulationError):
            build_table("poc", kb, idx, preds)

    def test_frequency_floor_configurable(self):
        kb = self.poc_kb()
        idx = self.poc_corpus(mtv=7, bbc=4)
        keys = [
            (s, "aired-on", "[X] debuted on [Y].")
            for s in ("Daria", "NewsNight", "True Detective")
        ]
        preds = manual_predictions({k: "MTV" for k in keys})
        pop = build_table("poc", kb, idx, preds, min_poc_frequency=3)
        assert len(pop.pairs) == 3

    def test_retained_rows_above_floor(self, crossed_kb, crossed_index):
        pop = build_structure("poc", crossed_kb, crossed_index)
        for row in pop.rows:
            assert crossed_index.poc_count(row.template, row.object) > 5


class TestSocTable:
    def soc_kb(self):
        return KnowledgeBase(
            triplets=(
                Triplet("Safari", "developed-by", "Apple"),
                Triplet("Chrome", "developed-by", "Google"),
            ),
            patterns=(
                PatternSpec("developed-by", "[X] is a product of [Y]."),
                PatternSpec("developed-by", "[X] was sold to [Y].", True),
            ),
        )

    def soc_corpus(self):
        lines = [f"Safari ships with Apple gear {i}." for i in range(269)]
        lines += [f"Safari runs on Google phones {i}." for i in range(256)]
        lines += [f"Chrome is made by Google {i}." for i in range(3)]
        lines += ["Chrome once used Apple code."]
        return build_index(lines)

    def test_safari_pair_table4_style(self):
        kb = self.soc_kb()
        idx = self.soc_corpus()
        keys = [
            (s, "developed-by", t)
            for s in ("Safari", "Chrome")
            for t in ("[X] is a product of [Y].", "[X] was sold to [Y].")
        ]
        preds = manual_predictions(
            {k: ("Apple" if k[0] == "Safari" else "Google") for k in keys}
        )
        pop = build_table("soc", kb, idx, preds)
        rows = {(r.subject, r.object, r.template): r for r in pop.rows}
        para = "[X] is a product of [Y]."
        anti = "[X] was sold to [Y]."
        treated = rows[("Safari", "Apple", para)]
        control = rows[("Safari", "Google", para)]
        assert treated.soc_count == 269 and treated.soc_bin == "L"
        assert control.soc_count == 256 and control.soc_bin == "L"
        assert treated.so_hc and treated.treatment == 1
        assert not control.so_hc and control.treatment == 0
        assert outcome_of(pop, treated) == 1 and outcome_of(pop, control) == 0
        anti_treated = rows[("Safari", "Apple", anti)]
        assert anti_treated.is_anti
        assert not rows[("Safari", "Apple", para)].is_anti
        assert len(pop.pairs) == 4  # 2 subjects x 2 templates

    def test_pair_ordering_invariant(self, crossed_kb, crossed_index):
        preds = baseline_predict(
            "perfect",
            crossed_kb,
            queries=[
                (s, rel, p.template)
                for rel in crossed_kb.relations
                for s in crossed_kb.subjects(rel)
                for p in crossed_kb.patterns
                if p.relation == rel
            ],
        )
        pop = build_table("soc", crossed_kb, crossed_index, preds)
        for i, j in pop.pairs:
            t, c = pop.rows[i], pop.rows[j]
            assert t.soc_count >= c.soc_count
            assert t.so_hc and not c.so_hc
            assert (t.subject, t.template) == (c.subject, c.template)

    def test_single_candidate_relation_has_no_controls(self):
        kb = KnowledgeBase(
            triplets=(Triplet("a", "r", "b"),),
            patterns=(PatternSpec("r", "[X] r [Y]."),),
        )
        idx = build_index(["a met b."])
        preds = manual_predictions({("a", "r", "[X] r [Y]."): "b"})
        with pytest.raises(EmptyPopulationError):
            build_table("soc", kb, idx, preds)


class TestCommonBehavior:
    def all_keys(self, kb):
        keys = []
        for rel in kb.relations:
            for s in kb.subjects(rel):
                for p in kb.patterns:
                    if p.relation == rel:
                        keys.append((s, rel, p.template))
        return keys

    def test_stratify_columns_are_the_verified_adjustment_sets(self):
        # the columns of each canonical adjustment's stratify set, in order
        assert STRATIFY_COLUMNS == {
            "utt": ("template", "kbt", "soc_bin"),
            "poc": ("utt_present",),
            "soc": ("soc_bin",),
        }

    def test_type_preservation_all_tables(self, crossed_kb, crossed_index):
        preds = baseline_predict("perfect", crossed_kb, queries=self.all_keys(crossed_kb))
        for hyp in ("utt", "poc", "soc"):
            pop = build_table(hyp, crossed_kb, crossed_index, preds)
            for row in pop.rows:
                assert row.object in crossed_kb.candidate_objects(row.relation)

    def test_deterministic_construction(self, crossed_kb, crossed_index):
        preds = baseline_predict("perfect", crossed_kb, queries=self.all_keys(crossed_kb))
        for hyp in ("utt", "poc", "soc"):
            a = build_table(hyp, crossed_kb, crossed_index, preds)
            b = build_table(hyp, crossed_kb, crossed_index, preds)
            assert a == b

    def test_missing_predictions_listed(self, crossed_kb, crossed_index):
        empty = PredictionSet(records={}, source_id="none")
        with pytest.raises(MissingPredictionError) as err:
            build_table("soc", crossed_kb, crossed_index, empty)
        assert err.value.missing

    def test_row_and_table_columns_are_fixed(self):
        assert ROW_FIELDS == (
            "subject", "object", "relation", "template", "is_anti", "treatment",
            "soc_count", "soc_bin", "utt_present", "so_hc", "po_hc",
        )
        assert POPULATION_FIELDS == ROW_FIELDS + ("prediction", "outcome")

    def test_match_keys_agree_with_recipes(self, crossed_kb, crossed_index):
        # utt pairs share the triplet; poc and soc pairs share the
        # (subject, template) unit
        for hyp in ("utt", "poc", "soc"):
            key = attrgetter(*RECIPE_KEYS[hyp])
            pop = build_structure(hyp, crossed_kb, crossed_index)
            assert pop.pairs
            for i, j in pop.pairs:
                t, c = pop.rows[i], pop.rows[j]
                assert (t.treatment, c.treatment) == (1, 0)
                assert key(t) == key(c)

    @pytest.mark.parametrize("hyp", HYPOTHESES)
    def test_building_needs_a_corpus_index(self, crossed_kb, hyp):
        with pytest.raises(MissingStatsError):
            build_structure(hyp, crossed_kb, None)

    def test_builds_fetch_a_units_rankings_once(self, crossed_kb, crossed_index):
        # each relation's soc matrix and each (template, candidate) poc count
        # is made once per index, and no builder probes the index per row
        names = ("soc_matrix", "poc_matrix", "soc_count", "poc_count", "utterance_present")
        matrices = {}
        soc_matrix, poc_row = CorpusIndex.soc_matrix, CorpusIndex._poc_row
        counted = []

        def recorded(index, subjects, objects):
            matrix = soc_matrix(index, subjects, objects)
            matrices.setdefault((tuple(subjects), tuple(objects)), set()).add(id(matrix))
            return matrix

        def row(index, template, objects):
            counted.extend((template, obj) for obj in objects)
            return poc_row(index, template, objects)

        with ExitStack() as stack:
            spy = {
                name: stack.enter_context(mock.patch.object(
                    CorpusIndex, name, autospec=True,
                    side_effect=recorded if name == "soc_matrix" else getattr(CorpusIndex, name),
                ))
                for name in names
            }
            stack.enter_context(mock.patch.object(CorpusIndex, "_poc_row", row))
            pops = [build_structure(hyp, crossed_kb, crossed_index) for hyp in HYPOTHESES]
        calls = {name: spy[name].call_count for name in names}
        rows = sum(map(len, pops))
        assert rows == 36
        # one matrix per relation, over its subjects and candidates, that
        # every build reads
        assert sorted(matrices) == sorted(
            (crossed_kb.subjects(r), crossed_kb.candidate_objects(r)) for r in crossed_kb.relations
        )
        assert all(len(made) == 1 for made in matrices.values())
        # a build reads it once for each relation it has rows of
        assert calls["soc_matrix"] == sum(len({row.relation for row in pop.rows}) for pop in pops)
        assert calls["soc_matrix"] + calls["poc_matrix"] < rows
        # each count is made once: 6 templates, 2 candidates each; no row asks
        # for a count or an utterance of its own
        assert sorted(counted) == sorted(
            (p.template, o) for p in crossed_kb.patterns
            for o in crossed_kb.candidate_objects(p.relation)
        )
        assert len(counted) == 6 * 2
        assert calls["soc_count"] == calls["poc_count"] == calls["utterance_present"] == 0


#: The keys each recipe pairs a treated and a control row on.
RECIPE_KEYS = {
    "utt": ("relation", "subject", "object"),
    "poc": ("relation", "subject", "template"),
    "soc": ("relation", "subject", "template"),
}


def soc_counts(kb, stats, relation, subject):
    return {o: stats.soc_count(subject, o) for o in kb.candidate_objects(relation)}


def poc_counts(kb, stats, relation, template):
    return {o: stats.poc_count(template, o) for o in kb.candidate_objects(relation)}


def oracle_row(kb, stats, relation, subject, obj, template, is_anti, treatment):
    """A row from the definitions: counts, their rankings, bins and utterances."""
    soc = soc_counts(kb, stats, relation, subject)
    poc = poc_counts(kb, stats, relation, template)
    return PopulationRow(
        subject, obj, relation, template, is_anti, treatment, soc[obj],
        bin_count(soc[obj], BIN_EDGES),
        stats.utterance_present(instantiate(template, subject, obj)),
        obj == ranked_objects(soc)[0], obj == ranked_objects(poc)[0],
    )


def greedy_oracle(hypothesis, kb, stats, min_poc_frequency):
    """Pairs and diagnostics by build-then-match.

    Builds every candidate row from the definitions (`oracle_row`), splits
    them into treated and control pools in build order, then gives each
    treated row the first unused control that agrees on the recipe's keys.
    """
    treated, pool = [], []
    removed = 0
    if hypothesis == "utt":
        for trip in sorted(kb.triplets):
            for pat in sorted(kb.paraphrases(trip.relation)):
                row = oracle_row(
                    kb, stats, trip.relation, trip.subject, trip.object, pat.template, False, 0
                )
                if row.utt_present:
                    treated.append(row._replace(treatment=1))
                else:
                    pool.append(row)
    elif hypothesis == "poc":
        for relation in kb.relations:
            for pat in sorted(kb.paraphrases(relation)):
                counts = poc_counts(kb, stats, relation, pat.template)
                for subject in kb.subjects(relation):
                    for arm, obj, flag in zip((treated, pool), ranked_objects(counts), (1, 0)):
                        if counts[obj] > min_poc_frequency:
                            arm.append(oracle_row(
                                kb, stats, relation, subject, obj, pat.template, False, flag
                            ))
                        else:
                            removed += 1
    else:
        for relation in kb.relations:
            patterns = sorted(kb.paraphrases(relation)) + sorted(kb.anti_patterns(relation))
            for subject in kb.subjects(relation):
                ranked = ranked_objects(soc_counts(kb, stats, relation, subject))
                for pat in patterns:
                    for arm, obj, flag in zip((treated, pool), ranked, (1, 0)):
                        arm.append(oracle_row(
                            kb, stats, relation, subject, obj, pat.template, pat.is_anti, flag
                        ))
    key = attrgetter(*RECIPE_KEYS[hypothesis])
    free = {}
    for row in pool:
        free.setdefault(key(row), []).append(row)
    pairs = []
    unmatched = 0
    for row in treated:
        controls = free.get(key(row))
        if controls:
            pairs.append((row, controls.pop(0)))
        else:
            unmatched += 1
    return pairs, MatchDiagnostics(unmatched_treated=unmatched, low_frequency_removed=removed)


_SUBJECTS = ("Ann", "Bo", "Cy", "Di")
_OBJECTS = ("Xo", "Yu", "Zed", "Wim")
_TEMPLATES = ("[X] likes [Y].", "[X] knows [Y].", "[Y] hosts [X].", "[X] left [Y].")


@st.composite
def kb_and_corpus(draw):
    """A small KB, its patterns and a corpus of utterances, template
    sentences with outside subjects, and co-mentions."""
    triplets = draw(
        st.lists(
            st.tuples(st.sampled_from(_SUBJECTS), st.sampled_from("rs"),
                      st.sampled_from(_OBJECTS)),
            min_size=2, max_size=8, unique=True,
        )
    )
    relations = sorted({r for _, r, _ in triplets})
    patterns = []
    for relation in relations:
        # the first template is always a paraphrase, so every relation has one
        patterns.append(PatternSpec(relation, _TEMPLATES[0]))
        for template, is_anti in draw(
            st.lists(st.tuples(st.sampled_from(_TEMPLATES), st.booleans()),
                     max_size=5, unique=True)
        ):
            patterns.append(PatternSpec(relation, template, is_anti))
    kb = KnowledgeBase(
        triplets=tuple(Triplet(*t) for t in triplets),
        patterns=tuple(dict.fromkeys(patterns)),
    )
    template = st.sampled_from(_TEMPLATES)
    obj = st.sampled_from(_OBJECTS)
    lines = draw(
        st.lists(
            st.one_of(
                # a triplet's utterance under some template
                st.builds(lambda t, trip: instantiate(t, trip[0], trip[2]), template,
                          st.sampled_from(triplets)),
                st.builds("{} and {} met.".format, st.sampled_from(_SUBJECTS), obj),
            ),
            max_size=20,
        )
    )
    # 0-3 template sentences per (template, object), with subjects outside
    # the KB, so pattern-object counts straddle the floors
    cells = [(t, o) for t in _TEMPLATES for o in _OBJECTS]
    counts = draw(st.lists(st.integers(0, 3), min_size=len(cells), max_size=len(cells)))
    for (t, o), n in zip(cells, counts):
        lines += [instantiate(t, f"Q{i}", o) for i in range(n)]
    return kb, build_index(lines)


class TestPairsByConstruction:
    """Every builder emits exactly the greedy key matcher's pairs."""

    @given(kb_and_corpus(), st.integers(min_value=0, max_value=2))
    @settings(max_examples=150, deadline=None)
    def test_builders_equal_the_greedy_matcher(self, inputs, floor):
        kb, idx = inputs
        for hyp in ("utt", "poc", "soc"):
            pairs, diagnostics = greedy_oracle(hyp, kb, idx, floor)
            if not pairs:
                with pytest.raises(EmptyPopulationError):
                    build_structure(hyp, kb, idx, min_poc_frequency=floor)
                continue
            pop = build_structure(hyp, kb, idx, min_poc_frequency=floor)
            assert pop.diagnostics == diagnostics
            assert set(pop.rows) == {row for pair in pairs for row in pair}
            assert sorted((pop.rows[i], pop.rows[j]) for i, j in pop.pairs) == sorted(pairs)
            assert list(pop.rows) == sorted(pop.rows, key=canonical_order)
            assert list(pop.pairs) == sorted(pop.pairs)

    @given(kb_and_corpus(), st.integers(min_value=0, max_value=2))
    @settings(max_examples=50, deadline=None)
    def test_no_two_built_rows_are_equal(self, inputs, floor):
        # rows are sorted and paired as codes, so two equal rows would stay
        # two rows: the KB drops repeated records and no builder makes a row
        # twice, even from a KB given each record twice
        kb, idx = inputs
        kb = KnowledgeBase(triplets=kb.triplets * 2, patterns=kb.patterns * 2)
        for hyp in HYPOTHESES:
            try:
                pop = build_structure(hyp, kb, idx, min_poc_frequency=floor)
            except EmptyPopulationError:
                continue
            rows = pop.rows
            assert len(set(rows)) == len(rows) == 2 * len(pop.pairs)
            assert {i for pair in pop.pairs for i in pair} == set(range(len(rows)))

    @given(kb_and_corpus(), st.lists(st.integers(min_value=0, max_value=4), max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_bins_are_bin_count_of_the_edges_passed(self, inputs, edges):
        # a build bins each distinct count once; any edges, even unsorted
        # ones, keep `bin_count`'s meaning
        kb, idx = inputs
        edges = tuple(edges)
        for hyp in HYPOTHESES:
            try:
                pop = build_structure(hyp, kb, idx, min_poc_frequency=0, bin_edges=edges)
            except EmptyPopulationError:
                continue
            for row in pop.rows:
                assert row.soc_count == idx.soc_count(row.subject, row.object)
                assert row.soc_bin == bin_count(row.soc_count, edges)

    def test_shared_template_pairs_within_each_pattern(self):
        # a template that is both a paraphrase and an anti-pattern pairs
        # paraphrase with paraphrase and anti-pattern with anti-pattern
        kb = KnowledgeBase(
            triplets=(Triplet("Ann", "r", "Xo"), Triplet("Bo", "r", "Yu")),
            patterns=(PatternSpec("r", _TEMPLATES[0]), PatternSpec("r", _TEMPLATES[0], True)),
        )
        idx = build_index(["Ann and Xo met.", "Ann and Xo met again.", "Ann and Yu met."])
        pop = build_structure("soc", kb, idx)
        assert len(pop.pairs) == 4
        for i, j in pop.pairs:
            assert pop.rows[i].is_anti == pop.rows[j].is_anti

    @pytest.mark.parametrize("hyp", ["utt", "soc"])
    def test_repeated_kb_records_pair_each_row_once(self, tmp_path, hyp):
        ann = Triplet("Ann", "r", "Xo")
        likes = PatternSpec("r", _TEMPLATES[0])
        kb = KnowledgeBase(
            triplets=(ann, ann, Triplet("Bo", "r", "Yu")),
            patterns=(likes, PatternSpec("r", _TEMPLATES[1]), likes),
        )
        pop = build_structure(hyp, kb, build_index(["Ann likes Xo."]))
        assert len(set(pop.pairs)) == len(pop.pairs) > 0
        table, pairs = tmp_path / "pop.tsv", tmp_path / "pairs.tsv"
        write_population(pop, table, pairs)
        assert read_population(table, pairs, hyp).pairs == pop.pairs

    def test_floor_counts_removed_and_unmatched_units(self):
        # likes: the runner-up fails the floor, so its rows are removed and
        # the top rows left unmatched; hosts: both objects fail; knows pairs
        kb = KnowledgeBase(
            triplets=(Triplet("Ann", "r", "Xo"), Triplet("Bo", "r", "Yu")),
            patterns=tuple(PatternSpec("r", t) for t in _TEMPLATES[:3]),
        )
        lines = [f"Q{i} likes Xo." for i in range(3)] + ["Q9 likes Yu."]
        lines += [f"Q{i} knows Xo." for i in range(3)] + ["Q8 knows Yu.", "Q9 knows Yu."]
        lines += ["Xo hosts Q1."]
        pop = build_structure("poc", kb, build_index(lines), min_poc_frequency=1)
        assert pop.diagnostics == MatchDiagnostics(
            unmatched_treated=2, low_frequency_removed=2 + 4
        )
        assert {r.template for r in pop.rows} == {"[X] knows [Y]."}
        assert len(pop.pairs) == 2


class TestUtteranceProbes:
    """A probe is looked up as it is only when normalising could not change it.

    The KB is built directly, so its subjects, objects and templates keep
    double spaces, tabs, leading and trailing blanks, and an empty subject.
    """

    SUBJECTS = ("Ann", " Bo", "Cy  Di", "Ed\tFa", "")
    OBJECTS = ("Xo", "Yu ", " Zed", "Wim")
    TEMPLATES = ("[X] likes [Y].", "[X]  knows [Y].", " [Y] hosts [X]. ", "[X] left\t[Y]")

    def inputs(self):
        triplets = [
            Triplet(subject, "r", obj)
            for i, subject in enumerate(self.SUBJECTS)
            for obj in (self.OBJECTS[i % 4], self.OBJECTS[(i + 1) % 4])
        ]
        patterns = [PatternSpec("r", t) for t in self.TEMPLATES]
        patterns.append(PatternSpec("r", self.TEMPLATES[1], True))
        kb = KnowledgeBase(triplets=tuple(triplets), patterns=tuple(patterns))
        cells = [(t, s, o) for t in self.TEMPLATES for s in self.SUBJECTS for o in self.OBJECTS]
        lines = [instantiate(*cell) for k, cell in enumerate(cells) if k % 5 == 0]
        # each triplet's utterance under one paraphrase, so utt rows pair
        lines += [instantiate(self.TEMPLATES[k % 4], t.subject, t.object)
                  for k, t in enumerate(triplets)]
        lines += [f"{s} and {o} met {k}." for k, (s, o) in enumerate(
            (s, o) for s in self.SUBJECTS for o in self.OBJECTS[: len(s) % 4 + 1])]
        return kb, build_index(lines)

    @staticmethod
    def probe(template, subject, obj):
        left, right = split_around(template, "[Y]", subject)
        return left + obj + right

    @pytest.mark.parametrize("hyp", HYPOTHESES)
    def test_each_rows_flag_is_utterance_present_of_its_probe(self, hyp):
        kb, idx = self.inputs()
        pop = build_structure(hyp, kb, idx, min_poc_frequency=0)
        flags = [
            idx.utterance_present(self.probe(row.template, row.subject, row.object))
            for row in pop.rows
        ]
        assert [row.utt_present for row in pop.rows] == flags
        # some stored probe is not in normal form as spliced
        assert any(
            flag and normalize_text(probe) != probe
            for flag, probe in zip(flags, (
                self.probe(row.template, row.subject, row.object) for row in pop.rows))
        )

    def test_heuristic_utt_takes_the_first_candidate_utterance_present_finds(self):
        kb, idx = self.inputs()
        queries = [(s, "r", p.template) for p in kb.patterns for s in kb.subjects("r")]
        preds = baseline_predict("heuristic-utt", kb, stats=idx, queries=queries)
        candidates = kb.candidate_objects("r")
        found = 0
        for subject, relation, template in queries:
            stored = [
                o for o in candidates if idx.utterance_present(self.probe(template, subject, o))
            ]
            found += bool(stored)
            expected = (
                stored[0] if stored
                else ranked_objects({o: idx.soc_count(subject, o) for o in candidates})[0]
            )
            assert preds.get(subject, relation, template) == expected, (subject, template)
        assert 0 < found < len(queries)


class TestEmission:
    def test_write_read_round_trip(self, tmp_path, crossed_kb, crossed_index):
        keys = TestCommonBehavior().all_keys(crossed_kb)
        preds = baseline_predict("perfect", crossed_kb, queries=keys)
        pop = build_table("soc", crossed_kb, crossed_index, preds)
        table = tmp_path / "soc.tsv"
        pairs = tmp_path / "soc_pairs.tsv"
        write_population(pop, table, pairs)
        loaded = read_population(table, pairs, "soc")
        assert loaded.rows == pop.rows
        assert loaded.pairs == pop.pairs
        assert loaded.predicted == pop.predicted
        assert loaded.outcomes == pop.outcomes

    def test_rows_are_plain_tuples_that_round_trip(self, tmp_path, crossed_kb, crossed_index):
        pop = build_structure("soc", crossed_kb, crossed_index)
        write_population(pop, tmp_path / "soc.tsv", tmp_path / "soc_pairs.tsv")
        loaded = read_population(tmp_path / "soc.tsv", tmp_path / "soc_pairs.tsv", "soc")
        for row, back in zip(pop.rows, loaded.rows, strict=True):
            assert type(row) is type(back) is PopulationRow
            assert isinstance(row, tuple)
            assert back == row == tuple(getattr(row, name) for name in ROW_FIELDS)
        assert list(loaded.rows) == sorted(loaded.rows, key=canonical_order)

    def test_populations_hold_no_rows_until_asked(self, tmp_path, crossed_kb, crossed_index):
        # built, emitted and read back from the columns: no row is kept
        # until something reads `rows`
        pop = build_structure("soc", crossed_kb, crossed_index)
        write_population(pop, tmp_path / "soc.tsv", tmp_path / "soc_pairs.tsv")
        loaded = read_population(tmp_path / "soc.tsv", tmp_path / "soc_pairs.tsv", "soc")
        for form in (pop, loaded):
            assert "rows" not in vars(form)
        assert loaded.rows == pop.rows

    def test_comparing_and_failed_scoring_build_no_rows(
        self, tmp_path, crossed_kb, crossed_index
    ):
        pop = build_structure("soc", crossed_kb, crossed_index)
        population.write_cache_entry(pop, tmp_path / "soc.pop")
        cached = population.read_cache_entry(tmp_path / "soc.pop", "soc")
        assert cached == pop
        utt = build_structure("utt", crossed_kb, crossed_index)
        assert cached != replace(cached, strings=utt.strings, codes=utt.codes)
        with pytest.raises(MissingReferenceError):
            score_population(cached, manual_predictions(dict.fromkeys(cached.cloze_keys)))
        for form in (pop, cached):
            assert "rows" not in vars(form)

    def test_whitespace_in_predictions_scores_as_a_per_row_flag(
        self, crossed_kb, crossed_index
    ):
        pop = build_structure("soc", crossed_kb, crossed_index)
        candidates = {r: crossed_kb.candidate_objects(r) for r in crossed_kb.relations}
        padding = ("", " ", "\t", "  ")
        preds = manual_predictions(
            {
                key: padding[i % 4] + candidates[key[1]][i % 2] + padding[(i + 1) % 4]
                for i, key in enumerate(keys_of(pop))
            }
        )
        scored = score_population(pop, preds)
        per_row = [
            outcome_flag("soc", row.object, prediction)
            for row, prediction in zip(pop.rows, scored.predicted)
        ]
        assert list(scored.outcomes) == per_row
        assert 0 < sum(per_row) < len(per_row)

    def test_unscored_population_writes_empty_scores(self, tmp_path, crossed_kb, crossed_index):
        pop = build_structure("soc", crossed_kb, crossed_index)
        assert pop.predicted == pop.outcomes == ()
        table = tmp_path / "soc.tsv"
        write_population(pop, table, tmp_path / "soc_pairs.tsv")
        lines = table.read_text(encoding="utf-8").splitlines()
        assert all(line.endswith("\t\t0") for line in lines[1:])
        loaded = read_population(table, tmp_path / "soc_pairs.tsv", "soc")
        assert loaded.rows == pop.rows
        assert loaded.predicted == ("",) * len(pop.rows)
        assert loaded.outcomes == (0,) * len(pop.rows)

    def test_scoring_shares_the_rows(self, crossed_kb, crossed_index):
        keys = TestCommonBehavior().all_keys(crossed_kb)
        pop = build_structure("soc", crossed_kb, crossed_index)
        scored = score_population(pop, baseline_predict("perfect", crossed_kb, queries=keys))
        # a scored copy shares the columns and pairs, and derives neither rows nor keys
        assert scored.codes is pop.codes
        assert scored.strings is pop.strings
        assert scored.pairs is pop.pairs
        assert "rows" not in vars(scored) and "_keys" not in vars(scored)
        assert scored.cloze_keys == pop.cloze_keys
        assert len(scored.predicted) == len(scored.outcomes) == len(pop.rows)

    def _written(self, tmp_path, crossed_kb, crossed_index):
        keys = TestCommonBehavior().all_keys(crossed_kb)
        preds = baseline_predict("perfect", crossed_kb, queries=keys)
        pop = build_table("soc", crossed_kb, crossed_index, preds)
        table = tmp_path / "soc.tsv"
        pairs = tmp_path / "soc_pairs.tsv"
        write_population(pop, table, pairs)
        return pop, table, pairs

    def test_truncated_table_rejected(self, tmp_path, crossed_kb, crossed_index):
        pop, table, pairs = self._written(tmp_path, crossed_kb, crossed_index)
        lines = table.read_text(encoding="utf-8").splitlines(keepends=True)
        table.write_text("".join(lines[: 1 + len(pop.rows) // 2]), encoding="utf-8")
        with pytest.raises(ParseError) as err:
            read_population(table, pairs, "soc")
        assert "outside" in str(err.value)
        assert err.value.line >= 2

    def test_swapped_pair_rejected(self, tmp_path, crossed_kb, crossed_index):
        pop, table, pairs = self._written(tmp_path, crossed_kb, crossed_index)
        lines = pairs.read_text(encoding="utf-8").splitlines(keepends=True)
        i, j = pop.pairs[1]
        lines[2] = f"{j}\t{i}\n"
        pairs.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(ParseError) as err:
            read_population(table, pairs, "soc")
        assert err.value.line == 3
        assert "expected 1" in str(err.value)

    def test_row_in_two_pairs_rejected(self, tmp_path, crossed_kb, crossed_index):
        # a repeated pair line used to load, and raise the reported pair count
        pop, table, pairs = self._written(tmp_path, crossed_kb, crossed_index)
        lines = pairs.read_text(encoding="utf-8").splitlines(keepends=True)
        pairs.write_text("".join(lines + [lines[1]]), encoding="utf-8")
        with pytest.raises(ParseError) as err:
            read_population(table, pairs, "soc")
        assert err.value.line == len(lines) + 1
        assert f"row {pop.pairs[0][0]} is in more than one pair" in str(err.value)

    def test_unpaired_row_rejected(self, tmp_path, crossed_kb, crossed_index):
        # a row that no pair names used to load, and estimation read it
        pop, table, pairs = self._written(tmp_path, crossed_kb, crossed_index)
        lines = table.read_text(encoding="utf-8").splitlines(keepends=True)
        cells = lines[1 + pop.pairs[0][1]].split("\t")
        cells[POPULATION_FIELDS.index("soc_bin")] = "XL"
        table.write_text("".join(lines) + "\t".join(cells), encoding="utf-8")
        with pytest.raises(ParseError, match=f"row {len(pop.rows)} of .* is in no pair"):
            read_population(table, pairs, "soc")

    @pytest.mark.parametrize(
        "edit",
        [lambda lines: lines[1:], lambda lines: ["control\ttreated"] + lines[1:]],
        ids=["missing", "swapped"],
    )
    def test_pairs_header_required(self, tmp_path, crossed_kb, crossed_index, edit):
        # without the check, a pairs file that lost its header loads with
        # its first pair silently dropped
        pop, table, pairs = self._written(tmp_path, crossed_kb, crossed_index)
        lines = pairs.read_text(encoding="utf-8").splitlines()
        pairs.write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            read_population(table, pairs, "soc")
        assert err.value.line == 1
        assert "unexpected pairs header" in str(err.value)

    @pytest.mark.parametrize(
        "lineno, edit, message",
        [
            (1, lambda cells: ["subject", "object"], "unexpected population header"),
            (3, lambda cells: cells[:4] + ["yes"] + cells[5:], "bad value 'yes' for column 'is_anti'"),
            (4, lambda cells: cells[:6] + ["x"] + cells[7:], "bad value 'x' for column 'soc_count'"),
            (5, lambda cells: cells[:-1] + ["x"], "bad value 'x' for column 'outcome'"),
            (6, lambda cells: cells[:-2], "wrong cell count"),
        ],
    )
    def test_bad_cells_rejected_with_line(
        self, tmp_path, crossed_kb, crossed_index, lineno, edit, message
    ):
        pop, table, pairs = self._written(tmp_path, crossed_kb, crossed_index)
        lines = table.read_text(encoding="utf-8").splitlines()
        lines[lineno - 1] = "\t".join(edit(lines[lineno - 1].split("\t")))
        table.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            read_population(table, pairs, "soc")
        assert err.value.line == lineno
        assert message in str(err.value)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda cells: cells[:1] + ["x"], "bad value 'x' for column 'control'"),
            (lambda cells: cells + cells[:1], "wrong cell count"),
        ],
    )
    def test_bad_pair_cells_rejected_like_table_cells(
        self, tmp_path, crossed_kb, crossed_index, edit, message
    ):
        _, table, pairs = self._written(tmp_path, crossed_kb, crossed_index)
        lines = pairs.read_text(encoding="utf-8").splitlines()
        lines[2] = "\t".join(edit(lines[2].split("\t")))
        pairs.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            read_population(table, pairs, "soc")
        assert err.value.line == 3
        assert message in str(err.value)

    @pytest.mark.parametrize("subject, obj, prediction, column, cell", [
        ("Ann\tLee", "Xo", "Yu", "subject", "'Ann\\tLee'"),
        ("Ann", "Xo", "Xo\n", "prediction", "'Xo\\n'"),
        ("Ann", "Xo\r", "Yu", "object", "'Xo\\r'"),
    ])
    def test_a_cell_the_reader_cannot_read_back_is_refused(
        self, tmp_path, subject, obj, prediction, column, cell
    ):
        # written, the table would read back with a wrong cell count
        kb = KnowledgeBase(
            triplets=(Triplet(subject, "r", obj), Triplet("Bo", "r", "Yu")),
            patterns=(PatternSpec("r", "[X] likes [Y]."),),
        )
        pop = build_structure("soc", kb, build_index(["Bo likes Yu."]))
        predictions = manual_predictions(dict.fromkeys(pop.cloze_keys, prediction))
        scored = score_population(pop, predictions)
        assert 1 in scored.outcomes  # "Xo\n" still scores as a hit on the rows of Xo
        with pytest.raises(InputError) as err:
            write_population(scored, tmp_path / "soc.tsv", tmp_path / "soc_pairs.tsv")
        assert f"{column!r}" in str(err.value) and cell in str(err.value)

    def test_rows_sorted_canonically(self, crossed_kb, crossed_index):
        keys = TestCommonBehavior().all_keys(crossed_kb)
        preds = baseline_predict("perfect", crossed_kb, queries=keys)
        pop = build_table("soc", crossed_kb, crossed_index, preds)
        sort_keys = list(map(canonical_order, pop.rows))
        assert sort_keys == sorted(sort_keys)

    def test_observation_table_adapter(self, crossed_kb, crossed_index):
        keys = TestCommonBehavior().all_keys(crossed_kb)
        preds = baseline_predict("perfect", crossed_kb, queries=keys)
        pop = build_table("soc", crossed_kb, crossed_index, preds)
        table = population_observation_table(pop)
        assert "soc_bin" in table.columns
        assert len(table.rows) == len(pop.rows)
        anti_rows = [
            row
            for row, pr in zip(table.rows, pop.rows)
            if pr.is_anti
        ]
        kbt_idx = table.columns.index("kbt")
        assert all(r[kbt_idx] == 0 for r in anti_rows)


def _types(rows):
    """Each row's cell types: a bool read back as 1 would be written as 1."""
    return [tuple(map(type, row)) for row in rows]


def _damaged_pairs(pairs):
    """The pairs with a pair's arms swapped, with a pair repeated, and with one dropped."""
    (i, j), rest = pairs[0], pairs[1:]
    return {
        "swapped_arms": ((j, i),) + rest,
        "repeated_pair": pairs + pairs[:1],
        "dropped_pair": rest,
    }


#: What a cache reader raises for an entry that is a miss.
_MISS = (OSError, ValueError, KeyError, TypeError, IndexError)

_ENTRY_DAMAGES = ("truncated_column", "code_past_table", "negative_code", "flag_of_two",
                  "swapped_arms", "repeated_pair", "dropped_pair")


def _damaged_entry(data, damage):
    """A cache entry with one column edited, re-digested so the edit is read."""
    magic, header, columns = decode_entry(data)
    treated, control = columns["treated"], columns["control"]
    if damage == "truncated_column":
        del columns["soc_bin"][-1]
    elif damage == "code_past_table":
        columns["object"][0] = len(header["strings"])
    elif damage == "negative_code":
        columns["template"][-1] = -1
    elif damage == "flag_of_two":
        columns["utt_present"][0] = 2
    elif damage == "swapped_arms":
        treated[0], control[0] = control[0], treated[0]
    elif damage == "repeated_pair":
        treated.append(treated[-1])
        control.append(control[-1])
        header["pairs"] += 1
    else:
        del treated[0], control[0]
        header["pairs"] -= 1
    return encode_entry(magic, header, columns)


class TestStoredForms:
    """The cache entry and the emitted tables give back what was stored,
    and their readers share one pair check."""

    @given(kb_and_corpus(), st.data())
    @settings(max_examples=25, deadline=None)
    def test_round_trips_and_pair_checks(self, inputs, data):
        kb, idx = inputs
        floor = data.draw(st.integers(min_value=0, max_value=2))
        with tempfile.TemporaryDirectory() as tmp:
            entry, table, pairs = (Path(tmp) / name for name in ("e.pop", "t.tsv", "p.tsv"))
            for hyp in HYPOTHESES:
                try:
                    pop = build_structure(hyp, kb, idx, min_poc_frequency=floor)
                except EmptyPopulationError:
                    continue
                population.write_cache_entry(pop, entry)
                cached = population.read_cache_entry(entry, hyp)
                assert cached == pop
                assert _types(cached.rows) == _types(pop.rows)
                assert _types(cached.pairs) == _types(pop.pairs)

                objects = data.draw(
                    st.lists(st.sampled_from(_OBJECTS), min_size=len(pop.cloze_keys),
                             max_size=len(pop.cloze_keys))
                )
                scored = score_population(pop, manual_predictions(zip(pop.cloze_keys, objects)))
                write_population(scored, table, pairs)
                back = read_population(table, pairs, hyp)
                assert back.rows == scored.rows
                assert _types(back.rows) == _types(scored.rows)
                assert back.pairs == scored.pairs
                assert back.predicted == scored.predicted
                assert back.outcomes == scored.outcomes

                for damage, bad in _damaged_pairs(pop.pairs).items():
                    population.write_cache_entry(replace(pop, pairs=bad), entry)
                    with pytest.raises(ValueError):
                        population.read_cache_entry(entry, hyp)
                    write_population(replace(scored, pairs=bad), table, pairs)
                    with pytest.raises(ParseError):
                        read_population(table, pairs, hyp)

                population.write_cache_entry(pop, entry)
                original = entry.read_bytes()
                for damage in _ENTRY_DAMAGES:
                    entry.write_bytes(_damaged_entry(original, damage))
                    with pytest.raises(_MISS):
                        population.read_cache_entry(entry, hyp)
                    population.write_cache_entry(pop, entry)
                    assert entry.read_bytes() == original, damage

    @given(st.lists(st.integers(min_value=0, max_value=1), max_size=6), st.data())
    def test_pair_check_names_the_first_fault(self, treatment, data):
        # each arm's index mostly a row of that arm, so that repeats are reached
        def arm_index(arm):
            rows = [row for row, t in enumerate(treatment) if t == arm]
            anywhere = st.integers(-1, len(treatment))
            return st.one_of(st.sampled_from(rows), anywhere) if rows else anywhere

        pairs = data.draw(st.lists(st.tuples(arm_index(1), arm_index(0)), max_size=4))

        def first_fault(check):
            try:
                check()
            except population._PairingError as exc:
                return str(exc), exc.pair, exc.row
            return None

        def one_pair_after_another():
            n, paired = len(treatment), set()
            for k, (i, j) in enumerate(pairs):
                for index, arm in ((i, 1), (j, 0)):
                    if not 0 <= index < n:
                        raise population._PairingError(
                            f"pair index {index} outside the {n} table rows", k)
                    if treatment[index] != arm:
                        raise population._PairingError(
                            f"pair row {index} has treatment {treatment[index]}, "
                            f"expected {arm}", k)
                    if index in paired:
                        raise population._PairingError(f"row {index} is in more than one pair", k)
                    paired.add(index)
            unpaired = sorted(set(range(n)) - paired)
            if unpaired:
                raise population._PairingError(f"row {unpaired[0]} is in no pair", row=unpaired[0])

        vectorised = first_fault(lambda: population._check_pairs(
            np.array(treatment, np.uint8), np.array(pairs, np.int32).reshape(-1, 2)))
        assert vectorised == first_fault(one_pair_after_another)

    def test_empty_emitted_table_reads_back(self, tmp_path):
        # no rows and no pairs: the pairs read back as `np.array([])`, a float array
        codes = {name: np.zeros(0, dtype) for name, dtype in population._DTYPES.items()}
        empty = population.MatchedPopulation("soc", (), codes, ())
        table, pairs = tmp_path / "t.tsv", tmp_path / "p.tsv"
        write_population(empty, table, pairs)
        back = read_population(table, pairs, "soc")
        assert (back.rows, back.pairs, back.predicted, back.outcomes) == ((), (), (), ())

    def test_failed_cache_write_keeps_the_old_entry(
        self, tmp_path, crossed_kb, crossed_index, monkeypatch
    ):
        pop = build_structure("soc", crossed_kb, crossed_index)
        entry = tmp_path / "soc-key.pop"
        population.write_cache_entry(pop, entry)
        old = entry.read_bytes()
        write_sealed = population.write_sealed
        written = []

        def fail_after_first_chunk(path, magic, chunks):
            def cut():
                for chunk in chunks:
                    if written:
                        raise OSError(28, "No space left on device")
                    written.append(chunk)
                    yield chunk
            return write_sealed(path, magic, cut())

        monkeypatch.setattr(population, "write_sealed", fail_after_first_chunk)
        with pytest.raises(OSError):
            population.write_cache_entry(build_structure("utt", crossed_kb, crossed_index), entry)
        assert len(written) == 1
        assert entry.read_bytes() == old
        assert population.read_cache_entry(entry, "soc") == pop
        assert list(tmp_path.iterdir()) == [entry]


@given(st.lists(st.tuples(*[st.sampled_from((0, 1, 2**31 - 2, 2**31 - 1))] * 4), min_size=1))
def test_distinct_rows_sort_and_number_as_tuples(rows):
    # four columns of codes near 2**31 outgrow int64 in mixed radix, so the
    # numbering is renumbered densely on the way
    columns = [np.array(column, np.int64) for column in zip(*rows)]
    distinct, index = population._distinct(*columns)
    expected = sorted(set(rows))
    assert list(zip(*distinct)) == expected
    assert [expected[i] for i in index] == rows


def row_built_table(pop):
    """The observation table built from the rows, one tuple per row."""
    return ObservationTable(
        ("relation", "template", "kbt", "soc_bin", "utt_present", "treatment", "outcome"),
        tuple(
            (row.relation, row.template, 0 if row.is_anti else 1, row.soc_bin,
             row.utt_present, row.treatment, outcome)
            for row, outcome in zip(pop.rows, pop.outcomes, strict=True)
        ),
    )


class TestCodedColumns:
    """Scores and observation tables read from the columns equal the row-by-row ones."""

    @given(kb_and_corpus(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_coded_outcomes_and_table_equal_the_rows(self, inputs, data):
        kb, idx = inputs
        floor = data.draw(st.integers(min_value=0, max_value=2))
        predicted = st.sampled_from(_OBJECTS + tuple(f" {obj}\t" for obj in _OBJECTS))
        with tempfile.TemporaryDirectory() as tmp:
            entry = Path(tmp) / "e.pop"
            for hyp in HYPOTHESES:
                try:
                    pop = build_structure(hyp, kb, idx, min_poc_frequency=floor)
                except EmptyPopulationError:
                    continue
                population.write_cache_entry(pop, entry)
                keys = pop.cloze_keys
                records = dict(zip(keys, data.draw(
                    st.lists(predicted, min_size=len(keys), max_size=len(keys)))))
                # built and read back: both are columns only
                for form in (pop, population.read_cache_entry(entry, hyp)):
                    scored = score_population(form, manual_predictions(records))
                    assert list(scored.outcomes) == [
                        outcome_flag(hyp, row.object, records[row.subject, row.relation,
                                                             row.template])
                        for row in pop.rows
                    ]
                    table = population_observation_table(scored)
                    expected = row_built_table(scored)
                    assert table == expected
                    assert _types(table.rows) == _types(expected.rows)


def padded(predictions):
    """The same predictions with whitespace around every other one."""
    return manual_predictions(
        {key: (" \t" + obj + " " if i % 2 else obj)
         for i, (key, obj) in enumerate(sorted(predictions.records.items()))},
        source=predictions.source_id,
    )


def assert_scored_per_row(pop, predictions):
    """Oracle: one records[key] lookup and one `outcome_flag` call per row."""
    scored = score_population(pop, predictions)
    keys = [(r.subject, r.relation, r.template) for r in pop.rows]
    expected = [predictions.records[key] for key in keys]
    assert list(scored.predicted) == expected
    assert list(scored.outcomes) == [
        outcome_flag(pop.hypothesis, row.object, prediction)
        for row, prediction in zip(pop.rows, expected)
    ]
    assert all(type(flag) is int for flag in scored.outcomes)


class TestScoringOracle:
    """Scoring by distinct cloze key equals the per-row definition of a hit."""

    def prediction_sets(self, kb, stats, keys):
        sets = [baseline_predict(kind, kb, stats=stats, queries=keys)
                for kind in ("perfect", "heuristic-utt", "heuristic-poc", "heuristic-soc")]
        sets += [baseline_predict("random", kb, queries=keys, seed=seed) for seed in range(3)]
        return sets + [padded(p) for p in sets]

    @pytest.mark.parametrize("fixture", ["golden", "crossed"])
    def test_fixture_populations(self, fixture, crossed_kb, crossed_index):
        if fixture == "golden":
            kb, stats = golden_fixture.knowledge_base(), golden_fixture.corpus_index()
            min_poc = 5
        else:
            kb, stats, min_poc = crossed_kb, crossed_index, 0
        keys = TestCommonBehavior().all_keys(kb)
        sets = self.prediction_sets(kb, stats, keys)
        if fixture == "golden":
            sets.append(golden_fixture.predictions(kb))
        for hyp in ("utt", "poc", "soc"):
            pop = build_structure(hyp, kb, stats, min_poc_frequency=min_poc)
            for predictions in sets:
                assert_scored_per_row(pop, predictions)

    def test_generated_checkpoints(self, tmp_path):
        gen = load_generator()
        sizes = gen.Sizes(relations=3, subjects=12, candidates=6, sentences=1500,
                          comention_max=30, checkpoints=(0.0, 0.5, 1.0))
        paths = gen.Corpus(sizes, seed=3).write(tmp_path)
        kb = load_knowledge_base(paths["kb"], paths["patterns"])
        stats = build_index(str(paths["corpus"]))
        pops = [build_structure(hyp, kb, stats) for hyp in ("utt", "poc", "soc")]
        for name in sorted(p for p in paths if p.startswith("checkpoint")):
            predictions = load_predictions(paths[name], kb)
            for pop in pops:
                assert_scored_per_row(pop, predictions)

    def test_read_back_population_scores_the_same(self, tmp_path, crossed_kb, crossed_index):
        keys = TestCommonBehavior().all_keys(crossed_kb)
        pop = build_structure("soc", crossed_kb, crossed_index)
        write_population(pop, tmp_path / "soc.tsv", tmp_path / "soc_pairs.tsv")
        loaded = read_population(tmp_path / "soc.tsv", tmp_path / "soc_pairs.tsv", "soc")
        assert loaded.cloze_keys == pop.cloze_keys
        assert loaded.key_index.tolist() == pop.key_index.tolist()
        loaded_keys, keys_table = ClozeKeyTable({"soc": loaded}), ClozeKeyTable({"soc": pop})
        assert loaded_keys.object_ids == keys_table.object_ids
        assert loaded_keys.row_objects["soc"].tolist() == keys_table.row_objects["soc"].tolist()
        for predictions in self.prediction_sets(crossed_kb, crossed_index, keys):
            assert score_population(loaded, predictions) == score_population(pop, predictions)

    def test_population_carries_its_cloze_key_index(self, crossed_kb, crossed_index):
        for hyp in ("utt", "poc", "soc"):
            pop = build_structure(hyp, crossed_kb, crossed_index, min_poc_frequency=0)
            assert list(pop.cloze_keys) == keys_of(pop)
            assert [pop.cloze_keys[i] for i in pop.key_index] == [
                (r.subject, r.relation, r.template) for r in pop.rows
            ]
            table = ClozeKeyTable({hyp: pop})
            trimmed = list(table.object_ids)
            assert [trimmed[i] for i in table.row_objects[hyp]] == [
                r.object.strip() for r in pop.rows
            ]
            scored = score_population(pop, baseline_predict(
                "perfect", crossed_kb, queries=pop.cloze_keys))
            assert scored.codes is pop.codes
            assert scored.strings is pop.strings
            assert scored.pairs is pop.pairs
            assert "rows" not in vars(scored) and "_keys" not in vars(scored)
            assert scored.cloze_keys == pop.cloze_keys
            assert scored.key_index.tolist() == pop.key_index.tolist()

    def test_missing_keys_listed_sorted_once(self, crossed_kb, crossed_index):
        pop = build_structure("soc", crossed_kb, crossed_index)
        keys = keys_of(pop)
        kept = manual_predictions({key: "France" for key in keys[1::2]})
        with pytest.raises(MissingPredictionError) as err:
            score_population(pop, kept)
        missing = tuple(keys[::2])
        assert err.value.missing == missing
        sample = ", ".join(map(repr, missing[:5]))
        assert str(err.value) == f"{len(missing)} cloze keys lack predictions (e.g. {sample})"

    def test_outcome_flag_errors_still_raise(self, tmp_path, crossed_kb, crossed_index):
        pop = build_structure("soc", crossed_kb, crossed_index)
        keys = keys_of(pop)
        with pytest.raises(MissingReferenceError, match="no prediction to compare"):
            score_population(pop, manual_predictions(dict.fromkeys(keys)))
        perfect = baseline_predict("perfect", crossed_kb, queries=keys)
        with pytest.raises(ValueError, match="unknown hypothesis"):
            score_population(replace(pop, hypothesis="nope"), perfect)
        # a read-back table whose object cell is blank has no reference object
        table, pairs = tmp_path / "soc.tsv", tmp_path / "soc_pairs.tsv"
        write_population(pop, table, pairs)
        lines = table.read_text(encoding="utf-8").splitlines()
        cells = lines[3].split("\t")
        lines[3] = "\t".join(cells[:1] + [" "] + cells[2:])
        table.write_text("\n".join(lines) + "\n", encoding="utf-8")
        blank = read_population(table, pairs, "soc")
        records = {(r.subject, r.relation, r.template): "France" for r in blank.rows}
        with pytest.raises(MissingReferenceError, match="no reference object"):
            score_population(blank, manual_predictions(records))

    def test_cells_and_accuracy_raise_what_scoring_raises(self, crossed_kb, crossed_index):
        # the run's key table checks a set before it counts cells or takes the
        # accuracy, and raises what `score_population` raises: a set missing
        # keys (even with a None elsewhere), a None prediction, an unknown
        # hypothesis; strata are numbered and golds coded only after the check
        def raised(call):
            with pytest.raises(Exception) as err:
                call()
            return type(err.value), str(err.value), getattr(err.value, "missing", None)

        for hyp in ("utt", "poc", "soc"):
            pop = build_structure(hyp, crossed_kb, crossed_index, min_poc_frequency=0)
            keys = keys_of(pop)
            perfect = baseline_predict("perfect", crossed_kb, queries=keys)
            holes = dict.fromkeys(keys[1::2], "France") | dict.fromkeys(keys[3::4])
            cases = [
                (pop, manual_predictions({key: "France" for key in keys[1::2]})),
                (pop, manual_predictions(holes)),
                (pop, manual_predictions(dict.fromkeys(keys))),
                (pop, manual_predictions(dict.fromkeys(keys, "France") | {keys[-1]: None})),
                (replace(pop, hypothesis="nope"), perfect),
            ]
            for case, predictions in cases:
                expected = raised(lambda: score_population(case, predictions))
                table = ClozeKeyTable({hyp: case}, crossed_kb)
                assert raised(lambda: table.cells(hyp, predictions)) == expected, hyp
                assert table._strata == {}
                if hyp == "utt":
                    assert raised(lambda: table.accuracy(predictions)) == expected
                    assert "_golds" not in vars(table)
            table = ClozeKeyTable({hyp: pop}, crossed_kb)
            assert table.cells(hyp, perfect).sum() == len(pop)
            assert table.accuracy(perfect) == (1.0 if hyp == "utt" else None)
