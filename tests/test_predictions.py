"""Prediction loading, control baselines, outcome flags."""

import json

import pytest

from corpuscausal.corpus import build_index, instantiate, ranked_objects, split_around
from corpuscausal.errors import (
    CandidateViolationError,
    DuplicateKeyError,
    MissingReferenceError,
    MissingStatsError,
    ParseError,
)
from corpuscausal.kb import KnowledgeBase, PatternSpec, Triplet
from corpuscausal.predictions import (
    baseline_predict,
    load_predictions,
    outcome_flag,
    save_predictions,
)

import golden_fixture
from conftest import crossed_corpus_lines, write_jsonl


def prediction_record(subject, relation, template, prediction, source="model-a"):
    return {
        "subject": subject,
        "relation": relation,
        "template": template,
        "prediction": prediction,
        "source_id": source,
    }


@pytest.fixture
def aired_kb():
    return KnowledgeBase(
        triplets=(
            Triplet("True Detective", "aired-on", "HBO"),
            Triplet("Daria", "aired-on", "MTV"),
        ),
        patterns=(PatternSpec("aired-on", "[X] was originally aired on [Y]."),),
    )


class TestLoadPredictions:
    def test_two_valid_records(self, tmp_path, aired_kb):
        path = tmp_path / "preds.jsonl"
        t = "[X] was originally aired on [Y]."
        write_jsonl(
            path,
            [
                prediction_record("True Detective", "aired-on", t, "HBO"),
                prediction_record("Daria", "aired-on", t, "HBO"),
            ],
        )
        preds = load_predictions(path, aired_kb)
        assert len(preds) == 2
        assert preds.source_id == "model-a"
        assert preds.get("Daria", "aired-on", t) == "HBO"

    def test_candidate_violation(self, tmp_path, aired_kb):
        path = tmp_path / "preds.jsonl"
        t = "[X] was originally aired on [Y]."
        write_jsonl(
            path, [prediction_record("True Detective", "aired-on", t, "TV")]
        )
        with pytest.raises(CandidateViolationError):
            load_predictions(path, aired_kb)

    def test_duplicate_key(self, tmp_path, aired_kb):
        path = tmp_path / "preds.jsonl"
        t = "[X] was originally aired on [Y]."
        rec = prediction_record("Daria", "aired-on", t, "MTV")
        write_jsonl(path, [rec, rec])
        with pytest.raises(DuplicateKeyError):
            load_predictions(path, aired_kb)

    def test_mixed_source_ids(self, tmp_path, aired_kb):
        path = tmp_path / "preds.jsonl"
        t = "[X] was originally aired on [Y]."
        write_jsonl(
            path,
            [
                prediction_record("Daria", "aired-on", t, "MTV", source="a"),
                prediction_record("True Detective", "aired-on", t, "HBO", source="b"),
            ],
        )
        with pytest.raises(ParseError):
            load_predictions(path, aired_kb)

    def test_round_trip(self, tmp_path, aired_kb):
        path = tmp_path / "preds.jsonl"
        t = "[X] was originally aired on [Y]."
        write_jsonl(
            path,
            [
                prediction_record("True Detective", "aired-on", t, "HBO"),
                prediction_record("Daria", "aired-on", t, "MTV"),
            ],
        )
        preds = load_predictions(path, aired_kb)
        out = tmp_path / "again.jsonl"
        save_predictions(preds, out)
        again = load_predictions(out, aired_kb)
        assert again == preds


class TestLoadPredictionsOncePerDistinctValue:
    """Each distinct string is checked once, yet every line is still checked."""

    T = "[X] was originally aired on [Y]."

    @pytest.mark.parametrize(
        "field, bad, message",
        [
            ("subject", 7, "field 'subject' must be a non-empty string"),
            ("subject", "   ", "field 'subject' must be a non-empty string"),
            ("template", ["Daria"], "field 'template' must be a non-empty string"),
            ("prediction", None, "field 'prediction' must be a non-empty string"),
            ("source_id", "", "field 'source_id' must be a non-empty string"),
            ("relation", ..., "missing field 'relation'"),
        ],
    )
    def test_bad_field_after_the_same_value_was_valid(
        self, tmp_path, aired_kb, field, bad, message
    ):
        path = tmp_path / "preds.jsonl"
        good = prediction_record("Daria", "aired-on", self.T, "MTV")
        later = prediction_record("True Detective", "aired-on", self.T, "MTV")
        if bad is ...:
            del later[field]
        else:
            later[field] = bad
        write_jsonl(path, [good, good | {"subject": "Archer"}, later])
        with pytest.raises(ParseError) as err:
            load_predictions(path, aired_kb)
        assert err.value.line == 3
        assert message in str(err.value)

    def test_whitespace_variants_of_one_value(self, tmp_path, aired_kb):
        path = tmp_path / "preds.jsonl"
        write_jsonl(
            path,
            [
                prediction_record("Daria", "aired-on", self.T, "MTV"),
                prediction_record("True  Detective", " aired-on", self.T + " ", " MTV "),
                prediction_record("Archer", "aired-on\t", "[X] was  originally aired on [Y].",
                                  "\tHBO", source=" model-a"),
            ],
        )
        preds = load_predictions(path, aired_kb)
        assert preds.records == {
            ("Daria", "aired-on", self.T): "MTV",
            ("True Detective", "aired-on", self.T): "MTV",
            ("Archer", "aired-on", self.T): "HBO",
        }
        assert preds.source_id == "model-a"

    def test_whitespace_variant_of_a_key_is_a_duplicate(self, tmp_path, aired_kb):
        path = tmp_path / "preds.jsonl"
        write_jsonl(
            path,
            [
                prediction_record("Daria", "aired-on", self.T, "MTV"),
                prediction_record("Daria ", "aired-on", self.T, "HBO"),
            ],
        )
        with pytest.raises(DuplicateKeyError, match="line 2: duplicate key"):
            load_predictions(path, aired_kb)

    def test_candidate_violation_on_a_repeated_value(self, tmp_path):
        # "HBO" is a candidate of aired-on but not of sold-to
        kb = KnowledgeBase(
            triplets=(
                Triplet("Daria", "aired-on", "MTV"),
                Triplet("True Detective", "aired-on", "HBO"),
                Triplet("Archer", "sold-to", "FX"),
            ),
            patterns=(
                PatternSpec("aired-on", self.T),
                PatternSpec("sold-to", "[X] was sold to [Y]."),
            ),
        )
        path = tmp_path / "preds.jsonl"
        write_jsonl(
            path,
            [
                prediction_record("Daria", "aired-on", self.T, "HBO"),
                prediction_record("True Detective", "aired-on", self.T, "HBO"),
                prediction_record("Archer", "sold-to", "[X] was sold to [Y].", "HBO"),
                prediction_record("Dexter", "sold-to", "[X] was sold to [Y].", "HBO"),
            ],
        )
        with pytest.raises(CandidateViolationError) as err:
            load_predictions(path, kb)
        assert str(err.value).startswith("line 3: prediction 'HBO' for ('Archer', 'sold-to'")

    def test_unknown_relation_named_on_each_first_line(self, tmp_path, aired_kb):
        path = tmp_path / "preds.jsonl"
        write_jsonl(
            path,
            [
                prediction_record("Daria", "aired-on", self.T, "MTV"),
                prediction_record("Daria", "sold-to", self.T, "MTV"),
            ],
        )
        with pytest.raises(ParseError, match="line 2: unknown relation 'sold-to'"):
            load_predictions(path, aired_kb)

    @pytest.mark.parametrize(
        "line, message",
        [
            ('{"subject": "Daria"} {"x": 1}', "invalid JSON record: Extra data"),
            ("\ufeff{}", "invalid JSON record: Unexpected UTF-8 BOM"),
            ("[1, 2]", "record must be a JSON object"),
            ('{"subject": ', "invalid JSON record: Expecting value"),
        ],
    )
    def test_bad_json_line_named_as_json_loads_names_it(self, tmp_path, aired_kb, line, message):
        path = tmp_path / "preds.jsonl"
        good = json.dumps(prediction_record("Daria", "aired-on", self.T, "MTV"))
        path.write_text(f"{good}\n\n{line}\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            load_predictions(path, aired_kb)
        assert err.value.line == 3
        assert message in str(err.value)


class TestBaselines:
    def test_heuristic_soc_picks_most_cooccurring(self, crossed_kb):
        # Barack Obama's most co-occurring candidate location is Chicago
        kb = KnowledgeBase(
            triplets=(
                Triplet("Barack Obama", "born-in", "Hawaii"),
                Triplet("Someone Else", "born-in", "Chicago"),
                Triplet("Third Person", "born-in", "Washington"),
            ),
            patterns=(PatternSpec("born-in", "[X] was born in [Y]."),),
        )
        idx = build_index(
            ["Barack Obama spoke in Chicago."] * 3
            + ["Barack Obama visited Washington."]
        )
        preds = baseline_predict(
            "heuristic-soc",
            kb,
            stats=idx,
            queries=[("Barack Obama", "born-in", "[X] was born in [Y].")],
        )
        rec = preds.get("Barack Obama", "born-in", "[X] was born in [Y].")
        assert rec == "Chicago"

    def test_heuristic_poc_picks_pattern_argmax(self, crossed_kb):
        idx = build_index(crossed_corpus_lines())
        preds = baseline_predict(
            "heuristic-poc",
            crossed_kb,
            stats=idx,
            queries=[("Daria", "aired-on", "[X] debuted on [Y].")],
        )
        assert preds.get("Daria", "aired-on", "[X] debuted on [Y].") == "MTV"

    def test_heuristic_utt_uses_stored_utterance(self, crossed_kb):
        idx = build_index(crossed_corpus_lines())
        preds = baseline_predict(
            "heuristic-utt",
            crossed_kb,
            stats=idx,
            queries=[
                ("Paris", "capital-of", "[X] is the capital of [Y]."),
                ("Rome", "capital-of", "[X] is the capital of [Y]."),
            ],
        )
        # Paris utterance stored under this template; Rome's is not, so the
        # fallback picks Rome's most co-occurring candidate (France)
        assert preds.get("Paris", "capital-of", "[X] is the capital of [Y].") == "France"
        assert preds.get("Rome", "capital-of", "[X] is the capital of [Y].") == "France"

    def test_heuristic_utt_takes_the_first_stored_candidate(self, crossed_kb, monkeypatch):
        template = "[X] is the capital of [Y]."
        first, second = crossed_kb.candidate_objects("capital-of")
        # both utterances are stored; Paris co-occurs most with the second
        idx = build_index(
            [instantiate(template, "Paris", first), instantiate(template, "Paris", second)]
            + [f"Paris and {second} {i}." for i in range(3)]
        )
        assert idx.soc_count("Paris", second) > idx.soc_count("Paris", first)
        query = ("Paris", "capital-of", template)
        spaced = ("Paris", "capital-of", template.replace(" of ", "  of "))
        # the spaced template's probes are found only once normalised
        left, right = split_around(spaced[2], "[Y]", "Paris")
        assert left + first + right not in idx.sentence_set
        lookups = []

        class Probed(frozenset):
            def __contains__(self, utterance):
                lookups.append(utterance)
                return super().__contains__(utterance)

        monkeypatch.setattr(idx, "sentence_set", Probed(idx.sentence_set))
        preds = baseline_predict(
            "heuristic-utt", crossed_kb, stats=idx, queries=[query, spaced, query]
        )
        assert preds.get(*query) == preds.get(*spaced) == first
        # each unit x candidate is probed once, as a set lookup: the spliced text
        # as it is when it is in normal form, else normalised first
        assert lookups == [instantiate(template, "Paris", o) for o in (first, second)] * 2

    @pytest.mark.parametrize("fixture", ["golden", "crossed"])
    def test_heuristic_utt_equals_the_per_candidate_scan(self, fixture, crossed_kb):
        if fixture == "golden":
            kb, idx = golden_fixture.knowledge_base(), golden_fixture.corpus_index()
        else:
            kb, idx = crossed_kb, build_index(crossed_corpus_lines())
        queries = [
            (s, p.relation, p.template)
            for p in kb.patterns
            for s in kb.subjects(p.relation)
        ]
        preds = baseline_predict("heuristic-utt", kb, stats=idx, queries=queries)
        stored = 0
        for subject, relation, template in queries:
            candidates = kb.candidate_objects(relation)
            present = [
                o
                for o in candidates
                if idx.utterance_present(instantiate(template, subject, o))
            ]
            stored += bool(present)
            expected = (
                present[0] if present
                else ranked_objects({o: idx.soc_count(subject, o) for o in candidates})[0]
            )
            rec = preds.get(subject, relation, template)
            assert rec == expected, (subject, template)
        assert 0 < stored < len(queries)

    @pytest.mark.parametrize("kind", ["heuristic-soc", "heuristic-poc"])
    @pytest.mark.parametrize("fixture", ["golden", "crossed"])
    def test_heuristic_argmax_equals_the_per_query_form(self, fixture, kind, crossed_kb):
        if fixture == "golden":
            kb, idx = golden_fixture.knowledge_base(), golden_fixture.corpus_index()
        else:
            kb, idx = crossed_kb, build_index(crossed_corpus_lines())
        queries = [
            (s, p.relation, p.template)
            for p in kb.patterns
            for s in kb.subjects(p.relation)
        ]
        preds = baseline_predict(kind, kb, stats=idx, queries=queries)
        # the oracle counts on a fresh index, so no ranking is shared with it
        fresh = build_index(idx.sentences)
        for subject, relation, template in queries:
            candidates = kb.candidate_objects(relation)
            if kind == "heuristic-soc":
                counts = {o: fresh.soc_count(subject, o) for o in candidates}
            else:
                counts = {o: fresh.poc_count(template, o) for o in candidates}
            rec = preds.get(subject, relation, template)
            assert rec == ranked_objects(counts)[0], (subject, template)

    def test_perfect_reads_kb(self, crossed_kb):
        preds = baseline_predict(
            "perfect",
            crossed_kb,
            queries=[("Paris", "capital-of", "[X] is the capital of [Y].")],
        )
        assert preds.get("Paris", "capital-of", "[X] is the capital of [Y].") == "France"

    def test_random_reproducible(self, crossed_kb):
        queries = [
            ("Paris", "capital-of", "[X] is the capital of [Y]."),
            ("Rome", "capital-of", "[X] is the capital of [Y]."),
            ("Daria", "aired-on", "[X] debuted on [Y]."),
        ]
        a = baseline_predict("random", crossed_kb, queries=queries, seed=7)
        b = baseline_predict("random", crossed_kb, queries=queries, seed=7)
        assert a == b
        assert a.source_id == "random:7"

    def test_random_order_independent(self, crossed_kb):
        queries = [
            ("Paris", "capital-of", "[X] is the capital of [Y]."),
            ("Rome", "capital-of", "[X] is the capital of [Y]."),
        ]
        a = baseline_predict("random", crossed_kb, queries=queries, seed=3)
        b = baseline_predict("random", crossed_kb, queries=list(reversed(queries)), seed=3)
        assert a.records == b.records

    def test_random_requires_seed(self, crossed_kb):
        with pytest.raises(ValueError):
            baseline_predict("random", crossed_kb, queries=[])

    def test_heuristic_requires_stats(self, crossed_kb):
        with pytest.raises(MissingStatsError):
            baseline_predict("heuristic-soc", crossed_kb, queries=[])

    def test_predictions_stay_in_candidate_set(self, crossed_kb):
        idx = build_index(crossed_corpus_lines())
        queries = [
            (s, "capital-of", "[X] is the capital of [Y].")
            for s in crossed_kb.subjects("capital-of")
        ]
        for kind, seed in [
            ("heuristic-soc", None),
            ("heuristic-poc", None),
            ("heuristic-utt", None),
            ("perfect", None),
            ("random", 11),
        ]:
            preds = baseline_predict(kind, crossed_kb, stats=idx, queries=queries, seed=seed)
            candidates = set(crossed_kb.candidate_objects("capital-of"))
            for rec in preds.records.values():
                assert rec in candidates


    @pytest.mark.parametrize(
        "kind, seed",
        [("heuristic-soc", None), ("heuristic-poc", None), ("heuristic-utt", None),
         ("perfect", None), ("random", 5)],
    )
    def test_candidates_taken_once_per_relation(self, crossed_kb, monkeypatch, kind, seed):
        idx = build_index(crossed_corpus_lines())
        queries = [(s, r, p.template) for r in crossed_kb.relations
                   for s in crossed_kb.subjects(r) for p in crossed_kb.patterns if p.relation == r]
        expected = baseline_predict(kind, crossed_kb, stats=idx, queries=queries, seed=seed)
        calls = []
        candidate_objects = type(crossed_kb).candidate_objects

        def counted(kb, relation):
            calls.append(relation)
            return candidate_objects(kb, relation)

        monkeypatch.setattr(type(crossed_kb), "candidate_objects", counted)
        preds = baseline_predict(kind, crossed_kb, stats=idx, queries=queries, seed=seed)
        assert preds == expected
        assert sorted(calls) == sorted(crossed_kb.relations)


class TestOutcomeFlag:
    def test_match(self):
        assert outcome_flag("utt", "Alberta", "Alberta") == 1

    def test_mismatch(self):
        assert outcome_flag("utt", "HBO", "Netflix") == 0

    def test_case_folding_not_applied(self):
        assert outcome_flag("soc", "France", "france") == 0

    def test_whitespace_trimmed(self):
        assert outcome_flag("poc", " France ", "France") == 1

    def test_missing_reference(self):
        with pytest.raises(MissingReferenceError):
            outcome_flag("utt", "", "France")

    def test_unknown_hypothesis(self):
        with pytest.raises(ValueError):
            outcome_flag("nope", "a", "a")
