"""Knowledge-base loading, validation, and lookups."""

import json

import pytest

from corpuscausal import kb as kb_module
from corpuscausal.errors import (
    EmptyKbError,
    EncodingError,
    MalformedPatternError,
    ParseError,
    UnknownRelationError,
)
from corpuscausal.kb import (
    KnowledgeBase,
    PatternSpec,
    Triplet,
    load_kb,
    load_knowledge_base,
    load_patterns,
)
from corpuscausal.predictions import load_predictions

from conftest import write_jsonl


class TestLoadKb:
    def test_three_records(self, tmp_path):
        path = tmp_path / "kb.jsonl"
        write_jsonl(
            path,
            [
                {"subject": "Paris", "relation": "capital-of", "object": "France"},
                {"subject": "Rome", "relation": "capital-of", "object": "Italy"},
                {"subject": "Daria", "relation": "aired-on", "object": "MTV"},
            ],
        )
        triplets = load_kb(path)
        assert [t.relation for t in triplets] == ["capital-of", "capital-of", "aired-on"]

    def test_duplicates_deduplicated_with_counter(self, tmp_path):
        path = tmp_path / "kb.jsonl"
        rec = {"subject": "Paris", "relation": "capital-of", "object": "France"}
        patterns = tmp_path / "patterns.jsonl"
        write_jsonl(path, [rec, rec])
        write_jsonl(patterns, [
            {"relation": "capital-of", "template": "[X] is the capital of [Y]."}
        ])
        assert load_knowledge_base(path, patterns).triplets == (
            Triplet("Paris", "capital-of", "France"),
        )

    def test_missing_object_field_names_line(self, tmp_path):
        path = tmp_path / "kb.jsonl"
        path.write_text(
            json.dumps({"subject": "Paris", "relation": "capital-of", "object": "France"})
            + "\n"
            + json.dumps({"subject": "Rome", "relation": "capital-of"})
            + "\n",
            encoding="utf-8",
        )
        with pytest.raises(ParseError) as err:
            load_kb(path)
        assert err.value.line == 2

    def test_empty_kb(self, tmp_path):
        path = tmp_path / "kb.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(EmptyKbError):
            load_kb(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "kb.jsonl"
        path.write_text("{not json\n", encoding="utf-8")
        with pytest.raises(ParseError):
            load_kb(path)

    @pytest.mark.parametrize("load", [load_kb, load_patterns])
    def test_non_utf8_bytes_name_the_file(self, tmp_path, load):
        # they used to escape as a bare UnicodeDecodeError
        path = tmp_path / "records.jsonl"
        path.write_bytes(b"\xff\xfe\n")
        with pytest.raises(EncodingError, match="records.jsonl is not valid UTF-8"):
            load(path)


class TestLoadPatterns:
    def test_valid_pattern(self, tmp_path):
        path = tmp_path / "p.jsonl"
        write_jsonl(
            path,
            [
                {
                    "relation": "is-capital",
                    "template": "[X] is the capital of [Y].",
                    "is_anti": False,
                }
            ],
        )
        patterns = load_patterns(path)
        assert patterns == (
            PatternSpec("is-capital", "[X] is the capital of [Y].", False),
        )

    def test_anti_pattern_flagged(self, tmp_path):
        path = tmp_path / "p.jsonl"
        write_jsonl(
            path,
            [
                {
                    "relation": "country",
                    "template": "[X] is located next to the border with [Y].",
                    "is_anti": True,
                }
            ],
        )
        assert load_patterns(path)[0].is_anti

    def test_missing_slot_rejected(self, tmp_path):
        path = tmp_path / "p.jsonl"
        write_jsonl(path, [{"relation": "born", "template": "[X] was born."}])
        with pytest.raises(MalformedPatternError):
            load_patterns(path)
        # named by its line, as every other record error is
        write_jsonl(path, [{"relation": "r", "template": "[X] is in [Y]."},
                           {"relation": "r", "template": "[X] lies in [X]."}])
        with pytest.raises(MalformedPatternError) as err:
            load_patterns(path)
        assert str(err.value) == (
            "line 2: template must contain exactly one [X] and one [Y]: '[X] lies in [X].'"
        )

    def test_is_anti_defaults_false(self, tmp_path):
        path = tmp_path / "p.jsonl"
        write_jsonl(path, [{"relation": "r", "template": "[X] and [Y]."}])
        assert load_patterns(path)[0].is_anti is False


class TestOneReader:
    def test_well_formed_records_never_take_the_error_path(
        self, tmp_path, crossed_files, monkeypatch
    ):
        # one reader checks and normalises every loader's fields; `_required` only
        # replays a record that failed the check, to name its first bad field
        calls = []
        real = kb_module._required

        def required(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(kb_module, "_required", required)
        kb = load_knowledge_base(crossed_files["kb"], crossed_files["patterns"])
        path = tmp_path / "preds.jsonl"
        write_jsonl(path, [
            {"subject": s, "relation": p.relation, "template": p.template,
             "prediction": kb.objects_of(s, p.relation)[0], "source_id": "m"}
            for p in kb.patterns for s in kb.subjects(p.relation)
        ])
        assert len(load_predictions(path, kb)) == 12
        assert calls == []
        write_jsonl(path, [{"subject": "Paris", "relation": "capital-of"}])
        with pytest.raises(ParseError, match="^line 1: missing field 'template'$"):
            load_predictions(path, kb)
        assert [key for _, key, _ in calls] == ["subject", "relation", "template"]


class TestKnowledgeBase:
    def test_candidates_and_subjects(self, crossed_kb):
        assert crossed_kb.candidate_objects("capital-of") == ("France", "Italy")
        assert crossed_kb.subjects("aired-on") == ("Daria", "True Detective")

    def test_singleton_candidates(self):
        kb = KnowledgeBase(
            triplets=(Triplet("a", "r", "b"),),
            patterns=(PatternSpec("r", "[X] r [Y]."),),
        )
        assert kb.candidate_objects("r") == ("b",)

    def test_unknown_relation(self, crossed_kb):
        with pytest.raises(UnknownRelationError):
            crossed_kb.candidate_objects("nope")

    def test_pattern_for_unknown_relation_rejected(self):
        with pytest.raises(UnknownRelationError):
            KnowledgeBase(
                triplets=(Triplet("a", "r", "b"),),
                patterns=(
                    PatternSpec("r", "[X] r [Y]."),
                    PatternSpec("other", "[X] o [Y]."),
                ),
            )

    def test_relation_without_non_anti_pattern_rejected(self):
        with pytest.raises(UnknownRelationError):
            KnowledgeBase(
                triplets=(Triplet("a", "r", "b"),),
                patterns=(PatternSpec("r", "[X] r [Y].", True),),
            )

    def test_candidate_sets_nonempty_for_all_relations(self, crossed_kb):
        for relation in crossed_kb.relations:
            assert crossed_kb.candidate_objects(relation)

    def test_lookups_equal_a_scan_of_the_records(self):
        triplets = (
            Triplet("b", "r", "y"),
            Triplet("a", "r", "y"),
            Triplet("a", "r", "x"),
            Triplet("a", "s", "z"),
        )
        patterns = (
            PatternSpec("s", "[X] s [Y]."),
            PatternSpec("r", "[X] r2 [Y].", True),
            PatternSpec("r", "[X] r [Y]."),
            PatternSpec("r", "[Y] by [X]."),
        )
        kb = KnowledgeBase(triplets=triplets, patterns=patterns)
        for rel in ("r", "s"):
            assert kb.subjects(rel) == tuple(
                sorted({t.subject for t in triplets if t.relation == rel})
            )
            assert kb.candidate_objects(rel) == tuple(
                sorted({t.object for t in triplets if t.relation == rel})
            )
            assert kb.paraphrases(rel) == tuple(
                p for p in patterns if p.relation == rel and not p.is_anti
            )
            assert kb.anti_patterns(rel) == tuple(
                p for p in patterns if p.relation == rel and p.is_anti
            )
        assert kb.objects_of("a", "r") == ("x", "y")
        assert kb.objects_of("a", "nope") == ()
        assert kb.paraphrases("nope") == ()
        with pytest.raises(UnknownRelationError):
            kb.subjects("nope")

    def test_lookups_return_shared_tuples(self, crossed_kb):
        for lookup in (
            lambda: crossed_kb.candidate_objects("capital-of"),
            lambda: crossed_kb.subjects("capital-of"),
            lambda: crossed_kb.objects_of("Paris", "capital-of"),
            lambda: crossed_kb.paraphrases("capital-of"),
            lambda: crossed_kb.anti_patterns("capital-of"),
        ):
            first = lookup()
            assert isinstance(first, tuple) and first
            assert lookup() is first
            with pytest.raises(AttributeError):
                first.clear()  # no lookup result can change the KB

    def test_repeats_are_dropped_at_construction(self):
        # a repeated triplet or pattern would pair the same rows twice
        ann, bo = Triplet("Ann", "r", "Xo"), Triplet("Bo", "r", "Yu")
        likes = PatternSpec("r", "[X] likes [Y].")
        knows = PatternSpec("r", "[X] knows [Y].")
        kb = KnowledgeBase(triplets=(ann, ann, bo), patterns=(likes, knows, likes))
        assert kb.triplets == (ann, bo)
        assert kb.patterns == (likes, knows)
        assert kb.paraphrases("r") == (likes, knows)

