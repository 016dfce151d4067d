"""End-to-end runs, config handling, reports, dynamics."""

import cProfile
import errno
import io
import json
import pstats
import random
import re
import shutil
from dataclasses import replace
from functools import cached_property
from hashlib import blake2b
from pathlib import Path

import pytest

from corpuscausal import corpus, pipeline, population
from corpuscausal.errors import (
    CandidateViolationError,
    ConfigError,
    CorpusCausalError,
    DuplicateKeyError,
    EmptyPopulationError,
    EncodingError,
    InputError,
    MissingPredictionError,
    ParseError,
)
from corpuscausal.estimator import ate, cate, do_from_cells, interventional_prob, read_table
from corpuscausal.pipeline import (
    EffectReport,
    RunConfig,
    emit_report,
    load_config,
    load_report,
    merge_config,
    render_report,
    run_build_population,
    run_dynamics,
    run_estimate,
)
from corpuscausal.corpus import CorpusIndex, build_index, template_parts
from corpuscausal.kb import KnowledgeBase, PatternSpec, Triplet, load_knowledge_base
from corpuscausal.population import (
    POPULATION_FIELDS,
    ROW_FIELDS,
    STRATIFY_COLUMNS,
    ClozeKeyTable,
    MatchedPopulation,
    build_structure,
    population_observation_table,
    read_cache_entry,
    write_population,
)
from corpuscausal.predictions import (
    PredictionSet,
    baseline_predict,
    load_predictions,
    save_predictions,
)

import golden_fixture
from conftest import (
    CROSSED_PATTERNS,
    CROSSED_TRIPLETS,
    decode_entry,
    encode_entry,
    load_generator,
    write_corpus,
    write_jsonl,
    write_kb_files,
)


def config_for(files, predictions, **extra):
    return RunConfig(
        kb=str(files["kb"]),
        patterns=str(files["patterns"]),
        corpus=str(files["corpus"]),
        predictions=predictions,
        output_dir=str(files["dir"] / "out"),
        **extra,
    )


class TestRunEstimate:
    def test_heuristic_baselines_score_hundred(self, crossed_files):
        report = run_estimate(config_for(crossed_files, "baseline:heuristic"))
        assert report.ate == {"utt": 100.0, "poc": 100.0, "soc": 100.0}
        assert report.source_id.startswith("heuristic")

    def test_baselines_share_the_builders_counts(self, crossed_files, crossed_kb, monkeypatch):
        # across the builds and the heuristic baselines of one run, each
        # relation's soc matrix and each (template, candidate) poc count is
        # made once per index
        made, counted, kinds = {}, [], []
        soc_matrix, poc_row = CorpusIndex.soc_matrix, CorpusIndex._poc_row
        baseline_predict = pipeline.baseline_predict

        def recorded(index, subjects, objects):
            matrix = soc_matrix(index, subjects, objects)
            made.setdefault((tuple(subjects), tuple(objects)), []).append(id(matrix))
            return matrix

        def row(index, template, objects):
            counted.extend((template, obj) for obj in objects)
            return poc_row(index, template, objects)

        def predict(kind, *args, **kwargs):
            kinds.append(kind)
            return baseline_predict(kind, *args, **kwargs)

        monkeypatch.setattr(CorpusIndex, "soc_matrix", recorded)
        monkeypatch.setattr(CorpusIndex, "_poc_row", row)
        monkeypatch.setattr(pipeline, "baseline_predict", predict)
        report = run_estimate(config_for(crossed_files, "baseline:heuristic", min_poc_frequency=0))
        assert report.failures() == {}
        assert kinds == ["heuristic-utt", "heuristic-poc", "heuristic-soc"]
        relations = crossed_kb.relations
        assert sorted(made) == sorted(
            (crossed_kb.subjects(r), crossed_kb.candidate_objects(r)) for r in relations
        )
        # the builds read each matrix, and the baselines read it again
        assert all(len(set(reads)) == 1 < len(reads) for reads in made.values())
        assert sorted(counted) == sorted(
            (p.template, o) for p in crossed_kb.patterns
            for o in crossed_kb.candidate_objects(p.relation)
        )

    def test_perfect_baseline_scores_zero_without_coincidences(self, works_files):
        report = run_estimate(config_for(works_files, "baseline:perfect"))
        assert report.ate == {"utt": 0.0, "poc": 0.0, "soc": 0.0}

    def test_heuristic_also_hundred_on_works_fixture(self, works_files):
        report = run_estimate(config_for(works_files, "baseline:heuristic"))
        assert report.ate == {"utt": 100.0, "poc": 100.0, "soc": 100.0}

    def test_cate_schema_carries_per_relation_values(self, crossed_files):
        report = run_estimate(config_for(crossed_files, "baseline:heuristic"))
        assert set(report.cate["soc"]) == {"aired-on", "capital-of"}
        for cell in report.cate["soc"].values():
            assert cell["value"] == 100.0

    def test_emitted_tables_reproduce_report_ates(self, crossed_files):
        config = config_for(crossed_files, "baseline:heuristic")
        report = run_estimate(config, emit_populations=True)
        for hyp in ("utt", "poc", "soc"):
            table = read_table(crossed_files["dir"] / "out" / f"{hyp}_population.tsv")
            z = [c for c in STRATIFY_COLUMNS[hyp] if c in table.columns]
            direct = float(ate(table, "treatment", "outcome", z))
            assert direct == report.ate[hyp]

    def test_file_predictions(self, crossed_files, crossed_kb):
        # cover every population key with a fixed prediction file
        keys = []
        for rel in crossed_kb.relations:
            for s in crossed_kb.subjects(rel):
                for p in crossed_kb.patterns:
                    if p.relation == rel:
                        keys.append((s, rel, p.template))
        gold = {
            ("Paris", "capital-of"): "France",
            ("Rome", "capital-of"): "Italy",
            ("Daria", "aired-on"): "MTV",
            ("True Detective", "aired-on"): "HBO",
        }
        path = crossed_files["dir"] / "preds.jsonl"
        write_jsonl(
            path,
            [
                {
                    "subject": s,
                    "relation": r,
                    "template": t,
                    "prediction": gold[(s, r)],
                    "source_id": "frozen-model",
                }
                for s, r, t in keys
            ],
        )
        report = run_estimate(config_for(crossed_files, str(path)))
        assert report.source_id == "frozen-model"
        assert report.ate["utt"] == 0.0  # gold predictions match every row object

    def test_heuristic_scores_every_treated_row(self, crossed_files):
        config = config_for(crossed_files, "baseline:heuristic")
        run_estimate(config, emit_populations=True)
        for hyp in ("utt", "poc", "soc"):
            table = read_table(crossed_files["dir"] / "out" / f"{hyp}_population.tsv")
            ti = table.columns.index("treatment")
            oi = table.columns.index("outcome")
            for row in table.rows:
                if row[ti] == "1":
                    assert row[oi] == "1"

    def test_emission_builds_no_row(self, crossed_files, monkeypatch):
        # tables are written from the columns: with `rows` raising, estimate
        # and build-population write the same files as without
        config = config_for(crossed_files, "baseline:heuristic")
        out = Path(config.output_dir)

        def written():
            files = {p.name: p.read_bytes() for p in out.iterdir()}
            shutil.rmtree(out)
            return files

        def runs():
            run_estimate(config, emit_populations=True)
            estimated = written()
            list(run_build_population(config, ("utt", "poc", "soc")))
            return estimated, written()

        expected = runs()

        def no_rows(pop):
            raise AssertionError("emission built a population's rows")

        monkeypatch.setattr(MatchedPopulation, "rows", property(no_rows))
        assert runs() == expected

    def test_population_cache_round_trip(self, crossed_files, monkeypatch):
        cache = crossed_files["dir"] / "cache"
        config = config_for(crossed_files, "baseline:heuristic", cache_dir=str(cache))
        first = run_estimate(config)
        entries = sorted(p.name for p in cache.iterdir())
        assert [name.split("-")[0] for name in entries] == ["poc", "soc", "utt"]
        assert {Path(name).suffix for name in entries} == {".pop"}

        def no_build(*args, **kwargs):
            raise AssertionError("a warm run rebuilt a population")

        monkeypatch.setattr(pipeline, "build_structure", no_build)
        second = run_estimate(config)
        assert first == second
        assert sorted(p.name for p in cache.iterdir()) == entries

    def test_cached_rows_keep_their_types(self, crossed_files, crossed_kb):
        from corpuscausal.corpus import build_index

        cache = crossed_files["dir"] / "cache"
        config = config_for(crossed_files, "baseline:heuristic", cache_dir=str(cache))
        out = Path(config.output_dir)
        run_estimate(config, emit_populations=True)
        cold = {p.name: p.read_bytes() for p in out.iterdir()}
        shutil.rmtree(out)
        run_estimate(config, emit_populations=True)
        assert {p.name: p.read_bytes() for p in out.iterdir()} == cold
        stats = build_index(crossed_files["corpus"])
        for entry in cache.iterdir():
            hyp = entry.name.split("-")[0]
            pop = read_cache_entry(entry, hyp)
            assert pop == build_structure(hyp, crossed_kb, stats)
            # a bool read back as 1 would be written as 1, not True
            for row in pop.rows:
                for name in ("is_anti", "utt_present", "so_hc", "po_hc"):
                    assert type(getattr(row, name)) is bool, (hyp, name)
                for name in ("treatment", "soc_count"):
                    assert type(getattr(row, name)) is int, (hyp, name)
            assert all(type(i) is int for pair in pop.pairs for i in pair)

    @pytest.mark.parametrize(
        "damage",
        [
            "truncated",
            "garbage",
            "flipped_body_byte",
            "other_version",
            "previous_version",
            "version_2",
            "strings_not_rising",
            "truncated_column",
            "code_past_table",
            "flag_of_two",
            "swapped_arms",
            "repeated_pair",
            "unpaired_row",
            "relabelled_treated_row",
            "relabelled_control_row",
            "non_count_diagnostic",
            "extra_diagnostics_key",
        ],
    )
    def test_unreadable_cache_entry_is_rebuilt(self, crossed_files, damage):
        cache = crossed_files["dir"] / "cache"
        config = config_for(crossed_files, "baseline:heuristic", cache_dir=str(cache))
        cold = run_estimate(config)
        (entry,) = cache.glob("poc-*")
        original = entry.read_bytes()
        assert original[:8] == b"CCPOP003"
        magic, header, columns = decode_entry(original)
        treated, control = columns["treated"], columns["control"]
        if damage == "truncated":
            entry.write_bytes(original[: len(original) // 2])
        elif damage == "garbage":
            entry.write_bytes(b"not a cache entry\n")
        elif damage == "flipped_body_byte":
            middle = 24 + (len(original) - 24) // 2
            entry.write_bytes(
                original[:middle] + bytes([original[middle] ^ 1]) + original[middle + 1 :]
            )
        elif damage == "other_version":
            entry.write_bytes(b"CCPOP000" + original[8:])
        elif damage == "previous_version":
            # the JSON-lines layout of version 1, digested as it was
            lines = [{"diagnostics": header["diagnostics"], "strings": header["strings"]}]
            lines += [[bool(v) for v in columns[name]]
                      if name in ("is_anti", "utt_present", "so_hc", "po_hc") else columns[name]
                      for name in ROW_FIELDS]
            body = b"".join(json.dumps(line).encode() + b"\n" for line in lines + [treated, control])
            entry.write_bytes(b"CCPOP001" + blake2b(body, digest_size=16).digest() + body)
        elif damage == "version_2":
            # the magic of version 2, whose string table need not be in text order
            entry.write_bytes(b"CCPOP002" + original[8:])
        else:
            # re-digested, so that the edit reaches the structure checks
            if damage == "truncated_column":
                del columns["soc_bin"][-1]
            elif damage == "strings_not_rising":
                # the table reversed, and every string code with it
                last = len(header["strings"]) - 1
                header["strings"].reverse()
                for name in ("subject", "object", "relation", "template", "soc_bin"):
                    columns[name] = [last - code for code in columns[name]]
            elif damage == "code_past_table":
                columns["subject"][0] = len(header["strings"])
            elif damage == "flag_of_two":
                columns["is_anti"][0] = 2
            elif damage == "swapped_arms":
                treated[0], control[0] = control[0], treated[0]
            elif damage == "repeated_pair":
                treated.append(treated[0])
                control.append(control[0])
                header["pairs"] += 1
            elif damage == "unpaired_row":
                del treated[-1], control[-1]
                header["pairs"] -= 1
            elif damage == "relabelled_treated_row":
                columns["treatment"][treated[0]] = 0
            elif damage == "relabelled_control_row":
                columns["treatment"][control[0]] = 1
            elif damage == "non_count_diagnostic":
                header["diagnostics"]["unmatched_treated"] = "many"
            else:
                header["diagnostics"]["unmatched_samples"] = [["Paris", "capital-of"]]
            entry.write_bytes(encode_entry(magic, header, columns))
        assert run_estimate(config) == cold
        assert entry.read_bytes() == original
        assert not [p for p in cache.iterdir() if p.name.endswith(".tmp")]

    def test_cache_entry_changed_in_place_is_rebuilt(self, crossed_files):
        # paraphrases only: two rows per (subject, object), so relabelling
        # every third soc row moves rows of one arm more than the other
        write_kb_files(
            crossed_files["dir"],
            CROSSED_TRIPLETS,
            [p for p in CROSSED_PATTERNS if not p[2]],
        )
        cache = crossed_files["dir"] / "cache"
        config = config_for(crossed_files, "baseline:random:7", cache_dir=str(cache))
        cold = run_estimate(config)
        (entry,) = cache.glob("soc-*")
        original = entry.read_bytes()
        magic, header, columns = decode_entry(original)
        # a new stratum: every third row's soc bin becomes the table's first
        # string, which is no row's bin (a new string would have to be put in
        # text order, moving the codes after it)
        soc_bin = columns["soc_bin"]
        assert 0 not in soc_bin
        soc_bin[::3] = [0] * len(soc_bin[::3])
        edited = encode_entry(magic, header, columns)
        entry.write_bytes(original[:24] + edited[24:])  # the old digest kept
        assert run_estimate(config) == cold
        assert entry.read_bytes() == original
        # the edit matters: re-digested, it is read back and moves the report
        entry.write_bytes(edited)
        assert run_estimate(config) != cold

    def test_previous_three_file_entry_is_ignored(self, crossed_files):
        cache = crossed_files["dir"] / "cache"
        config = config_for(crossed_files, "baseline:heuristic", cache_dir=str(cache))
        cold = run_estimate(config, emit_populations=True)
        out = Path(config.output_dir)
        # the layout older versions wrote: table, pairs and their digests
        old = {}
        for entry in list(cache.iterdir()):
            hyp = entry.name.split("-")[0]
            table = (out / f"{hyp}_population.tsv").read_bytes()
            pairs = (out / f"{hyp}_pairs.tsv").read_bytes()
            digests = [blake2b(data, digest_size=16).hexdigest() for data in (table, pairs)]
            diag = json.dumps({"unmatched_treated": 0, "low_frequency_removed": 0,
                               "digests": digests}).encode()
            for suffix, data in ((".tsv", table), (".pairs.tsv", pairs), (".diag.json", diag)):
                old[entry.stem + suffix] = data
            entry.unlink()
        for name, data in old.items():
            (cache / name).write_bytes(data)
        assert run_estimate(config) == cold
        assert {p.name: p.read_bytes() for p in cache.iterdir() if p.suffix != ".pop"} == old
        assert len(list(cache.glob("*.pop"))) == 3

    def test_inputs_are_not_digested_without_a_cache(self, crossed_files, monkeypatch):
        from corpuscausal.corpus import CorpusIndex

        def no_digest(what):
            raise AssertionError(f"digested {what} with no cache to key")

        config = config_for(crossed_files, "baseline:heuristic")
        cached = replace(config, cache_dir=str(crossed_files["dir"] / "cache"))
        expected = run_estimate(config)
        cache_key = pipeline._Runtime._population_cache_key
        monkeypatch.setattr(
            pipeline._Runtime, "_population_cache_key", lambda _: no_digest("the inputs")
        )
        # a built index computes its digest only when asked for it
        monkeypatch.setattr(CorpusIndex, "digest", property(lambda _: no_digest("the index")))
        assert run_estimate(config) == expected
        with pytest.raises(AssertionError, match="digested the inputs"):
            run_estimate(cached)
        monkeypatch.setattr(pipeline._Runtime, "_population_cache_key", cache_key)
        with pytest.raises(AssertionError, match="digested the index"):
            run_estimate(cached)

    def test_reformatted_inputs_reuse_the_cache_entries(self, crossed_files, monkeypatch):
        cache = crossed_files["dir"] / "cache"
        config = config_for(crossed_files, "baseline:heuristic", cache_dir=str(cache))
        cold = run_estimate(config)
        for name in ("kb", "patterns"):
            path = crossed_files[name]
            records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
            # keys reordered, spaces doubled inside and between the JSON
            # values, one record repeated, blank lines between records
            lines = [json.dumps(dict(reversed(record.items()))).replace(" ", "  ")
                     for record in records + records[:1]]
            text = "\n\n".join(lines) + "\n"
            assert text != path.read_text(encoding="utf-8")
            path.write_text(text, encoding="utf-8")

        def no_build(*args, **kwargs):
            raise AssertionError("a reformatted input missed its cache entries")

        monkeypatch.setattr(pipeline, "build_structure", no_build)
        assert run_estimate(config) == cold
        assert len(list(cache.glob("*.pop"))) == 3

    @pytest.mark.parametrize("edit", ["triplet_dropped", "anti_patterns_dropped"])
    def test_changed_inputs_miss_the_cache_entries(self, crossed_files, edit):
        cache = crossed_files["dir"] / "cache"
        config = config_for(crossed_files, "baseline:heuristic", cache_dir=str(cache))
        cold = run_estimate(config)
        triplets, patterns = CROSSED_TRIPLETS, CROSSED_PATTERNS
        if edit == "triplet_dropped":
            triplets = triplets[1:]
        else:
            patterns = [p for p in patterns if not p[2]]
        write_kb_files(crossed_files["dir"], triplets, patterns)
        fresh = run_estimate(replace(config, cache_dir=""))
        assert fresh != cold
        assert run_estimate(config) == fresh
        assert len(list(cache.glob("*.pop"))) == 6

    def test_built_and_loaded_index_share_cache_entries(self, crossed_files, monkeypatch):
        from corpuscausal.corpus import build_index

        cache = crossed_files["dir"] / "cache"
        config = config_for(crossed_files, "baseline:heuristic", cache_dir=str(cache))
        from_corpus = run_estimate(config)
        entries = sorted(cache.iterdir())
        idx_path = crossed_files["dir"] / "corpus.idx"
        build_index(crossed_files["corpus"]).save(idx_path)

        def no_build(*args, **kwargs):
            raise AssertionError("the saved index missed the built index's entries")

        monkeypatch.setattr(pipeline, "build_structure", no_build)
        assert run_estimate(replace(config, corpus="", index=str(idx_path))) == from_corpus
        assert sorted(cache.iterdir()) == entries

    def test_failed_cache_write_leaves_a_miss(self, crossed_files, monkeypatch):
        cache = crossed_files["dir"] / "cache"
        config = config_for(crossed_files, "baseline:heuristic")
        expected = run_estimate(config)

        def full_disk(pop, path):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(pipeline, "write_cache_entry", full_disk)
        assert run_estimate(replace(config, cache_dir=str(cache))) == expected
        assert not [p for p in cache.iterdir() if p.suffix in (".pop", ".tmp")]

    def test_cache_dir_that_cannot_be_created_fails_the_run(self, crossed_files):
        blocker = crossed_files["dir"] / "blocker"
        blocker.write_text("a file where the cache dir's parent should be\n", encoding="utf-8")
        config = config_for(crossed_files, "baseline:heuristic", cache_dir=str(blocker / "c"))
        with pytest.raises(OSError):
            run_estimate(config)

    @pytest.mark.parametrize("spec", ["baseline:heuristic", "baseline:random:7"])
    def test_predictions_spec_is_parsed_once_per_run(self, crossed_files, monkeypatch, spec):
        parse, calls = pipeline._parse_predictions_spec, []

        def counted(text):
            calls.append(text)
            return parse(text)

        monkeypatch.setattr(pipeline, "_parse_predictions_spec", counted)
        run_estimate(config_for(crossed_files, spec))
        assert calls == [spec]
        list(run_build_population(config_for(crossed_files, spec), ("soc",)))
        assert calls == [spec, spec]

    def test_prebuilt_index_equals_corpus_build(self, crossed_files):
        from corpuscausal.corpus import build_index

        idx_path = crossed_files["dir"] / "corpus.idx"
        build_index(crossed_files["corpus"]).save(idx_path)
        from_corpus = run_estimate(config_for(crossed_files, "baseline:heuristic"))
        config = replace(
            config_for(crossed_files, "baseline:heuristic"),
            corpus="",
            index=str(idx_path),
        )
        from_index = run_estimate(config)
        assert from_index.ate == from_corpus.ate
        assert from_index.cate == from_corpus.cate

    def test_cache_key_reuses_the_digest_the_index_load_checked(
        self, crossed_files, monkeypatch
    ):
        from corpuscausal.corpus import CorpusIndex, build_index

        idx_path = crossed_files["dir"] / "corpus.idx"
        build_index(crossed_files["corpus"]).save(idx_path)
        cache = crossed_files["dir"] / "cache"
        config = replace(
            config_for(crossed_files, "baseline:heuristic"),
            corpus="",
            index=str(idx_path),
            cache_dir=str(cache),
        )
        expected = run_estimate(replace(config, cache_dir=""))

        def no_body(index):
            raise AssertionError("the loaded index was serialised again")

        monkeypatch.setattr(CorpusIndex, "_body", no_body)
        cold = run_estimate(config)
        assert run_estimate(config) == cold == expected
        assert len(list(cache.glob("*.pop"))) == 3


def tiny_files(tmp_path, triplets, corpus):
    """A one-relation KB with two paraphrases, and its corpus."""
    patterns = [("r", "[X] in [Y].", False), ("r", "[X] near [Y].", False)]
    kb_path, pattern_path = write_kb_files(tmp_path, triplets, patterns)
    corpus_path = tmp_path / "corpus.txt"
    corpus_path.write_text("".join(f"{line}\n" for line in corpus), encoding="utf-8")
    return {"dir": tmp_path, "kb": kb_path, "patterns": pattern_path, "corpus": corpus_path}


class TestOneFailingHypothesis:
    """A hypothesis that cannot be estimated reports a null ATE and its reason."""

    def test_empty_population_keeps_the_others(self, crossed_files):
        full = run_estimate(config_for(crossed_files, "baseline:perfect"))
        config = config_for(crossed_files, "baseline:perfect", min_poc_frequency=1000000)
        report = run_estimate(config, emit_populations=True)
        assert report.ate["poc"] is None
        assert report.cate["poc"] == {}
        assert report.diagnostics["poc"] == {"error": "poc population has no matched pairs"}
        assert report.failures() == {"poc": "poc population has no matched pairs"}
        for hyp in ("utt", "soc"):
            assert report.ate[hyp] == full.ate[hyp]
            assert report.cate[hyp] == full.cate[hyp]
            assert report.diagnostics[hyp] == full.diagnostics[hyp]
        out = crossed_files["dir"] / "out"
        assert sorted(p.name for p in out.iterdir()) == [
            "soc_pairs.tsv", "soc_population.tsv", "utt_pairs.tsv", "utt_population.tsv",
        ]

    def test_positivity_failure_keeps_the_others(self, tmp_path):
        files = tiny_files(
            tmp_path, [("A", "r", "X"), ("B", "r", "Y")], ["A in X.", "B in X.", "C in Y."]
        )
        report = run_estimate(config_for(files, "baseline:perfect", min_poc_frequency=0))
        reason = "no confounder stratum contains both treatment arms"
        assert report.failures() == {"utt": reason, "poc": reason}
        assert report.ate == {"utt": None, "poc": None, "soc": 0.0}
        assert report.diagnostics["utt"] == {
            "error": reason, "rows": 2, "pairs": 1,
            "unmatched_treated": 0, "low_frequency_removed": 0,
        }
        assert report.cate["utt"] == report.cate["poc"] == {}
        rendered = render_report(report, "table")
        assert "n/a" in rendered
        assert load_report_text(tmp_path, report) == report

    def test_every_hypothesis_failing_raises_the_first_failure(self, tmp_path):
        # one candidate: no poc or soc pair; utt's arms differ in template
        files = tiny_files(tmp_path, [("A", "r", "X")], ["A in X."])
        config = config_for(files, "baseline:perfect", min_poc_frequency=0)
        with pytest.raises(EmptyPopulationError, match="poc population has no matched pairs"):
            run_estimate(config)

    def test_dynamics_series_keeps_the_others(self, crossed_files, crossed_kb):
        paths = TestDynamics().checkpoint_files(crossed_files, crossed_kb, n=2)
        config = config_for(crossed_files, "unused", min_poc_frequency=1000000)
        report = run_dynamics(config, paths)
        full = run_dynamics(config_for(crossed_files, "unused"), paths)
        for entry, full_entry in zip(report.series, full.series, strict=True):
            assert entry["error"] is None
            assert entry["ate"] == dict(full_entry["ate"], poc=None)
            assert entry["accuracy"] == full_entry["accuracy"]
        assert report.failures() == {"poc": "poc population has no matched pairs"}

    def test_empty_population_is_cached(self, tmp_path, monkeypatch):
        # the estimate-cold workload's shape, smaller: a saved index, heuristic
        # baselines and a cache dir; no poc object clears the floor
        gen = load_generator()
        sizes = gen.Sizes(relations=3, subjects=12, candidates=6, sentences=1500,
                          comention_max=30)
        paths = gen.Corpus(sizes, seed=0).write(tmp_path / "in")
        build_index(str(paths["corpus"])).save(tmp_path / "corpus.idx")
        cache = tmp_path / "cache"
        config = RunConfig(
            kb=str(paths["kb"]), patterns=str(paths["patterns"]),
            index=str(tmp_path / "corpus.idx"), predictions="baseline:heuristic",
            min_poc_frequency=10**6, cache_dir=str(cache),
        )
        cold = run_estimate(config)
        assert cold.failures() == {"poc": "poc population has no matched pairs"}
        built, build = [], pipeline.build_structure

        def counted(hypothesis, *args, **kwargs):
            built.append(hypothesis)
            return build(hypothesis, *args, **kwargs)

        monkeypatch.setattr(pipeline, "build_structure", counted)
        warm = run_estimate(config)
        assert built == []
        assert sorted(p.name.split("-")[0] for p in cache.glob("*.pop")) == ["poc", "soc", "utt"]
        emitted = [emit_report(report, "structured", tmp_path / f"{name}.json")
                   for name, report in (("cold", cold), ("warm", warm))]
        assert Path(emitted[0]).read_bytes() == Path(emitted[1]).read_bytes()

    def test_build_population_still_raises_for_a_population_asked_for(self, crossed_files):
        config = config_for(crossed_files, "baseline:perfect", min_poc_frequency=1000000)
        for hypotheses in (("poc",), ("utt", "poc", "soc")):
            with pytest.raises(EmptyPopulationError, match="poc population has no"):
                next(run_build_population(config, hypotheses))
        assert not (crossed_files["dir"] / "out").exists()


class TestMetamorphic:
    """Relations between the outputs of runs on generated inputs: no oracle needed."""

    SIZES = dict(relations=3, subjects=20, candidates=8, sentences=3000, comention_max=40,
                 checkpoints=(0.5,))

    @staticmethod
    def config(files, out, predictions, **settings):
        """A run on `files` writing into `out`; `predictions` is a baseline or a file's name."""
        return RunConfig(
            kb=str(files["kb"]), patterns=str(files["patterns"]),
            corpus=str(files["corpus"]), output_dir=str(out),
            predictions=predictions if predictions.startswith("baseline:")
            else str(files[predictions]),
            **settings,
        )

    def outputs(self, files, out, predictions, **settings):
        """Each file one estimate run on `files` writes into `out`: the report and tables."""
        report = run_estimate(self.config(files, out, predictions, **settings),
                              emit_populations=True)
        assert report.failures() == {}
        emit_report(report, "structured", out / "report.json")
        outputs = {path.name: path.read_bytes() for path in out.iterdir()}
        assert len(outputs) == 7  # the report, and each hypothesis's table and pairs
        return outputs

    @pytest.mark.parametrize("predictions", ["baseline:heuristic", "checkpoint00"])
    def test_input_order(self, tmp_path, predictions):
        # permuting the lines of the KB, pattern and prediction files leaves the
        # report and the emitted tables byte-identical: candidates, rank ties and
        # each unit's first stored candidate follow text order, not file order
        gen = load_generator()
        paths = gen.Corpus(gen.Sizes(**self.SIZES), seed=5).write(tmp_path / "in")
        shuffled = dict(paths)
        rng = random.Random(1)
        for name in ("kb", "patterns", "checkpoint00"):
            lines = paths[name].read_text(encoding="utf-8").splitlines(keepends=True)
            rng.shuffle(lines)
            shuffled[name] = tmp_path / f"shuffled-{paths[name].name}"
            shuffled[name].write_text("".join(lines), encoding="utf-8")
            assert shuffled[name].read_bytes() != paths[name].read_bytes()
        given = self.outputs(paths, tmp_path / "given", predictions)
        assert given == self.outputs(shuffled, tmp_path / "shuffled", predictions)

    @pytest.mark.parametrize("predictions", ["baseline:heuristic", "checkpoint00"])
    def test_order_preserving_renaming(self, tmp_path, predictions):
        # renaming subjects and objects to fresh single tokens, by a map that keeps
        # their text order, keeps every tie-break and every row's place: the report
        # and the pairs stay byte-identical, and each table is the old one renamed
        gen = load_generator()
        corpus = gen.Corpus(gen.Sizes(**self.SIZES), seed=5)
        paths = corpus.write(tmp_path / "in")
        entities = sorted({
            name for names in (*corpus.subjects.values(), *corpus.candidates.values())
            for name in names
        })
        # fixed-width numbers keep the order; the tails vary the names' lengths
        fresh = dict(zip(entities, (f"Ent{k:04d}" + "x" * (k % 3) for k in range(len(entities)))))
        assert sorted(fresh.values()) == list(fresh.values())

        def rename(text):
            return re.sub(r"\w+", lambda m: fresh.get(m[0], m[0]), text)

        renamed = dict(paths)
        for name in ("corpus", "kb", "checkpoint00"):
            renamed[name] = tmp_path / f"renamed-{paths[name].name}"
            renamed[name].write_text(rename(paths[name].read_text(encoding="utf-8")),
                                     encoding="utf-8")
        given = self.outputs(paths, tmp_path / "given", predictions)
        expected = {name: rename(data.decode()).encode() for name, data in given.items()}
        assert expected["soc_population.tsv"] != given["soc_population.tsv"]
        assert self.outputs(renamed, tmp_path / "renamed", predictions) == expected

    @pytest.mark.parametrize("predictions", ["baseline:heuristic", "checkpoint00"])
    def test_relation_locality(self, tmp_path, predictions):
        # a second input set with every word prefixed has relations and a vocabulary
        # of its own; appended to the first set's files, it leaves every first-set
        # CATE cell as it was, since CATE partitions by relation and templates are
        # per relation
        gen = load_generator()
        paths = gen.Corpus(gen.Sizes(**self.SIZES), seed=5).write(tmp_path / "in")
        other = gen.Corpus(gen.Sizes(**self.SIZES), seed=9).write(tmp_path / "other")

        def prefixed(text):  # an "x" starts each word; a slot's letter is no word
            return re.sub(r"(?<![\w\[])(?=\w)", "x", text)

        def prefixed_values(line):  # source_id is shared, so the prediction files join
            record = json.loads(line)
            return json.dumps({key: value if key == "source_id" or not isinstance(value, str)
                               else prefixed(value) for key, value in record.items()})

        joined = dict(paths)
        for name in ("kb", "patterns", "corpus", "checkpoint00"):
            first = paths[name].read_text(encoding="utf-8")
            assert "x" not in first  # so every prefixed word is new
            second = other[name].read_text(encoding="utf-8")
            if name == "corpus":
                second = prefixed(second)
            else:
                second = "".join(prefixed_values(line) + "\n" for line in second.splitlines())
            joined[name] = tmp_path / f"joined-{paths[name].name}"
            joined[name].write_text(first + second, encoding="utf-8")
        given, extended = (
            run_estimate(self.config(files, tmp_path / "out", predictions))
            for files in (paths, joined)
        )
        for hyp, cells in given.cate.items():
            assert sorted(extended.cate[hyp]) == sorted(cells) + [f"x{r}" for r in sorted(cells)]
            assert {r: extended.cate[hyp][r] for r in cells} == cells
        assert any(cell["value"] for cells in given.cate.values() for cell in cells.values())

    def test_checkpoint_independence(self, tmp_path):
        # each checkpoint is scored on its own: every series entry's ATE is an
        # estimate on that file alone, and the report's full estimate is the last
        # file's, whichever checkpoint came before it
        gen = load_generator()
        sizes = gen.Sizes(**dict(self.SIZES, checkpoints=(0.2, 0.8)))
        paths = gen.Corpus(sizes, seed=5).write(tmp_path / "in")
        checkpoints = [str(paths["checkpoint00"]), str(paths["checkpoint01"])]
        config = self.config(paths, tmp_path / "out", "checkpoint00")
        dynamics = run_dynamics(config, checkpoints)
        alone = [run_estimate(replace(config, predictions=path)) for path in checkpoints]
        assert [entry["ate"] for entry in dynamics.series] == [report.ate for report in alone]
        first, last = alone
        assert first.cate != last.cate
        assert (dynamics.cate, dynamics.diagnostics, dynamics.source_id) == (
            last.cate, last.diagnostics, last.source_id
        )

    def test_relocation(self, tmp_path):
        # every input copied into another directory, a checkpoint that is not
        # UTF-8 and an empty one among them: the reports, the emitted tables and
        # the cache entries, names and bytes, stay byte-identical, so no output
        # depends on where its inputs live
        gen = load_generator()
        sizes = gen.Sizes(**dict(self.SIZES, checkpoints=(0.2, 0.8)))
        given = tmp_path / "given"
        paths = gen.Corpus(sizes, seed=5).write(given / "in")
        checkpoints = paths["checkpoint00"].parent
        (checkpoints / "garbled.jsonl").write_bytes(b"\xff\xfe")
        (checkpoints / "empty.jsonl").write_text("", encoding="utf-8")
        moved = tmp_path / "elsewhere" / "deeper"
        shutil.copytree(given / "in", moved / "in")
        runs = []
        for root in (given, moved):
            files = {name: root / path.relative_to(given) for name, path in paths.items()}
            cache = root / "cache"
            tables = self.outputs(files, root / "estimate", "checkpoint00", cache_dir=str(cache))
            config = self.config(files, root / "dynamics", "checkpoint00", cache_dir=str(cache))
            report = run_dynamics(config, sorted(map(str, (root / "in" / "checkpoints").iterdir())))
            entries = {path.name: path.read_bytes() for path in sorted(cache.iterdir())}
            runs.append((tables, render_report(report, "structured"), entries))
        assert runs[0] == runs[1]
        errors = {entry["checkpoint"]: entry["error"] for entry in json.loads(runs[0][1])["series"]}
        assert errors == {"empty": "no prediction records in empty.jsonl",
                          "garbled": "garbled.jsonl is not valid UTF-8",
                          "step00": None, "step01": None}

    def test_unrelated_sentences(self, tmp_path):
        # sentences whose words are no KB surface and no template literal change no
        # count: the report, the tables and the cache entries stay byte-identical,
        # and only the index digest, and so the cache key, changes
        gen = load_generator()
        paths = gen.Corpus(gen.Sizes(**self.SIZES), seed=5).write(tmp_path / "in")
        rng = random.Random(2)
        # the generator's words are drawn from letters outside these five
        vocab = ["".join(rng.choices("cwxyz", k=rng.randrange(3, 8))) for _ in range(200)]
        used = {
            word for name in ("kb", "patterns")
            for word in re.findall(r"\w+", paths[name].read_text(encoding="utf-8"))
        }
        assert not used & set(vocab)
        extended = dict(paths, corpus=tmp_path / "extended.txt")
        extra = [" ".join(rng.choices(vocab, k=rng.randrange(4, 12))).capitalize() + "."
                 for _ in range(2000)]
        extended["corpus"].write_text(
            paths["corpus"].read_text(encoding="utf-8") + "\n".join(extra) + "\n",
            encoding="utf-8",
        )
        cache = tmp_path / "cache"
        given = self.outputs(paths, tmp_path / "given", "baseline:heuristic", cache_dir=str(cache))
        assert given == self.outputs(extended, tmp_path / "extended", "baseline:heuristic",
                                     cache_dir=str(cache))
        # one shared cache-dir: the second run keys three new entries, equal to the first's
        entries = {}
        for path in sorted(cache.iterdir()):
            entries.setdefault(path.name.split("-")[0], []).append(path.read_bytes())
        assert sorted(entries) == ["poc", "soc", "utt"]
        assert all(len(pair) == 2 and pair[0] == pair[1] for pair in entries.values())


    def test_corpus_line_order(self, tmp_path):
        # permuting the corpus lines changes no count, no rank tie and no stored
        # utterance: the report and the tables stay byte-identical, and only the
        # index digest changes
        gen = load_generator()
        paths = gen.Corpus(gen.Sizes(**self.SIZES), seed=5).write(tmp_path / "in")
        lines = paths["corpus"].read_text(encoding="utf-8").splitlines(keepends=True)
        random.Random(3).shuffle(lines)
        shuffled = dict(paths, corpus=tmp_path / "shuffled-corpus.txt")
        shuffled["corpus"].write_text("".join(lines), encoding="utf-8")
        assert build_index(str(shuffled["corpus"])).digest != build_index(str(paths["corpus"])).digest
        given = self.outputs(paths, tmp_path / "given", "baseline:heuristic")
        assert given == self.outputs(shuffled, tmp_path / "shuffled", "baseline:heuristic")

    def test_repeated_kb_and_pattern_lines(self, tmp_path):
        # appending copies of KB and pattern lines adds nothing: the first copy is
        # kept, so the report and the tables stay byte-identical
        gen = load_generator()
        paths = gen.Corpus(gen.Sizes(**self.SIZES), seed=5).write(tmp_path / "in")
        repeated = dict(paths)
        rng = random.Random(4)
        for name in ("kb", "patterns"):
            lines = paths[name].read_text(encoding="utf-8").splitlines(keepends=True)
            repeated[name] = tmp_path / f"repeated-{paths[name].name}"
            repeated[name].write_text("".join(lines + rng.choices(lines, k=len(lines))),
                                      encoding="utf-8")
        given = self.outputs(paths, tmp_path / "given", "checkpoint00")
        assert given == self.outputs(repeated, tmp_path / "repeated", "checkpoint00")

    def test_repeated_checkpoint(self, tmp_path):
        # one checkpoint file under two names, another checkpoint between them:
        # the two series entries are equal apart from their names
        gen = load_generator()
        sizes = gen.Sizes(**dict(self.SIZES, checkpoints=(0.2, 0.8)))
        paths = gen.Corpus(sizes, seed=5).write(tmp_path / "in")
        again = paths["checkpoint00"].with_name("step02.jsonl")
        shutil.copyfile(paths["checkpoint00"], again)
        checkpoints = [str(paths["checkpoint00"]), str(paths["checkpoint01"]), str(again)]
        report = run_dynamics(self.config(paths, tmp_path / "out", "checkpoint00"), checkpoints)
        series = json.loads(render_report(report, "structured"))["series"]
        assert [entry["checkpoint"] for entry in series] == ["step00", "step01", "step02"]
        assert series[0]["error"] is None and series[0]["ate"] != series[1]["ate"]
        assert dict(series[0], checkpoint="step02") == series[2]

    @staticmethod
    def shuffled(records, rng, kb):
        lines = list(map(json.dumps, records))
        rng.shuffle(lines)
        return lines

    @staticmethod
    def reformatted(records, rng, kb):
        # keys in reverse order, spaces around every token and inside values, and
        # every other character of a key or value written as a \u escape
        def escaped(text):
            return '"' + "".join(f"\\u{ord(c):04x}" if k % 2 else c
                                 for k, c in enumerate(text)) + '"'

        return [" { " + " ,  ".join(f"{escaped(key)} :  {escaped(' ' + value.replace(' ', '  '))}"
                                    for key, value in reversed(record.items())) + " }  "
                for record in records]

    @staticmethod
    def extended(records, rng, kb):
        # records for subjects outside the KB, so on keys outside every population
        extra = [dict(record, subject=f"Zz{k}", prediction=rng.choice(
                     kb.candidate_objects(record["relation"])))
                 for k, record in enumerate(rng.sample(records, 40))]
        return list(map(json.dumps, records + extra))

    @pytest.mark.parametrize("rewrite", ["shuffled", "reformatted", "extended"])
    def test_checkpoint_rewrites(self, tmp_path, rewrite):
        # a checkpoint's line order, its records' formatting and records on keys
        # no population reads change nothing: the dynamics report stays
        # byte-identical
        gen = load_generator()
        sizes = gen.Sizes(**dict(self.SIZES, checkpoints=(0.2, 0.8)))
        paths = gen.Corpus(sizes, seed=5).write(tmp_path / "in")
        config = self.config(paths, tmp_path / "out", "checkpoint00")
        kb = load_knowledge_base(paths["kb"], paths["patterns"])
        rng = random.Random(6)
        given, rewritten = [], []
        for name in ("checkpoint00", "checkpoint01"):
            text = paths[name].read_text(encoding="utf-8")
            lines = getattr(self, rewrite)(list(map(json.loads, text.splitlines())), rng, kb)
            path = tmp_path / rewrite / paths[name].name
            path.parent.mkdir(exist_ok=True)
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            assert path.read_bytes() != paths[name].read_bytes()
            given.append(str(paths[name]))
            rewritten.append(str(path))
        report = render_report(run_dynamics(config, given), "structured")
        assert all(entry["error"] is None for entry in json.loads(report)["series"])
        assert render_report(run_dynamics(config, rewritten), "structured") == report


class TestScaling:
    """Call counts of a run against the size of its inputs, one axis at a time.

    Every library function's cProfile call count, which the inputs fix,
    may grow at most linearly: doubling one axis of the generated inputs
    (subjects, candidates or relations, corpus sentences, or templates per
    relation) may not multiply any count by more than 2.1. A path
    quadratic in an axis quadruples some count there. The corpus is read
    once, before anything is counted, so on the sentences axis only
    `PER_SENTENCE`, the reader's functions, may change their counts.
    Counting is flat on the axis it does not read: poc's calls do not
    change with the subjects, nor soc's with the templates.
    """

    BASE = dict(relations=2, subjects=10, candidates=5, sentences=1000, comention_max=20,
                checkpoints=(0.5,))
    AXES = ("subjects", "candidates", "relations", "sentences")
    #: Called per corpus line read, per line segmented, and per sentence
    #: (and KB or pattern string) normalised.
    PER_SENTENCE = {"corpus._read_corpus_lines", "corpus.segment_sentences",
                    "corpus.normalize_text"}

    @staticmethod
    def calls(out, sizes, predictions="checkpoint00", variants=False):
        """Each library function's call count in one estimate run on generated `sizes`.

        With `variants`, the run reads a copy of the patterns file with a
        variant of each template appended, one literal word longer: twice
        the templates per relation.
        """
        gen = load_generator()
        paths = gen.Corpus(gen.Sizes(**sizes), seed=7).write(out / "in")
        if variants:
            lines = paths["patterns"].read_text(encoding="utf-8").splitlines()
            records = [json.loads(line) for line in lines]
            paths["patterns"] = out / "in" / "patterns-doubled.jsonl"
            write_jsonl(paths["patterns"], records + [
                {**record, "template": "Reportedly " + record["template"]} for record in records
            ])
        template_parts.cache_clear()  # the one memo that outlives a run
        profile = cProfile.Profile()
        report = profile.runcall(
            run_estimate, TestMetamorphic.config(paths, out / "out", predictions)
        )
        assert report.failures() == {}
        package = Path(pipeline.__file__).parent
        return {
            f"{Path(path).stem}.{name}:{line}": stats[1]
            for (path, line, name), stats in pstats.Stats(profile).stats.items()
            if Path(path).parent == package
        }

    @staticmethod
    def assert_linear(base, doubled, axis):
        for name, n in doubled.items():
            assert n <= 2.1 * base.get(name, 1), (
                f"{name}: {base.get(name, 0)} calls, {n} with {axis} doubled"
            )

    def test_call_counts_grow_at_most_linearly(self, tmp_path):
        base = self.calls(tmp_path / "base", self.BASE)
        assert any(name.startswith("estimator.do_from_cells:") for name in base)
        for axis in self.AXES:
            doubled = self.calls(tmp_path / axis, dict(self.BASE, **{axis: 2 * self.BASE[axis]}))
            self.assert_linear(base, doubled, axis)

    def test_only_the_corpus_reader_counts_sentences(self, tmp_path):
        base = self.calls(tmp_path / "base", self.BASE)
        doubled = self.calls(tmp_path / "sentences",
                             dict(self.BASE, sentences=2 * self.BASE["sentences"]))
        changed = {name.rsplit(":", 1)[0]: (base.get(name, 0), doubled.get(name, 0))
                   for name in base.keys() | doubled.keys() if base.get(name) != doubled.get(name)}
        assert set(changed) == self.PER_SENTENCE, changed

    def test_call_counts_grow_at_most_linearly_in_templates(self, tmp_path):
        # the prediction files cover only the generated templates, so both
        # sides take the heuristic baselines
        base = self.calls(tmp_path / "base", self.BASE, "baseline:heuristic")
        doubled = self.calls(tmp_path / "templates", self.BASE, "baseline:heuristic",
                             variants=True)
        self.assert_linear(base, doubled, "templates")

    @staticmethod
    def assert_flat(base, doubled, names, axis):
        """Each of `names` (``module.function``) is called, and as often with `axis` doubled."""
        for name in names:
            n, m = (sum(k for key, k in calls.items() if key.rsplit(":", 1)[0] == name)
                    for calls in (base, doubled))
            assert n and n == m, f"{name}: {n} calls, {m} with {axis} doubled"

    def test_poc_counting_is_flat_in_subjects(self, tmp_path):
        # poc counts (template, object) pairs: the subjects never reach it
        base = self.calls(tmp_path / "base", self.BASE)
        doubled = self.calls(tmp_path / "subjects",
                             dict(self.BASE, subjects=2 * self.BASE["subjects"]))
        self.assert_flat(base, doubled, ("corpus.poc_matrix", "corpus._poc_row",
                                         "corpus.template_parts"), "subjects")

    def test_soc_counting_is_flat_in_templates(self, tmp_path):
        # soc counts (subject, object) pairs: the templates never reach it
        base = self.calls(tmp_path / "base", self.BASE, "baseline:heuristic")
        doubled = self.calls(tmp_path / "templates", self.BASE, "baseline:heuristic",
                             variants=True)
        self.assert_flat(base, doubled, ("corpus.soc_matrix", "corpus.entity_postings"),
                         "templates")


def load_report_text(tmp_path, report):
    path = emit_report(report, "structured", tmp_path / "report.json")
    return load_report(path)


class TestCellCounts:
    """The ATE pass's cell counts against the observation tables they count."""

    #: The benchmark's three workload shapes, scaled down.
    SHAPES = {
        "estimate-cold": dict(relations=3, subjects=16, candidates=8, sentences=2000,
                              comention_max=40),
        "estimate-rawcorpus": dict(relations=2, subjects=20, candidates=5, sentences=3000,
                                   comention_max=60, sentences_per_line=3, mention_share=0.5),
        "dynamics-warm": dict(relations=4, subjects=9, candidates=6, sentences=1500,
                              comention_max=24),
    }

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_cell_path_equals_the_table_path(self, tmp_path, shape, seed):
        # per population, the run's key table's cell counts through the core
        # give what `interventional_prob` gives on the population's
        # observation table and on its emitted table read back: the same
        # probabilities, covered mass and dropped strata, or the same error;
        # and `cate` gives the same per-relation effects on both tables
        gen = load_generator()
        sizes = gen.Sizes(**self.SHAPES[shape], checkpoints=(0.0, 0.5, 1.0))
        paths = gen.Corpus(sizes, seed).write(tmp_path / "in")
        compared = cates = 0
        for predictions in ("checkpoint00", "checkpoint01", "checkpoint02",
                            "baseline:random:3"):
            config = TestMetamorphic.config(paths, tmp_path, predictions, min_poc_frequency=0)
            rt = pipeline._Runtime(config.validate())
            report, used = rt.estimate_ates(rt.predictions_for)
            for hyp, pop in rt.score(used).items():
                cells = rt.keys.cells(hyp, used[hyp])
                z = STRATIFY_COLUMNS[hyp]
                table, pairs = tmp_path / f"{hyp}.tsv", tmp_path / f"{hyp}_pairs.tsv"
                write_population(pop, table, pairs)
                emitted_z = ["is_anti" if name == "kbt" else name for name in z]
                estimates = [
                    lambda: do_from_cells(cells),
                    lambda: interventional_prob(population_observation_table(pop),
                                                "treatment", "outcome", z),
                    lambda: interventional_prob(read_table(table), "treatment", "outcome",
                                                emitted_z),
                ]
                results = []
                for estimate in estimates:
                    try:
                        est = estimate()
                    except CorpusCausalError as exc:
                        results.append((type(exc), str(exc)))
                    else:
                        results.append((est.p_outcome_given_do, est.covered_mass,
                                        est.dropped_strata))
                assert results[0] == results[1] == results[2], (shape, seed, predictions, hyp)
                effects = [cate(observed, "relation", "treatment", "outcome", z_of)
                           for observed, z_of in ((population_observation_table(pop), z),
                                                  (read_table(table), emitted_z))]
                assert effects[0] == effects[1], (shape, seed, predictions, hyp)
                if report.ate[hyp] is not None:
                    assert report.ate[hyp] == float(100 * (results[0][0][1] - results[0][0][0]))
                    compared += 1
                    cates += any(r.value is not None for r in effects[0].values())
        assert compared >= 9
        assert cates >= 9


class TestRunBuildPopulation:
    def test_each_hypothesis_is_written_before_it_is_yielded(self, crossed_files):
        config = config_for(crossed_files, "baseline:heuristic")
        out = crossed_files["dir"] / "out"
        written = []
        for hyp, scored in run_build_population(config, ("utt", "soc")):
            written.append((hyp, sorted(p.name for p in out.iterdir())))
            assert len(scored.outcomes) == len(scored.rows)
        assert written == [
            ("utt", ["utt_pairs.tsv", "utt_population.tsv", "utt_queries.tsv"]),
            ("soc", ["soc_pairs.tsv", "soc_population.tsv", "soc_queries.tsv",
                     "utt_pairs.tsv", "utt_population.tsv", "utt_queries.tsv"]),
        ]

    def test_nothing_runs_until_iterated(self, crossed_files):
        runs = run_build_population(config_for(crossed_files, "baseline:"), ("utt",))
        assert not (crossed_files["dir"] / "out").exists()
        with pytest.raises(ConfigError, match="unknown baseline kind"):
            next(runs)


class TestConfig:
    def test_load_and_override(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# run configuration\n"
            "kb = kb.jsonl\n"
            "patterns = patterns.jsonl\n"
            "corpus = corpus.txt\n"
            "predictions = baseline:heuristic\n"
            "min-poc-frequency = 5\n"
            "bin-edges = 1, 10, 100, 1000\n",
            encoding="utf-8",
        )
        config = load_config(path)
        assert config.kb == "kb.jsonl"
        assert config.bin_edges == (1, 10, 100, 1000)
        merged = merge_config(config, {"min-poc-frequency": 2, "index": "x.idx"})
        assert merged.min_poc_frequency == 2
        assert merged.index == "x.idx"
        assert merged.kb == "kb.jsonl"

    def test_hash_starts_a_comment_only_at_line_start_or_after_whitespace(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "  # an indented comment\n"
            "mask-token = <#>\n"
            "output-dir = out#1   # the run's outputs\n"
            "cache-dir = cache#\n"
            "index = x.idx\t#a comment after a tab\n"
            "kb = #kb.jsonl\n",
            encoding="utf-8",
        )
        config = load_config(path)
        assert config.mask_token == "<#>"
        assert config.output_dir == "out#1"
        assert config.cache_dir == "cache#"
        assert config.index == "x.idx"
        assert config.kb == ""  # "#" after the "= " is a comment
        flags = {"mask-token": "<#>", "output-dir": "out#1", "cache-dir": "cache#"}
        assert merge_config(RunConfig(), flags) == replace(config, index="")

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("mystery = 1\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_config(path)
        # argmax ties are always broken lexicographically; no knob remains
        path.write_text("tie-break = lexicographic\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="unknown config key 'tie-break'"):
            load_config(path)

    def test_validation_errors(self):
        with pytest.raises(ConfigError):
            RunConfig().validate()
        with pytest.raises(ConfigError):
            merge_config(
                RunConfig(),
                {
                    "kb": "a",
                    "patterns": "b",
                    "corpus": "c",
                    "predictions": "d",
                    "bin-edges": "5, 4, 3, 2",
                },
            ).validate()
        with pytest.raises(ConfigError):
            merge_config(
                RunConfig(),
                {
                    "kb": "a",
                    "patterns": "b",
                    "corpus": "c",
                    "predictions": "d",
                    "tie-break": "random",
                },
            ).validate()


def write_checkpoint(path, keys, gold, source):
    write_jsonl(
        path,
        [
            {
                "subject": s,
                "relation": r,
                "template": t,
                "prediction": gold(s, r, t),
                "source_id": source,
            }
            for s, r, t in keys
        ],
    )


class TestDynamics:
    def checkpoint_files(self, files, kb, n=2):
        keys = []
        for rel in kb.relations:
            for s in kb.subjects(rel):
                for p in kb.patterns:
                    if p.relation == rel:
                        keys.append((s, rel, p.template))
        gold = {
            ("Paris", "capital-of"): "France",
            ("Rome", "capital-of"): "Italy",
            ("Daria", "aired-on"): "MTV",
            ("True Detective", "aired-on"): "HBO",
        }
        ckpt_dir = files["dir"] / "ckpts"
        ckpt_dir.mkdir(exist_ok=True)
        paths = []
        for i in range(n):
            path = ckpt_dir / f"epoch{i:02d}.jsonl"
            write_checkpoint(
                path, keys, lambda s, r, t: gold[(s, r)], f"epoch{i:02d}"
            )
            paths.append(str(path))
        return paths

    def test_warm_run_builds_no_row(self, crossed_files, crossed_kb, monkeypatch):
        paths = self.checkpoint_files(crossed_files, crossed_kb, n=2)
        cache = crossed_files["dir"] / "cache"
        config = config_for(crossed_files, "unused-but-validated", cache_dir=str(cache))
        cold = run_dynamics(config, paths)

        def no_rows(pop):
            raise AssertionError("a warm dynamics run built a population's rows")

        monkeypatch.setattr(MatchedPopulation, "rows", property(no_rows))
        assert run_dynamics(config, paths) == cold

    def test_series_length_and_order(self, crossed_files, crossed_kb):
        paths = self.checkpoint_files(crossed_files, crossed_kb, n=2)
        config = config_for(crossed_files, "unused-but-validated")
        report = run_dynamics(config, list(reversed(paths)))
        assert len(report.series) == 2
        assert [e["checkpoint"] for e in report.series] == ["epoch00", "epoch01"]

    def test_repeated_checkpoint_identical_entries(self, crossed_files, crossed_kb):
        paths = self.checkpoint_files(crossed_files, crossed_kb, n=1)
        config = config_for(crossed_files, "unused-but-validated")
        report = run_dynamics(config, [paths[0], paths[0]])
        first, second = report.series
        assert first["ate"] == second["ate"]
        assert first["accuracy"] == second["accuracy"]

    def test_single_checkpoint_matches_estimate(self, crossed_files, crossed_kb):
        paths = self.checkpoint_files(crossed_files, crossed_kb, n=1)
        config = config_for(crossed_files, "unused-but-validated")
        dyn = run_dynamics(config, paths)
        est = run_estimate(config_for(crossed_files, paths[0]))
        assert dyn.series[0]["ate"] == est.ate
        assert dyn.ate == est.ate

    def test_gold_predictions_have_full_accuracy(self, crossed_files, crossed_kb):
        paths = self.checkpoint_files(crossed_files, crossed_kb, n=1)
        config = config_for(crossed_files, "unused-but-validated")
        report = run_dynamics(config, paths)
        assert report.series[0]["accuracy"] == 1.0

    def test_missing_keys_reported_without_aborting(self, crossed_files, crossed_kb):
        paths = self.checkpoint_files(crossed_files, crossed_kb, n=1)
        broken = crossed_files["dir"] / "ckpts" / "broken.jsonl"
        write_jsonl(
            broken,
            [
                {
                    "subject": "Paris",
                    "relation": "capital-of",
                    "template": "[X] is the capital of [Y].",
                    "prediction": "France",
                    "source_id": "broken",
                }
            ],
        )
        config = config_for(crossed_files, "unused-but-validated")
        report = run_dynamics(config, [str(broken)] + paths)
        errored = [e for e in report.series if e["error"]]
        assert len(errored) == 1
        assert len(report.series) == 2

    def test_non_utf8_checkpoint_reported_without_aborting(self, crossed_files, crossed_kb):
        # its UnicodeDecodeError used to escape and lose the whole series
        paths = self.checkpoint_files(crossed_files, crossed_kb, n=2)
        garbled = crossed_files["dir"] / "ckpts" / "epoch01.jsonl"
        garbled.write_bytes(b"\xff\xfe")
        config = config_for(crossed_files, "unused-but-validated")
        report = run_dynamics(config, paths)
        good, bad = report.series
        assert good["error"] is None and good["accuracy"] == 1.0
        assert bad["ate"] is None and "epoch01.jsonl is not valid UTF-8" in bad["error"]
        # the last checkpoint failed: the full estimate is the one before it
        alone = run_estimate(config_for(crossed_files, paths[0]))
        assert (report.cate, report.diagnostics, report.source_id) == (
            alone.cate, alone.diagnostics, alone.source_id
        )
        assert report.source_id == "epoch00"

    def test_unreadable_checkpoint_is_named_by_its_name(self, crossed_files, crossed_kb):
        # an OSError's entry names the file as the other entries do, not its path
        paths = self.checkpoint_files(crossed_files, crossed_kb, n=1)
        missing = crossed_files["dir"] / "ckpts" / "gone.jsonl"
        config = config_for(crossed_files, "unused-but-validated")
        report = run_dynamics(config, paths + [str(missing), str(missing.parent)])
        errors = [entry["error"] for entry in report.series]
        assert errors == ["[Errno 21] Is a directory: 'ckpts'", None,
                          "[Errno 2] No such file or directory: 'gone.jsonl'"]

    def test_checkpoints_sort_by_digit_runs(self):
        names = ["step10", "step2", "step1\u00b2", "step1", "step"]
        assert sorted(names, key=pipeline._natural_key) == [
            "step", "step1", "step1\u00b2", "step2", "step10"
        ]

    def test_equal_digit_runs_keep_plain_order(self, crossed_files, crossed_kb):
        # epoch0 and epoch00 share a natural key; the order must not
        # depend on the order the paths were listed in
        (path,) = self.checkpoint_files(crossed_files, crossed_kb, n=1)
        twin = path.replace("epoch00", "epoch0")
        shutil.copy(path, twin)
        config = config_for(crossed_files, "unused-but-validated")
        for paths in ([path, twin], [twin, path]):
            report = run_dynamics(config, paths)
            assert [e["checkpoint"] for e in report.series] == ["epoch0", "epoch00"]

    def test_checkpoints_sort_by_name_across_directories(self, crossed_files, crossed_kb):
        # the order is the names', not the directories': b/ep1 runs before a/ep2,
        # and the full estimate is the last one's
        first, last = self.checkpoint_files(crossed_files, crossed_kb, n=2)
        paths = []
        for directory, name, source in (("b", "ep1", first), ("a", "ep2", last)):
            (crossed_files["dir"] / directory).mkdir()
            paths.append(str(shutil.copy(source, crossed_files["dir"] / directory / f"{name}.jsonl")))
        config = config_for(crossed_files, "unused-but-validated")
        for listed in (paths, paths[::-1]):
            report = run_dynamics(config, listed)
            assert [e["checkpoint"] for e in report.series] == ["ep1", "ep2"]
            assert report.source_id == "epoch01"

    def test_cate_once_per_run_and_scoring_once_per_checkpoint(self, tmp_path, monkeypatch):
        # the checkpoint axis, read from call counts: each checkpoint is read
        # straight into the key table's ids, so it makes no key pass, and gets
        # one cell-count estimate per hypothesis, while the key
        # table is built once per run, its strata numbered once per estimated
        # hypothesis and its utt golds coded once, and the observation table
        # and CATE made once per estimated hypothesis, from the last
        # checkpoint, whatever the count; an estimate run codes no golds
        gen = load_generator()
        sizes = gen.Sizes(relations=2, subjects=10, candidates=5, sentences=600,
                          comention_max=20, checkpoints=(0.2, 0.4, 0.6, 0.8))
        paths = gen.Corpus(sizes, seed=3).write(tmp_path / "in")
        checkpoints = [str(paths[f"checkpoint{k:02d}"]) for k in range(4)]
        config = TestMetamorphic.config(paths, tmp_path / "out", "checkpoint00",
                                        cache_dir=str(tmp_path / "cache"))
        calls = {}

        def spy(owner, name):
            real = getattr(owner, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        names = ("cate", "population_observation_table", "do_from_cells", "ClozeKeyTable")
        for name in names:
            spy(pipeline, name)
        spy(ClozeKeyTable, "_key_pass")
        spy(ClozeKeyTable, "_number_strata")
        real_golds = ClozeKeyTable._golds.func

        def golds(table):
            calls["_golds"] += 1
            return real_golds(table)

        counted_golds = cached_property(golds)
        counted_golds.__set_name__(ClozeKeyTable, "_golds")
        monkeypatch.setattr(ClozeKeyTable, "_golds", counted_golds)
        counts = {}
        for k in (1, 2, 4):
            calls.update(dict.fromkeys(names + ("_key_pass", "_number_strata", "_golds"), 0))
            report = run_dynamics(config, checkpoints[:k])
            assert report.failures() == {}
            counts[k] = dict(calls)
        estimated = len(report.ate)
        for k, seen in counts.items():
            assert seen == {"cate": estimated, "population_observation_table": estimated,
                            "do_from_cells": estimated * k, "ClozeKeyTable": 1,
                            "_key_pass": 0, "_number_strata": estimated, "_golds": 1}, k
        calls.update(dict.fromkeys(calls, 0))
        assert run_estimate(config).failures() == {}
        assert calls == {"cate": estimated, "population_observation_table": estimated,
                         "do_from_cells": estimated, "ClozeKeyTable": 1, "_key_pass": 0,
                         "_number_strata": estimated, "_golds": 0}

    def test_keys_once_per_built_or_read_population(self, tmp_path, monkeypatch):
        # a population's cloze keys are computed once, the first time they are
        # asked for, and a scored copy never computes them
        gen = load_generator()
        sizes = gen.Sizes(relations=2, subjects=10, candidates=5, sentences=600,
                          comention_max=20, checkpoints=(0.2, 0.4, 0.6, 0.8))
        paths = gen.Corpus(sizes, seed=3).write(tmp_path / "in")
        checkpoints = [str(paths[f"checkpoint{k:02d}"]) for k in range(4)]
        config = TestMetamorphic.config(paths, tmp_path / "out", "checkpoint00",
                                        cache_dir=str(tmp_path / "cache"))
        made, keyed = [], []

        def spy(owner, name):
            real = getattr(owner, name)

            def recorded(*args, **kwargs):
                made.append((name, real(*args, **kwargs)))
                return made[-1][1]

            monkeypatch.setattr(owner, name, recorded)

        spy(population, "_population")
        spy(pipeline, "read_cache_entry")
        real_keys = MatchedPopulation._keys.func

        def counted(pop):
            keyed.append(pop)
            return real_keys(pop)

        keys = cached_property(counted)
        keys.__set_name__(MatchedPopulation, "_keys")
        monkeypatch.setattr(MatchedPopulation, "_keys", keys)
        runs = [  # a cold estimate, a warm dynamics run, and a build with no cache
            ("_population", lambda: run_estimate(config, emit_populations=True)),
            ("read_cache_entry", lambda: run_dynamics(config, checkpoints)),
            ("_population", lambda: list(run_build_population(
                replace(config, cache_dir=""), ("utt", "poc", "soc")))),
        ]
        for source, run in runs:
            made.clear()
            keyed.clear()
            run()
            assert [name for name, _ in made] == [source] * 3
            assert sorted(map(id, keyed)) == sorted(id(pop) for _, pop in made), source

    def test_all_checkpoints_failing_raises(self, crossed_files):
        empty = crossed_files["dir"] / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        config = config_for(crossed_files, "unused-but-validated")
        with pytest.raises(MissingPredictionError):
            run_dynamics(config, [str(empty)])

    def test_requires_checkpoints(self, crossed_files):
        config = config_for(crossed_files, "unused-but-validated")
        with pytest.raises(ConfigError):
            run_dynamics(config, [])

    def test_warm_run_builds_no_index_object(self, tmp_path, monkeypatch):
        # a saved index makes its sentence list, sentence set and postings dict
        # when first read: a warm run on prediction files reads none of them,
        # and a cold run on the heuristic baselines makes each once
        gen = load_generator()
        sizes = gen.Sizes(relations=2, subjects=10, candidates=5, sentences=600,
                          comention_max=20, checkpoints=(0.2, 0.8))
        paths = gen.Corpus(sizes, seed=3).write(tmp_path / "in")
        build_index(str(paths["corpus"])).save(tmp_path / "corpus.idx")
        config = replace(
            TestMetamorphic.config(paths, tmp_path / "out", "checkpoint00",
                                   cache_dir=str(tmp_path / "cache")),
            corpus="", index=str(tmp_path / "corpus.idx"),
        )
        assert run_estimate(config).failures() == {}  # fills the cache
        made = dict.fromkeys(("sentences", "sentence_set", "_token_postings"), 0)
        for name in made:
            real = getattr(CorpusIndex, name).func

            def counted(index, name=name, real=real):
                made[name] += 1
                return real(index)

            spied = cached_property(counted)
            spied.__set_name__(CorpusIndex, name)
            monkeypatch.setattr(CorpusIndex, name, spied)
        checkpoints = [str(paths["checkpoint00"]), str(paths["checkpoint01"])]
        assert run_dynamics(config, checkpoints).failures() == {}
        assert made == dict.fromkeys(made, 0)
        cold = replace(config, predictions="baseline:heuristic",
                       cache_dir=str(tmp_path / "cold-cache"))
        assert run_estimate(cold).failures() == {}
        assert made == dict.fromkeys(made, 1)


class TestCheckpointErrors:
    """A bad checkpoint fails alike whether read alone, for a run's key table, or in a series.

    Each case edits a generated checkpoint's lines; the error names the
    first line at fault, and a series entry names the file by its name.
    """

    SIZES = dict(relations=2, subjects=10, candidates=5, sentences=600, comention_max=20,
                 checkpoints=(0.2, 0.8))

    @staticmethod
    def cases(records, kb):
        """Case name -> (the file's bytes, error class, message with ``{path}``)."""
        first, second, third = records[:3]
        n = len(records)
        source = first["source_id"]
        key = (third["subject"], third["relation"], third["template"])
        other = next(obj for rel in kb.relations for obj in kb.candidate_objects(rel)
                     if obj not in kb.candidate_objects(third["relation"]))
        outside = dict(first, subject="Nobody")  # a key outside every population
        outside_key = (outside["subject"], outside["relation"], outside["template"])

        def joined(text):
            return ("\n".join(text) + "\n").encode()

        def lines(edited):  # line 3 replaced
            return joined([*map(json.dumps, records[:2]), edited, *map(json.dumps, records[3:])])

        def appended(*extra):
            return joined(map(json.dumps, records + list(extra)))

        def without(field):
            return {name: value for name, value in third.items() if name != field}

        return {
            "bad JSON": (lines('{"subject": '), ParseError,
                         "line 3: invalid JSON record: Expecting value"),
            "non-object": (lines("[1, 2]"), ParseError, "line 3: record must be a JSON object"),
            "missing field": (lines(json.dumps(without("template"))), ParseError,
                              "line 3: missing field 'template'"),
            "blank field": (lines(json.dumps(dict(third, prediction="  "))), ParseError,
                            "line 3: field 'prediction' must be a non-empty string"),
            "non-UTF-8": (lines(json.dumps(third)).replace(b"}\n", b"\xff}\n", 1),
                          EncodingError, "{path} is not valid UTF-8"),
            "mixed source_id": (lines(json.dumps(dict(third, source_id="other"))), ParseError,
                                f"line 3: mixed source_id values: {source!r} vs 'other'"),
            "unknown relation": (lines(json.dumps(dict(third, relation="nope"))), ParseError,
                                 "line 3: unknown relation 'nope'"),
            "candidate outside its relation": (
                lines(json.dumps(dict(third, prediction=other))), CandidateViolationError,
                f"line 3: prediction {other!r} for {key!r} is outside the relation's "
                f"candidate set"),
            "duplicate key": (appended(second), DuplicateKeyError,
                              f"line {n + 1}: duplicate key "
                              f"{(second['subject'], second['relation'], second['template'])!r}"),
            "empty file": (b"", ParseError, "no prediction records in {path}"),
            "duplicate key outside every population": (
                appended(outside, outside), DuplicateKeyError,
                f"line {n + 2}: duplicate key {outside_key!r}"),
            "bad candidate outside every population": (
                appended(dict(outside, prediction=other)), CandidateViolationError,
                f"line {n + 1}: prediction {other!r} for {outside_key!r} is outside the "
                f"relation's candidate set"),
        }

    CASES = ("bad JSON", "non-object", "missing field", "blank field", "non-UTF-8",
             "mixed source_id", "unknown relation", "candidate outside its relation",
             "duplicate key", "empty file", "duplicate key outside every population",
             "bad candidate outside every population")

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("reader", ["alone", "key table", "series"])
    def test_same_error_every_way(self, tmp_path, case, reader):
        gen = load_generator()
        paths = gen.Corpus(gen.Sizes(**self.SIZES), seed=3).write(tmp_path / "in")
        config = TestMetamorphic.config(paths, tmp_path / "out", "checkpoint00")
        rt = pipeline._Runtime(config.validate())
        text = paths["checkpoint00"].read_text(encoding="utf-8")
        records = list(map(json.loads, text.splitlines()))
        data, error, message = self.cases(records, rt.kb)[case]
        bad = tmp_path / "bad" / "step01.jsonl"
        bad.parent.mkdir()
        bad.write_bytes(data)
        message = message.format(path=bad)
        if reader == "series":
            report = run_dynamics(config, [str(paths["checkpoint00"]), str(bad)])
            good, failed = report.series
            assert good["error"] is None
            assert failed["error"] == message.replace(str(bad), bad.name)
            return
        keys = (rt.keys,) if reader == "key table" else ()
        with pytest.raises(CorpusCausalError) as err:
            load_predictions(bad, rt.kb, *keys)
        assert type(err.value) is error
        assert str(err.value) == message

    def test_ids_come_only_from_the_reader_of_the_tables_kb(self, tmp_path):
        # a key table over another KB, or ids handed in by a caller, would
        # score a set against what its records do not say
        gen = load_generator()
        paths = gen.Corpus(gen.Sizes(**self.SIZES), seed=3).write(tmp_path / "in")
        rt = pipeline._Runtime(TestMetamorphic.config(paths, tmp_path / "out", "checkpoint00"))
        other = load_knowledge_base(paths["kb"], paths["patterns"])
        with pytest.raises(ValueError, match="another knowledge base"):
            load_predictions(paths["checkpoint00"], other, rt.keys)
        with pytest.raises(TypeError):
            PredictionSet({}, "m", key_ids=(rt.keys, None))
        loaded = load_predictions(paths["checkpoint00"], rt.kb, rt.keys)
        assert loaded.key_ids[0] is rt.keys
        assert replace(loaded, records=dict(loaded.records)).key_ids is None


class TestFilesLandWhole:
    """A file a run writes lands whole or not at all: a failed write leaves no
    part of it, and a file from an earlier run at its path as it was."""

    @staticmethod
    def place(paths, earlier):
        for path in paths:
            if earlier:
                path.write_text("earlier\n", encoding="utf-8")

    @staticmethod
    def assert_left(paths, earlier):
        for path in paths:
            if earlier:
                assert path.read_text(encoding="utf-8") == "earlier\n"
            else:
                assert not path.exists()
            assert not [p for p in path.parent.iterdir() if p.name.endswith(".tmp")]

    @pytest.mark.parametrize("earlier", [False, True])
    @pytest.mark.parametrize(
        "failure", ["refused cell", "table block", "pairs block", "table's last byte"])
    def test_population_tables(self, tmp_path, monkeypatch, failure, earlier):
        # both files land together: a failure in either leaves neither
        if failure == "refused cell":
            kb = KnowledgeBase(
                triplets=(Triplet("Ann\tLee", "r", "Xo"), Triplet("Bo", "r", "Yu")),
                patterns=(PatternSpec("r", "[X] likes [Y]."),),
            )
            pop, error = build_structure("soc", kb, build_index(["Bo likes Yu."])), InputError
        elif failure == "table's last byte":
            # a disk with room for all but the table's last byte: the table's
            # last buffered block fails only when it is written out
            pop = build_structure("soc", golden_fixture.knowledge_base(), golden_fixture.corpus_index())
            whole = tmp_path / "whole"
            whole.mkdir()
            write_population(pop, whole / "population.tsv", whole / "pairs.tsv")
            room, error = (whole / "population.tsv").stat().st_size - 1, OSError

            class FullDisk(io.FileIO):
                def write(self, data):
                    if self.tell() + len(data) > room:
                        raise OSError(errno.ENOSPC, "no space left on device")
                    return super().write(data)

            def open_on_full_disk(path, mode, encoding=None):
                if "population" not in Path(path).name:
                    return open(path, mode, encoding=encoding)
                return io.TextIOWrapper(io.BufferedWriter(FullDisk(path, "w")), encoding=encoding)

            monkeypatch.setattr(corpus, "open", open_on_full_disk, raising=False)
        else:
            pop = build_structure("soc", golden_fixture.knowledge_base(), golden_fixture.corpus_index())
            real, error = population.tsv_blocks, OSError
            failing = POPULATION_FIELDS if failure == "table block" else ("treated", "control")

            def blocks(header, rows):  # the header line, then a full disk
                lines = real(header, rows)
                yield next(lines)
                if tuple(header) == failing:
                    raise OSError("no space left on device")
                yield from lines

            monkeypatch.setattr(population, "tsv_blocks", blocks)
        paths = (tmp_path / "soc_population.tsv", tmp_path / "soc_pairs.tsv")
        self.place(paths, earlier)
        with pytest.raises(error):
            write_population(pop, *paths)
        self.assert_left(paths, earlier)

    @pytest.mark.parametrize("earlier", [False, True])
    def test_query_file(self, crossed_files, monkeypatch, earlier):
        real = pipeline.tsv_blocks

        def blocks(header, rows):  # the header line, then a full disk
            yield next(real(header, rows))
            raise OSError("no space left on device")

        monkeypatch.setattr(pipeline, "tsv_blocks", blocks)
        config = config_for(crossed_files, "baseline:heuristic")
        out = Path(config.output_dir)
        out.mkdir()
        path = out / "soc_queries.tsv"
        self.place([path], earlier)
        with pytest.raises(OSError, match="no space"):
            list(run_build_population(config, ("soc",)))
        self.assert_left([path], earlier)

    @pytest.mark.parametrize("earlier", [False, True])
    def test_report(self, tmp_path, earlier):
        # a lone surrogate cannot be written as UTF-8
        report = EffectReport("m\ud800", dict.fromkeys(pipeline.HYPOTHESES), {}, {})
        path = tmp_path / "report.json"
        self.place([path], earlier)
        with pytest.raises(UnicodeEncodeError):
            emit_report(report, "structured", path)
        self.assert_left([path], earlier)

    @pytest.mark.parametrize("earlier", [False, True])
    def test_predictions(self, tmp_path, earlier):
        # the second record, in key order, cannot be written as UTF-8
        records = {("a", "r", "[X] r [Y]."): "x", ("b", "r", "[X] r [Y]."): "y\ud800"}
        path = tmp_path / "preds.jsonl"
        self.place([path], earlier)
        with pytest.raises(UnicodeEncodeError):
            save_predictions(PredictionSet(records, "m"), path)
        self.assert_left([path], earlier)


class TestReports:
    def sample_report(self):
        return EffectReport(
            source_id="heuristic",
            ate={"utt": 100.0, "poc": 100.0, "soc": 100.0},
            cate={"utt": {}, "poc": {}, "soc": {}},
            diagnostics={
                h: {"covered_mass": 1.0, "rows": 4, "pairs": 2}
                for h in ("utt", "poc", "soc")
            },
        )

    def test_table_format_shows_hundreds(self):
        text = render_report(self.sample_report(), "table")
        assert "100.00" in text
        assert "heuristic" in text

    def test_table_without_cate_has_only_ate_section(self):
        text = render_report(self.sample_report(), "table")
        assert "CATE" not in text

    def test_structured_round_trip(self, tmp_path, crossed_files):
        report = run_estimate(config_for(crossed_files, "baseline:heuristic"))
        path = tmp_path / "report.json"
        emit_report(report, "structured", path)
        again = load_report(path)
        assert again == report

    def test_delimited_one_row_per_group(self):
        report = EffectReport(
            source_id="m",
            ate={"utt": 1.0, "poc": 2.0, "soc": 3.0},
            cate={
                "utt": {},
                "poc": {},
                "soc": {"capital-of": {"value": 57.64, "reason": None, "n_rows": 8}},
            },
            diagnostics={h: {"rows": 8} for h in ("utt", "poc", "soc")},
        )
        text = render_report(report, "delimited")
        lines = text.strip().splitlines()
        assert lines[0] == "hypothesis\tgroup\testimate\tn_rows"
        assert any(line.startswith("soc\tcapital-of\t57.64") for line in lines)

    def test_delimited_carries_the_series(self):
        plain = render_report(self.sample_report(), "delimited")
        assert plain == (
            "hypothesis\tgroup\testimate\tn_rows\n"
            "utt\t*\t100.0\t4\npoc\t*\t100.0\t4\nsoc\t*\t100.0\t4\n"
        )
        series = (
            {"checkpoint": "ep1", "ate": {"utt": 12.5, "poc": None, "soc": -3.0},
             "accuracy": 0.75, "error": None},
            {"checkpoint": "ep2", "ate": None, "accuracy": None,
             "error": "line 1: missing field 'subject'"},
        )
        text = render_report(replace(self.sample_report(), series=series), "delimited")
        assert text == plain + (
            "utt\tcheckpoint:ep1\t12.5\t\npoc\tcheckpoint:ep1\t\t\n"
            "soc\tcheckpoint:ep1\t-3.0\t\naccuracy\tcheckpoint:ep1\t0.75\t\n"
            "utt\tcheckpoint:ep2\t\t\npoc\tcheckpoint:ep2\t\t\n"
            "soc\tcheckpoint:ep2\t\t\naccuracy\tcheckpoint:ep2\t\t\n"
        )

    def test_structured_emission_deterministic(self, tmp_path, crossed_files):
        config = config_for(crossed_files, "baseline:heuristic")
        a = render_report(run_estimate(config), "structured")
        b = render_report(run_estimate(config), "structured")
        assert a == b

    def test_report_json_is_sorted_and_parseable(self, tmp_path, crossed_files):
        report = run_estimate(config_for(crossed_files, "baseline:heuristic"))
        path = tmp_path / "report.json"
        emit_report(report, "structured", path)
        data = json.loads(path.read_text(encoding="utf-8"))
        assert set(data["ate"]) == {"utt", "poc", "soc"}


def readme_library_example():
    """The README's ``## Library`` snippet, as written."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    library = readme.split("\n## Library\n", 1)[1]
    return library.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_example_runs(crossed_files, monkeypatch, capsys):
    # the crossed fixture under the README's file names, each query
    # predicted as its KB object
    example = readme_library_example()
    write_jsonl(crossed_files["dir"] / "preds.jsonl", [
        {"subject": s, "relation": r, "template": t, "prediction": o, "source_id": "perfect"}
        for s, r, o in CROSSED_TRIPLETS
        for relation, t, _ in CROSSED_PATTERNS
        if relation == r
    ])
    monkeypatch.chdir(crossed_files["dir"])
    exec(example, {})
    assert capsys.readouterr().out == "-100\n"


def test_readme_library_example_runs_on_the_golden_fixture(tmp_path, monkeypatch, capsys):
    # the golden fixture under the README's file names, with perfect
    # predictions saved by `save_predictions`
    kb = golden_fixture.knowledge_base()
    write_corpus(tmp_path, golden_fixture.corpus_lines())
    write_kb_files(tmp_path, golden_fixture.TRIPLETS, golden_fixture.PATTERNS)
    queries = golden_fixture.predictions(kb).records
    save_predictions(baseline_predict("perfect", kb, queries=queries), tmp_path / "preds.jsonl")
    monkeypatch.chdir(tmp_path)
    exec(readme_library_example(), {})
    assert capsys.readouterr().out == "-100\n"
