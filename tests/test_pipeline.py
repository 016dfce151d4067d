"""End-to-end runs, config handling, reports, dynamics."""

import json
import random
import re
import shutil
from dataclasses import replace
from hashlib import blake2b
from pathlib import Path

import pytest

from corpuscausal import pipeline
from corpuscausal.errors import ConfigError, EmptyPopulationError, MissingPredictionError
from corpuscausal.estimator import ate, read_table
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
from corpuscausal.corpus import CorpusIndex, build_index
from corpuscausal.population import (
    ROW_FIELDS,
    STRATIFY_COLUMNS,
    PopulationColumns,
    build_structure,
    read_cache_entry,
)

from conftest import (
    CROSSED_PATTERNS,
    CROSSED_TRIPLETS,
    decode_entry,
    encode_entry,
    load_generator,
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

        def no_rows(columns):
            raise AssertionError("emission built a population's rows")

        monkeypatch.setattr(PopulationColumns, "rows", property(no_rows))
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


def load_report_text(tmp_path, report):
    path = emit_report(report, "structured", tmp_path / "report.json")
    return load_report(path)


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

        def no_rows(columns):
            raise AssertionError("a warm dynamics run built a population's rows")

        monkeypatch.setattr(PopulationColumns, "rows", property(no_rows))
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


def test_readme_library_example_runs(crossed_files, monkeypatch, capsys):
    # the crossed fixture under the README's file names, each query
    # predicted as its KB object
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    library = readme.split("\n## Library\n", 1)[1]
    example = library.split("```python\n", 1)[1].split("```", 1)[0]
    write_jsonl(crossed_files["dir"] / "preds.jsonl", [
        {"subject": s, "relation": r, "template": t, "prediction": o, "source_id": "perfect"}
        for s, r, o in CROSSED_TRIPLETS
        for relation, t, _ in CROSSED_PATTERNS
        if relation == r
    ])
    monkeypatch.chdir(crossed_files["dir"])
    exec(example, {})
    assert capsys.readouterr().out == "-100\n"
