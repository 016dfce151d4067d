"""CLI surface: subcommands, config plumbing, exit codes."""

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from corpuscausal import errors, pipeline
from corpuscausal.cli import main
from corpuscausal.corpus import CorpusIndex
from corpuscausal.kb import load_knowledge_base
from corpuscausal.predictions import baseline_predict, save_predictions

from conftest import crossed_corpus_lines, write_corpus, write_kb_files


def invoke(*args):
    return CliRunner().invoke(main, list(map(str, args)))


def write_config(files, predictions="baseline:heuristic"):
    path = files["dir"] / "run.cfg"
    path.write_text(
        f"kb = {files['kb']}\n"
        f"patterns = {files['patterns']}\n"
        f"corpus = {files['corpus']}\n"
        f"predictions = {predictions}\n"
        f"output-dir = {files['dir'] / 'out'}\n",
        encoding="utf-8",
    )
    return path


class TestIndexCommand:
    def test_index_and_stats(self, crossed_files):
        idx_path = crossed_files["dir"] / "corpus.idx"
        result = invoke("index", crossed_files["corpus"], "-o", idx_path)
        assert result.exit_code == 0, result.output
        assert idx_path.exists()

        result = invoke(
            "stats",
            idx_path,
            "--kb",
            crossed_files["kb"],
            "--patterns",
            crossed_files["patterns"],
        )
        assert result.exit_code == 0, result.output
        lines = [l for l in result.output.splitlines() if l]
        assert "Paris\tFrance\t3" in lines
        assert "Paris\tItaly\t4" in lines

    def test_stats_reads_one_soc_matrix_per_relation(self, crossed_files, monkeypatch):
        idx_path = crossed_files["dir"] / "corpus.idx"
        assert invoke("index", crossed_files["corpus"], "-o", idx_path).exit_code == 0
        kb = load_knowledge_base(crossed_files["kb"], crossed_files["patterns"])
        assert len(kb.relations) > 1
        idx = CorpusIndex.load(idx_path)
        expected = "".join(
            f"{subject}\t{obj}\t{idx.soc_count(subject, obj)}\n"
            for relation in kb.relations
            for subject in kb.subjects(relation)
            for obj in kb.candidate_objects(relation)
        )
        calls = {"soc_matrix": [], "soc_count": []}
        for name in calls:
            def spy(self, *args, _name=name, _real=getattr(CorpusIndex, name)):
                calls[_name].append(args)
                return _real(self, *args)
            monkeypatch.setattr(CorpusIndex, name, spy)
        result = invoke("stats", idx_path, "--kb", crossed_files["kb"],
                        "--patterns", crossed_files["patterns"])
        assert result.exit_code == 0, result.output
        assert result.output == expected
        # one matrix per relation, over its subjects and candidates; no pair is counted alone
        assert calls["soc_matrix"] == [
            (kb.subjects(relation), kb.candidate_objects(relation)) for relation in kb.relations
        ]
        assert calls["soc_count"] == []

    def test_truncated_index_is_input_error(self, crossed_files):
        idx_path = crossed_files["dir"] / "corpus.idx"
        assert invoke("index", crossed_files["corpus"], "-o", idx_path).exit_code == 0
        idx_path.write_bytes(idx_path.read_bytes()[:-4])
        result = invoke(
            "stats",
            idx_path,
            "--kb",
            crossed_files["kb"],
            "--patterns",
            crossed_files["patterns"],
        )
        assert result.exit_code == 1, result.output
        assert "corrupt index structure" in result.output

    @pytest.mark.parametrize(
        "damage, message",
        [
            # one bit of the last posting: the structure still reads
            pytest.param(
                lambda blob: blob[:-3] + bytes([blob[-3] ^ 1]) + blob[-2:],
                "corrupt index structure",
                id="flipped-bit",
            ),
            # the version-1 layout is the version-2 one without the digest
            pytest.param(
                lambda blob: b"CCIDX001" + blob[24:],
                "re-run `corpuscausal index`",
                id="version-1",
            ),
        ],
    )
    def test_damaged_or_old_index_is_input_error(self, crossed_files, damage, message):
        idx_path = crossed_files["dir"] / "corpus.idx"
        assert invoke("index", crossed_files["corpus"], "-o", idx_path).exit_code == 0
        idx_path.write_bytes(damage(idx_path.read_bytes()))
        result = invoke(
            "stats",
            idx_path,
            "--kb",
            crossed_files["kb"],
            "--patterns",
            crossed_files["patterns"],
        )
        assert result.exit_code == 1, result.output
        assert message in result.output

    def test_missing_corpus_is_input_error(self, tmp_path):
        result = invoke("index", tmp_path / "missing.txt", "-o", tmp_path / "x.idx")
        assert result.exit_code == 1, result.output

    def test_failed_index_write_keeps_the_old_index(self, crossed_files, monkeypatch):
        out = crossed_files["dir"] / "idx"
        out.mkdir()
        idx_path = out / "corpus.idx"
        assert invoke("index", crossed_files["corpus"], "-o", idx_path).exit_code == 0
        old = idx_path.read_bytes()
        body = CorpusIndex._body

        def fail_after_first_chunk(index):
            yield body(index)[0]
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(CorpusIndex, "_body", fail_after_first_chunk)
        crossed_files["corpus"].write_text("A different corpus.\n", encoding="utf-8")
        result = invoke("index", crossed_files["corpus"], "-o", idx_path)
        assert result.exit_code == 1, result.output
        assert "cannot write index" in result.output
        assert idx_path.read_bytes() == old
        assert len(CorpusIndex.load(idx_path)) == len(crossed_corpus_lines())
        assert list(out.iterdir()) == [idx_path]


class TestEstimateCommand:
    def test_estimate_with_config_file(self, crossed_files):
        config = write_config(crossed_files)
        result = invoke("estimate", "--config", config)
        assert result.exit_code == 0, result.output
        assert "utt=100.00" in result.output
        report = json.loads(
            (crossed_files["dir"] / "out" / "report.json").read_text(encoding="utf-8")
        )
        assert report["ate"] == {"utt": 100.0, "poc": 100.0, "soc": 100.0}

    def test_flag_overrides_config(self, crossed_files):
        config = write_config(crossed_files)
        out2 = crossed_files["dir"] / "out2"
        result = invoke(
            "estimate",
            "--config",
            config,
            "--predictions",
            "baseline:random:3",
            "--output-dir",
            out2,
        )
        assert result.exit_code == 0, result.output
        report = json.loads((out2 / "report.json").read_text(encoding="utf-8"))
        assert report["source_id"] == "random:3"

    def test_missing_input_exit_code_1(self, crossed_files):
        config = write_config(crossed_files)
        result = invoke("estimate", "--config", config, "--kb", "does-not-exist.jsonl")
        assert result.exit_code == 1

    @pytest.mark.parametrize("key", ["kb", "patterns", "predictions"])
    def test_non_utf8_input_is_input_error_naming_the_file(self, crossed_files, key):
        garbled = crossed_files["dir"] / "garbled.jsonl"
        garbled.write_bytes(b"\xff\xfe")
        result = invoke("estimate", "--config", write_config(crossed_files), f"--{key}", garbled)
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.exit_code == 1, result.output
        assert "input error:" in result.output
        assert "garbled.jsonl is not valid UTF-8" in result.output

    def test_usage_errors_exit_code_1(self):
        # exit 2 is reserved for estimation errors; click's message is kept
        for args, message in [
            (("estimate", "--tie-break", "x"), "No such option '--tie-break'"),
            (("no-such-command",), "No such command 'no-such-command'"),
            (("estimate", "--min-poc-frequency", "abc"), "'abc' is not a valid integer"),
        ]:
            result = invoke(*args)
            assert result.exit_code == 1, (args, result.output)
            assert message in result.output
        assert invoke("--help").exit_code == 0
        assert invoke("estimate", "--help").exit_code == 0

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("baseline:random:x", "random baseline seed is not an integer"),
            ("baseline:", "unknown baseline kind in 'baseline:'"),
            ("baseline:random", "random baseline spec is baseline:random:<seed>"),
            ("baseline:perfect:1", "unknown baseline kind in 'baseline:perfect:1'"),
        ],
    )
    def test_bad_predictions_spec_fails_first(self, crossed_files, spec, message):
        # the spec is checked with the config, before any input is loaded
        # or any population is built and cached
        config = write_config(crossed_files, predictions=spec)
        cache = crossed_files["dir"] / "cache"
        for command in ("estimate", "build-population all"):
            result = invoke(*command.split(), "--config", config, "--cache-dir", cache)
            assert result.exit_code == 1, result.output
            assert isinstance(result.exception, SystemExit), result.exception
            assert f"input error: {message}" in result.output
            assert not cache.exists()

    def test_predictions_required_where_read(self, crossed_files):
        for command in ("estimate", "build-population all"):
            result = invoke(
                *command.split(), "--kb", crossed_files["kb"],
                "--patterns", crossed_files["patterns"],
                "--corpus", crossed_files["corpus"],
            )
            assert result.exit_code == 1, result.output
            assert "config must name 'predictions'" in result.output

    def test_non_integer_values_are_input_errors_naming_the_key(self, crossed_files):
        config = write_config(crossed_files)
        with open(config, "a", encoding="utf-8") as fh:
            fh.write("min-poc-frequency = five\n")
        result = invoke("estimate", "--config", config)
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.exit_code == 1, result.output
        assert "input error: min-poc-frequency takes integers" in result.output
        result = invoke("estimate", "--config", write_config(crossed_files),
                        "--bin-edges", "1,10,x,1000")
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.exit_code == 1, result.output
        assert "input error: bin-edges takes integers" in result.output

    def test_estimation_failure_exit_code_2(self, crossed_files, tmp_path):
        # a corpus with no stored utterances leaves the utt population empty
        empty_corpus = tmp_path / "none.txt"
        empty_corpus.write_text("completely unrelated text\n", encoding="utf-8")
        config = write_config(crossed_files)
        result = invoke("estimate", "--config", config, "--corpus", empty_corpus)
        assert result.exit_code == 2

    def test_failed_hypothesis_is_reported_and_exits_2(self, crossed_files):
        # no poc row clears this floor; utt and soc are still estimated
        config = write_config(crossed_files, predictions="baseline:perfect")
        result = invoke("estimate", "--config", config, "--min-poc-frequency", 1000000)
        assert result.exit_code == 2, result.output
        assert "ATE: utt=0.00  poc=n/a  soc=-100.00  -> " in result.output
        assert result.output.endswith(
            "estimation error: poc: poc population has no matched pairs\n"
        )
        report = json.loads((crossed_files["dir"] / "out" / "report.json").read_text())
        assert report["ate"]["poc"] is None
        assert report["diagnostics"]["poc"] == {"error": "poc population has no matched pairs"}
        assert isinstance(report["ate"]["utt"], float)
        assert isinstance(report["ate"]["soc"], float)

    def test_byte_identical_reports(self, crossed_files):
        config = write_config(crossed_files)
        out_a = crossed_files["dir"] / "a"
        out_b = crossed_files["dir"] / "b"
        assert invoke("estimate", "--config", config, "--output-dir", out_a).exit_code == 0
        assert invoke("estimate", "--config", config, "--output-dir", out_b).exit_code == 0
        assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()


_LIBRARY_ERRORS = sorted(
    (c for c in vars(errors).values()
     if isinstance(c, type) and issubclass(c, errors.CorpusCausalError)),
    key=lambda c: c.__name__,
)
_BUILTIN_INPUT_ERRORS = [
    OSError("disk gone"),
    UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte"),
]


class TestExitCodes:
    """The error's class alone decides the exit code and the message prefix."""

    def test_input_errors_are_the_ten_input_classes(self):
        subclasses = {c for c in _LIBRARY_ERRORS if issubclass(c, errors.InputError)}
        assert {c.__name__ for c in subclasses - {errors.InputError}} == {
            "ConfigError", "ParseError", "IoFailureError", "EncodingError",
            "EmptyKbError", "UnknownRelationError", "CandidateViolationError",
            "DuplicateKeyError", "MalformedPatternError", "MissingStatsError",
        }

    @pytest.mark.parametrize(
        "exc",
        [cls("boom") for cls in _LIBRARY_ERRORS] + _BUILTIN_INPUT_ERRORS,
        ids=lambda exc: type(exc).__name__,
    )
    def test_exit_code_follows_the_error_class(self, monkeypatch, exc):
        def fail(config, emit_populations=False):
            raise exc

        monkeypatch.setattr(pipeline, "run_estimate", fail)
        result = invoke("estimate")
        assert isinstance(result.exception, SystemExit), result.exception
        if isinstance(exc, (errors.InputError, OSError, UnicodeDecodeError)):
            assert (result.exit_code, result.output) == (1, f"input error: {exc}\n")
        else:
            assert (result.exit_code, result.output) == (2, f"estimation error: {exc}\n")

    def test_subcommand_usage_error_exits_1(self):
        result = invoke("dynamics")
        assert result.exit_code == 1, result.output
        assert "Missing option '--checkpoints'" in result.output


class TestBuildPopulationCommand:
    def test_builds_tables_and_queries(self, crossed_files):
        config = write_config(crossed_files)
        result = invoke("build-population", "all", "--config", config)
        assert result.exit_code == 0, result.output
        out = crossed_files["dir"] / "out"
        for hyp in ("utt", "poc", "soc"):
            assert (out / f"{hyp}_population.tsv").exists()
            assert (out / f"{hyp}_pairs.tsv").exists()
            assert (out / f"{hyp}_queries.tsv").exists()
        queries = (out / "utt_queries.tsv").read_text(encoding="utf-8")
        assert "[MASK]" in queries

    def test_mask_token_override(self, crossed_files):
        config = write_config(crossed_files)
        result = invoke(
            "build-population", "utt", "--config", config, "--mask-token", "<mask>"
        )
        assert result.exit_code == 0, result.output
        queries = (crossed_files["dir"] / "out" / "utt_queries.tsv").read_text(
            encoding="utf-8"
        )
        assert "<mask>" in queries and "[MASK]" not in queries

    def test_builds_only_the_hypothesis_asked_for(self, crossed_files):
        # no poc row clears this floor, so building poc would fail
        config = write_config(crossed_files, predictions="baseline:perfect")
        cache = crossed_files["dir"] / "cache"
        args = ("--config", config, "--min-poc-frequency", 1000000, "--cache-dir", cache)
        result = invoke("build-population", "utt", *args)
        assert result.exit_code == 0, result.output
        assert "utt: 8 rows, 4 pairs" in result.output
        assert {p.name.split("-")[0] for p in cache.iterdir()} == {"utt"}
        result = invoke("build-population", "all", *args)
        assert result.exit_code == 2, result.output
        assert "poc population has no matched pairs" in result.output

    def test_positivity_gap_does_not_block_the_tables(self, tmp_path):
        # poc stratifies on utt_present: both treated utterances ("A in X.",
        # "B in X.") are in the corpus and neither control one is, so no
        # stratum holds both arms and the ATE is undefined.
        kb, patterns = write_kb_files(
            tmp_path,
            [("A", "r", "X"), ("B", "r", "Y")],
            [("r", "[X] in [Y].", False), ("r", "[X] near [Y].", False)],
        )
        corpus = write_corpus(tmp_path, ["A in X.", "B in X.", "C in Y."])
        out = tmp_path / "out"
        result = invoke(
            "build-population", "poc", "--kb", kb, "--patterns", patterns,
            "--corpus", corpus, "--predictions", "baseline:perfect",
            "--min-poc-frequency", 0, "--output-dir", out,
        )
        assert result.exit_code == 0, result.output
        assert "poc: 4 rows, 2 pairs" in result.output
        table = (out / "poc_population.tsv").read_text(encoding="utf-8")
        assert len(table.splitlines()) == 5
        assert (out / "poc_queries.tsv").exists()


class TestDynamicsAndReport:
    def test_dynamics_then_rerender(self, crossed_files, crossed_kb):
        ckpts = crossed_files["dir"] / "ckpts"
        ckpts.mkdir()
        gold = {
            ("Paris", "capital-of"): "France",
            ("Rome", "capital-of"): "Italy",
            ("Daria", "aired-on"): "MTV",
            ("True Detective", "aired-on"): "HBO",
        }
        for i in range(2):
            records = []
            for rel in crossed_kb.relations:
                for s in crossed_kb.subjects(rel):
                    for p in crossed_kb.patterns:
                        if p.relation == rel:
                            records.append(
                                {
                                    "subject": s,
                                    "relation": rel,
                                    "template": p.template,
                                    "prediction": gold[(s, rel)],
                                    "source_id": f"ep{i}",
                                }
                            )
            with open(ckpts / f"ep{i}.jsonl", "w", encoding="utf-8") as fh:
                for rec in records:
                    fh.write(json.dumps(rec) + "\n")
        config = write_config(crossed_files, predictions="unused-but-validated")
        result = invoke("dynamics", "--checkpoints", ckpts, "--config", config)
        assert result.exit_code == 0, result.output
        report_path = crossed_files["dir"] / "out" / "report.json"
        data = json.loads(report_path.read_text(encoding="utf-8"))
        assert len(data["series"]) == 2

        rendered = invoke("report", report_path, "--format", "table")
        assert rendered.exit_code == 0
        assert "checkpoint series" in rendered.output

        out_tsv = crossed_files["dir"] / "out" / "r.tsv"
        assert invoke("report", report_path, "--format", "delimited", "-o", out_tsv).exit_code == 0
        rows = out_tsv.read_text(encoding="utf-8").splitlines()
        assert rows[0] == "hypothesis\tgroup\testimate\tn_rows"
        for entry in data["series"]:
            group = f"checkpoint:{entry['checkpoint']}"
            assert [row.split("\t")[0] for row in rows if row.split("\t")[1] == group] == [
                "utt", "poc", "soc", "accuracy"
            ]
            assert f"accuracy\t{group}\t1.0\t" in rows

    @pytest.mark.parametrize(
        "text, message",
        [
            ("{not json", "is not JSON"),
            ('{"source_id": "x"}', "no 'ate' field"),
            ("[1, 2]", "no 'source_id' field"),
            ('{"source_id": "x", "ate": 5, "cate": {}, "diagnostics": {}}', "bad 'ate' field"),
            ('{"source_id": "x", "ate": {}, "cate": {"utt": {"r": {}}}, "diagnostics": {}}',
             "bad 'cate' field"),
            ('{"source_id": "x", "ate": {}, "cate": {}, "diagnostics": {}, '
             '"series": [{"checkpoint": "c", "ate": null}]}', "bad 'series' field"),
        ],
    )
    def test_malformed_report_is_input_error(self, tmp_path, text, message):
        path = tmp_path / "report.json"
        path.write_text(text, encoding="utf-8")
        result = invoke("report", path)
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.exit_code == 1, result.output
        assert "input error:" in result.output and message in result.output

    def test_dynamics_needs_no_predictions(self, crossed_files, crossed_kb):
        # dynamics reads the checkpoint files, never the predictions key
        ckpts = crossed_files["dir"] / "ckpts"
        ckpts.mkdir()
        keys = [
            (s, p.relation, p.template)
            for p in crossed_kb.patterns
            for s in crossed_kb.subjects(p.relation)
        ]
        save_predictions(
            baseline_predict("perfect", crossed_kb, queries=keys), ckpts / "ep0.jsonl"
        )
        out = crossed_files["dir"] / "out"
        result = invoke(
            "dynamics", "--checkpoints", ckpts, "--kb", crossed_files["kb"],
            "--patterns", crossed_files["patterns"], "--corpus", crossed_files["corpus"],
            "--output-dir", out,
        )
        assert result.exit_code == 0, result.output
        data = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert [entry["checkpoint"] for entry in data["series"]] == ["ep0"]
        assert data["series"][0]["accuracy"] == 1.0


#: One non-default value per run setting, as config-file text.
SETTING_VALUES = {
    "kb": "other-kb.jsonl",
    "patterns": "other-patterns.jsonl",
    "corpus": "other-corpus.txt",
    "index": "other.idx",
    "predictions": "baseline:random:7",
    "output-dir": "elsewhere#1",
    "mask-token": "<#>",
    "min-poc-frequency": "2",
    "bin-edges": "2, 20, 200, 2000",
    "output-format": "table",
    "cache-dir": "pop-cache",
}


class TestSettings:
    """Each run setting is a config key and a flag of the same name and meaning."""

    def test_the_table_covers_every_setting(self):
        assert list(SETTING_VALUES) == list(pipeline.SETTINGS)

    @pytest.mark.parametrize("key", list(SETTING_VALUES))
    def test_config_line_equals_flag(self, tmp_path, monkeypatch, key):
        value = SETTING_VALUES[key]
        path = tmp_path / "run.cfg"
        path.write_text(f"{key} = {value}\n", encoding="utf-8")
        from_file = pipeline.load_config(path)
        assert from_file != pipeline.RunConfig()
        seen = []

        def capture(config, emit_populations=False):
            seen.append(config)
            raise errors.ConfigError("captured")

        monkeypatch.setattr(pipeline, "run_estimate", capture)
        result = invoke("estimate", f"--{key}", value)
        assert "input error: captured" in result.output, result.output
        assert seen == [from_file]

    @pytest.mark.parametrize("command", ["estimate", "dynamics", "build-population"])
    def test_help_lists_every_setting(self, command):
        result = invoke(command, "--help")
        assert result.exit_code == 0, result.output
        for key in pipeline.SETTINGS:
            assert f"--{key} " in result.output, key

    def test_readme_example_sets_every_key(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        example = next(block for block in readme.split("```")[1::2] if "\nkb = " in block)
        path = tmp_path / "run.cfg"
        path.write_text(example, encoding="utf-8")
        pipeline.load_config(path).validate()
        lines = [line.split("#", 1)[0] for line in example.splitlines()]
        keys = [line.split("=", 1)[0].strip() for line in lines if line.strip()]
        assert sorted(keys) == sorted(pipeline.SETTINGS)
