"""Self-tests of the benchmark: generator, span arithmetic, checks, contract.

Run from the repository root: python3 -m pytest -q perfbench
"""

import copy
import json
import re
import sys
from pathlib import Path

import pytest

import checks
import child
import gen
import run
import spans

ROOT = Path(__file__).resolve().parent.parent
TINY = gen.Sizes(relations=2, subjects=12, candidates=5, sentences=900,
                 comention_max=20, sentences_per_line=2, checkpoints=(0.5, 1.0))


def _files(directory):
    return {p.relative_to(directory): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def test_generator_is_byte_deterministic(tmp_path):
    first = _files(Path(gen.Corpus(TINY, 5).write(tmp_path / "a")["kb"]).parent)
    again = _files(Path(gen.Corpus(TINY, 5).write(tmp_path / "b")["kb"]).parent)
    other = _files(Path(gen.Corpus(TINY, 6).write(tmp_path / "c")["kb"]).parent)
    assert first == again
    assert first.keys() == other.keys() and first != other


def test_generator_tally_counts_sentences_naming_both():
    corpus = gen.Corpus(TINY, 3)
    sentences = [set(re.findall(r"\w+", s)) for line in corpus.lines
                 for s in re.split(r"(?<=\.)\s+", line)]
    assert len(sentences) == TINY.sentences
    for rel in corpus.relations:
        for s in corpus.subjects[rel]:
            for o in corpus.candidates[rel]:
                naming = sum(1 for words in sentences if s in words and o in words)
                assert naming == corpus.tally.get((s, o), 0)


def test_self_times_clip_and_merge_children():
    items = [
        ("root", -1, 0.0, 10.0),
        ("a", 0, 1.0, 4.0),
        ("b", 0, 3.0, 6.0),  # overlaps a
        ("a.child", 1, 2.0, 3.0),
        ("c", 0, 9.0, 12.0),  # overhangs root
    ]
    assert spans.self_times(items) == pytest.approx([10 - 5 - 1, 2.0, 3.0, 1.0, 3.0])
    assert spans.by_name(items)["root"] == [1, pytest.approx(4.0)]


def test_recorded_self_times_add_up_to_root():
    rec = spans.Recorder("op1", "op")

    def leaf(n):
        return sum(range(n))

    traced_leaf = rec.wrap(leaf, "leaf")
    middle = rec.wrap(lambda: [traced_leaf(2000) for _ in range(5)], "middle")
    root = rec.open(rec.name_id("root"))
    middle()
    traced_leaf(100)
    rec.close(root)
    items = list(zip([rec.names[i] for i in rec.name], rec.parent, rec.start, rec.end))
    own = spans.self_times(items)
    assert len(items) == 8 and min(own) >= 0
    assert sum(own) == pytest.approx(items[0][3] - items[0][2], abs=1e-9)


def _report(soc, series=None):
    return {
        "source_id": "x",
        "ate": {"utt": 15.0, "poc": 100.0, "soc": soc},
        "cate": {},
        "diagnostics": {"soc": {"pairs": 2500}},
        "series": series,
    }


def _bytes(report):
    return json.dumps(report, indent=2, sort_keys=True).encode()


def test_each_check_fails_on_an_altered_report():
    good = _report(100.0)
    data = _bytes(good)
    ref = checks.digest(data)
    assert checks.check_report(data, reference=ref, pinned=ref, heuristic=True,
                               shares=(1.0,)) == []

    assert checks.same_bytes(data.replace(b"15.0", b"15.5"), ref)
    assert checks.pinned_digest(data + b" ", ref)
    low = copy.deepcopy(good)
    low["ate"]["poc"] = 99.99
    assert checks.heuristic_hundred(low)
    assert checks.soc_follows_share(_report(99.999), (1.0,))
    assert checks.soc_follows_share(_report(60.0 + 7.0), (0.6,))
    assert checks.soc_follows_share(_report(60.0 + 5.0), (0.6,)) is None
    entry = {"checkpoint": "step00", "ate": {"soc": 0.0}, "error": None}
    broken = dict(entry, error="boom")
    assert checks.soc_follows_share(_report(0.0, [entry]), (0.0,)) is None
    assert checks.soc_follows_share(_report(0.0, [broken]), (0.0,))
    assert checks.soc_follows_share(_report(0.0, [entry]), (0.0, 1.0))
    assert checks.check_report(b"{not json", heuristic=True)
    assert checks.tally_matches([("A", "B", 2)], {("A", "B"): 2}) is None
    assert checks.tally_matches([("A", "B", 3)], {("A", "B"): 2})
    assert checks.tally_matches([], {})


def test_tracing_leaves_the_report_unchanged(tmp_path):
    corpus = gen.Corpus(TINY, 2)
    paths = corpus.write(tmp_path / "in")
    cc = child.import_library(ROOT / "src")
    cc["corpus"].build_index(paths["corpus"]).save(tmp_path / "idx")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"kb = {paths['kb']}\npatterns = {paths['patterns']}\n"
                   f"index = {tmp_path / 'idx'}\npredictions = baseline:heuristic\n")
    reports = []
    for trace in (False, True):
        out = tmp_path / f"out{int(trace)}"
        job = {"kind": "dynamics", "config": str(cfg), "overrides": {"output-dir": str(out)},
               "checkpoints": sorted(str(p) for k, p in paths.items()
                                     if k.startswith("checkpoint"))}
        work = child.op(cc, job)
        undo = []
        if trace:
            rec = spans.Recorder("op", "op")
            undo = spans.install(rec, cc)
        try:
            work()
        finally:
            spans.uninstall(undo)
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]
    assert not rec.unpatched
    totals = spans.by_name(list(zip([rec.names[i] for i in rec.name],
                                    rec.parent, rec.start, rec.end)))
    distinct = {k: len(v) for k, v in rec.distinct.items()}
    metrics = spans.layer_metrics(totals, rec.counters, distinct)
    assert metrics["population.read_s"] == 0 and metrics["estimator.ate.calls"] > 0
    assert checks.soc_follows_share(json.loads(reports[0]), TINY.checkpoints) is None


def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert all(m["unit"] == run.unit_of(m["name"]) for m in spec["per_layer"])
    assert spec["paths"] == ["perfbench"] and spec["command"][:2] == [
        "python3", "perfbench/run.py"]


def test_tail_needs_ten_samples_beyond():
    assert run.tail([1.0] * 39)["absent"]
    assert run.tail(list(range(40)))["percentile"] == 75
    assert run.tail(list(range(100)))["percentile"] == 90


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
