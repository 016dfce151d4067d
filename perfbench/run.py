"""End-to-end and per-layer benchmark of `estimate` and `dynamics`.

Usage, from the repository root (the library is imported from ./src):

    python3 perfbench/run.py --workload estimate-cold --seed 0 --seconds 30 --trace 0

One run generates seeded inputs (excluded from every timing), sets up
the workload, then runs ops for `--seconds`, one at a time, each in a
fresh child process, so no in-memory state carries from one op to the
next. An estimate op is `run_estimate(config, emit_populations=True)`
then `emit_report(..., "structured", ...)`; a dynamics op is
`run_dynamics` then `emit_report`, as the CLI does. Every op's output is
checked (see checks.py); an op that raises or fails a check counts as
failed.

With `--trace 0` the run reports the end-to-end metrics, with tracing
off: `op_norm_s.p50`, the median op time normalised by a calibration task
timed in the same process around each op (see CAL_REF_S); `setup_s`,
the median over three fresh processes of interpreter start, library
import and the workload's one-off work (index build + save, and on
dynamics-warm the cache-filling estimate run); `peak_rss_mb`; and
`artifact_mb`, the bytes written through the library. The raw wall-time
median (`estimate_s.p50` / `dynamics_s.p50`), its tail and
`ops_failed_ratio` are printed and kept in the results file.

With `--trace 1` it runs traced set-up and traced ops, alternated with
untraced ops, and reports per-layer metrics: one traced set-up plus one
traced op form a pass, and each metric is the median over passes.

The last stdout line is the result JSON; a fuller record (environment,
input digests, every sample, the issue-named aliases and the per-phase
layer breakdown) is written to perfbench/results/. Sizes are in MiB.
Results taken on different inputs (`inputs_digest`) or kernel backends
must not be compared.

Self-tests: python3 -m pytest -q perfbench
"""

import argparse
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import checks
import gen
import spans

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 0
SETUP_REPEATS = 3
RUN_BUDGET_S = 170
MIB = 1 << 20

#: CorpusIndex intersects token postings in set-iteration order and stops
#: at the first empty result, so the work an op does (not its output)
#: depends on string hashing. A fixed hash seed makes work counts repeat.
CHILD_ENV = dict(os.environ, PYTHONHASHSEED="0")

#: Host speed on a shared machine drifts by +-15% over tens of seconds, far
#: more than a regression worth catching, so op time is also reported
#: normalised: wall time x CAL_REF_S / (the calibration task's time, taken
#: in the same process just before and after the op). CAL_REF_S is that
#: task's median on the host the benchmark was defined on (Intel Xeon,
#: 2 vCPUs, Python 3.11.7); it only scales the result to seconds.
CAL_REF_S = 0.14


@dataclass(frozen=True)
class Workload:
    kind: str  # "estimate" or "dynamics"
    sizes: gen.Sizes
    saved_index: bool  # ops read an index saved in set-up (else the raw corpus)
    cache: str  # "" none, "op" a fresh cache-dir per op, "setup" filled in set-up
    predictions: str  # a baseline spec, or "file" for the first prediction file


#: Sized so that one op takes 2-3 s on the defining host (see BENCHMARK.json
#: for why each workload exists).
WORKLOADS = {
    "estimate-cold": Workload(
        kind="estimate",
        sizes=gen.Sizes(relations=6, subjects=80, candidates=20, sentences=16000,
                        comention_max=200),
        saved_index=True, cache="op", predictions="baseline:heuristic",
    ),
    "estimate-rawcorpus": Workload(
        kind="estimate",
        sizes=gen.Sizes(relations=3, subjects=100, candidates=10, sentences=60000,
                        comention_max=600, sentences_per_line=3, mention_share=0.5,
                        checkpoints=(0.6,)),
        saved_index=False, cache="", predictions="file",
    ),
    "dynamics-warm": Workload(
        kind="dynamics",
        sizes=gen.Sizes(relations=10, subjects=45, candidates=16, sentences=10000,
                        comention_max=120, checkpoints=(0.0, 0.25, 0.5, 0.75, 1.0)),
        saved_index=True, cache="setup", predictions="file",
    ),
}

#: End-to-end metrics, reported with tracing off: name -> unit.
END_TO_END = {"op_norm_s.p50": "s", "setup_s": "s", "peak_rss_mb": "MB", "artifact_mb": "MB"}

#: Per-layer metrics for the result line. Time metrics that are zero by
#: construction on some workload (corpus.save_s, corpus.load_s,
#: population.read_s, predictions.load_s, predictions.baseline_s) are left
#: to the results file.
PER_LAYER = (
    "kb.load_s", "kb.lookup.calls", "kb.lookup_s",
    "corpus.build_index_s", "corpus.index_mb",
    "corpus.entity_postings.calls", "corpus.entity_postings.self_s",
    "corpus.soc_count.calls", "corpus.soc_count.distinct_ratio", "corpus.soc_count.self_s",
    "corpus.poc_count.calls", "corpus.poc_count.distinct_ratio", "corpus.poc_count.self_s",
    "corpus.utterance_present.calls", "corpus.utterance_present.self_s",
    "kernels.intersect.calls", "kernels.intersect.elements", "kernels.intersect.self_s",
    "kernels.intersect.ns_per_element",
    "kernels.micro.intersect_count_s", "kernels.micro.dsep_s",
    "graph.backdoor.calls", "graph.backdoor.self_s",
    "population.build.utt.self_s", "population.build.poc.self_s",
    "population.build.soc.self_s",
    "population.rows.utt", "population.rows.poc", "population.rows.soc",
    "population.pairs.utt", "population.pairs.poc", "population.pairs.soc",
    "population.score_s", "population.obs_table_s", "population.write_s",
    "population.cache_mb",
    "predictions.records",
    "estimator.interventional_prob.calls", "estimator.interventional_prob.self_s",
    "estimator.ate.calls", "estimator.cate.self_s", "estimator.rows_scanned",
    "pipeline.self_s", "pipeline.emit_report_s", "trace.overhead_s",
)

#: Counts whose inputs are fixed: two traced passes must agree exactly.
FIXED_COUNTS = tuple(
    m for m in PER_LAYER
    if m.endswith((".calls", ".elements", ".rows_scanned", ".records"))
    or m.startswith(("population.rows.", "population.pairs."))
)

MICRO = {"intersect_n": 20000, "intersect_queries": 10, "dsep_queries": 4000}


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("ns_per_element"):
        return "ns"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


class ChildFailed(Exception):
    pass


def median(values):
    return statistics.median(values) if values else None


def tail(values):
    """Highest of p75/p90/p99/p99.9 with at least 10 samples beyond it, else absent."""
    n = len(values)
    best = None
    for q in (75, 90, 99, 99.9):
        rank = math.ceil(round(q * n / 100, 9))  # 1-based rank of the percentile
        if n - rank >= 10:
            best = {"percentile": q, "n": n, "value": sorted(values)[rank - 1]}
    return best or {"absent": True, "n": n, "reason": "needs n >= 40 for p75"}


def dir_bytes(*paths):
    total = 0
    for path in paths:
        path = Path(path)
        if path.is_file():
            total += path.stat().st_size
        elif path.is_dir():
            total += sum(p.stat().st_size for p in path.rglob("*") if p.is_file())
    return total


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


class Bench:
    def __init__(self, root, name, seed, seconds):
        self.root = root
        self.name = name
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.deadline = perf_counter() + RUN_BUDGET_S
        self.work = root / "perfbench" / "work" / f"{name}-{seed}-{os.getpid()}"
        self.inputs = self.work / "inputs"
        self.index = self.inputs / "corpus.idx"
        self.cache = self.work / "cache"
        self.reference = None
        self.attempted = 0
        self.failures = []  # (op id, reasons)
        self.ops = 0
        self.artifact_bytes = None  # measured on the first op that passes
        self.cache_bytes = 0
        self.by_phase = None
        self.unpatched = []
        pinned = json.loads((HERE / "pinned.json").read_text(encoding="utf-8"))
        self.pinned = pinned.get(name) if seed == DEFAULT_SEED else None

    # --- inputs --------------------------------------------------------------

    def generate(self):
        t = perf_counter()
        self.corpus = gen.Corpus(self.wl.sizes, self.seed)
        self.paths = self.corpus.write(self.inputs)
        self.generate_s = perf_counter() - t
        self.checkpoints = sorted(str(p) for k, p in self.paths.items()
                                  if k.startswith("checkpoint"))
        cfg = {
            "kb": self.paths["kb"],
            "patterns": self.paths["patterns"],
            "predictions": (self.checkpoints[0] if self.wl.predictions == "file"
                            else self.wl.predictions),
            "output-dir": self.work / "out",
            "output-format": "structured",
        }
        cfg["index" if self.wl.saved_index else "corpus"] = (
            self.index if self.wl.saved_index else self.paths["corpus"])
        if self.wl.cache == "setup":
            cfg["cache-dir"] = self.cache
        self.config = self.inputs / "run.cfg"
        self.config.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()),
                               encoding="utf-8")

    # --- children ------------------------------------------------------------

    def child(self, job):
        job = dict(job, src=str(self.root / "src"))
        timeout = self.deadline - perf_counter()
        if timeout <= 0:
            raise ChildFailed("run time budget exhausted")
        t = perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), json.dumps(job)],
                capture_output=True, text=True, timeout=timeout, cwd=self.root,
                env=CHILD_ENV,
            )
        except subprocess.TimeoutExpired as exc:
            raise ChildFailed(f"{job['job']} exceeded the run time budget") from exc
        elapsed = perf_counter() - t
        if proc.returncode != 0:
            lines = proc.stderr.strip().splitlines() or ["(no stderr)"]
            raise ChildFailed(f"{job['job']} exited {proc.returncode}: {lines[-1]}")
        return json.loads(proc.stdout.strip().splitlines()[-1]), elapsed

    def setup(self, trace=False):
        """One set-up in a fresh process; returns (process seconds, spans path)."""
        if self.wl.cache == "setup":
            shutil.rmtree(self.cache, ignore_errors=True)
        span_path = spans.span_file(self.work, "setup")
        job = {
            "job": "setup", "op_id": "setup", "trace": trace, "spans": str(span_path),
            "corpus": str(self.paths["corpus"]),
            "index": str(self.index) if self.wl.saved_index else "",
            "fill_cache": self.wl.cache == "setup",
            "config": str(self.config), "overrides": {},
        }
        result, elapsed = self.child(job)
        self.env = result["env"]
        return elapsed, span_path

    def op(self, trace=False, calibrate=False):
        """One checked op; returns its child result, or None when it failed."""
        self.ops += 1
        op_id = f"op{self.ops}"
        out = self.work / op_id
        overrides = {"output-dir": str(out / "out")}
        if self.wl.cache == "op":
            overrides["cache-dir"] = str(out / "cache")
        job = {
            "job": "op", "op_id": op_id, "kind": self.wl.kind, "trace": trace,
            "calibrate": calibrate,
            "spans": str(spans.span_file(self.work, op_id)), "config": str(self.config),
            "overrides": overrides, "checkpoints": self.checkpoints,
        }
        if self.wl.saved_index:
            job["index"] = str(self.index)
            job["probe"] = self.probe_pairs()
        self.attempted += 1
        try:
            result, _ = self.child(job)
            reasons = self.check(out / "out", result, job.get("probe"))
        except ChildFailed as exc:
            result, reasons = None, [str(exc)]
        if self.artifact_bytes is None and not reasons:
            index = [self.index] if self.wl.saved_index else []
            cache = [self.cache] if self.wl.cache == "setup" else []
            self.artifact_bytes = dir_bytes(out, *index, *cache)
            self.cache_bytes = dir_bytes(out / "cache", *cache)
        shutil.rmtree(out, ignore_errors=True)
        if reasons:
            self.failures.append((op_id, reasons))
            return None
        result["spans"] = job["spans"]
        return result

    # --- checks ----------------------------------------------------------------

    def probe_pairs(self):
        rng = random.Random(self.seed)
        rels = self.corpus.relations
        return [
            (rng.choice(self.corpus.subjects[r]), rng.choice(self.corpus.candidates[r]))
            for r in (rng.choice(rels) for _ in range(60))
        ]

    def check(self, out, result, probe):
        report = (out / "report.json").read_bytes()
        if self.reference is None:
            self.reference = checks.digest(report)
        reasons = checks.check_report(
            report, reference=self.reference, pinned=self.pinned,
            heuristic=self.wl.predictions == "baseline:heuristic",
            shares=self.wl.sizes.checkpoints,
        )
        if probe:
            observed = [(s, o, n) for (s, o), n in zip(probe, result["probe_counts"])]
        else:
            rows = checks.soc_table_counts(out / "soc_population.tsv")
            observed = random.Random(self.seed).sample(rows, min(60, len(rows)))
        reasons.append(checks.tally_matches(observed, self.corpus.tally))
        return [r for r in reasons if r]

    # --- runs ------------------------------------------------------------------

    def run_plain(self):
        setups = [self.setup()[0] for _ in range(SETUP_REPEATS)]
        walls, norms, rss = [], [], []
        start = perf_counter()
        while perf_counter() - start < self.seconds:
            result = self.op(calibrate=True)
            if result is not None:
                walls.append(result["wall_s"])
                norms.append(result["wall_s"] * CAL_REF_S / result["calib_s"])
                rss.append(result["rss_mb"])
        metrics = {
            "op_norm_s.p50": median(norms),
            "setup_s": median(setups),
            "peak_rss_mb": max(rss) if rss else None,
            "artifact_mb": (self.artifact_bytes or 0) / MIB,
        }
        detail = {"op_s": walls, "op_s.p50": median(walls), "op_norm_s": norms,
                  "setup_s": setups, "rss_mb": rss, "tail": tail(walls)}
        return metrics, detail

    def run_traced(self):
        _, setup_spans = self.setup(trace=True)
        setup_file = spans.read_spans(setup_spans)
        plain, traced, passes = [], [], []
        start = perf_counter()
        while perf_counter() - start < self.seconds or min(len(plain), len(traced)) < 2:
            if perf_counter() > self.deadline - 30 or len(self.failures) > 4:
                break
            for trace in (False, True):
                result = self.op(trace=trace)
                if result is None:
                    continue
                (traced if trace else plain).append(result["wall_s"])
                if trace:
                    passes.append(self.layer_pass(setup_file, result))
        micro, _ = self.child(dict(MICRO, job="micro"))
        metrics = {}
        for name in PER_LAYER:
            values = [p[name] for p in passes if name in p]
            metrics[name] = values[0] if name in FIXED_COUNTS and values else median(values)
        metrics.update(micro["metrics"])
        metrics["trace.overhead_s"] = (
            median(traced) - median(plain) if traced and plain else None)
        for name in FIXED_COUNTS:
            if len({p.get(name) for p in passes}) > 1:
                self.failures.append(("trace", [f"{name} differs between traced passes"]))
        detail = {"op_s": plain, "traced_op_s": traced, "passes": len(passes),
                  "by_phase": self.by_phase,
                  "all_layer_metrics": {k: median([p[k] for p in passes])
                                        for k in (passes[0] if passes else {})}}
        return metrics, detail

    def layer_pass(self, setup_file, result):
        """Per-layer metrics of one traced pass: the traced set-up plus one op."""
        op_file = spans.read_spans(result["spans"])
        totals, counters, distinct, observed = {}, {}, {}, {}
        by_phase = {}
        for header, items in (setup_file, op_file):
            own = spans.self_times(items)
            roots = [i for i, s in enumerate(items) if s[1] < 0]
            wall = sum(items[i][3] - items[i][2] for i in roots)
            if abs(sum(own) - wall) > 1e-6 * max(1.0, wall) or min(own, default=0) < -1e-9:
                self.failures.append((header["op_id"], ["span self times do not add up "
                                                        "to the traced wall time"]))
            phase = spans.by_name(items)
            by_phase[header["phase"]] = spans.layer_metrics(
                phase, header["counters"], header["distinct"])
            for name, (calls, seconds) in phase.items():
                entry = totals.setdefault(name, [0, 0.0])
                entry[0] += calls
                entry[1] += seconds
            for table, src in ((counters, header["counters"]), (distinct, header["distinct"])):
                for k, v in src.items():
                    table[k] = table.get(k, 0) + v
            for k, v in header["observed"].items():
                observed.setdefault(k, []).extend(v)
            if header["unpatched"]:
                self.unpatched = header["unpatched"]
        self.by_phase = by_phase
        metrics = spans.layer_metrics(totals, counters, distinct)
        for key, values in observed.items():
            if len(set(values)) > 1:
                self.failures.append(("trace", [f"{key} differs between set-up and op: {values}"]))
            metrics[key] = values[0]
        metrics["corpus.index_mb"] = dir_bytes(self.index) / MIB if self.wl.saved_index else 0.0
        metrics["population.cache_mb"] = self.cache_bytes / MIB
        return metrics

    def environment(self):
        digests = {k: gen.file_digest(p) for k, p in sorted(self.paths.items())}
        return dict(
            self.env,
            nproc=len(os.sched_getaffinity(0)),
            cpu=cpu_model(),
            platform=platform.platform(),
            seed=self.seed,
            workload=self.name,
            sizes=self.corpus.describe(),
            input_bytes={k: Path(p).stat().st_size for k, p in sorted(self.paths.items())},
            input_digests=digests,
            inputs_digest=checks.digest("".join(digests.values()).encode()),
        )


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "corpuscausal" / "__init__.py").is_file():
        print("perfbench: no library at ./src/corpuscausal; run from the repository root",
              file=sys.stderr)
        return 2
    bench = Bench(root, args.workload, args.seed, args.seconds)
    try:
        bench.generate()
        if args.trace:
            metrics, detail = bench.run_traced()
            units = {name: unit_of(name) for name in PER_LAYER}
        else:
            metrics, detail = bench.run_plain()
            units = END_TO_END
        env = bench.environment()
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    failed = len({op for op, _ in bench.failures if op.startswith("op")})
    correct = not bench.failures and all(v is not None for v in metrics.values())
    record = {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
        "correct": correct, "attempted": bench.attempted, "failed": failed,
        "ops_failed_ratio": failed / max(1, bench.attempted),
        "failures": bench.failures[:20], "generate_s": bench.generate_s,
        "report_digest": bench.reference,
        "unpatched": bench.unpatched,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "detail": detail, "env": env,
    }
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print_summary(record)
    print(json.dumps({
        "correct": correct, "attempted": bench.attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def print_summary(record):
    alias = "dynamics_s" if WORKLOADS[record["workload"]].kind == "dynamics" else "estimate_s"
    print(f"perfbench {record['workload']} seed={record['env']['seed']} "
          f"trace={record['trace']} backend={record['env']['kernels.BACKEND']} "
          f"numba={record['env']['kernels.HAVE_NUMBA']} nproc={record['env']['nproc']}")
    for name, m in record["metrics"].items():
        print(f"  {name:<42} {m['value']!r} {m['unit']}")
    detail = record["detail"]
    if record["trace"] == 0:
        n = len(detail["op_s"])
        print(f"  {alias + '.p50 (wall, not normalised)':<42} {detail['op_s.p50']!r} s (n={n})")
        t = detail["tail"]
        text = (f"absent: {t['reason']} (n={t['n']})" if t.get("absent")
                else f"p{t['percentile']} = {t['value']!r} s (n={t['n']})")
        print(f"  {alias + '.tail':<42} {text}")
        print(f"  {'setup_s samples':<42} n={len(detail['setup_s'])}")
    print(f"  {'ops_failed_ratio':<42} {record['ops_failed_ratio']!r} ratio "
          f"({record['failed']}/{record['attempted']})")
    for op_id, reasons in record["failures"]:
        print(f"  failed {op_id}: {'; '.join(reasons)}")


if __name__ == "__main__":
    sys.exit(main())
