"""Run one benchmark job in a fresh interpreter, so no state carries over.

Usage: python3 perfbench/child.py '<job json>'

Jobs: ``setup`` (index build + save, and the cache-filling estimate run),
``op`` (one estimate or dynamics op, exactly what the CLI does), ``micro``
(the kernel micro-benchmarks). An op with ``calibrate`` set also times a
fixed calibration task just before and just after itself. An op given ``probe`` pairs reports, after
its timed part, ``CorpusIndex.soc_count`` on them from the saved index. The
library is imported from the job's ``src`` directory
only. With ``trace`` set, every traced library function records spans,
written to ``spans`` when the job ends. The last stdout line is the job's
result as JSON.
"""

import gc
import importlib
import json
import platform
import re
import resource
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import spans

MODULES = ("corpus", "estimator", "graph", "kb", "kernels", "pipeline")


def import_library(src):
    src = str(Path(src).resolve())
    sys.path.insert(0, src)
    cc = {name: importlib.import_module(f"corpuscausal.{name}") for name in MODULES}
    origin = Path(cc["pipeline"].__file__).resolve()
    if not origin.is_relative_to(src):
        raise SystemExit(f"corpuscausal imported from {origin}, not from {src}")
    return cc


def environment(cc):
    import numpy

    kernels = cc["kernels"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernels.BACKEND": kernels.BACKEND,
        "kernels.HAVE_NUMBA": kernels.HAVE_NUMBA,
    }


def _config(cc, job):
    pipeline = cc["pipeline"]
    return pipeline.merge_config(pipeline.load_config(job["config"]), job["overrides"])


def setup(cc, job):
    """Return the set-up work as a callable: index build + save, cache fill."""
    def work():
        if job.get("index"):
            cc["corpus"].build_index(job["corpus"]).save(job["index"])
        if job.get("fill_cache"):
            cc["pipeline"].run_estimate(config)

    config = _config(cc, job) if job.get("fill_cache") else None
    return work


def op(cc, job):
    """Return one op as a callable: the run, then the structured report."""
    pipeline = cc["pipeline"]
    config = _config(cc, job)
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    def work():
        if job["kind"] == "estimate":
            report = pipeline.run_estimate(config, emit_populations=True)
        else:
            report = pipeline.run_dynamics(config, job["checkpoints"])
        pipeline.emit_report(report, "structured", out / "report.json")

    return work


_CAL_WORDS = [f"w{i}x" for i in range(2000)]
_CAL_RX = re.compile(r"(?<!\w)w1\d*x(?!\w)")


def calibrate():
    """Seconds for a fixed stdlib task shaped like the library's inner loops.

    Dict counting, regex search, Fraction sums and a sort; no library code,
    so no library change moves it, and the collector is off so the heap an
    op leaves behind does not either. Run beside an op, it measures how
    fast the host is running at that moment.
    """
    gc.disable()
    try:
        start = perf_counter()
        counts, acc, rows = {}, Fraction(0), []
        for i in range(40000):
            w = _CAL_WORDS[(i * 7919) % 2000]
            counts[w] = counts.get(w, 0) + 1
            if _CAL_RX.search("a " + w + " b"):
                acc += Fraction(1, i % 13 + 1)
            rows.append((w, i % 5, str(i)))
            if len(rows) == 2000:  # small batches keep the peak heap flat
                rows.sort()
                rows = []
        return perf_counter() - start
    finally:
        gc.enable()


def micro(cc, job):
    """The two kernel timings of the old kernel benchmark, at smaller sizes.

    Each is the best of three passes: `kernels.intersect_count` over
    random sorted postings pairs, and `is_d_separated` queries on a random
    16-node DAG.
    """
    import random

    import numpy as np

    kernels, graph = cc["kernels"], cc["graph"]
    rng = np.random.default_rng(0)
    n = job["intersect_n"]
    pairs = [
        tuple(np.unique(rng.integers(0, 4 * n, size=n)).astype(np.int32) for _ in "ab")
        for _ in range(job["intersect_queries"])
    ]
    r = random.Random(7)
    nodes = [f"v{i}" for i in range(16)]
    edges = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:] if r.random() < 0.4]
    g = graph.build_graph(nodes, edges)
    queries = []
    for _ in range(job["dsep_queries"]):
        x, y = r.sample(nodes, 2)
        queries.append((x, y, [v for v in nodes if v not in (x, y) and r.random() < 0.3]))

    def best(fn):
        times = []
        for _ in range(3):
            t = perf_counter()
            fn()
            times.append(perf_counter() - t)
        return min(times)

    return {
        "kernels.micro.intersect_count_s":
            best(lambda: [kernels.intersect_count(a, b) for a, b in pairs]),
        "kernels.micro.dsep_s":
            best(lambda: [graph.is_d_separated(g, x, y, z) for x, y, z in queries]),
    }


def probe(cc, job):
    index = cc["corpus"].CorpusIndex.load(job["index"])
    return [index.soc_count(s, o) for s, o in job["probe"]]


def main():
    job = json.loads(sys.argv[1])
    cc = import_library(job["src"])
    result = {"env": environment(cc)}
    if job["job"] == "micro":
        result["metrics"] = micro(cc, job)
    else:
        work = (op if job["job"] == "op" else setup)(cc, job)
        rec = None
        if job.get("trace"):
            rec = spans.Recorder(job["op_id"], job["job"])
            spans.install(rec, cc)
            root = rec.open(rec.name_id(f"pipeline.{job['job']}"))
        before = calibrate() if job.get("calibrate") else None
        start = perf_counter()
        work()
        end = perf_counter()
        if rec is not None:
            rec.close(root)
            rec.start[root], rec.end[root] = start, end
            rec.write(job["spans"])
        result["wall_s"] = end - start
        result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if before is not None:
            gc.collect()
            result["calib_s"] = (before + calibrate()) / 2
        if job.get("probe"):
            result["probe_counts"] = probe(cc, job)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
