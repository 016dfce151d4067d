"""Span recording around the library's public functions, and span arithmetic.

Tracing patches names from outside, where the caller looks them up:
`pipeline` imports most functions by name, the estimator's `cate` ->
`ate` -> `interventional_prob` chain goes through the estimator module's
globals, `corpus` reads the kernels as module attributes, and
`CorpusIndex` / `KnowledgeBase` methods are patched on the class.

Spans live in memory as parallel arrays (name id, parent, start, end) and
are written out once, when the traced process ends. A span's self time is
its duration minus the part of it that its children cover.
"""

import array
import functools
import inspect
import json
from pathlib import Path
from time import perf_counter


class Recorder:
    """In-memory span store plus counters, for one traced process."""

    def __init__(self, op_id, phase):
        self.op_id = op_id
        self.phase = phase
        self.names = []
        self._ids = {}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self._stack = [-1]
        self.counters = {}
        self.distinct = {}
        self.observed = {}
        self.unpatched = []

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid):
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx):
        self.end[idx] = perf_counter()
        self._stack.pop()

    def add(self, key, n):
        self.counters[key] = self.counters.get(key, 0) + n

    def observe(self, key, value):
        self.observed.setdefault(key, []).append(value)

    def wrap(self, fn, name, hook=None):
        """Return `fn` recording one span per call (name may be a callable)."""
        fixed = None if callable(name) else self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nid = fixed if fixed is not None else self.name_id(name(args, kwargs))
            idx = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def write(self, path):
        """Write spans as a JSON header line followed by the raw arrays."""
        header = {
            "op_id": self.op_id,
            "phase": self.phase,
            "n": len(self.start),
            "names": self.names,
            "counters": self.counters,
            "distinct": {k: len(v) for k, v in self.distinct.items()},
            "observed": self.observed,
            "unpatched": self.unpatched,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode("utf-8") + b"\n")
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)


def read_spans(path):
    """Read a span file back: (header, list of (name, parent, start, end))."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["n"]
        arrays = []
        for code in ("i", "i", "d", "d"):
            arr = array.array(code)
            arr.fromfile(fh, n)
            arrays.append(arr)
    names = header["names"]
    spans = [(names[k], p, s, e) for k, p, s, e in zip(*arrays)]
    return header, spans


def self_times(spans):
    """Per-span self time: duration minus the union of child intervals.

    Child intervals are clipped to their parent and merged, so
    overlapping or overhanging children are not counted twice.
    """
    children = {}
    for idx, (_, parent, start, end) in enumerate(spans):
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (_, _, start, end) in enumerate(spans):
        covered = 0.0
        lo = hi = None
        for cs, ce in sorted(children.get(idx, ())):
            cs, ce = max(cs, start), min(ce, end)
            if ce <= cs:
                continue
            if hi is None or cs > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = cs, ce
            else:
                hi = max(hi, ce)
        if hi is not None:
            covered += hi - lo
        out.append((end - start) - covered)
    return out


def by_name(spans):
    """{span name: [calls, self seconds]} over a list of spans."""
    totals = {}
    for (name, _, _, _), own in zip(spans, self_times(spans)):
        entry = totals.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += own
    return totals


# --- patching ----------------------------------------------------------------


def _count_elements(rec, args, result):
    rec.add("kernels.intersect.elements", len(args[0]) + len(args[1]))


def _distinct(key_of):
    def hook(rec, args, result):
        name, key = key_of(args)
        rec.distinct.setdefault(name, set()).add(key)
    return hook


def _rows_scanned(rec, args, result):
    rec.add("estimator.rows_scanned", len(args[0].rows))


def _records(rec, args, result):
    rec.add("predictions.records", len(result))


def _population_size(rec, args, result):
    rec.observe(f"population.rows.{result.hypothesis}", len(result.rows))
    rec.observe(f"population.pairs.{result.hypothesis}", len(result.pairs))


def targets(cc):
    """(owners, attribute, span name, hook) for every traced library function.

    `cc` maps module names to the imported library modules.
    """
    pipeline, estimator, kernels = cc["pipeline"], cc["estimator"], cc["kernels"]
    corpus, Index, KB = cc["corpus"], cc["corpus"].CorpusIndex, cc["kb"].KnowledgeBase
    soc_key = _distinct(lambda a: ("corpus.soc_count", tuple(sorted(a[1:3]))))
    poc_key = _distinct(lambda a: ("corpus.poc_count", (a[1], a[2])))
    out = [
        ((pipeline,), "load_kb", "kb.load_kb", None),
        ((pipeline,), "load_patterns", "kb.load_patterns", None),
        ((pipeline, corpus), "build_index", "corpus.build_index", None),
        ((Index,), "save", "corpus.save", None),
        ((Index,), "load", "corpus.load", None),
        ((Index,), "entity_postings", "corpus.entity_postings", None),
        ((Index,), "soc_count", "corpus.soc_count", soc_key),
        ((Index,), "poc_count", "corpus.poc_count", poc_key),
        ((Index,), "utterance_present", "corpus.utterance_present", None),
        ((kernels,), "intersect_sorted", "kernels.intersect_sorted", _count_elements),
        ((kernels,), "intersect_count", "kernels.intersect_count", _count_elements),
        ((pipeline,), "satisfies_backdoor", "graph.satisfies_backdoor", None),
        ((pipeline,), "build_structure",
         lambda a, kw: f"population.build.{a[0]}", _population_size),
        ((pipeline,), "read_population", "population.read_population", _population_size),
        ((pipeline,), "write_population", "population.write_population", None),
        ((pipeline,), "score_population", "population.score_population", None),
        ((pipeline,), "population_observation_table",
         "population.population_observation_table", None),
        ((pipeline,), "load_predictions", "predictions.load_predictions", _records),
        ((pipeline,), "baseline_predict", "predictions.baseline_predict", _records),
        ((pipeline, estimator), "interventional_prob",
         "estimator.interventional_prob", _rows_scanned),
        ((pipeline, estimator), "ate", "estimator.ate", None),
        ((pipeline, estimator), "cate", "estimator.cate", None),
        ((pipeline,), "emit_report", "pipeline.emit_report", None),
    ]
    for method in ("candidate_objects", "subjects", "objects_of", "paraphrases",
                   "anti_patterns"):
        out.append(((KB,), method, f"kb.lookup.{method}", None))
    return out


def install(rec, cc):
    """Patch every target with a span-recording wrapper; returns an undo list."""
    undo = []
    for owners, attr, name, hook in targets(cc):
        present = [o for o in owners if attr in vars(o)]
        if not present:
            rec.unpatched.append(f"{owners[0].__name__}.{attr}")
            continue
        raw = inspect.getattr_static(present[0], attr)
        if isinstance(raw, classmethod):
            patched = classmethod(rec.wrap(raw.__func__, name, hook))
        else:
            patched = rec.wrap(raw, name, hook)
        for owner in present:
            if inspect.getattr_static(owner, attr) is raw:
                undo.append((owner, attr, raw))
                setattr(owner, attr, patched)
    return undo


def uninstall(undo):
    for owner, attr, raw in reversed(undo):
        setattr(owner, attr, raw)


def span_file(directory, op_id):
    return Path(directory) / f"spans-{op_id}.bin"


# --- layer metrics -----------------------------------------------------------


def layer_metrics(totals, counters, distinct):
    """Per-layer metrics from span totals ({name: [calls, self_s]}) and counters."""

    def calls(*names):
        return sum(totals[n][0] for n in names if n in totals)

    def own(*names):
        return sum(totals[n][1] for n in names if n in totals)

    lookups = [n for n in totals if n.startswith("kb.lookup.")]
    inter = ("kernels.intersect_sorted", "kernels.intersect_count")
    elements = counters.get("kernels.intersect.elements", 0)
    m = {
        "kb.load_s": own("kb.load_kb", "kb.load_patterns"),
        "kb.lookup.calls": calls(*lookups),
        "kb.lookup_s": own(*lookups),
        "corpus.build_index_s": own("corpus.build_index"),
        "corpus.save_s": own("corpus.save"),
        "corpus.load_s": own("corpus.load"),
    }
    for fn in ("entity_postings", "soc_count", "poc_count", "utterance_present"):
        name = f"corpus.{fn}"
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = own(name)
        if name in ("corpus.soc_count", "corpus.poc_count"):
            m[f"{name}.distinct_ratio"] = distinct.get(name, 0) / max(1, calls(name))
    m.update({
        "kernels.intersect.calls": calls(*inter),
        "kernels.intersect.elements": elements,
        "kernels.intersect.self_s": own(*inter),
        "kernels.intersect.ns_per_element": own(*inter) / elements * 1e9 if elements else 0.0,
        "graph.backdoor.calls": calls("graph.satisfies_backdoor"),
        "graph.backdoor.self_s": own("graph.satisfies_backdoor"),
    })
    for hyp in ("utt", "poc", "soc"):
        m[f"population.build.{hyp}.self_s"] = own(f"population.build.{hyp}")
    m.update({
        "population.score_s": own("population.score_population"),
        "population.obs_table_s": own("population.population_observation_table"),
        "population.read_s": own("population.read_population"),
        "population.write_s": own("population.write_population"),
        "predictions.load_s": own("predictions.load_predictions"),
        "predictions.baseline_s": own("predictions.baseline_predict"),
        "predictions.records": counters.get("predictions.records", 0),
        "estimator.interventional_prob.calls": calls("estimator.interventional_prob"),
        "estimator.interventional_prob.self_s": own("estimator.interventional_prob"),
        "estimator.ate.calls": calls("estimator.ate"),
        "estimator.cate.self_s": own("estimator.cate"),
        "estimator.rows_scanned": counters.get("estimator.rows_scanned", 0),
        "pipeline.self_s": own("pipeline.op", "pipeline.setup"),
        "pipeline.emit_report_s": own("pipeline.emit_report"),
    })
    return m
