"""Whole reports against a reference pipeline built from the definitions.

The reference shares none of the library's fast paths. Every count is a
scan of the segmented sentences, each population is paired by the
README's recipes, each row is scored with `outcome_flag`, and each
effect is the backdoor sum `exact_joint_do` takes over the empirical
joint of the scored rows. The report is formatted as `emit_report`
writes a structured one and compared with the library's byte for byte,
as is the error of a run in which every hypothesis fails. A dynamics run
is compared twice: cold, and warm from the population cache the cold
run filled.
"""

import json
import re
import tempfile
from collections import Counter, namedtuple
from fractions import Fraction
from functools import cache
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from corpuscausal.errors import CorpusCausalError
from corpuscausal.estimator import exact_joint_do
from corpuscausal.pipeline import RunConfig, emit_report, run_dynamics, run_estimate
from corpuscausal.predictions import outcome_flag

from conftest import load_generator, write_jsonl

HYPOTHESES = ("utt", "poc", "soc")
LABELS = ("XS", "S", "M", "L", "XL")
NO_OVERLAP = "no confounder stratum contains both treatment arms"

#: Each draw runs a whole pipeline, so shrinking a failure would take
#: minutes: a failing draw is reported as drawn.
NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate)

Row = namedtuple("Row", "subject object relation template is_anti treatment soc_bin utt")

#: The strata of each hypothesis's backdoor sum, as the causal graph gives them.
STRATA = {
    "utt": lambda row: (row.template, 0 if row.is_anti else 1, row.soc_bin),
    "poc": lambda row: (row.utt,),
    "soc": lambda row: (row.soc_bin,),
}


def norm(text):
    return " ".join(text.split())


def fill(template, subject, obj):
    return norm(template.replace("[X]", subject).replace("[Y]", obj))


def mentions(sentence, surface):
    return re.search(r"(?<!\w)" + re.escape(surface) + r"(?!\w)", sentence) is not None


def text(data):
    return json.dumps(data, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


class Reference:
    """The inputs as a run reads them, and every statistic by a scan."""

    def __init__(self, triplets, patterns, corpus, floor, edges):
        self.triplets = {tuple(map(norm, t)) for t in triplets}
        self.patterns = {(norm(r), norm(t), anti) for r, t, anti in patterns}
        pieces = (p for line in corpus.split("\n") for p in re.split(r"(?<=[.!?])\s+", line))
        self.sentences = [norm(p) for p in pieces if norm(p)]
        self.stored = set(self.sentences)
        self.floor, self.edges = floor, edges
        self.relations = sorted({r for _, r, _ in self.triplets})
        self.mentioned = cache(self.mentioned)
        self.poc = cache(self.poc)
        self.populations = {hyp: self.pairs(hyp) for hyp in HYPOTHESES}

    def subjects(self, relation):
        return sorted({s for s, r, _ in self.triplets if r == relation})

    def candidates(self, relation):
        return sorted({o for _, r, o in self.triplets if r == relation})

    def golds(self, subject, relation):
        return sorted(o for s, r, o in self.triplets if (s, r) == (subject, relation))

    def templates(self, relation, anti):
        return sorted(t for r, t, a in self.patterns if (r, a) == (relation, anti))

    def mentioned(self, surface):
        """The positions of the sentences that mention `surface`, by a scan."""
        return frozenset(i for i, s in enumerate(self.sentences) if mentions(s, surface))

    def soc(self, subject, obj):
        return len(self.mentioned(subject) & self.mentioned(obj))

    def poc(self, template, obj):
        left, right = template.replace("[Y]", obj).split("[X]")
        rx = re.compile(re.escape(left) + ".+" + re.escape(right))
        return sum(rx.fullmatch(s) is not None for s in self.sentences)

    def ranked(self, count, first, relation):
        return sorted(self.candidates(relation), key=lambda o: (-count(first, o), o))

    def row(self, relation, subject, obj, template, anti, treatment):
        n = self.soc(subject, obj)
        label = next((b for b, e in zip(LABELS, self.edges) if n <= e), LABELS[-1])
        utt = fill(template, subject, obj) in self.stored
        return Row(subject, obj, relation, template, anti, treatment, label, utt)

    def pairs(self, hyp):
        """The (treated, control) row pairs, unmatched and removed counts of `hyp`."""
        pairs, unmatched, removed = [], 0, 0
        for r in self.relations:
            subjects = self.subjects(r)
            if hyp == "utt":  # i-th stored paraphrase with i-th absent one
                for s in subjects:
                    for o in self.golds(s, r):
                        rows = [self.row(r, s, o, t, False, 0) for t in self.templates(r, False)]
                        stored = [row._replace(treatment=1) for row in rows if row.utt]
                        absent = [row for row in rows if not row.utt]
                        pairs += zip(stored, absent)
                        unmatched += max(0, len(stored) - len(absent))
            elif hyp == "poc":  # the template's top two objects, both above the floor
                for t in self.templates(r, False):
                    top = self.ranked(self.poc, t, r)[:2]
                    kept = [o for o in top if self.poc(t, o) > self.floor]
                    removed += (len(top) - len(kept)) * len(subjects)
                    if len(kept) == 1:
                        unmatched += len(subjects)
                    elif kept:
                        pairs += [(self.row(r, s, kept[0], t, False, 1),
                                   self.row(r, s, kept[1], t, False, 0)) for s in subjects]
            else:  # the subject's top two objects, under every pattern
                patterns = [(t, a) for a in (False, True) for t in self.templates(r, a)]
                for s in subjects:
                    top = self.ranked(self.soc, s, r)[:2]
                    if len(top) < 2:
                        unmatched += len(patterns)
                        continue
                    pairs += [(self.row(r, s, top[0], t, a, 1), self.row(r, s, top[1], t, a, 0))
                              for t, a in patterns]
        return pairs, unmatched, removed

    def heuristic(self, hyp, subject, relation, template):
        if hyp == "poc":
            return self.ranked(self.poc, template, relation)[0]
        if hyp == "utt":
            for obj in self.candidates(relation):
                if fill(template, subject, obj) in self.stored:
                    return obj
        return self.ranked(self.soc, subject, relation)[0]

    def report(self, predict):
        """The report's fields, or the (error class, message) the run raises.

        `predict(hyp)` gives the source id and the prediction of each
        (subject, relation, template) key.
        """
        ate, cate, diagnostics, failed, unestimated, source = {}, {}, {}, [], [], None
        for hyp in HYPOTHESES:
            ate[hyp], cate[hyp] = None, {}
            pairs, unmatched, removed = self.populations[hyp]
            if not pairs:
                failed.append(("EmptyPopulationError", f"{hyp} population has no matched pairs"))
                diagnostics[hyp] = {"error": failed[-1][1]}
                continue
            rows = set(chain.from_iterable(pairs))
            source_id, prediction = predict(hyp)
            source = source or source_id
            cells = [
                (row.relation, row.treatment,
                 outcome_flag(hyp, row.object, prediction[row.subject, row.relation, row.template]),
                 *STRATA[hyp](row))
                for row in rows
            ]
            counts = {"rows": len(rows), "pairs": len(pairs), "unmatched_treated": unmatched,
                      "low_frequency_removed": removed}
            est = effect([cell[1:] for cell in cells])
            if est is None:
                unestimated.append(("PositivityError", NO_OVERLAP))
                diagnostics[hyp] = {"error": NO_OVERLAP, **counts}
                continue
            ate[hyp] = float(est.ate)
            for relation in {cell[0] for cell in cells}:
                part = [cell[1:] for cell in cells if cell[0] == relation]
                sub = effect(part)
                cate[hyp][relation] = {"value": sub and float(sub.ate), "n_rows": len(part),
                                       "reason": None if sub else NO_OVERLAP}
            diagnostics[hyp] = {"covered_mass": float(est.covered_mass),
                                "dropped_strata": est.dropped_strata,
                                "positivity_violated": est.covered_mass < 1, **counts}
        if len(failed) + len(unestimated) == len(HYPOTHESES):
            return (failed + unestimated)[0]
        return {"source_id": source, "ate": ate, "cate": cate, "diagnostics": diagnostics,
                "series": None}


def dynamics_text(ref, checkpoints):
    """The structured report text of a dynamics run, or the error class and message it raises.

    `checkpoints` holds each checkpoint's name, source id and records, in
    the order the run takes them.
    """
    series, last = [], None
    built = [hyp for hyp in HYPOTHESES if ref.populations[hyp][0]]
    for stem, source_id, records in checkpoints:
        result = ref.report(lambda hyp: (source_id, records))
        entry = {"checkpoint": stem, "ate": None, "accuracy": None, "error": None}
        if isinstance(result, dict):
            last = result
            entry["ate"] = result["ate"]
            if "utt" in built:
                keys = {(r.subject, r.relation, r.template)
                        for r in chain.from_iterable(ref.populations["utt"][0])}
                hits = sum(records[key] in ref.golds(*key[:2]) for key in keys)
                entry["accuracy"] = hits / len(keys)
        else:
            entry["error"] = result[1]
        series.append(entry)
    if not built:
        return "EmptyPopulationError", "utt population has no matched pairs"
    if last is None:
        return "MissingPredictionError", "no checkpoint produced a full estimate"
    return text(dict(last, series=series))


def effect(cells):
    """`exact_joint_do` on the empirical joint of (treatment, outcome, *strata) cells.

    None when no stratum holds both arms.
    """
    names = tuple(f"v{i}" for i in range(len(cells[0])))
    joint = {cell: Fraction(n, len(cells)) for cell, n in Counter(cells).items()}
    est = exact_joint_do(joint, names, names[0], names[1], names[2:])
    return est if est.covered_mass else None


# --- draws -------------------------------------------------------------------

SUBJECTS = ("Ann", "Bo", "Cy Di")
OBJECTS = ("Xo", "Yu", "Zed", "Old Zed")
TEMPLATES = ("[X] likes [Y].", "[Y] hosts [X].", "[X] met  [Y] twice.", "[X] of [Y]!")


def spaced(values):
    """One of `values`, perhaps padded or with its inner spaces doubled."""
    def variant(value, pad, double):
        return pad.format(value.replace(" ", "  ") if double else value)

    return st.builds(variant, st.sampled_from(values), st.sampled_from(["{}", " {}", "{}  "]),
                     st.booleans())


@st.composite
def inputs(draw):
    triplets = draw(st.lists(st.tuples(spaced(SUBJECTS), st.sampled_from("rs"), spaced(OBJECTS)),
                             min_size=2, max_size=7))
    patterns = []
    for relation in sorted({r for _, r, _ in triplets}):
        patterns += [(relation, t, False) for t in draw(st.lists(spaced(TEMPLATES), min_size=1,
                                                                  max_size=3))]
        patterns += draw(st.lists(st.tuples(st.just(relation), spaced(TEMPLATES), st.booleans()),
                                  max_size=2))
    # utterances of KB triplets, and of other pairs, and co-mentions
    sentences = draw(st.lists(st.builds(lambda t, trip: t.replace("[X]", trip[0]).replace(
        "[Y]", trip[2]), spaced(TEMPLATES), st.sampled_from(triplets)), min_size=1, max_size=8))
    sentences += draw(st.lists(st.builds(lambda t, s, o: t.replace("[X]", s).replace("[Y]", o),
                                         spaced(TEMPLATES), spaced(SUBJECTS), spaced(OBJECTS)),
                               max_size=6))
    sentences += draw(st.lists(st.builds("{} and {} met.".format, spaced(SUBJECTS),
                                         spaced(OBJECTS)), max_size=16))
    # 0-3 sentences per (template, object) with a subject outside the KB,
    # so pattern-object counts straddle the floors
    for t in TEMPLATES:
        sentences += [t.replace("[X]", "Q").replace("[Y]", o) for o in OBJECTS
                      for _ in range(draw(st.integers(0, 3)))]
    sentences = draw(st.permutations(sentences))
    seps = draw(st.lists(st.sampled_from([" ", "  ", "\t", "\n"]), min_size=len(sentences),
                         max_size=len(sentences)))
    corpus = "".join(chain.from_iterable(zip(sentences, seps)))
    floor = draw(st.integers(0, 2))
    edges = draw(st.sampled_from([(1, 10, 100, 1000), (0, 1, 2, 3)]))
    return Reference(triplets, patterns, corpus, floor, edges), (triplets, patterns, corpus)


def draw_records(draw, ref, source_id):
    """A prediction for every cloze key, each a candidate perhaps padded."""
    records = {}
    for r in ref.relations:
        for t in ref.templates(r, False) + ref.templates(r, True):
            for s in ref.subjects(r):
                records[s, r, t] = draw(spaced(tuple(ref.candidates(r))))
    lines = [{"subject": s, "relation": r, "template": t, "prediction": p,
              "source_id": source_id} for (s, r, t), p in records.items()]
    return {key: norm(p) for key, p in records.items()}, lines


def write_inputs(tmp, raw, ref, **settings):
    triplets, patterns, corpus = raw
    write_jsonl(tmp / "kb.jsonl", [dict(zip(("subject", "relation", "object"), t))
                                   for t in triplets])
    write_jsonl(tmp / "patterns.jsonl", [{"relation": r, "template": t, "is_anti": a}
                                         for r, t, a in patterns])
    (tmp / "corpus.txt").write_text(corpus, encoding="utf-8")
    return RunConfig(kb=str(tmp / "kb.jsonl"), patterns=str(tmp / "patterns.jsonl"),
                     corpus=str(tmp / "corpus.txt"), min_poc_frequency=ref.floor,
                     bin_edges=ref.edges, output_dir=str(tmp / "out"), **settings)


def outcome(run, path):
    """The structured report text of `run()`, or the error class and message it raises."""
    try:
        report = run()
    except CorpusCausalError as exc:
        return type(exc).__name__, str(exc)
    return Path(emit_report(report, "structured", path)).read_text(encoding="utf-8")


class TestAgainstTheReference:
    @given(inputs(), st.sampled_from(["file", "heuristic", "perfect"]), st.data())
    @settings(max_examples=80, deadline=None, phases=NO_SHRINK)
    def test_estimate(self, drawn, kind, data):
        ref, raw = drawn
        if kind == "file":
            records, lines = draw_records(data.draw, ref, "model")

            def predict(hyp):
                return "model", records
        else:
            keys = [(s, r, t) for r in ref.relations for s in ref.subjects(r)
                    for a in (False, True) for t in ref.templates(r, a)]

            def predict(hyp):
                if kind == "perfect":
                    return "perfect", {key: ref.golds(*key[:2])[0] for key in keys}
                return f"heuristic-{hyp}", {key: ref.heuristic(hyp, *key) for key in keys}

        expected = ref.report(predict)
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            if kind == "file":
                write_jsonl(tmp / "preds.jsonl", lines)
            spec = str(tmp / "preds.jsonl") if kind == "file" else f"baseline:{kind}"
            config = write_inputs(tmp, raw, ref, predictions=spec)
            got = outcome(lambda: run_estimate(config), tmp / "report.json")
        assert got == (text(expected) if isinstance(expected, dict) else expected)

    @given(inputs(), st.lists(st.sampled_from([1, 2, 10, 11]), min_size=2, max_size=3,
                              unique=True), st.data())
    @settings(max_examples=40, deadline=None, phases=NO_SHRINK)
    def test_dynamics(self, drawn, epochs, data):
        ref, raw = drawn
        checkpoints = [(f"ep{n}", *draw_records(data.draw, ref, f"ep{n}")) for n in epochs]
        expected = dynamics_text(ref, [(stem, stem, records) for stem, records, _ in
                                       sorted(checkpoints, key=lambda c: int(c[0][2:]))])
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            for stem, _, lines in checkpoints:
                write_jsonl(tmp / f"{stem}.jsonl", lines)
            # cold, then warm: the second run reads the cache entries the first wrote
            config = write_inputs(tmp, raw, ref, cache_dir=str(tmp / "cache"))
            paths = [str(tmp / f"{stem}.jsonl") for stem, _, _ in checkpoints]
            for run in ("cold", "warm"):
                got = outcome(lambda: run_dynamics(config, paths), tmp / f"{run}.json")
                assert got == expected, run


#: `perfbench/gen.py` inputs: (relations, subjects per relation, candidates
#: per relation, sentences, co-mentions of the top subject) and a seed.
GENERATED = [((2, 10, 5, 800, 20), seed) for seed in range(3)] + [((3, 20, 20, 2000, 40), 0)]


def generated_records(path):
    """A generated checkpoint's source id and its prediction of each key."""
    lines = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    return lines[0]["source_id"], {
        (norm(line["subject"]), norm(line["relation"]), norm(line["template"])):
        norm(line["prediction"]) for line in lines
    }


class TestAtGeneratorShapes:
    """The reference at the benchmark generator's shapes, which the draws above
    lack: Zipf-skewed co-mentions, many strata, several paraphrases per
    relation and more candidates than a sort keeps stable by accident."""

    @pytest.mark.parametrize("shape, seed", GENERATED,
                             ids=["x".join(map(str, shape[:4])) + f"-seed{seed}"
                                  for shape, seed in GENERATED])
    def test_estimate_and_warm_dynamics(self, tmp_path, shape, seed):
        gen = load_generator()
        sizes = gen.Sizes(*shape, checkpoints=(0.2, 0.6, 1.0))
        corpus = gen.Corpus(sizes, seed)
        paths = corpus.write(tmp_path / "in")
        ref = Reference(corpus.triplets, corpus.patterns,
                        paths["corpus"].read_text(encoding="utf-8"), 5, (1, 10, 100, 1000))
        checkpoints = sorted(name for name in paths if name.startswith("checkpoint"))
        keys = [(s, r, t) for r in ref.relations for s in ref.subjects(r)
                for a in (False, True) for t in ref.templates(r, a)]
        first = generated_records(paths[checkpoints[0]])
        runs = {
            "file": (str(paths[checkpoints[0]]), ref.report(lambda hyp: first)),
            "heuristic": ("baseline:heuristic", ref.report(lambda hyp: (
                f"heuristic-{hyp}", {key: ref.heuristic(hyp, *key) for key in keys}))),
        }

        def config(predictions, **settings):
            return RunConfig(kb=str(paths["kb"]), patterns=str(paths["patterns"]),
                             corpus=str(paths["corpus"]), predictions=predictions,
                             min_poc_frequency=5, bin_edges=(1, 10, 100, 1000),
                             output_dir=str(tmp_path / "out"), **settings)

        for kind, (predictions, expected) in runs.items():
            got = outcome(lambda: run_estimate(config(predictions)), tmp_path / f"{kind}.json")
            assert got == text(expected), kind
        expected = dynamics_text(ref, [(paths[name].stem, *generated_records(paths[name]))
                                       for name in checkpoints])
        dynamics = config("", cache_dir=str(tmp_path / "cache"))
        # cold, then warm: the second run reads the cache entries the first wrote
        for run in ("cold", "warm"):
            got = outcome(lambda: run_dynamics(dynamics, [str(paths[name]) for name in checkpoints]),
                          tmp_path / f"{run}.json")
            assert got == expected, run
