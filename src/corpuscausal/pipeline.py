"""End-to-end orchestration: config, estimation runs, and report emission.

`run_estimate` wires the whole flow together: load inputs, verify the
canonical adjustment sets against the built-in graph, build the three
matched populations, score them with predictions, and estimate ATE and
per-relation CATE with the backdoor formula. `run_dynamics` re-scores
the same populations once per checkpoint file for its ATEs, and takes
CATE once, from the last checkpoint estimated. `run_build_population`
builds, scores and writes populations and their cloze queries without
estimating anything. A run scores a prediction set through its one
`ClozeKeyTable`, which also counts the cells each ATE is taken from and
takes a checkpoint's accuracy.

Reports hold plain floats (conversion from the estimator's exact
rationals happens exactly once, here), so a structured report round-trips
field-identically through JSON.
"""

import contextlib
import hashlib
import json
import re
from dataclasses import asdict, dataclass, field, fields, replace
from functools import cached_property
from pathlib import Path

from .corpus import BIN_EDGES, CorpusIndex, build_index, instantiate, landing
from .errors import (
    ConfigError,
    CorpusCausalError,
    EmptyPopulationError,
    MissingPredictionError,
    ParseError,
    PositivityError,
)
from .estimator import cate, do_from_cells
from .graph import CANONICAL_ADJUSTMENTS, reference_graph, satisfies_backdoor
from .kb import KnowledgeBase, load_kb, load_patterns
from .population import (
    STRATIFY_COLUMNS,
    ClozeKeyTable,
    build_structure,
    population_observation_table,
    read_cache_entry,
    # not called here: a cache entry has its own format (`read_cache_entry`);
    # perfbench traces the name in this module
    read_population,
    # not called here: a run scores through its one key table (`_Runtime.keys`);
    # perfbench traces the name in this module
    score_population,
    tsv_blocks,
    write_cache_entry,
    write_population,
)
from .predictions import BASELINE_KINDS, HYPOTHESES, baseline_predict, load_predictions

REPORT_FORMATS = ("table", "structured", "delimited")


def _setting(default, help, parse=str, choices=None):
    """A run setting: a RunConfig field with its flag help, parser and choices."""
    return field(default=default, metadata={"help": help, "parse": parse, "choices": choices})


@dataclass(frozen=True)
class RunConfig:
    """Paths and knobs for a full estimation run.

    Each field is a run setting: its kebab-case name is a config-file key
    and a CLI flag (`SETTINGS`), and config-file text is parsed with the
    field's ``parse``. `predictions` is either a file path or a baseline
    spec: ``baseline:heuristic`` (each hypothesis scored with its own
    heuristic), ``baseline:heuristic-<utt|poc|soc>``, ``baseline:perfect``
    or ``baseline:random:<seed>``; only `estimate` and `build-population`
    need one (`predictions_spec`).
    """

    kb: str = _setting("", "Triplet file (JSON lines).")
    patterns: str = _setting("", "Pattern file (JSON lines).")
    corpus: str = _setting("", "Corpus text file or directory.")
    index: str = _setting("", "Prebuilt corpus index.")
    predictions: str = _setting("", "Prediction file or baseline:<kind> spec.")
    output_dir: str = _setting(".", "Directory for outputs.")
    mask_token: str = _setting("[MASK]", "Cloze mask token.")
    min_poc_frequency: int = _setting(5, "Pattern-object frequency floor (exclusive).", int)
    bin_edges: tuple = _setting(BIN_EDGES, "Four increasing count-bin edges, comma separated.",
                                lambda raw: tuple(map(int, raw.replace(",", " ").split())))
    output_format: str = _setting("structured", "Report format.", choices=REPORT_FORMATS)
    cache_dir: str = _setting("", "Population cache directory.")

    def validate(self):
        if not self.kb or not self.patterns:
            raise ConfigError("config must name 'kb' and 'patterns' files")
        if not self.corpus and not self.index:
            raise ConfigError("config must name a 'corpus' or a prebuilt 'index'")
        self.baseline  # a bad spec fails here, before any input is loaded
        if self.output_format not in REPORT_FORMATS:
            raise ConfigError(f"unsupported output format: {self.output_format!r}")
        edges = tuple(self.bin_edges)
        if len(edges) != 4 or any(b <= a for a, b in zip(edges, edges[1:])):
            raise ConfigError("bin-edges must be 4 strictly increasing integers")
        if self.min_poc_frequency < 0:
            raise ConfigError("min-poc-frequency must be nonnegative")
        return self

    def predictions_spec(self):
        if not self.predictions:
            raise ConfigError("config must name 'predictions' (path or baseline:...)")
        return self.predictions

    #: (kind, seed) of a ``baseline:`` spec, None for a file; `validate` and the run share it
    baseline = cached_property(lambda self: _parse_predictions_spec(self.predictions))


def _parse_predictions_spec(spec):
    """(kind, seed) of a ``baseline:`` spec, None for a file; only random has a seed."""
    if not spec.startswith("baseline:"):
        return None
    kind, *rest = spec.split(":")[1:]
    if kind == "random":
        if len(rest) != 1:
            raise ConfigError("random baseline spec is baseline:random:<seed>")
        try:
            return kind, int(rest[0])
        except ValueError:
            raise ConfigError(f"random baseline seed is not an integer in {spec!r}") from None
    if rest or (kind != "heuristic" and kind not in BASELINE_KINDS):
        raise ConfigError(f"unknown baseline kind in {spec!r}")
    return kind, None


#: The run settings, in flag order: config-file key and CLI flag -> RunConfig field.
SETTINGS = {f.name.replace("_", "-"): f for f in fields(RunConfig)}


#: A config comment: ``#`` at a line's start or after whitespace (``out#1`` is a value).
_COMMENT_RE = re.compile(r"(?:^|\s)#.*")


def load_config(path):
    """Parse the flat ``key = value`` config format (`_COMMENT_RE` marks comments)."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = _COMMENT_RE.sub("", raw, count=1).strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in SETTINGS:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            values[key] = value.strip()
    return merge_config(RunConfig(), values)


def merge_config(config, overrides):
    """Apply non-None overrides (kebab-case keys; strings as config-file text)."""
    updates = {}
    for key, value in overrides.items():
        if value is None:
            continue
        if key not in SETTINGS:
            raise ConfigError(f"unknown config key {key!r}")
        setting = SETTINGS[key]
        if isinstance(value, str):
            try:
                value = setting.metadata["parse"](value)
            except ValueError:
                raise ConfigError(f"{key} takes integers, got {value!r}") from None
        updates[setting.name] = value
    return replace(config, **updates) if updates else config


# --- report ------------------------------------------------------------------


@dataclass(frozen=True)
class EffectReport:
    """ATE/CATE estimates plus coverage and matching diagnostics."""

    source_id: str
    ate: dict  # hypothesis -> float percentage
    cate: dict  # hypothesis -> {relation -> {value, reason, n_rows}}
    diagnostics: dict  # hypothesis -> coverage/drop counters
    series: tuple = None  # per-checkpoint entries, in checkpoint order

    def failures(self):
        """Hypothesis -> reason, for each hypothesis with no estimate."""
        return {hyp: diag["error"] for hyp, diag in self.diagnostics.items() if "error" in diag}


def _natural_key(name):
    # odd parts are the digit runs; "²".isdigit() holds but int("²") fails
    parts = re.split(r"(\d+)", str(name))
    parts[1::2] = map(int, parts[1::2])
    return tuple(parts)


class _Runtime:
    """Loaded inputs of one run, with the populations of `hypotheses`.

    `config` is validated: each `run_*` checks it before inputs load. A
    population with no matched pairs is kept in `failures` (hypothesis ->
    its `EmptyPopulationError`) instead of `populations`; when none of
    them can be built, the first failure is raised.
    """

    def __init__(self, config, hypotheses=HYPOTHESES):
        self.config = config
        self.kb = KnowledgeBase(load_kb(config.kb), load_patterns(config.patterns))
        if config.index:
            self.stats = CorpusIndex.load(config.index)
        else:
            self.stats = build_index(config.corpus)
        self._verify_adjustments()
        # the key digests the KB (and a built index): taken only for a cache
        self._cache_key = self._population_cache_key() if config.cache_dir else None
        self._loaded = None  # the predictions file, once read
        self.populations, self.failures = {}, {}
        for hyp in hypotheses:
            try:
                self.populations[hyp] = self._structure(hyp)
            except EmptyPopulationError as exc:
                self.failures[hyp] = exc
        if not self.populations:
            raise self.failures[hypotheses[0]]

    def _verify_adjustments(self):
        graph = reference_graph()
        for adj in CANONICAL_ADJUSTMENTS:
            if not satisfies_backdoor(graph, adj.treatment, adj.outcome, adj.adjustment_set):
                raise CorpusCausalError(
                    f"canonical adjustment set for {adj.hypothesis} failed "
                    f"backdoor verification against the built-in graph"
                )

    def _population_cache_key(self):
        """Digest of `build_structure`'s arguments: every input a population depends on.

        The KB enters as its parsed, de-duplicated triplets and patterns,
        so a reformatted input file gives the same key. The corpus enters
        as the index digest, so a built index and its saved and loaded
        form give one key.
        """
        key = (self.kb.triplets, self.kb.patterns, self.stats.digest,
               self.config.min_poc_frequency, tuple(self.config.bin_edges))
        return hashlib.blake2b(repr(key).encode(), digest_size=16).hexdigest()

    def _structure(self, hypothesis):
        """The hypothesis's population, from the cache when its entry reads back.

        An entry is one ``<hyp>-<key>.pop`` file. One that is missing, of
        another version, changed after it was written or unsound in its
        structure is a miss: the population is rebuilt and the entry
        overwritten. A population with no matched pairs is cached too, as
        an entry that reads back as its `EmptyPopulationError`. A failed
        write leaves the entry a miss; a cache directory that cannot be
        created fails the run.
        """
        cache_dir = self.config.cache_dir
        entry = Path(cache_dir) / f"{hypothesis}-{self._cache_key}.pop" if cache_dir else None
        if entry:
            try:
                return read_cache_entry(entry, hypothesis)
            except (OSError, ValueError, KeyError, TypeError, IndexError):
                pass  # rebuilt and overwritten below
        try:
            pop = build_structure(
                hypothesis,
                self.kb,
                self.stats,
                min_poc_frequency=self.config.min_poc_frequency,
                bin_edges=tuple(self.config.bin_edges),
            )
        except EmptyPopulationError:
            _write_entry(None, entry)
            raise
        _write_entry(pop, entry)
        return pop

    def predictions_for(self, hypothesis):
        """The PredictionSet the configured predictions give one hypothesis."""
        if self.config.baseline is None:
            if self._loaded is None:
                self._loaded = load_predictions(self.config.predictions, self.kb, self.keys)
            return self._loaded
        kind, seed = self.config.baseline
        if kind == "heuristic":
            kind = f"heuristic-{hypothesis}"
        return baseline_predict(
            kind,
            self.kb,
            stats=self.stats,
            queries=self.populations[hypothesis].cloze_keys,
            seed=seed,
        )

    @cached_property
    def keys(self):
        """The run's `ClozeKeyTable`: every population's cloze keys, over the KB."""
        return ClozeKeyTable(self.populations, self.kb)

    def estimate_ates(self, predictions_of):
        """Score every population and estimate its ATE and diagnostics: the ATE pass.

        `predictions_of(hypothesis)` gives the hypothesis's PredictionSet; it
        is called just before that hypothesis is scored, so the first
        failure raises in hypothesis order. Each ATE is taken from the
        population's integer (stratum, arm, outcome) cell counts, which
        the run's key table counts (`ClozeKeyTable.cells`). A hypothesis
        whose population could not be built, or whose estimate has no
        stratum holding both arms, reports a null ATE with the reason in
        its diagnostics' ``error``; when every hypothesis fails, the first
        failure is raised. Returns the report, whose source is the first
        set's and whose `cate` cells are all empty (`with_cate` fills
        them), and the prediction set of each scored hypothesis.
        """
        ates, diagnostics, used = {}, {}, {}
        failures = dict(self.failures)
        source_id = None
        for hyp in HYPOTHESES:
            ates[hyp] = None
            if hyp in failures:
                diagnostics[hyp] = {"error": str(failures[hyp])}
                continue
            prediction_set = used[hyp] = predictions_of(hyp)
            source_id = prediction_set.source_id if source_id is None else source_id
            pop = self.populations[hyp]
            counts = {"rows": len(pop), "pairs": len(pop.pairs), **asdict(pop.diagnostics)}
            try:
                est = do_from_cells(self.keys.cells(hyp, prediction_set))
            except PositivityError as exc:
                failures[hyp] = exc
                diagnostics[hyp] = {"error": str(exc), **counts}
                continue
            ates[hyp] = float(est.ate)
            diagnostics[hyp] = {
                "covered_mass": float(est.covered_mass),
                "dropped_strata": est.dropped_strata,
                "positivity_violated": est.positivity_violated,
                **counts,
            }
        if len(failures) == len(HYPOTHESES):
            raise next(iter(failures.values()))  # build failures first, as they arose
        report = EffectReport(source_id, ates, {hyp: {} for hyp in HYPOTHESES}, diagnostics)
        return report, used

    def score(self, used):
        """Hypothesis -> scored population, for each hypothesis -> prediction set of `used`."""
        return {hyp: self.keys.score(hyp, prediction_set) for hyp, prediction_set in used.items()}

    @staticmethod
    def with_cate(report, scored):
        """The report with each estimated hypothesis's per-relation CATE.

        Each hypothesis of `scored` (hypothesis -> scored population) that
        `estimate_ates` estimated gets one `cate` call, on its observation
        table, which is built for that call and dropped after it. `cate`
        never raises here: a relation it cannot estimate is a null cell
        with its reason.
        """
        cates = dict(report.cate)
        for hyp, pop in scored.items():
            if report.ate[hyp] is None:
                continue
            cates[hyp] = {
                relation: {"value": None if r.value is None else float(r.value),
                           "reason": r.reason, "n_rows": r.n_rows}
                for relation, r in cate(
                    population_observation_table(pop), "relation", "treatment", "outcome",
                    STRATIFY_COLUMNS[hyp],
                ).items()
            }
        return replace(report, cate=cates)


def _write_entry(pop, entry):
    """Write a population's cache entry, if there is a cache (`write_cache_entry`).

    The cache only saves work: an entry that cannot be written stays a miss.
    """
    if entry:
        entry.parent.mkdir(parents=True, exist_ok=True)
        with contextlib.suppress(OSError):
            write_cache_entry(pop, entry)


def run_estimate(config, emit_populations=False):
    """Build the three populations, score them, and estimate all effects.

    With `emit_populations`, the matched tables and pair files are written
    under the configured output directory.
    """
    config.validate().predictions_spec()
    rt = _Runtime(config)
    report, scored = rt.estimate_ates(rt.predictions_for)
    scored = rt.score(scored)  # the prediction sets go here
    report = rt.with_cate(report, scored)
    if emit_populations:
        out = Path(config.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        for hyp, pop in scored.items():
            _write_tables(pop, out, hyp)
    return report


def run_build_population(config, hypotheses):
    """Build, score and write the populations of `hypotheses`, one at a time.

    A generator: nothing runs until it is iterated. Each hypothesis's
    table and pairs go to the output directory with ``<hyp>_queries.tsv``
    (the cloze strings, mask token applied, for external inference);
    then ``(hypothesis, scored population)`` is yielded.
    """
    config.validate().predictions_spec()
    rt = _Runtime(config, hypotheses)
    if rt.failures:  # a population asked for by name must be built
        raise next(iter(rt.failures.values()))
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    for hyp in hypotheses:
        scored = rt.keys.score(hyp, rt.predictions_for(hyp))
        _write_tables(scored, out, hyp)
        keys = rt.populations[hyp].cloze_keys
        queries = ((s, r, t, instantiate(t, s, config.mask_token)) for s, r, t in keys)
        with landing(out / f"{hyp}_queries.tsv") as fh:
            fh.writelines(tsv_blocks(("subject", "relation", "template", "cloze"), queries))
        yield hyp, scored


def _write_tables(pop, out, hypothesis):
    write_population(pop, out / f"{hypothesis}_population.tsv", out / f"{hypothesis}_pairs.tsv")


def run_dynamics(config, checkpoint_paths):
    """One ATE triple and accuracy per checkpoint, populations built once.

    Checkpoints run in natural order of their names (``ep2`` before
    ``ep10``), whatever directories they are in; names with equal keys,
    such as ``ep1`` and ``ep01``, run in plain path order. Each checkpoint
    gets only the ATE pass (`_Runtime.estimate_ates`); the report's CATE,
    diagnostics and source are those of the last checkpoint estimated,
    with its CATE taken once, at the end, from that checkpoint's
    predictions. Checkpoints failing to score (for instance with
    uncovered cloze keys) contribute an error entry instead of aborting
    the series; the entry names the file by its name, wherever it lives.
    """
    config.validate()
    if not checkpoint_paths:
        raise ConfigError("dynamics requires at least one checkpoint file")
    rt = _Runtime(config)
    ordered = sorted(sorted(checkpoint_paths), key=lambda path: _natural_key(Path(path).stem))
    series = []
    last = None  # the last estimated checkpoint's report and prediction sets
    for path in ordered:
        entry = {"checkpoint": Path(path).stem, "ate": None, "accuracy": None, "error": None}
        try:
            prediction_set = load_predictions(path, rt.kb, rt.keys)
            report, used = rt.estimate_ates(lambda hyp: prediction_set)
            entry["ate"] = report.ate
            entry["accuracy"] = rt.keys.accuracy(prediction_set)
            last = report, used
        except (CorpusCausalError, OSError) as exc:
            # the file by its name: a report does not depend on where inputs live
            entry["error"] = str(exc).replace(str(path), Path(path).name)
        series.append(entry)
    if last is None:
        raise MissingPredictionError("no checkpoint produced a full estimate")
    report, used = last
    return replace(rt.with_cate(report, rt.score(used)), series=tuple(series))


# --- emission ----------------------------------------------------------------


def format_value(value):
    return "n/a" if value is None else f"{value:.2f}"


def _render_table(report):
    lines = []
    lines.append("ATE (treated minus control, percent)")
    lines.append(f"{'model':<24}{'utt':>10}{'poc':>10}{'soc':>10}")
    lines.append(
        f"{report.source_id:<24}"
        + "".join(f"{format_value(report.ate.get(h)):>10}" for h in HYPOTHESES)
    )
    has_cate = any(report.cate.get(h) for h in HYPOTHESES)
    if has_cate:
        lines.append("")
        lines.append("CATE per relation")
        for hyp in HYPOTHESES:
            for relation in sorted(report.cate.get(hyp, {})):
                cell = report.cate[hyp][relation]
                lines.append(
                    f"{hyp:<6}{relation:<28}{format_value(cell['value']):>10}"
                )
    if report.series is not None:
        lines.append("")
        lines.append("checkpoint series")
        for entry in report.series:
            if entry.get("error"):
                lines.append(f"{entry['checkpoint']:<24}error: {entry['error']}")
            else:
                cells = "".join(
                    f"{format_value(entry['ate'].get(h)):>10}" for h in HYPOTHESES
                )
                acc = (
                    f"  acc={entry['accuracy']:.4f}"
                    if entry.get("accuracy") is not None
                    else ""
                )
                lines.append(f"{entry['checkpoint']:<24}{cells}{acc}")
    return "\n".join(lines) + "\n"


def _render_delimited(report):
    """One row per estimate.

    Each hypothesis's ATE (group ``*``) and CATE cells come first, then
    each checkpoint's ATEs and accuracy (group ``checkpoint:<name>``, with
    empty estimates on a failed checkpoint).
    """
    rows = []
    for hyp in HYPOTHESES:
        n = report.diagnostics.get(hyp, {}).get("rows", "")
        rows.append((hyp, "*", report.ate.get(hyp), n))
        for relation, cell in sorted(report.cate.get(hyp, {}).items()):
            rows.append((hyp, relation, cell["value"], cell["n_rows"]))
    for entry in report.series or ():
        group = f"checkpoint:{entry['checkpoint']}"
        values = {} if entry.get("error") else dict(entry["ate"], accuracy=entry.get("accuracy"))
        rows += [(name, group, values.get(name), "") for name in HYPOTHESES + ("accuracy",)]
    cells = ((name, group, "" if value is None else repr(value), str(n))
             for name, group, value, n in rows)
    return "".join(tsv_blocks(("hypothesis", "group", "estimate", "n_rows"), cells))


def render_report(report, fmt):
    if fmt == "structured":
        return json.dumps(asdict(report), indent=2, sort_keys=True, ensure_ascii=False) + "\n"
    if fmt == "table":
        return _render_table(report)
    if fmt == "delimited":
        return _render_delimited(report)
    raise ConfigError(f"unsupported output format: {fmt!r}")


def emit_report(report, fmt, path):
    """Write the report in the requested format; returns the path."""
    text = render_report(report, fmt)
    with landing(path) as fh:
        fh.write(text)
    return path


def _number(value):
    return value is None or isinstance(value, (int, float))


def _map_of(value, valid):
    return isinstance(value, dict) and all(map(valid, value.values()))


def _cate_cell(cell):
    return (
        isinstance(cell, dict)
        and "n_rows" in cell
        and "value" in cell
        and _number(cell["value"])
    )


def _series_entry(entry):
    return (
        isinstance(entry, dict)
        and isinstance(entry.get("checkpoint"), str)
        and (bool(entry.get("error")) or _map_of(entry.get("ate"), _number))
        and _number(entry.get("accuracy"))
    )


#: What the renderers read of each report field; only ``series`` may be missing.
_REPORT_FIELDS = {
    "source_id": lambda value: isinstance(value, str),
    "ate": lambda value: _map_of(value, _number),
    "cate": lambda value: _map_of(value, lambda cells: _map_of(cells, _cate_cell)),
    "diagnostics": lambda value: _map_of(value, lambda diag: isinstance(diag, dict)),
    "series": lambda value: value is None
    or (isinstance(value, list) and all(map(_series_entry, value))),
}


def load_report(path):
    """Reload a structured report; field-identical with the emitted one."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path} is not JSON: {exc.msg}", line=exc.lineno) from None
    for name, valid in _REPORT_FIELDS.items():
        if name != "series" and (not isinstance(data, dict) or name not in data):
            raise ParseError(f"{path} is not a structured report: no {name!r} field")
        if not valid(data.get(name)):
            raise ParseError(f"{path} is not a structured report: bad {name!r} field")
    report = EffectReport(**{name: data.get(name) for name in _REPORT_FIELDS})
    return report if report.series is None else replace(report, series=tuple(report.series))
