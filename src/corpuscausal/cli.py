"""Command-line interface.

Exit codes: 0 success, 1 input error (unreadable/malformed inputs or
configuration, and command-line usage errors such as an unknown flag),
2 estimation error (empty populations, zero covered mass, uncovered
cloze keys). Configuration lives in a flat ``key = value`` file; every
key can be overridden by the flag of the same name. Environment
variables are never consulted for run configuration.
"""

import contextlib
import functools
import sys
from pathlib import Path

import click

from . import pipeline
from .corpus import CorpusIndex, build_index, instantiate
from .errors import (
    CandidateViolationError,
    ConfigError,
    CorpusCausalError,
    DuplicateKeyError,
    EmptyKbError,
    EncodingError,
    IoFailureError,
    MalformedPatternError,
    MissingStatsError,
    ParseError,
    UnknownRelationError,
)
from .kb import load_knowledge_base
from .population import score_population, write_population
from .predictions import HYPOTHESES

_INPUT_ERRORS = (
    ConfigError,
    ParseError,
    IoFailureError,
    EncodingError,
    EmptyKbError,
    UnknownRelationError,
    CandidateViolationError,
    DuplicateKeyError,
    MalformedPatternError,
    MissingStatsError,
    OSError,
    UnicodeDecodeError,
)


def _exit_codes(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except _INPUT_ERRORS as exc:
            click.echo(f"input error: {exc}", err=True)
            sys.exit(1)
        except CorpusCausalError as exc:
            click.echo(f"estimation error: {exc}", err=True)
            sys.exit(2)

    return wrapper


def _config_options(fn):
    options = [
        click.option("--config", "config_path", type=click.Path(), default=None,
                     help="Flat key = value config file."),
        click.option("--kb", default=None, help="Triplet file (JSON lines)."),
        click.option("--patterns", default=None, help="Pattern file (JSON lines)."),
        click.option("--corpus", default=None, help="Corpus text file or directory."),
        click.option("--index", default=None, help="Prebuilt corpus index."),
        click.option("--predictions", default=None,
                     help="Prediction file or baseline:<kind> spec."),
        click.option("--output-dir", default=None, help="Directory for outputs."),
        click.option("--mask-token", default=None, help="Cloze mask token."),
        click.option("--min-poc-frequency", default=None, type=int,
                     help="Pattern-object frequency floor (exclusive)."),
        click.option("--bin-edges", default=None,
                     help="Four increasing count-bin edges, comma separated."),
        click.option("--output-format", default=None,
                     type=click.Choice(pipeline.REPORT_FORMATS)),
        click.option("--cache-dir", default=None, help="Population cache directory."),
    ]
    for option in reversed(options):
        fn = option(fn)
    return fn


def _build_config(config_path, **overrides):
    if config_path:
        config = pipeline.load_config(config_path)
    else:
        config = pipeline.RunConfig()
    mapped = {key.replace("_", "-"): value for key, value in overrides.items()}
    return pipeline.merge_config(config, mapped)


class _Group(click.Group):
    """A click group whose usage errors exit 1, the input-error code.

    click exits 2 on a usage error (unknown option or subcommand, bad or
    missing argument), which this CLI reserves for estimation errors.
    Top-level arguments fail in `parse_args`, a subcommand's inside `invoke`.
    """

    def parse_args(self, ctx, args):
        with _usage_errors_exit_1():
            return super().parse_args(ctx, args)

    def invoke(self, ctx):
        with _usage_errors_exit_1():
            return super().invoke(ctx)


@contextlib.contextmanager
def _usage_errors_exit_1():
    try:
        yield
    except click.UsageError as exc:
        exc.exit_code = 1
        raise


@click.group(cls=_Group)
def main():
    """Estimate causal effects of corpus statistics on model predictions."""


@main.command("index")
@click.argument("corpus", type=click.Path(exists=True))
@click.option("-o", "--output", required=True, type=click.Path())
@_exit_codes
def index_cmd(corpus, output):
    """Index a corpus file or directory and write the binary index."""
    idx = build_index(corpus)
    idx.save(output)
    click.echo(f"indexed {len(idx)} sentences -> {output}")


@main.command("stats")
@click.argument("index_path", type=click.Path(exists=True))
@click.option("--kb", "kb_path", required=True, type=click.Path(exists=True))
@click.option("--patterns", "patterns_path", required=True, type=click.Path(exists=True))
@click.option("-o", "--output", default=None, type=click.Path(),
              help="Write the dump here instead of stdout.")
@_exit_codes
def stats_cmd(index_path, kb_path, patterns_path, output):
    """Dump subject/object co-occurrence counts as tab-separated text."""
    idx = CorpusIndex.load(index_path)
    kb = load_knowledge_base(kb_path, patterns_path)
    lines = []
    for relation in kb.relations:
        candidates = kb.candidate_objects(relation)
        for subject in kb.subjects(relation):
            for obj in candidates:
                lines.append(f"{subject}\t{obj}\t{idx.soc_count(subject, obj)}")
    text = "\n".join(lines) + "\n"
    if output:
        Path(output).write_text(text, encoding="utf-8")
        click.echo(f"wrote {len(lines)} pair counts -> {output}")
    else:
        click.echo(text, nl=False)


@main.command("build-population")
@click.argument("hypothesis", type=click.Choice(HYPOTHESES + ("all",)))
@_config_options
@_exit_codes
def build_population_cmd(hypothesis, config_path, **overrides):
    """Build matched population tables and their cloze query files."""
    config = _build_config(config_path, **overrides).validate()
    spec = config.predictions_spec()
    chosen = HYPOTHESES if hypothesis == "all" else (hypothesis,)
    rt = pipeline._Runtime(config, chosen)
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    for hyp in chosen:
        prediction_set = rt.predictions_for(hyp, spec)
        scored = score_population(rt.populations[hyp], prediction_set)
        write_population(scored, out / f"{hyp}_population.tsv", out / f"{hyp}_pairs.tsv")
        with open(out / f"{hyp}_queries.tsv", "w", encoding="utf-8") as fh:
            fh.write("subject\trelation\ttemplate\tcloze\n")
            for subject, relation, template in rt.cloze_keys[hyp]:
                cloze = instantiate(template, subject, config.mask_token)
                fh.write(f"{subject}\t{relation}\t{template}\t{cloze}\n")
        click.echo(f"{hyp}: {len(scored.rows)} rows, {len(scored.pairs)} pairs -> {out}")


def _report_path(config):
    ext = {"structured": "json", "table": "txt", "delimited": "tsv"}[config.output_format]
    return Path(config.output_dir) / f"report.{ext}"


@main.command("estimate")
@_config_options
@_exit_codes
def estimate_cmd(config_path, **overrides):
    """Run the full estimation workflow and write the effect report."""
    config = _build_config(config_path, **overrides).validate()
    report = pipeline.run_estimate(config, emit_populations=True)
    Path(config.output_dir).mkdir(parents=True, exist_ok=True)
    path = pipeline.emit_report(report, config.output_format, _report_path(config))
    click.echo(
        "ATE: "
        + "  ".join(f"{h}={report.ate[h]:.2f}" for h in HYPOTHESES)
        + f"  -> {path}"
    )


@main.command("dynamics")
@click.option("--checkpoints", "checkpoints_dir", required=True,
              type=click.Path(exists=True),
              help="Directory of per-checkpoint prediction files.")
@_config_options
@_exit_codes
def dynamics_cmd(checkpoints_dir, config_path, **overrides):
    """Score every checkpoint's predictions and emit the ATE series."""
    config = _build_config(config_path, **overrides).validate()
    paths = sorted(
        str(p) for p in Path(checkpoints_dir).iterdir() if p.is_file()
    )
    report = pipeline.run_dynamics(config, paths)
    Path(config.output_dir).mkdir(parents=True, exist_ok=True)
    path = pipeline.emit_report(report, config.output_format, _report_path(config))
    click.echo(f"{len(report.series)} checkpoints -> {path}")


@main.command("report")
@click.argument("report_path", type=click.Path(exists=True))
@click.option("--format", "fmt", default="table",
              type=click.Choice(pipeline.REPORT_FORMATS), show_default=True)
@click.option("-o", "--output", default=None, type=click.Path())
@_exit_codes
def report_cmd(report_path, fmt, output):
    """Re-render a structured report in another format."""
    report = pipeline.load_report(report_path)
    text = pipeline.render_report(report, fmt)
    if output:
        Path(output).write_text(text, encoding="utf-8")
        click.echo(f"wrote {output}")
    else:
        click.echo(text, nl=False)


if __name__ == "__main__":
    main()
