"""Command-line interface: parse flags, call one `pipeline` run, print.

Exit codes follow the class of the error that ends a command: 0
success, 1 input error (an `errors.InputError`, `OSError` or
`UnicodeDecodeError`, and command-line usage errors such as an unknown
flag), 2 estimation error (any other `CorpusCausalError`: empty
populations, zero covered mass, uncovered cloze keys; `estimate` writes
its report before it exits 2 when only some hypotheses fail). Configuration
lives in a flat ``key = value`` file; every key can be overridden by the
flag of the same name. Environment variables are never consulted for
run configuration.
"""

import contextlib
import sys
from pathlib import Path

import click

from . import pipeline
from .corpus import CorpusIndex, RelationView, build_index, landing
from .errors import CorpusCausalError, IncompleteReportError, InputError
from .kb import load_knowledge_base
from .predictions import HYPOTHESES


def _config_options(fn):
    """`--config`, then one flag per run setting (`pipeline.SETTINGS`)."""
    for key, setting in reversed(pipeline.SETTINGS.items()):
        choices, parse = setting.metadata["choices"], setting.metadata["parse"]
        kind = click.Choice(choices) if choices else click.INT if parse is int else None
        fn = click.option(f"--{key}", type=kind, default=None, help=setting.metadata["help"])(fn)
    return click.option("--config", "config_path", type=click.Path(), default=None,
                        help="Flat key = value config file.")(fn)


def _build_config(config_path, **overrides):
    config = pipeline.load_config(config_path) if config_path else pipeline.RunConfig()
    values = {key: overrides[setting.name] for key, setting in pipeline.SETTINGS.items()}
    return pipeline.merge_config(config, values)


class _Group(click.Group):
    """A click group that maps every failure of a run to its exit code.

    Top-level arguments fail in `parse_args`, a subcommand's arguments
    and body inside `invoke`.
    """

    def parse_args(self, ctx, args):
        with _exit_codes():
            return super().parse_args(ctx, args)

    def invoke(self, ctx):
        with _exit_codes():
            return super().invoke(ctx)


@contextlib.contextmanager
def _exit_codes():
    """Usage and input errors exit 1, other library errors 2.

    click exits 2 on a usage error (unknown option or subcommand, bad or
    missing argument), which this CLI reserves for estimation errors.
    """
    try:
        yield
    except click.UsageError as exc:
        exc.exit_code = 1
        raise
    except (InputError, OSError, UnicodeDecodeError) as exc:
        click.echo(f"input error: {exc}", err=True)
        sys.exit(1)
    except CorpusCausalError as exc:
        click.echo(f"estimation error: {exc}", err=True)
        sys.exit(2)


@click.group(cls=_Group)
def main():
    """Estimate causal effects of corpus statistics on model predictions."""


@main.command("index")
@click.argument("corpus", type=click.Path(exists=True))
@click.option("-o", "--output", required=True, type=click.Path())
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
def stats_cmd(index_path, kb_path, patterns_path, output):
    """Dump subject/object co-occurrence counts as tab-separated text."""
    idx = CorpusIndex.load(index_path)
    kb = load_knowledge_base(kb_path, patterns_path)
    lines = []
    for relation in kb.relations:
        rel = RelationView(idx, relation, kb.subjects(relation), kb.candidate_objects(relation))
        for subject, counts in zip(rel.subjects, rel.soc.tolist()):
            lines.extend(f"{subject}\t{obj}\t{n}" for obj, n in zip(rel.candidates, counts))
    text = "\n".join(lines) + "\n"
    if output:
        with landing(output) as fh:
            fh.write(text)
        click.echo(f"wrote {len(lines)} pair counts -> {output}")
    else:
        click.echo(text, nl=False)


@main.command("build-population")
@click.argument("hypothesis", type=click.Choice(HYPOTHESES + ("all",)))
@_config_options
def build_population_cmd(hypothesis, config_path, **overrides):
    """Build matched population tables and their cloze query files."""
    config = _build_config(config_path, **overrides)
    chosen = HYPOTHESES if hypothesis == "all" else (hypothesis,)
    out = Path(config.output_dir)
    for hyp, scored in pipeline.run_build_population(config, chosen):
        click.echo(f"{hyp}: {len(scored)} rows, {len(scored.pairs)} pairs -> {out}")


def _report_path(config):
    ext = {"structured": "json", "table": "txt", "delimited": "tsv"}[config.output_format]
    return Path(config.output_dir) / f"report.{ext}"


@main.command("estimate")
@_config_options
def estimate_cmd(config_path, **overrides):
    """Run the full estimation workflow and write the effect report.

    A hypothesis with no estimate is reported as ``n/a``; the report is
    still written, then the command exits as on an estimation error.
    """
    config = _build_config(config_path, **overrides)
    report = pipeline.run_estimate(config, emit_populations=True)
    path = pipeline.emit_report(report, config.output_format, _report_path(config))
    click.echo(
        "ATE: "
        + "  ".join(f"{h}={pipeline.format_value(report.ate[h])}" for h in HYPOTHESES)
        + f"  -> {path}"
    )
    failures = report.failures()
    if failures:
        raise IncompleteReportError(
            "; ".join(f"{hyp}: {reason}" for hyp, reason in failures.items())
        )


@main.command("dynamics")
@click.option("--checkpoints", "checkpoints_dir", required=True,
              type=click.Path(exists=True),
              help="Directory of per-checkpoint prediction files.")
@_config_options
def dynamics_cmd(checkpoints_dir, config_path, **overrides):
    """Score every checkpoint's predictions and emit the ATE series."""
    config = _build_config(config_path, **overrides)
    paths = [str(p) for p in Path(checkpoints_dir).iterdir() if p.is_file()]
    report = pipeline.run_dynamics(config, paths)
    Path(config.output_dir).mkdir(parents=True, exist_ok=True)
    path = pipeline.emit_report(report, config.output_format, _report_path(config))
    click.echo(f"{len(report.series)} checkpoints -> {path}")


@main.command("report")
@click.argument("report_path", type=click.Path(exists=True))
@click.option("--format", "fmt", default="table",
              type=click.Choice(pipeline.REPORT_FORMATS), show_default=True)
@click.option("-o", "--output", default=None, type=click.Path())
def report_cmd(report_path, fmt, output):
    """Re-render a structured report in another format."""
    report = pipeline.load_report(report_path)
    text = pipeline.render_report(report, fmt)
    if output:
        with landing(output) as fh:
            fh.write(text)
        click.echo(f"wrote {output}")
    else:
        click.echo(text, nl=False)


if __name__ == "__main__":
    main()
