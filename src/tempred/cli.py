"""Command-line entry point.

    tempred analyze --source <repo-or-bundle> [options]
    tempred export-bundle --source <repo> --out <dir>
    tempred oracle --bundle <dir>
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from pathlib import Path

import click

from .errors import ConfigurationError
from .fragmenter import Granularity
from .history import (
    DEFAULT_EXCLUDE_GLOBS,
    DEFAULT_INCLUDE_GLOBS,
    export_bundle,
    open_repository,
)
from .redundancy import Scope
from .report import (
    DEFAULT_DIFF_SIZE_CAP,
    AnalysisConfig,
    emit_report,
    run_analysis,
)


def _comma_list(kind):
    """A click callback parsing a comma-separated list of ``kind`` values."""

    def parse(_ctx, _param, value: str) -> tuple:
        try:
            return tuple(kind(part.strip()) for part in value.split(",") if part.strip())
        except ValueError as exc:
            raise click.BadParameter(str(exc))

    return parse


@contextmanager
def _user_errors():
    """End a command with an ``Error:`` line and exit status 1, not a traceback."""
    try:
        yield
    except (ConfigurationError, OSError) as exc:
        raise click.ClickException(str(exc))


def _write_output(text: str, out: str) -> None:
    if out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


@click.group()
@click.version_option(package_name="tempred")
def main() -> None:
    """Measure temporal redundancy: the share of a project's commits whose
    added lines or tokens were all introduced by earlier commits."""


@main.command()
@click.option("--source", "sources", multiple=True, required=True,
              type=click.Path(exists=True, file_okay=False),
              help="Repository or bundle directory; repeat for several projects.")
@click.option("--bundle", is_flag=True, help="Treat sources as history bundles.")
@click.option("--branch", default="HEAD", show_default=True)
@click.option("--since", type=int, default=None, help="Earliest commit timestamp (epoch).")
@click.option("--until", type=int, default=None, help="Latest commit timestamp (epoch).")
@click.option("--granularity", "granularities", default="line,token", show_default=True,
              callback=_comma_list(Granularity), help="Comma-separated: line,token.")
@click.option("--scope", "scopes", default="global,local", show_default=True,
              callback=_comma_list(Scope), help="Comma-separated: global,local.")
@click.option("--include", "include_globs", multiple=True, default=DEFAULT_INCLUDE_GLOBS,
              help=f"Include glob (repeatable). Default: {', '.join(DEFAULT_INCLUDE_GLOBS)}")
@click.option("--exclude", "exclude_globs", multiple=True, default=DEFAULT_EXCLUDE_GLOBS,
              help=f"Exclude glob (repeatable). Default: {', '.join(DEFAULT_EXCLUDE_GLOBS)}")
@click.option("--normalize", type=click.Choice(["pre", "post"]), default="pre",
              show_default=True,
              help="pre: strip comments/whitespace before diffing; "
                   "post: diff raw lines, then drop comment/blank fragments.")
@click.option("--format", "output_format", type=click.Choice(["json", "csv", "table"]),
              default="table", show_default=True)
@click.option("--trace-commits", is_flag=True,
              help="Keep per-commit classifications and include them in JSON output.")
@click.option("--diff-size-cap", type=int, default=DEFAULT_DIFF_SIZE_CAP, show_default=True,
              help="Skip files whose fragment count exceeds this.")
@click.option("--out", default="-", show_default=True, help="Output file, or - for stdout.")
def analyze(sources, out, **options):
    """Run the full pipeline over one or more repositories or bundles."""
    with _user_errors():
        reports = [run_analysis(AnalysisConfig(source=source, **options)) for source in sources]
        _write_output(emit_report(reports, options["output_format"]), out)


@main.command("export-bundle")
@click.option("--source", required=True, type=click.Path(exists=True, file_okay=False),
              help="Repository to export.")
@click.option("--out", required=True, type=click.Path(file_okay=False),
              help="Bundle directory to create.")
@click.option("--branch", default="HEAD", show_default=True)
@click.option("--since", type=int, default=None)
@click.option("--until", type=int, default=None)
def export_bundle_cmd(source, out, branch, since, until):
    """Export a repository's commit stream as a portable history bundle."""
    with _user_errors():
        stream = open_repository(source, branch=branch, since=since, until=until)
        export_bundle(stream, out)
    click.echo(f"bundle written to {out}")


@main.command()
@click.option("--bundle", "source", required=True,
              type=click.Path(exists=True, file_okay=False),
              help="History bundle to classify with the naive reference.")
@click.option("--granularity", "granularities", default="line,token", show_default=True,
              callback=_comma_list(Granularity))
@click.option("--scope", "scopes", default="global,local", show_default=True,
              callback=_comma_list(Scope))
@click.option("--out", default="-", show_default=True)
def oracle(source, out, **options):
    """Run the brute-force reference classifier (test/diagnostic use)."""
    from .synth import oracle_classify  # only this command needs synth

    with _user_errors():
        config = AnalysisConfig(source=source, bundle=True, **options)
        _write_output(emit_report(oracle_classify(source, config), "json"), out)


if __name__ == "__main__":
    main()
