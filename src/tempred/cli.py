"""Command-line entry point.

    tempred analyze --source <repo-or-bundle> [options]
    tempred export-bundle --source <repo> --out <dir>
    tempred oracle --bundle <dir>

A usage error (an unknown option, a bad value, a missing directory) exits
with status 2 and argparse's message; a runtime error exits with status 1
and one ``Error: <message>`` line on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import __version__
from .errors import ConfigurationError
from .fragmenter import Granularity
from .history import DEFAULT_EXCLUDE_GLOBS, DEFAULT_INCLUDE_GLOBS, export_bundle, open_repository
from .redundancy import Scope
from .report import DEFAULT_DIFF_SIZE_CAP, AnalysisConfig, emit_report, run_analysis


def _comma_list(kind):
    """An argparse type parsing a comma-separated list of ``kind`` values."""

    def parse(value: str) -> tuple:
        try:
            return tuple(kind(part.strip()) for part in value.split(",") if part.strip())
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def _directory(must_exist: bool):
    """An argparse type for a directory path: never a file, and, if
    ``must_exist``, an existing path."""

    def check(value: str) -> str:
        if must_exist and not os.path.exists(value):
            raise argparse.ArgumentTypeError(f"directory {value!r} does not exist")
        if os.path.isfile(value):
            raise argparse.ArgumentTypeError(f"directory {value!r} is a file")
        return value

    return check


def _write_output(text: str, out: str) -> None:
    if out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _analyze(sources, out, **options) -> None:
    configs = [AnalysisConfig(source=source, **options) for source in sources]
    _write_output(emit_report([run_analysis(c) for c in configs], configs[0].output_format), out)


def _export_bundle(source, out, **options) -> None:
    export_bundle(open_repository(source, **options), out)
    print(f"bundle written to {out}")


def _oracle(source, out, **options) -> None:
    from .synth import oracle_classify  # only this command needs synth

    config = AnalysisConfig(source=source, bundle=True, **options)
    _write_output(emit_report(oracle_classify(source, config), "json"), out)


def _parser() -> argparse.ArgumentParser:
    # Options left out of the command line are left out of the namespace
    # (``argument_default=SUPPRESS``), so AnalysisConfig's and
    # open_repository's own defaults apply; the help text names them.
    parser = argparse.ArgumentParser(
        prog="tempred", allow_abbrev=False,
        description="Measure temporal redundancy: the share of a project's commits whose "
                    "added lines or tokens were all introduced by earlier commits.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s, version {__version__}")
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    def command(name: str, run, description: str) -> argparse.ArgumentParser:
        sub = commands.add_parser(name, help=description, description=description,
                                  allow_abbrev=False, argument_default=argparse.SUPPRESS)
        sub.set_defaults(run=run)
        return sub

    def selection(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--granularity", dest="granularities", metavar="LIST",
                         type=_comma_list(Granularity),
                         help="Comma-separated: line,token. (default: line,token)")
        sub.add_argument("--scope", dest="scopes", metavar="LIST", type=_comma_list(Scope),
                         help="Comma-separated: global,local. (default: global,local)")

    def window(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--branch", help="(default: HEAD)")
        sub.add_argument("--since", type=int, metavar="EPOCH",
                         help="Earliest commit timestamp (epoch).")
        sub.add_argument("--until", type=int, metavar="EPOCH",
                         help="Latest commit timestamp (epoch).")

    analyze = command("analyze", _analyze,
                      "Run the full pipeline over one or more repositories or bundles.")
    analyze.add_argument("--source", dest="sources", metavar="DIR", action="append",
                         required=True, type=_directory(must_exist=True),
                         help="Repository or bundle directory; repeat for several projects.")
    analyze.add_argument("--bundle", action="store_true",
                         help="Treat sources as history bundles.")
    window(analyze)
    selection(analyze)
    analyze.add_argument("--include", dest="include_globs", metavar="GLOB", action="append",
                         help="Include glob (repeatable). "
                              f"Default: {', '.join(DEFAULT_INCLUDE_GLOBS)}")
    analyze.add_argument("--exclude", dest="exclude_globs", metavar="GLOB", action="append",
                         help="Exclude glob (repeatable). "
                              f"Default: {', '.join(DEFAULT_EXCLUDE_GLOBS)}")
    analyze.add_argument("--normalize", choices=["pre", "post"],
                         help="pre: strip comments/whitespace before diffing; "
                              "post: diff raw lines, then drop comment/blank fragments. "
                              "(default: pre)")
    analyze.add_argument("--format", dest="output_format", choices=["json", "csv", "table"],
                         help="(default: table)")
    analyze.add_argument("--trace-commits", action="store_true",
                         help="Keep per-commit classifications and include them in JSON "
                              "output.")
    analyze.add_argument("--diff-size-cap", type=int, metavar="N",
                         help="Skip files whose fragment count exceeds this. "
                              f"(default: {DEFAULT_DIFF_SIZE_CAP})")
    analyze.add_argument("--out", default="-", help="Output file, or - for stdout. (default: -)")

    export = command("export-bundle", _export_bundle,
                     "Export a repository's commit stream as a portable history bundle.")
    export.add_argument("--source", metavar="DIR", required=True,
                        type=_directory(must_exist=True), help="Repository to export.")
    export.add_argument("--out", metavar="DIR", required=True,
                        type=_directory(must_exist=False), help="Bundle directory to create.")
    window(export)

    oracle = command("oracle", _oracle,
                     "Run the brute-force reference classifier (test/diagnostic use).")
    oracle.add_argument("--bundle", dest="source", metavar="DIR", required=True,
                        type=_directory(must_exist=True),
                        help="History bundle to classify with the naive reference.")
    selection(oracle)
    oracle.add_argument("--out", default="-", help="(default: -)")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; return its exit status. A usage error, ``--help`` and
    ``--version`` end in argparse's ``SystemExit``."""
    options = vars(_parser().parse_args(argv))
    run = options.pop("run")
    try:
        run(**options)
    except (ConfigurationError, OSError) as exc:
        print(f"Error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("\nAborted!", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
