"""Digests of tempred's reports over a fixed set of runs, to show that a
change leaves every report byte-identical. From the repository root, in
bash:

    diff <(python3 tools/report_digests.py) tools/report_digests.txt

Builds three histories with the benchmark's builders (``bench/workloads.py``,
imported read-only) in a temporary directory: ``git-3k`` seed 1,
``rewrites`` seed 3 and ``bundle-3k`` seed 7. Then runs 62
``tempred analyze --format json`` configurations and two
``tempred oracle --bundle`` runs on ``rewrites`` and one ``tempred
export-bundle`` of ``git-3k``, each in a fresh ``python -m tempred.cli``
whose ``PYTHONPATH`` is this checkout's ``src``, and prints one line per
run: its label, the sha256 of its stdout, the sha256 of its stderr and its
exit status. The export's line adds a fifth field, the sha256 of the tree it
wrote: every file's relative path and the sha256 of its content, in path
order. Sources are named relative to the temporary directory, so the
reports do not depend on where it is.

``tools/report_digests.txt`` holds the expected output, and the command
above checks a change against it: an empty ``diff`` means every report is
unchanged. A change that alters output on purpose regenerates the file
(``python3 tools/report_digests.py > tools/report_digests.txt``) in the
same commit, and its diff names the runs that changed.
"""

from __future__ import annotations

import hashlib
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# (name, cli source options, --diff-size-cap for the cap runs)
SOURCES = [
    ("git-3k", ["--source", "git-3k"], 300),
    ("rewrites", ["--source", "rewrites", "--bundle"], 2000),
    ("bundle-3k", ["--source", "bundle-3k", "--bundle"], 300),
]
WINDOW = ["--since", "1577900000", "--until", "1581000000"]
MODES = [(f"{normalize}{'+trace' if trace else ''}",
          ["--normalize", normalize, *(["--trace-commits"] if trace else [])])
         for normalize in ("pre", "post") for trace in (False, True)]
EXPORT_OUT = "git-3k-export"


def build(work: Path) -> None:
    sys.dont_write_bytecode = True  # leave bench/ as it is
    sys.path[:0] = [str(SRC), str(ROOT / "bench")]
    from workloads import build_bundle, build_git, build_rewrites

    build_git(work / "git-3k", build_bundle(work / "git-3k-bundle", 1))
    build_rewrites(work / "rewrites", 3)
    build_bundle(work / "bundle-3k", 7)


def tree_digest(root: Path) -> str:
    """The sha256 of every file under ``root``: its relative path and the
    sha256 of its content, one line each, in path order."""
    lines = [f"{path.relative_to(root).as_posix()}\t"
             f"{hashlib.sha256(path.read_bytes()).hexdigest()}\n"
             for path in sorted(root.rglob("*")) if path.is_file()]
    return hashlib.sha256("".join(lines).encode("utf-8")).hexdigest()


def runs() -> list[tuple[str, list[str]]]:
    """(label, tempred arguments) of every run, in the order printed."""
    out = []
    for mode, options in MODES:
        for name, source, _ in SOURCES:
            out.append((f"{name} {mode}", [*source, *options]))
        for name, source, _ in SOURCES:
            if name != "rewrites":
                out.append((f"{name} window {mode}", [*source, *WINDOW, *options]))
        for granularity in ("line", "token"):
            for name, source, _ in SOURCES:
                out.append((f"{name} {granularity} {mode}",
                            [*source, "--granularity", granularity, *options]))
        for name, source, cap in SOURCES:
            out.append((f"{name} cap {cap} {mode}",
                        [*source, "--diff-size-cap", str(cap), *options]))
    for granularity in ("line", "token"):
        for name, source, cap in SOURCES:
            out.append((f"{name} cap {cap} {granularity}",
                        [*source, "--diff-size-cap", str(cap), "--granularity", granularity]))
    analyze = [(label, ["analyze", *args, "--format", "json"]) for label, args in out]
    return analyze + [
        ("rewrites oracle", ["oracle", "--bundle", "rewrites"]),
        ("rewrites oracle line local",
         ["oracle", "--bundle", "rewrites", "--granularity", "line", "--scope", "local"]),
        ("git-3k export-bundle", ["export-bundle", "--source", "git-3k", "--out", EXPORT_OUT]),
    ]


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="tempred-digests-") as tmp:
        work = Path(tmp)
        build(work)
        from workloads import git_env

        env = {**git_env(), "PYTHONPATH": str(SRC)}
        for label, args in runs():
            proc = subprocess.run([sys.executable, "-m", "tempred.cli", *args], cwd=work,
                                  env=env, capture_output=True)
            fields = [label, hashlib.sha256(proc.stdout).hexdigest(),
                      hashlib.sha256(proc.stderr).hexdigest(), str(proc.returncode)]
            if args[0] == "export-bundle":
                fields.append(tree_digest(work / EXPORT_OUT))
            print("\t".join(fields), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
