"""Deterministic benchmark workloads, built from a seed with no download.

Each builder writes its input under a directory it is given and returns the
path to analyze. The same seed gives byte-identical bundles and the same git
HEAD sha; nothing here reads the clock, and git runs without user or
system configuration.

* ``bundle-3k``: a ``synth.HistorySpec`` bundle, the paper's steady state of
  small edits to files whose previous version was just seen.
* ``git-3k``: the same history written as a git repository by one
  ``git fast-import`` stream with fixed identities and dates.
* ``rewrites``: whole-file rewrites with mostly fresh lines, where the token
  diff's edit distance dominates and the fragment caches hit almost nothing.
"""

from __future__ import annotations

import os
import random
import subprocess
from pathlib import Path

from tempred.history import CommitRecord, FileChange, export_bundle, load_history_bundle
from tempred.synth import HistorySpec, generate_history

BUNDLE_COMMITS = 3000
REWRITE_COMMITS = 110

# Environment for every git process the benchmark starts or causes: no user
# or system configuration may change what git writes or reports.
GIT_ENV = {"GIT_CONFIG_NOSYSTEM": "1", "GIT_CONFIG_GLOBAL": os.devnull}

_COMMITTER = b"tempred-bench <bench@example.invalid>"


def git_env() -> dict[str, str]:
    return {**os.environ, **GIT_ENV}


def bundle_spec(seed: int, commits: int = BUNDLE_COMMITS) -> HistorySpec:
    return HistorySpec(
        seed=seed,
        commit_count=commits,
        file_count=40,
        fragment_alphabet_size=20000,
        reuse_probability=0.5,
        locality_bias=0.5,
        token_recombination=0.3,
    )


def build_bundle(out_dir: Path, seed: int, commits: int = BUNDLE_COMMITS) -> Path:
    return generate_history(bundle_spec(seed, commits), out_dir)


def fast_import_stream(commits: list[CommitRecord]) -> bytes:
    """One ``git fast-import`` stream that replays a commit list on ``main``.

    The bundle's commit id becomes the commit message; committer and date
    are fixed per commit, so the resulting shas depend only on the history.
    """
    out: list[bytes] = []
    for commit in commits:
        message = commit.commit_id.encode("utf-8")
        out.append(b"commit refs/heads/main\n")
        out.append(b"committer %s %d +0000\n" % (_COMMITTER, commit.timestamp))
        out.append(b"data %d\n%s\n" % (len(message), message))
        for fc in commit.file_changes:
            path = fc.path.encode("utf-8")
            if fc.after is None:
                out.append(b"D %s\n" % path)
            else:
                data = fc.after.encode("utf-8")
                out.append(b"M 100644 inline %s\ndata %d\n%s\n" % (path, len(data), data))
        out.append(b"\n")
    return b"".join(out)


def build_git(out_dir: Path, bundle_dir: Path) -> Path:
    """Write the bundle's history as a git repository at ``out_dir``."""
    commits = list(load_history_bundle(bundle_dir))
    out_dir.mkdir(parents=True)
    env = git_env()
    subprocess.run(["git", "init", "-q", "-b", "main", str(out_dir)], env=env, check=True)
    subprocess.run(
        ["git", "-C", str(out_dir), "fast-import", "--quiet", "--date-format=raw"],
        input=fast_import_stream(commits), env=env, check=True,
    )
    return out_dir


def head_sha(repo: Path) -> str:
    proc = subprocess.run(["git", "-C", str(repo), "rev-parse", "HEAD"], env=git_env(),
                          check=True, stdout=subprocess.PIPE)
    return proc.stdout.decode("ascii").strip()


# ---------------------------------------------------------------------------
# Whole-file rewrites
# ---------------------------------------------------------------------------

REWRITE_FILES = 4
REWRITE_REUSE = 0.3
# Lines per ordinary rewrite: one fixed multiset, shuffled per seed, so every
# seed has the same size distribution and only contents and order change.
# About 10 tokens a line puts the token diff's D at a few hundred.
REWRITE_SIZES = tuple(20 + i % 41 for i in range(REWRITE_COMMITS))
# One version this long, rewritten again by the next commit, gives the two
# largest pairs. With the ordinary sizes above it keeps D under about 4,000,
# well inside what the quadratic-memory differ finishes.
REWRITE_BIG_LINES = 360
_TIMESTAMP_BASE = 1_600_000_000


class _RewriteGenerator:
    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.serial = 0

    def fresh_line(self) -> str:
        """A Java-ish statement that declares an identifier no other line has.

        Templates take turns rather than being drawn, so a version's token
        count, and with it D, hardly depends on the seed.
        """
        rng = self.rng
        self.serial += 1
        v = f"r{self.serial}"
        w = f"r{rng.randrange(1, self.serial + 1)}"
        lit = rng.randrange(1000)
        return (
            f"int {v} = {w} + {lit};",
            f"{v} = compute{lit % 13}({w}, {lit});",
            f"if ({w} > {lit}) {{ {v} = {w} - {lit}; }}",
            f"for (int i = 0; i < {lit}; i++) {{ {v} += {w}; }}",
            f'String {v} = "s{lit}";',
            f"return {v} * {w};",
        )[self.serial % 6]

    def version(self, old: list[str], size: int) -> list[str]:
        """``size`` lines: a random in-order subsequence of ``old`` for the
        reused share, fresh statements in between."""
        rng = self.rng
        reused = min(len(old), round(REWRITE_REUSE * size))
        kept = iter(old[i] for i in sorted(rng.sample(range(len(old)), reused)))
        slots = set(rng.sample(range(size), reused))
        return [next(kept) if i in slots else self.fresh_line() for i in range(size)]


def _java_text(name: str, body: list[str]) -> str:
    return "\n".join([f"public class {name} {{", *body, "}"]) + "\n"


def rewrite_commits(seed: int, commits: int = REWRITE_COMMITS) -> list[CommitRecord]:
    """Commit 0 adds every file; each later commit rewrites one of them."""
    gen = _RewriteGenerator(seed)
    rng = gen.rng
    sizes = list(REWRITE_SIZES[:commits])
    rng.shuffle(sizes)
    big = rng.randrange(1, commits - 1) if commits > 2 else -1
    names = [f"Rewrite{i}" for i in range(REWRITE_FILES)]
    bodies: dict[str, list[str]] = {}
    records = []
    target = None
    for index in range(commits):
        if index == 0:
            changes = []
            for name in names:
                bodies[name] = gen.version([], sizes[0])
                changes.append(FileChange(f"src/main/{name}.java", None,
                                          _java_text(name, bodies[name])))
        else:
            # The commit after the big one rewrites the same file again.
            if index != big + 1:
                target = names[rng.randrange(REWRITE_FILES)]
            size = REWRITE_BIG_LINES if index == big else sizes[index]
            old = bodies[target]
            bodies[target] = gen.version(old, size)
            changes = [FileChange(f"src/main/{target}.java", _java_text(target, old),
                                  _java_text(target, bodies[target]))]
        records.append(CommitRecord(commit_id=f"rw{seed}-{index}", order_index=index,
                                    timestamp=_TIMESTAMP_BASE + 600 * index,
                                    file_changes=changes))
    return records


def build_rewrites(out_dir: Path, seed: int, commits: int = REWRITE_COMMITS) -> Path:
    return export_bundle(rewrite_commits(seed, commits), out_dir)
