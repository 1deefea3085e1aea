"""The one-stream git reader against the per-commit ``git diff-tree`` reader it
replaced, plus its failure, shallow-clone and early-close behaviour."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from contextlib import closing
from pathlib import Path

import pytest

import tempred
from tempred.errors import GitError
from tempred.history import (
    CommitRecord,
    FileChange,
    _BlobReader,
    _git,
    _parse_log,
    open_repository,
)

# ---------------------------------------------------------------------------
# Reference: one `git diff-tree` process per commit
# ---------------------------------------------------------------------------

_NULL_SHA = re.compile(r"^0+$")


def _parse_diff_tree(raw: bytes) -> list[tuple[str, str, str, str, str, str]]:
    """Parse ``git diff-tree -z`` output into
    (old_mode, new_mode, old_sha, new_sha, status, path) tuples."""
    fields = raw.split(b"\0")
    entries = []
    i = 0
    while i < len(fields) and fields[i]:
        meta = fields[i].decode("utf-8", "replace")
        if not meta.startswith(":"):
            raise RuntimeError(f"unexpected diff-tree record: {meta!r}")
        old_mode, new_mode, old_sha, new_sha, status = meta[1:].split(" ")
        path = fields[i + 1].decode("utf-8", "replace")
        entries.append((old_mode, new_mode, old_sha, new_sha, status, path))
        i += 2
    return entries


def diff_tree_reference(repo: Path, branch: str = "HEAD", since: int | None = None,
                        until: int | None = None, on_warning=None) -> list[CommitRecord]:
    """List the first-parent chain, then diff each kept commit against its
    first parent (or, for the root, against the empty tree) in its own
    ``git diff-tree`` process."""
    warn = on_warning or (lambda _msg: None)
    raw = _git(repo, "log", "--first-parent", "--reverse", "--format=%H %ct %P", branch)
    selected = []
    for line in raw.decode("ascii").splitlines():
        sha, ts, *parents = line.split()
        if len(parents) >= 2:
            continue  # merge commit
        if since is not None and int(ts) < since:
            continue
        if until is not None and int(ts) > until:
            continue
        selected.append((sha, int(ts), parents[0] if parents else None))

    records = []
    with closing(_BlobReader(repo)) as reader:
        for order_index, (sha, ts, parent) in enumerate(selected):
            base = [parent] if parent is not None else ["--root"]
            args = ["diff-tree", "-r", "-z", "--no-renames", "--no-commit-id", *base, sha]
            changes: list[FileChange] = []
            for old_mode, new_mode, old_sha, new_sha, _status, fpath in _parse_diff_tree(
                _git(repo, *args)
            ):
                if "160000" in (old_mode, new_mode):
                    continue  # submodule pointer, out of scope
                before_sha = None if _NULL_SHA.match(old_sha) else old_sha
                after_sha = None if _NULL_SHA.match(new_sha) else new_sha
                if before_sha == after_sha:
                    continue  # mode-only change
                binary = False
                before = after = None
                if before_sha is not None:
                    data = reader.read(before_sha)
                    binary = b"\0" in data
                    before = data.decode("utf-8", "replace")
                if after_sha is not None and not binary:
                    data = reader.read(after_sha)
                    binary = b"\0" in data
                    after = data.decode("utf-8", "replace")
                if binary:
                    warn(f"skipping binary file {fpath} in commit {sha}")
                    continue
                if before == after:
                    continue  # no-op after decoding
                changes.append(FileChange(path=fpath, before=before, after=after))
            records.append(CommitRecord(commit_id=sha, order_index=order_index, timestamp=ts,
                                        file_changes=changes))
    return records


# ---------------------------------------------------------------------------
# A repository with every case the readers treat specially
# ---------------------------------------------------------------------------

T0 = 1_600_000_000


@pytest.fixture
def tricky_repo(git_repo):
    """Root with several files, edits, a merge that adds a side-branch file,
    deletions, a rename, binary files, a mode-only change, gitlinks, paths with
    spaces and non-ASCII characters, and empty commits."""
    r = git_repo
    ts = iter(range(T0, T0 + 60 * 100, 60))
    base = r.commit({"src/A.java": "int a = 1;\n", "src/B.java": "int b = 1;\n",
                     "README.md": "readme\n", "src/with space.java": "int s = 1;\n",
                     "src/Ünïcödé.java": "int u = 1;\n"}, timestamp=next(ts))
    r.commit({"src/A.java": "int a = 2;\n"}, timestamp=next(ts))
    r.commit({}, message="empty", timestamp=next(ts))
    r.branch_from("side", base)
    r.commit({"src/Side.java": "int side = 1;\n"}, timestamp=next(ts))
    r.checkout("main")
    r.merge("side")
    r.commit({"src/Side.java": "int side = 2;\n", "src/B.java": None}, timestamp=next(ts))
    r.commit_binary("img.bin", b"\x89PNG\x00\x01")
    r.commit({"src/with space.java": "int s = 2;\0binary now\n"}, timestamp=next(ts))
    os.chmod(r.path / "src/A.java", 0o755)
    r.commit({}, message="mode only", timestamp=next(ts))
    os.chmod(r.path / "src/A.java", 0o644)
    r.commit({"src/A.java": "int a = 3;\n"}, timestamp=next(ts))
    r.commit_index("--add", "--cacheinfo", f"160000,{base},vendor/lib", message="gitlink")
    r.commit({"src/Ünïcödé.java": "int u = 2;\n", "docs/a b/ç.txt": "ç\n"},
             timestamp=next(ts) + 600)
    r.commit({}, message="empty again")
    r.commit({"src/A.java": None, "src/Ünïcödé.java": None, "src/C.java": "int c;\n"})
    r.commit({"src/Side.java": None, "src/Renamed.java": "int side = 2;\n"})
    return r


def test_stream_equals_diff_tree_reference(tricky_repo):
    got_warnings: list[str] = []
    ref_warnings: list[str] = []
    got = list(open_repository(tricky_repo.path, "main", on_warning=got_warnings.append))
    ref = diff_tree_reference(tricky_repo.path, "main", on_warning=ref_warnings.append)
    assert got == ref
    assert got_warnings == ref_warnings and len(got_warnings) == 2  # both binary files
    # The fixture reaches every case it names.
    paths = {fc.path for c in got for fc in c.file_changes}
    assert {"src/with space.java", "src/Ünïcödé.java", "docs/a b/ç.txt", "src/Side.java"} <= paths
    assert "vendor/lib" not in paths and "img.bin" not in paths
    assert any(c.file_changes == [] for c in got)
    assert any(fc.after is None for c in got for fc in c.file_changes)
    raw = tricky_repo._run("log", "--raw", "--format=")
    assert ":100644 100755 " in raw and ":000000 160000 " in raw


@pytest.mark.parametrize("window", [(T0 + 60, T0 + 300), (T0 + 400, None), (None, T0)])
def test_time_window_equals_diff_tree_reference(tricky_repo, window):
    since, until = window
    got = list(open_repository(tricky_repo.path, "main", since=since, until=until))
    assert got == diff_tree_reference(tricky_repo.path, "main", since=since, until=until)
    assert got and [c.order_index for c in got] == list(range(len(got)))


def test_hostile_git_config_gives_the_same_stream(tricky_repo, tmp_path):
    expected = diff_tree_reference(tricky_repo.path, "main")
    expected_from_src = diff_tree_reference(tricky_repo.path / "src", "main")
    order_file = tmp_path / "order"
    order_file.write_text("src/Side.java\nsrc/*\n*\n", encoding="utf-8")
    for key, value in [("log.showRoot", "false"), ("diff.renames", "copies"),
                       ("color.ui", "always"), ("core.abbrev", "7"),
                       ("diff.relative", "true"), ("diff.orderFile", str(order_file)),
                       ("log.showSignature", "true")]:
        tricky_repo._run("config", key, value)
    assert list(open_repository(tricky_repo.path, "main")) == expected
    # diff.relative only bites when the tool is pointed below the top level.
    assert list(open_repository(tricky_repo.path / "src", "main")) == expected_from_src


def _recorded_popens(monkeypatch) -> list[subprocess.Popen]:
    spawned: list[subprocess.Popen] = []

    class Recording(subprocess.Popen):
        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            spawned.append(self)

    monkeypatch.setattr(subprocess, "Popen", Recording)
    return spawned


def test_early_close_kills_and_reaps_git(tricky_repo, monkeypatch):
    spawned = _recorded_popens(monkeypatch)
    stream = open_repository(tricky_repo.path, "main")
    next(stream)
    stream.close()
    assert any("log" in p.args for p in spawned) and any("cat-file" in p.args for p in spawned)
    assert all(p.returncode is not None for p in spawned), "a git child is left running"


def test_git_log_starts_on_first_read(tricky_repo, monkeypatch):
    spawned = _recorded_popens(monkeypatch)
    stream = open_repository(tricky_repo.path, "main")
    assert [p.args[3] for p in spawned] == ["rev-parse", "rev-parse"]
    stream.close()
    assert len(spawned) == 2


# ---------------------------------------------------------------------------
# Shallow clones
# ---------------------------------------------------------------------------


def test_shallow_clone_is_flagged(tricky_repo, tmp_path):
    clone = tmp_path / "shallow"
    subprocess.run(["git", "clone", "-q", "--depth", "2", "--branch", "main",
                    f"file://{tricky_repo.path}", str(clone)], check=True)
    warnings: list[str] = []
    commits = list(open_repository(clone, "main", on_warning=warnings.append))
    assert len(commits) == 2
    assert all(fc.before is None for fc in commits[0].file_changes)  # boundary read as root
    (shallow,) = [w for w in warnings if "shallow" in w]
    assert "root" in shallow

    full_warnings: list[str] = []
    list(open_repository(tricky_repo.path, "main", on_warning=full_warnings.append))
    assert not any("shallow" in w for w in full_warnings)


# ---------------------------------------------------------------------------
# Git failures
# ---------------------------------------------------------------------------


def _object_file(repo, rev: str) -> Path:
    sha = repo._run("rev-parse", rev).strip()
    return repo.path / ".git" / "objects" / sha[:2] / sha[2:]


def test_missing_blob_raises_git_error(git_repo):
    git_repo.commit({"A.java": "int a = 1;\n"})
    git_repo.commit({"A.java": "int a = 2;\n"})
    _object_file(git_repo, "HEAD~1:A.java").unlink()
    with pytest.raises(GitError, match="missing"):
        list(open_repository(git_repo.path, "main"))


def test_missing_tree_raises_git_error(git_repo):
    git_repo.commit({"A.java": "int a = 1;\n"})
    git_repo.commit({"A.java": "int a = 2;\n"})
    _object_file(git_repo, "HEAD^{tree}").unlink()
    with pytest.raises(GitError, match="exited with status"):
        list(open_repository(git_repo.path, "main"))


@pytest.mark.parametrize("fields", [
    [b":000000 100644 " + b"0" * 40 + b" " + b"1" * 40 + b" A", b"A.java"],  # no header
    [b"\x01" + b"a" * 40 + b" noon"],  # timestamp not a number
    [b"\x01" + b"a" * 40 + b" 1", b"\n:000000 100644 A"],  # short meta, no path
    [b"\x01" + b"a" * 40 + b" 1", b"\n:000000 100644 " + b"0" * 40 + b" " + b"1" * 40 + b" A"],
])
def test_malformed_log_records_raise_git_error(fields):
    with pytest.raises(GitError, match="malformed"):
        list(_parse_log(iter(fields)))


@pytest.mark.parametrize("command", [["analyze", "--format", "json"],
                                     ["export-bundle", "--out", "bundle-out"]])
def test_cli_reports_git_failure_without_traceback(git_repo, tmp_path, command):
    git_repo.commit({"A.java": "int a = 1;\n"})
    git_repo.commit({"A.java": "int a = 2;\n"})
    _object_file(git_repo, "HEAD:A.java").unlink()
    env = {**os.environ, "PYTHONPATH": str(Path(tempred.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "tempred.cli", *command, "--source", str(git_repo.path)],
        cwd=tmp_path, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("Error: git cat-file --batch: blob ")
    assert "Traceback" not in proc.stderr
