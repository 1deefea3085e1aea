"""Ordered commit streams with before/after file contents.

Two sources produce the same stream shape: a real git repository (first-parent
chain, merges skipped, root emitted as pure insertion) and a portable "history
bundle" directory that needs no VCS at all. File-level include/exclude
filtering is applied downstream by the pipeline, not at ingestion.

Bundle layout::

    manifest.json   {"commits": [{"id", "timestamp", "files": [
                        {"path", "before", "after"}]}]}
    blobs/<sha256>  contents referenced as "@blobs/<sha256>"

``before``/``after`` are inline strings, blob references, or null for an
added/deleted file. The order of the ``commits`` array is the traversal order.
"""

from __future__ import annotations

import hashlib
import json
import logging
import re
import subprocess
import tempfile
from contextlib import closing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator

from .errors import (
    BranchNotFoundError,
    BundleFormatError,
    GitError,
    RepositoryNotFoundError,
)

log = logging.getLogger(__name__)

WarnFn = Callable[[str], None]

MANIFEST_NAME = "manifest.json"
BLOBS_DIR = "blobs"
BLOB_REF_PREFIX = "@blobs/"

DEFAULT_INCLUDE_GLOBS: tuple[str, ...] = ("**/*.java",)
DEFAULT_EXCLUDE_GLOBS: tuple[str, ...] = (
    "**/test/**",
    "**/tests/**",
    "**/*Test.java",
    "**/*Tests.java",
    "**/*TestCase.java",
)


@dataclass
class FileChange:
    """One changed file in a commit; at least one side is present and they differ."""

    path: str
    before: str | None
    after: str | None


@dataclass
class CommitRecord:
    """One commit: identity, 0-based position in the traversal, epoch timestamp."""

    commit_id: str
    order_index: int
    timestamp: int
    file_changes: list[FileChange] = field(default_factory=list)


def glob_to_regex(pattern: str) -> re.Pattern[str]:
    """Compile a path glob where ``**`` crosses directory separators and ``*`` does not."""
    out: list[str] = []
    i, n = 0, len(pattern)
    while i < n:
        c = pattern[i]
        if c == "*":
            if pattern.startswith("**", i):
                if pattern.startswith("**/", i):
                    out.append("(?:[^/]+/)*")
                    i += 3
                elif i + 2 == n and i > 0 and pattern[i - 1] == "/":
                    out.append("[^/]+(?:/[^/]+)*")
                    i += 2
                else:
                    out.append(".*")
                    i += 2
            else:
                out.append("[^/]*")
                i += 1
        elif c == "?":
            out.append("[^/]")
            i += 1
        else:
            out.append(re.escape(c))
            i += 1
    return re.compile("^" + "".join(out) + "$")


@dataclass
class FileFilterRules:
    """A path is retained iff it matches at least one include glob and no exclude glob."""

    include_globs: tuple[str, ...] = DEFAULT_INCLUDE_GLOBS
    exclude_globs: tuple[str, ...] = DEFAULT_EXCLUDE_GLOBS

    def __post_init__(self) -> None:
        self.include_globs = tuple(self.include_globs)
        self.exclude_globs = tuple(self.exclude_globs)
        self._include = [glob_to_regex(p) for p in self.include_globs]
        self._exclude = [glob_to_regex(p) for p in self.exclude_globs]

    def matches(self, path: str) -> bool:
        if not any(rx.match(path) for rx in self._include):
            return False
        return not any(rx.match(path) for rx in self._exclude)


def filter_files(changes: Iterable[FileChange], rules: FileFilterRules) -> list[FileChange]:
    """Keep the changes whose path passes the rules, order preserved."""
    return [fc for fc in changes if rules.matches(fc.path)]


# ---------------------------------------------------------------------------
# History bundles
# ---------------------------------------------------------------------------


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise BundleFormatError(message)


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _resolve_content(value: object, bundle_dir: Path, where: str) -> str | None:
    if value is None:
        return None
    _require(isinstance(value, str), f"{where}: before/after must be a string or null")
    assert isinstance(value, str)
    if not value.startswith(BLOB_REF_PREFIX):
        return value
    name = value[len(BLOB_REF_PREFIX):]
    _require(
        bool(name) and "/" not in name and name not in (".", ".."),
        f"{where}: invalid blob reference {value!r}",
    )
    blob_path = bundle_dir / BLOBS_DIR / name
    if not blob_path.is_file():
        raise BundleFormatError(f"{where}: missing blob {value!r}")
    # Byte-level IO: text read via read_text() would normalize \r\n and break
    # byte-identical round-trips.
    return blob_path.read_bytes().decode("utf-8", "replace")


def load_history_bundle(
    bundle_dir: str | Path, on_warning: WarnFn | None = None
) -> Iterator[CommitRecord]:
    """Stream the commits of a bundle directory in manifest order.

    The manifest is validated up front; blob contents are read lazily per
    commit. Out-of-order timestamps are allowed but warned about; a missing
    blob or a schema violation aborts.
    """
    warn = on_warning or log.warning
    bundle_dir = Path(bundle_dir)
    manifest_path = bundle_dir / MANIFEST_NAME
    if not manifest_path.is_file():
        raise BundleFormatError(f"no {MANIFEST_NAME} in {bundle_dir}")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise BundleFormatError(f"{manifest_path}: not valid JSON: {exc}") from exc

    _require(isinstance(manifest, dict), "manifest must be a JSON object")
    commits = manifest.get("commits")
    _require(isinstance(commits, list), 'manifest must have a "commits" array')
    last_ts: int | None = None
    for idx, entry in enumerate(commits):
        where = f"commits[{idx}]"
        _require(isinstance(entry, dict), f"{where}: must be an object")
        _require(isinstance(entry.get("id"), str), f"{where}: id must be a string")
        _require(_is_int(entry.get("timestamp")), f"{where}: timestamp must be an integer")
        _require(isinstance(entry.get("files"), list), f"{where}: files must be an array")
        for fidx, fentry in enumerate(entry["files"]):
            fwhere = f"{where}.files[{fidx}]"
            _require(isinstance(fentry, dict), f"{fwhere}: must be an object")
            _require(isinstance(fentry.get("path"), str), f"{fwhere}: path must be a string")
            _require("before" in fentry and "after" in fentry,
                     f"{fwhere}: before and after are required (null for absent)")
        if last_ts is not None and entry["timestamp"] < last_ts:
            warn(f"{where}: timestamp {entry['timestamp']} is earlier than its predecessor")
        last_ts = entry["timestamp"]

    def _iter() -> Iterator[CommitRecord]:
        for idx, entry in enumerate(commits):
            where = f"commits[{idx}]"
            changes: list[FileChange] = []
            for fidx, fentry in enumerate(entry["files"]):
                fwhere = f"{where}.files[{fidx}]"
                before = _resolve_content(fentry["before"], bundle_dir, fwhere)
                after = _resolve_content(fentry["after"], bundle_dir, fwhere)
                if before is None and after is None:
                    warn(f"{fwhere}: both sides absent; dropped")
                    continue
                if before == after:
                    continue  # no-op pair
                changes.append(FileChange(path=fentry["path"], before=before, after=after))
            yield CommitRecord(
                commit_id=entry["id"],
                order_index=idx,
                timestamp=entry["timestamp"],
                file_changes=changes,
            )

    return _iter()


def export_bundle(commits: Iterable[CommitRecord], out_dir: str | Path) -> Path:
    """Write a bundle that reloads to the same stream. Contents are stored as
    content-addressed blobs, which also dedupes repeated file versions."""
    out = Path(out_dir)
    blobs = out / BLOBS_DIR
    blobs.mkdir(parents=True, exist_ok=True)

    def store(text: str | None) -> str | None:
        if text is None:
            return None
        data = text.encode("utf-8")
        digest = hashlib.sha256(data).hexdigest()
        blob_path = blobs / digest
        if not blob_path.exists():
            blob_path.write_bytes(data)
        return BLOB_REF_PREFIX + digest

    manifest = {
        "commits": [
            {
                "id": c.commit_id,
                "timestamp": c.timestamp,
                "files": [
                    {"path": fc.path, "before": store(fc.before), "after": store(fc.after)}
                    for fc in c.file_changes
                ],
            }
            for c in commits
        ]
    }
    (out / MANIFEST_NAME).write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return out


# ---------------------------------------------------------------------------
# Git repositories
# ---------------------------------------------------------------------------

_NULL_SHA = re.compile(r"^0+$")

# One pass over the first-parent chain, oldest first. Each commit is a
# ``\x01<sha> <committer epoch> <parents>`` header field, then ``:<modes> <shas>
# <status>`` / ``<path>`` field pairs, all NUL-terminated (git-log(1), RAW
# OUTPUT FORMAT). The options override the user settings that would change
# this output: log.showRoot (the root's files), diff.renames, core.abbrev,
# diff.relative, diff.orderFile, color and signatures.
_LOG_ARGS = (
    "-c", "log.showRoot=true", "log", "--first-parent", "--reverse", "--raw", "-z",
    "--no-renames", "--no-abbrev", "--no-relative", "-O/dev/null", "--no-color",
    "--no-show-signature", "--format=%x01%H %ct %P",
)
_READ_CHUNK = 1 << 16

# (old_mode, new_mode, old_sha, new_sha, path) of one raw entry, and
# (sha, committer epoch, parents, raw entries) of one commit.
_RawEntry = tuple[str, str, str, str, str]
_LogCommit = tuple[str, int, list[str], list[_RawEntry]]


def _git(repo: Path, *args: str) -> bytes:
    proc = subprocess.run(
        ["git", "-C", str(repo), *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    if proc.returncode != 0:
        raise GitError(
            f"git {' '.join(args)} failed: {proc.stderr.decode('utf-8', 'replace').strip()}"
        )
    return proc.stdout


class _GitChild:
    """A long-lived git process read through its stdout. Its stderr goes to a
    temporary file rather than a pipe, so output nobody reads cannot block it."""

    def __init__(self, repo: Path, args: tuple[str, ...], stdin: int | None = None) -> None:
        self.name = " ".join(args)
        self._stderr = tempfile.TemporaryFile()
        self.proc = subprocess.Popen(
            ["git", "-C", str(repo), *args],
            stdin=stdin,
            stdout=subprocess.PIPE,
            stderr=self._stderr,
        )

    def error(self, problem: str) -> GitError:
        """A ``GitError`` naming the command, the problem and git's own message."""
        self._stderr.seek(0)
        detail = self._stderr.read().decode("utf-8", "replace").strip()
        return GitError(f"git {self.name}: {problem}" + (f": {detail}" if detail else ""))

    def fields(self) -> Iterator[bytes]:
        """The NUL-terminated fields of stdout as they arrive; raises if git
        fails or its output ends inside a field."""
        assert self.proc.stdout is not None
        tail = b""
        while chunk := self.proc.stdout.read1(_READ_CHUNK):
            *complete, tail = (tail + chunk).split(b"\0")
            yield from complete
        status = self.proc.wait()
        if status != 0:
            raise self.error(f"exited with status {status}")
        if tail:
            raise self.error(f"output ends inside a field: {tail[:80]!r}")

    def close(self) -> None:
        """Kill the process if it still runs, and reap it."""
        for pipe in (self.proc.stdin, self.proc.stdout):
            if pipe is not None:
                pipe.close()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._stderr.close()


class _BlobReader(_GitChild):
    """Persistent ``git cat-file --batch`` process for fast blob retrieval."""

    def __init__(self, repo: Path) -> None:
        super().__init__(repo, ("cat-file", "--batch"), stdin=subprocess.PIPE)

    def read(self, sha: str) -> bytes:
        assert self.proc.stdin is not None and self.proc.stdout is not None
        try:
            self.proc.stdin.write(sha.encode("ascii") + b"\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            raise self.error(f"exited before blob {sha} was read") from None
        header = self.proc.stdout.readline().split()
        if header == [sha.encode("ascii"), b"missing"]:
            raise self.error(f"blob {sha} is missing from the repository")
        if len(header) != 3 or header[1] != b"blob" or not header[2].isdigit():
            raise self.error(f"cannot read blob {sha}: {header!r}")
        size = int(header[2])
        data = self.proc.stdout.read(size + 1)  # the content and its trailing newline
        if len(data) != size + 1:
            raise self.error(f"blob {sha} ends early")
        return data[:-1]


def _parse_log(fields: Iterator[bytes]) -> Iterator[_LogCommit]:
    """Group the log stream's fields into commits. The path field after a raw
    entry is taken by position, so a path may hold any byte but NUL."""
    commit: _LogCommit | None = None
    for f in fields:
        if f.startswith(b"\x01"):
            if commit is not None:
                yield commit
            header = f[1:].decode("ascii", "replace").split()
            if len(header) < 2 or not header[1].isdigit():
                raise GitError(f"git log: malformed commit header {f[:200]!r}")
            commit = (header[0], int(header[1]), header[2:], [])
            continue
        # The first entry of a commit follows a newline after the header.
        meta = f.lstrip(b"\n").decode("ascii", "replace")
        path = next(fields, None)
        parts = meta[1:].split(" ")
        if commit is None or not meta.startswith(":") or len(parts) != 5 or path is None:
            raise GitError(f"git log: malformed raw entry {f[:200]!r}")
        old_mode, new_mode, old_sha, new_sha, _status = parts
        commit[3].append((old_mode, new_mode, old_sha, new_sha, path.decode("utf-8", "replace")))
    if commit is not None:
        yield commit


def _file_changes(
    reader: _BlobReader, sha: str, entries: list[_RawEntry], warn: WarnFn
) -> list[FileChange]:
    """The text changes of one commit; submodules, mode-only changes, binary
    files and changes that vanish after decoding are left out."""
    changes: list[FileChange] = []
    for old_mode, new_mode, old_sha, new_sha, fpath in entries:
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
    return changes


def open_repository(
    path: str | Path,
    branch: str = "HEAD",
    since: int | None = None,
    until: int | None = None,
    on_warning: WarnFn | None = None,
) -> Iterator[CommitRecord]:
    """Stream the first-parent chain of a branch, oldest first.

    Merge commits (two or more parents) are skipped; every other commit is
    diffed against its first parent, and the root commit is emitted with all
    of its files as additions. Binary or undecodable files are skipped with a
    warning; text is decoded as UTF-8 with lossy replacement. ``since``/
    ``until`` bound the committer timestamp (inclusive).

    The repository and branch are checked at once; a shallow clone is warned
    about, because its boundary commits read as roots. The history itself
    comes from one ``git log`` process, started on the first ``next()``,
    and file contents from one ``git cat-file --batch``. Closing the stream
    early stops both. Git failures raise ``GitError``.
    """
    warn = on_warning or log.warning
    repo = Path(path)
    try:
        shallow = _git(repo, "rev-parse", "--git-dir", "--is-shallow-repository")
    except (GitError, OSError) as exc:
        raise RepositoryNotFoundError(f"not a git repository: {repo} ({exc})") from exc
    try:
        _git(repo, "rev-parse", "--verify", "--quiet", f"{branch}^{{commit}}")
    except GitError as exc:
        raise BranchNotFoundError(f"branch not found in {repo}: {branch}") from exc
    if shallow.splitlines()[-1] == b"true":
        warn(f"{repo} is a shallow clone: the history is cut at its shallow boundary, "
             "and each boundary commit is read as a root, with all its files added")

    def _iter() -> Iterator[CommitRecord]:
        with closing(_GitChild(repo, (*_LOG_ARGS, branch, "--"))) as stream, \
                closing(_BlobReader(repo)) as reader:
            order_index = 0
            for sha, ts, parents, entries in _parse_log(stream.fields()):
                if len(parents) >= 2:
                    continue  # merge commit, with its diff against the first parent
                if (since is not None and ts < since) or (until is not None and ts > until):
                    continue
                yield CommitRecord(
                    commit_id=sha, order_index=order_index, timestamp=ts,
                    file_changes=_file_changes(reader, sha, entries, warn),
                )
                order_index += 1

    return _iter()
