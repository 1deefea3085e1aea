"""Ordered commit streams with before/after file contents.

Two sources produce the same stream shape: a real git repository (first-parent
chain, merges skipped, root emitted as pure insertion) and a portable "history
bundle" directory that needs no VCS at all. Both skip a commit outside the
``since``/``until`` window before reading its contents, and number the rest
from 0. File-level include/exclude filtering is applied downstream by the
pipeline, not at ingestion.

Bundle layout::

    manifest.json   {"commits": [{"id", "timestamp", "files": [
                        {"path", "before", "after"}]}]}
    blobs/<sha256>  contents referenced as "@blobs/<sha256>"

``before``/``after`` are inline strings, blob references, or null for an
added/deleted file. The order of the ``commits`` array is the traversal order.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
from collections import OrderedDict, deque
from contextlib import closing, suppress
from functools import lru_cache, partial
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .errors import (
    BranchNotFoundError,
    BundleFormatError,
    GitError,
    RepositoryNotFoundError,
)

WarnFn = Callable[[str], None]


def _warn_stderr(message: str) -> None:
    """The default warning sink: the message as one line on stderr."""
    sys.stderr.write(message + "\n")

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


class FileChange(NamedTuple):
    """One changed file in a commit; at least one side is present and they differ."""

    path: str
    before: str | None
    after: str | None


class CommitRecord(NamedTuple):
    """One commit: identity, 0-based position in the traversal, epoch timestamp."""

    commit_id: str
    order_index: int
    timestamp: int
    file_changes: Sequence[FileChange] = ()


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


# Bound on a FileFilterRules path -> verdict LRU. The same paths recur in
# commit after commit, and each miss runs every include and exclude regex.
FILTER_MEMO_ENTRIES = 1 << 16


def _path_verdict(include: list[re.Pattern[str]], exclude: list[re.Pattern[str]],
                  path: str) -> bool:
    return any(rx.match(path) for rx in include) and not any(rx.match(path) for rx in exclude)


class FileFilterRules:
    """A path is retained iff it matches at least one include glob and no exclude
    glob. Rules compare and print by their globs alone."""

    __slots__ = ("include_globs", "exclude_globs", "_verdict", "__weakref__")

    def __init__(self, include_globs: Iterable[str] = DEFAULT_INCLUDE_GLOBS,
                 exclude_globs: Iterable[str] = DEFAULT_EXCLUDE_GLOBS) -> None:
        self.include_globs = tuple(include_globs)
        self.exclude_globs = tuple(exclude_globs)
        # path -> verdict. The cache wraps a module-level function, not a
        # method, so it holds no reference back to the rules.
        self._verdict = lru_cache(FILTER_MEMO_ENTRIES)(partial(
            _path_verdict,
            [glob_to_regex(p) for p in self.include_globs],
            [glob_to_regex(p) for p in self.exclude_globs],
        ))

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self.include_globs, self.exclude_globs) == (other.include_globs,
                                                            other.exclude_globs)

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(include_globs={self.include_globs!r}, "
                f"exclude_globs={self.exclude_globs!r})")

    def matches(self, path: str) -> bool:
        return self._verdict(path)


def filter_files(changes: Iterable[FileChange], rules: FileFilterRules) -> list[FileChange]:
    """Keep the changes whose path passes the rules, order preserved."""
    return [fc for fc in changes if rules.matches(fc.path)]


# ---------------------------------------------------------------------------
# History bundles
# ---------------------------------------------------------------------------


def _in_window(timestamp: int, since: int | None, until: int | None) -> bool:
    return (since is None or timestamp >= since) and (until is None or timestamp <= until)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise BundleFormatError(message)


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_content(value: object, where: str) -> None:
    """Check one before/after entry: null, an inline string, or a reference
    to a file directly under ``blobs/``."""
    _require(value is None or isinstance(value, str),
             f"{where}: before/after must be a string or null")
    if isinstance(value, str) and value.startswith(BLOB_REF_PREFIX):
        name = value[len(BLOB_REF_PREFIX):]
        _require(
            bool(name) and "/" not in name and name not in (".", ".."),
            f"{where}: invalid blob reference {value!r}",
        )


def _resolve_content(value: str | None, blobs_dir: str, where: str) -> str | None:
    """The text of a checked before/after entry; a missing blob file aborts."""
    if value is None or not value.startswith(BLOB_REF_PREFIX):
        return value
    # Byte-level IO: reading in text mode would normalize \r\n and break
    # byte-identical round-trips.
    try:
        with open(os.path.join(blobs_dir, value[len(BLOB_REF_PREFIX):]), "rb") as blob:
            data = blob.read()
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError) as exc:
        raise BundleFormatError(f"{where}: missing blob {value!r}") from exc
    return data.decode("utf-8", "replace")


def _keep(last: OrderedDict, path: str, version: object, bound: int) -> None:
    """Hold ``version`` as ``path``'s last after-side (the caller has popped
    the path's entry), and drop the path changed longest ago past ``bound``."""
    last[path] = version
    if len(last) > bound:
        last.popitem(last=False)


def load_history_bundle(
    bundle_dir: str | Path, since: int | None = None, until: int | None = None,
    on_warning: WarnFn | None = None,
) -> Iterator[CommitRecord]:
    """Stream the commits of a bundle directory in manifest order.

    The whole manifest is validated up front, every commit's ``before``/
    ``after`` types and blob-reference syntax included: a schema violation
    aborts before any commit is yielded, and out-of-order timestamps are
    allowed but warned about. A commit outside the inclusive ``since``/
    ``until`` window is skipped unread, as in ``open_repository``; the rest
    are read lazily, where a missing blob file aborts.
    As in ``open_repository``, a before-side that names the same blob as its
    path's last after-side takes that side's text instead of reading the blob
    file again.
    """
    warn = on_warning or _warn_stderr
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
            _check_content(fentry["before"], fwhere)
            _check_content(fentry["after"], fwhere)
        if last_ts is not None and entry["timestamp"] < last_ts:
            warn(f"{where}: timestamp {entry['timestamp']} is earlier than its predecessor")
        last_ts = entry["timestamp"]

    kept = [(idx, entry) for idx, entry in enumerate(commits)
            if _in_window(entry["timestamp"], since, until)]
    blobs_dir = os.path.join(bundle_dir, BLOBS_DIR)

    def _iter() -> Iterator[CommitRecord]:
        # path -> (blob reference, text) of the last after-side read there.
        last: OrderedDict[str, tuple[str, str]] = OrderedDict()
        for order_index, (idx, entry) in enumerate(kept):
            where = f"commits[{idx}]"
            changes: list[FileChange] = []
            for fidx, fentry in enumerate(entry["files"]):
                fwhere = f"{where}.files[{fidx}]"
                path, after_ref = fentry["path"], fentry["after"]
                held = last.pop(path, None)
                if held is not None and fentry["before"] == held[0]:
                    before = held[1]
                else:
                    before = _resolve_content(fentry["before"], blobs_dir, fwhere)
                after = _resolve_content(after_ref, blobs_dir, fwhere)
                if after is not None and after_ref.startswith(BLOB_REF_PREFIX):
                    _keep(last, path, (after_ref, after), _REUSE_BLOB_PATHS)
                if before is None and after is None:
                    warn(f"{fwhere}: both sides absent; dropped")
                    continue
                if before == after:
                    continue  # no-op pair
                changes.append(FileChange(path=path, before=before, after=after))
            yield CommitRecord(
                commit_id=entry["id"],
                order_index=order_index,
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

    import hashlib  # only bundle export names blobs; it loads OpenSSL

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

# One pass over the first-parent chain, oldest first, without merges. Each
# commit is a ``\x01<sha> <committer epoch>`` header field, then ``:<modes>
# <shas> <status>`` / ``<path>`` field pairs, all NUL-terminated (git-log(1),
# RAW OUTPUT FORMAT). The options override the user settings that would change
# this output: log.showRoot (the root's files), diff.renames, core.abbrev,
# diff.relative, diff.orderFile, color and signatures.
_LOG_ARGS = (
    "-c", "log.showRoot=true", "log", "--first-parent", "--no-merges", "--reverse", "--raw",
    "-z", "--no-renames", "--no-abbrev", "--no-relative", "-O/dev/null", "--no-color",
    "--no-show-signature", "--format=%x01%H %ct",
)
_READ_CHUNK = 1 << 16
# At most this many blob requests are written to cat-file and not yet
# answered. 64 lines of 41 bytes fit in the smallest pipe buffer Linux gives
# (one 4 KiB page), so writing a request never waits for cat-file, however
# large the blobs it is still writing back.
_REQUEST_WINDOW = 64
# At most this many commits are parsed ahead of the one being yielded, so a
# long run of commits that need no blobs is not buffered.
_COMMIT_WINDOW = 64
# The last after-side of this many paths, the most recently changed, is kept
# for the next before-side of the same path that names the same blob.
_REUSE_BLOB_PATHS = 1024

# (old_mode, new_mode, old_sha, new_sha, path) of one raw entry, and
# (sha, committer epoch, raw entries) of one commit.
_RawEntry = tuple[str, str, str, str, str]
_LogCommit = tuple[str, int, list[_RawEntry]]


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
                # A request left unwritten when git exited cannot be flushed;
                # the pipe is closed all the same.
                with suppress(BrokenPipeError):
                    pipe.close()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._stderr.close()


class _BlobReader(_GitChild):
    """Persistent ``git cat-file --batch`` process for fast blob retrieval.

    ``request`` writes many shas with one write and one flush; ``reply``
    reads the answer to the oldest one not yet answered. Without ``--buffer``
    cat-file flushes after every object, so each reply can be read as soon as
    git has produced it. The caller keeps the requests it has not yet read
    few enough that the lines fit in a pipe buffer: then ``request`` never
    waits for cat-file, and cat-file, whose output the caller drains, never
    waits for ``request``.
    """

    def __init__(self, repo: Path) -> None:
        super().__init__(repo, ("cat-file", "--batch"), stdin=subprocess.PIPE)

    def request(self, shas: list[str]) -> None:
        assert self.proc.stdin is not None
        try:
            self.proc.stdin.write("".join(f"{sha}\n" for sha in shas).encode("ascii"))
            self.proc.stdin.flush()
        except BrokenPipeError:
            raise self.error(f"exited before blob {shas[0]} was read") from None

    def reply(self, sha: str) -> bytes | None:
        """The content of ``sha``, which must be the oldest request not yet
        answered, or None if git reports it missing."""
        assert self.proc.stdout is not None
        name = sha.encode("ascii")
        header = self.proc.stdout.readline().split()
        if header == [name, b"missing"]:
            return None
        if len(header) != 3 or header[:2] != [name, b"blob"] or not header[2].isdigit():
            raise self.error(f"cannot read blob {sha}: {header!r}")
        size = int(header[2])
        data = self.proc.stdout.read(size + 1)  # the content and its trailing newline
        if len(data) != size + 1:
            raise self.error(f"blob {sha} ends early")
        return data[:-1]

    def missing(self, sha: str) -> GitError:
        return self.error(f"blob {sha} is missing from the repository")


def _parse_log(fields: Iterator[bytes]) -> Iterator[_LogCommit]:
    """Group the log stream's fields into commits. The path field after a raw
    entry is taken by position, so a path may hold any byte but NUL."""
    commit: _LogCommit | None = None
    for f in fields:
        if f.startswith(b"\x01"):
            if commit is not None:
                yield commit
            header = f[1:].decode("ascii", "replace").split()
            if len(header) != 2 or not header[1].isdigit():
                raise GitError(f"git log: malformed commit header {f[:200]!r}")
            commit = (header[0], int(header[1]), [])
            continue
        # The first entry of a commit follows a newline after the header.
        meta = f.lstrip(b"\n").decode("ascii", "replace")
        path = next(fields, None)
        parts = meta[1:].split(" ")
        if commit is None or not meta.startswith(":") or len(parts) != 5 or path is None:
            raise GitError(f"git log: malformed raw entry {f[:200]!r}")
        old_mode, new_mode, old_sha, new_sha, _status = parts
        commit[2].append((old_mode, new_mode, old_sha, new_sha, path.decode("utf-8", "replace")))
    if commit is not None:
        yield commit


class _Blob:
    """A blob that planned commits need. Once cat-file has answered,
    ``answered`` is set and ``text`` is the decoded content, or None if the
    blob is binary or, as ``missing`` then says, absent from the repository."""

    __slots__ = ("sha", "answered", "missing", "text")

    def __init__(self, sha: str) -> None:
        self.sha = sha
        self.answered = False
        self.missing = False
        self.text: str | None = None

    def answer(self, data: bytes | None) -> None:
        self.answered = True
        if data is None:
            self.missing = True
        elif b"\0" not in data:
            self.text = data.decode("utf-8", "replace")


# (path, before blob, after blob) of one planned file change.
_PlannedEntry = tuple[str, "_Blob | None", "_Blob | None"]


class _BlobPlan:
    """The blobs of the commits parsed ahead, requested in order through one
    ``_BlobReader`` with at most ``_REQUEST_WINDOW`` of them unanswered.

    A file's before-side is nearly always the after-side that the previous
    first-parent commit wrote for the same path. So ``last`` maps each of
    the ``_REUSE_BLOB_PATHS`` paths changed most recently to the blob of its
    last after-side, and a before-side takes that blob, decoded text
    included, when it names the same sha; every other side queues a read.
    So one version per path is kept, and a revert or a copy of an older
    version reads its blob again. A deletion drops the path's entry. A
    planned commit holds its own blobs, so dropping an entry never loses
    what it still needs.
    """

    def __init__(self, reader: _BlobReader) -> None:
        self.reader = reader
        self.unsent: deque[_Blob] = deque()
        self.in_flight: deque[_Blob] = deque()
        self.last: OrderedDict[str, _Blob] = OrderedDict()

    def _queue(self, sha: str) -> _Blob:
        blob = _Blob(sha)
        self.unsent.append(blob)
        return blob

    def has_room(self) -> bool:
        return len(self.in_flight) < _REQUEST_WINDOW

    def plan(self, entries: list[_RawEntry]) -> list[_PlannedEntry]:
        """The blobs of one commit's changes, requested as far as the window
        allows; submodules and mode-only changes are left out."""
        planned: list[_PlannedEntry] = []
        for old_mode, new_mode, old_sha, new_sha, path in entries:
            if "160000" in (old_mode, new_mode):
                continue  # submodule pointer, out of scope
            before_sha = None if _NULL_SHA.match(old_sha) else old_sha
            after_sha = None if _NULL_SHA.match(new_sha) else new_sha
            if before_sha == after_sha:
                continue  # mode-only change
            before = self.last.pop(path, None)
            if before is None or before.sha != before_sha:
                before = None if before_sha is None else self._queue(before_sha)
            after = None if after_sha is None else self._queue(after_sha)
            if after is not None:
                _keep(self.last, path, after, _REUSE_BLOB_PATHS)
            planned.append((path, before, after))
        self._send()
        return planned

    def _send(self) -> None:
        n = min(len(self.unsent), _REQUEST_WINDOW - len(self.in_flight))
        if n > 0:
            batch = [self.unsent.popleft() for _ in range(n)]
            self.reader.request([blob.sha for blob in batch])
            self.in_flight.extend(batch)

    def _text(self, blob: _Blob) -> str | None:
        """The blob's text, or None if it is binary, once the replies up to its
        own are read. Raises ``GitError`` if git reports it missing."""
        while not blob.answered:
            if not self.in_flight:
                self._send()
            head = self.in_flight.popleft()
            head.answer(self.reader.reply(head.sha))
        if blob.missing:
            raise self.reader.missing(blob.sha)
        return blob.text

    def changes(self, sha: str, planned: list[_PlannedEntry], warn: WarnFn) -> list[FileChange]:
        """The text changes of one planned commit; binary files and changes
        that vanish after decoding are left out. The after-side of a file whose
        before-side is binary is not needed, so its absence is no error."""
        changes: list[FileChange] = []
        for fpath, before_blob, after_blob in planned:
            binary = False
            before = after = None
            if before_blob is not None:
                before = self._text(before_blob)
                binary = before is None
            if after_blob is not None and not binary:
                after = self._text(after_blob)
                binary = after is None
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

    The repository and branch are checked at once, by one ``git
    rev-parse``; a shallow clone is warned about, because its boundary
    commits read as roots. The history itself comes from one ``git log``
    process, started on the first ``next()``, and file contents from one
    ``git cat-file --batch``: three git processes in all. Closing the stream
    early stops both. Git failures raise ``GitError``, at the commit where
    reading one blob at a time would meet them.

    The log is parsed up to ``_COMMIT_WINDOW`` commits ahead, and their blobs
    are requested up to ``_REQUEST_WINDOW`` ahead of the replies read, so
    cat-file works while the caller processes a commit. A before-side that
    names the sha of its path's last after-side, as nearly every edit's
    does, takes that side's blob instead of reading it again; only one
    version per path is kept for this (``_BlobPlan``).
    """
    warn = on_warning or _warn_stderr
    repo = Path(path)
    # Exit status 1 means the repository has no such commit; any other
    # failure means there is no repository.
    try:
        proc = subprocess.run(
            ["git", "-C", str(repo), "rev-parse", "--is-shallow-repository",
             "--verify", "--quiet", f"{branch}^{{commit}}"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
    except OSError as exc:
        raise RepositoryNotFoundError(f"not a git repository: {repo} ({exc})") from exc
    if proc.returncode == 1:
        raise BranchNotFoundError(f"branch not found in {repo}: {branch}")
    if proc.returncode != 0:
        detail = proc.stderr.decode("utf-8", "replace").strip()
        raise RepositoryNotFoundError(f"not a git repository: {repo} ({detail})")
    if proc.stdout.splitlines()[0] == b"true":
        warn(f"{repo} is a shallow clone: the history is cut at its shallow boundary, "
             "and each boundary commit is read as a root, with all its files added")

    def _iter() -> Iterator[CommitRecord]:
        with closing(_GitChild(repo, (*_LOG_ARGS, branch, "--"))) as stream, \
                closing(_BlobReader(repo)) as reader:
            kept = (commit for commit in _parse_log(stream.fields())
                    if _in_window(commit[1], since, until))
            plan = _BlobPlan(reader)
            pending: deque[tuple[str, int, list[_PlannedEntry]]] = deque()
            failure: GitError | None = None
            order_index = 0
            while True:
                # Parse the next commit, and more while cat-file has room for
                # requests. A log failure is raised after the commits parsed
                # before it.
                while failure is None and (not pending or (
                        len(pending) < _COMMIT_WINDOW and plan.has_room())):
                    try:
                        sha, ts, entries = next(kept)
                    except StopIteration:
                        break
                    except GitError as exc:
                        failure = exc
                        break
                    pending.append((sha, ts, plan.plan(entries)))
                if not pending:
                    break
                sha, ts, planned = pending.popleft()
                yield CommitRecord(
                    commit_id=sha, order_index=order_index, timestamp=ts,
                    file_changes=plan.changes(sha, planned, warn),
                )
                order_index += 1
            if failure is not None:
                raise failure

    return _iter()
