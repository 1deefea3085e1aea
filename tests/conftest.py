"""Shared fixtures: git repository builder, bundle writer, acceptance summary,
pool invariant check, all-diff reference classification."""

from __future__ import annotations

import json
import subprocess
from pathlib import Path
from typing import Iterable

import pytest

from tempred.fragmenter import Granularity
from tempred.history import CommitRecord
from tempred.redundancy import (
    CommitClassification,
    ScopedPools,
    classify_commit,
    index_commit,
)
from tempred.report import AnalysisConfig, Report, iter_changesets, run_analysis

# Populated by tests/test_acceptance.py; printed once at the end of the run so
# each criterion gets its own visible pass/fail line.
ACCEPTANCE_RESULTS: list[tuple[str, str, str]] = []


def record_criterion(number: str, title: str, status: str) -> None:
    ACCEPTANCE_RESULTS.append((number, title, status))


def check_pool_invariants(pools: ScopedPools) -> None:
    """Every local pool of a ``ScopedPools`` must be a subset of its global pool."""
    for path, pool in pools.local_pools.items():
        for fragment in pool:
            if fragment not in pools.global_pool:
                raise AssertionError(
                    f"local pool for {path} holds {fragment!r} missing from global pool"
                )


def reference_classify(
    commits: Iterable[CommitRecord], config: AnalysisConfig
) -> tuple[dict[Granularity, list[CommitClassification]], dict[Granularity, ScopedPools]]:
    """Classify a commit stream with every file pair diffed in full.

    ``iter_changesets`` runs ``diff_fragments`` on every pair, and each commit
    is classified and then indexed as ``analyze_commits`` does, but without
    its verdict deltas. Tests compare the pipeline against this.
    """
    pools = {g: ScopedPools.create(g) for g in config.granularities}
    classifications: dict[Granularity, list[CommitClassification]] = {
        g: [] for g in config.granularities
    }
    for changes in iter_changesets(commits, config):
        for g in config.granularities:
            classifications[g].append(classify_commit(pools[g], changes, g, scopes=config.scopes))
        for g in config.granularities:
            index_commit(pools[g], changes, g)
    return classifications, pools


def assert_untraced_matches(config: AnalysisConfig, *references: Report) -> None:
    """Run ``config`` without the trace. The report must keep no
    classifications, and its summary, diagnostics and commit count must
    equal each reference report's."""
    untraced = run_analysis(config.replace(trace_commits=False))
    assert untraced.classifications is None
    for reference in references:
        assert untraced.summary == reference.summary
        assert untraced.diagnostics == reference.diagnostics
        assert untraced.commit_count == reference.commit_count


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, title, status in sorted(ACCEPTANCE_RESULTS, key=lambda r: r[0]):
        terminalreporter.write_line(f"criterion {number} [{title}]: {status}")


class GitRepoBuilder:
    """Drive a real git repository for ingestion tests."""

    def __init__(self, path: Path, branch: str = "main") -> None:
        self.path = path
        self.branch = branch
        self._ts = 1_600_000_000
        path.mkdir(parents=True, exist_ok=True)
        self._run("init", "-q", "-b", branch)
        self._run("config", "user.email", "dev@example.com")
        self._run("config", "user.name", "Dev")
        self._run("config", "commit.gpgsign", "false")

    def _run(self, *args: str, env: dict | None = None) -> str:
        import os

        full_env = dict(os.environ)
        if env:
            full_env.update(env)
        proc = subprocess.run(
            ["git", "-C", str(self.path), *args],
            check=True,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=full_env,
        )
        return proc.stdout.decode()

    def _date_env(self, timestamp: int | None) -> dict:
        if timestamp is None:
            self._ts += 60
            timestamp = self._ts
        else:
            self._ts = max(self._ts, timestamp)
        stamp = f"{timestamp} +0000"
        return {"GIT_AUTHOR_DATE": stamp, "GIT_COMMITTER_DATE": stamp}

    def commit(self, files: dict[str, str | None], message: str = "change",
               timestamp: int | None = None) -> str:
        """Write (or delete, for None values) files and commit them."""
        for rel, content in files.items():
            target = self.path / rel
            if content is None:
                target.unlink()
            else:
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_bytes(content.encode("utf-8"))
        self._run("add", "-A")
        self._run("commit", "-q", "--allow-empty", "-m", message,
                  env=self._date_env(timestamp))
        return self._run("rev-parse", "HEAD").strip()

    def commit_binary(self, rel: str, data: bytes, message: str = "bin") -> str:
        target = self.path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(data)
        self._run("add", "-A")
        self._run("commit", "-q", "-m", message, env=self._date_env(None))
        return self._run("rev-parse", "HEAD").strip()

    def commit_index(self, *update_index_args: str, message: str = "index") -> str:
        """Run one ``git update-index`` and commit the index as it stands."""
        self._run("update-index", *update_index_args)
        self._run("commit", "-q", "--allow-empty", "-m", message, env=self._date_env(None))
        return self._run("rev-parse", "HEAD").strip()

    def branch_from(self, name: str, start: str) -> None:
        self._run("checkout", "-q", "-b", name, start)

    def checkout(self, name: str) -> None:
        self._run("checkout", "-q", name)

    def merge(self, other: str, message: str = "merge") -> str:
        self._run("merge", "-q", "--no-ff", "-m", message, other,
                  env=self._date_env(None))
        return self._run("rev-parse", "HEAD").strip()

    def head(self) -> str:
        return self._run("rev-parse", "HEAD").strip()


@pytest.fixture
def git_repo(tmp_path: Path) -> GitRepoBuilder:
    return GitRepoBuilder(tmp_path / "repo")


def write_bundle(path: Path, commits: list[dict]) -> Path:
    """Write a manifest-only bundle (inline contents) for loader tests."""
    path.mkdir(parents=True, exist_ok=True)
    (path / "manifest.json").write_text(
        json.dumps({"commits": commits}, indent=2), encoding="utf-8"
    )
    return path


@pytest.fixture
def bundle_writer(tmp_path: Path):
    def _write(commits: list[dict], name: str = "bundle") -> Path:
        return write_bundle(tmp_path / name, commits)

    return _write
