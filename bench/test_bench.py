"""Smoke tests for the benchmark's own code, on workloads small enough for seconds.

    PYTHONPATH=src python3 -m pytest bench -q
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import worker  # noqa: E402
import workloads  # noqa: E402
from tempred.history import export_bundle, load_history_bundle, open_repository  # noqa: E402
from tempred.report import AnalysisConfig, run_analysis  # noqa: E402

SMOKE_COMMITS = 60


def tree_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def stream_without_ids(commits) -> list:
    """Commits as (timestamp, file changes by path), commit ids left out;
    git lists a commit's files by path, the generator in edit order."""
    return [
        (c.timestamp, sorted((fc.path, fc.before, fc.after) for fc in c.file_changes))
        for c in commits
    ]


@pytest.fixture(scope="module")
def smoke_git(tmp_path_factory):
    root = tmp_path_factory.mktemp("smoke")
    bundle = workloads.build_bundle(root / "bundle", seed=5, commits=SMOKE_COMMITS)
    return bundle, workloads.build_git(root / "repo", bundle)


def test_same_seed_same_bundle_and_head(tmp_path, smoke_git):
    bundle, repo = smoke_git
    again = workloads.build_bundle(tmp_path / "bundle", seed=5, commits=SMOKE_COMMITS)
    assert tree_digest(again) == tree_digest(bundle)
    assert workloads.head_sha(workloads.build_git(tmp_path / "repo", again)) == \
        workloads.head_sha(repo)
    first = workloads.build_rewrites(tmp_path / "rw1", seed=5, commits=12)
    second = workloads.build_rewrites(tmp_path / "rw2", seed=5, commits=12)
    assert tree_digest(first) == tree_digest(second)


def test_git_export_reloads_to_bundle_stream(tmp_path, smoke_git):
    bundle, repo = smoke_git
    exported = export_bundle(open_repository(repo), tmp_path / "exported")
    assert stream_without_ids(load_history_bundle(exported)) == \
        stream_without_ids(load_history_bundle(bundle))


@pytest.mark.parametrize("trace_commits", [True, False])
def test_wrapped_pipeline_matches_run_analysis(smoke_git, trace_commits):
    bundle, repo = smoke_git
    for source, is_bundle in ((bundle, True), (repo, False)):
        config = AnalysisConfig(source=str(source), bundle=is_bundle, output_format="json",
                                trace_commits=trace_commits)
        report, _, stream, _ = worker.run_pipeline(config)
        assert worker.summary_of(report) == worker.summary_of(run_analysis(config))
        assert len(stream.latencies_ms()) == SMOKE_COMMITS
        assert worker.setup(config)["first_commit_at"] is not None


def test_traced_replay_reproduces_summary(smoke_git):
    bundle, _ = smoke_git
    result = worker.trace(AnalysisConfig(source=str(bundle), bundle=True, output_format="json"))
    assert result["layered_summary"] == result["summary"]
    m = result["metrics"]
    assert m["history.commits"] == SMOKE_COMMITS
    assert m["history.git_spawns"] == 0
    assert m["differ.pairs"] > 0 and m["fragmenter.tokens"] > 0
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    traced_by_worker = {n["name"] for n in spec["per_layer"]} - {"bench.calib_ms", "bench.build_s"}
    assert set(m) == traced_by_worker
