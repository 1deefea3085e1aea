"""The JSON report's bytes, pinned.

In-process runs on one small seeded history, read as a bundle and as a git
repository, in ``pre`` and ``post`` mode, traced and untraced: the sha256 of
each ``emit_report(..., "json")`` must not move. A change that alters report
output on purpose updates these digests, and ``tools/report_digests.txt``,
in the same commit. Sources are named relative to the working directory, so
the reports do not depend on where the test runs.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest
from conftest import GitRepoBuilder

from tempred.history import load_history_bundle
from tempred.report import AnalysisConfig, emit_report, run_analysis
from tempred.synth import HistorySpec, generate_history

SPEC = HistorySpec(seed=11, commit_count=30, file_count=4, reuse_probability=0.6,
                   token_recombination=0.3)

# (source, normalize, trace_commits) -> sha256 of the JSON report.
EXPECTED = {
    ("bundle", "pre", False): "33fe0c7f6200127f807e6f20697626a445a54a67dded2026584bf22671da2609",
    ("bundle", "pre", True): "cab10ac512d296575bd3de983d08fd84e5b922a55fa0577defb051627009ea7e",
    ("bundle", "post", False): "e3fb754acdc39ece50a851383ca5630e414fb47773c6e22df3011780bbfe35b2",
    ("bundle", "post", True): "f163df723d7bb53c2796b10c7cd50b739c4a567ae2821587a50580b134ef38ba",
    ("git", "pre", False): "0d90b0974915648803d7d14367f5006704f3065c48510368a164bdb669e10d03",
    ("git", "pre", True): "548ac1767193836cb57d94f4144b1e03a06b4f0614ff177a0f9993056573aa16",
    ("git", "post", False): "ffe8ef72e23125d886d5af717dd35875a4806e3c63e049fff86855819bff054e",
    ("git", "post", True): "e9920f75a8b1e631d97014081476a4beb13ac7a598d61f33d02153662fc992c7",
}


def build_sources(work: Path) -> None:
    """The history as the bundle ``work/bundle`` and the git repository
    ``work/git``, one git commit per bundle commit."""
    generate_history(SPEC, work / "bundle")
    repo = GitRepoBuilder(work / "git")
    for commit in load_history_bundle(work / "bundle"):
        repo.commit({fc.path: fc.after for fc in commit.file_changes},
                    message=commit.commit_id, timestamp=commit.timestamp)


def report_digest(source: str, normalize: str, trace_commits: bool) -> str:
    config = AnalysisConfig(source=source, bundle=source == "bundle", normalize=normalize,
                            trace_commits=trace_commits, output_format="json")
    return hashlib.sha256(emit_report(run_analysis(config), "json").encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def work(tmp_path_factory) -> Path:
    work = tmp_path_factory.mktemp("report-bytes")
    build_sources(work)
    return work


@pytest.mark.parametrize("key", list(EXPECTED), ids=lambda key: "-".join(map(str, key)))
def test_report_json_digest_is_pinned(work, monkeypatch, key):
    monkeypatch.chdir(work)
    assert report_digest(*key) == EXPECTED[key]
