"""Verdict deltas in the pipeline: ``analyze_commits`` must classify every
commit (without the trace, all but its count), and fill every pool, exactly
as the all-diff reference does, and fall back to the full differ only where
a file's history is incomplete."""

from __future__ import annotations

import random
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tempred import differ
from tempred import report as report_module
from tempred.differ import diff_fragments, verdict_delta
from tempred.fragmenter import Granularity, lex
from tempred.history import CommitRecord, FileChange
from tempred.redundancy import Scope, ScopedPools, classify_commit, index_commit, summarize
from tempred.report import AnalysisConfig, analyze_commits, open_source

from conftest import reference_classify

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _pool_state(pools: dict[Granularity, ScopedPools]) -> dict:
    """Every pool entry with its first-seen commit, in insertion order."""
    return {
        g: (
            list(p.global_pool.items()),
            [(path, list(pool.items())) for path, pool in p.local_pools.items()],
        )
        for g, p in pools.items()
    }


def record_classifications(patch, config: AnalysisConfig) -> dict[Granularity, list]:
    """Record every classification ``analyze_commits`` makes, also the ones
    an untraced run counts and drops."""
    recorded: dict[Granularity, list] = {g: [] for g in config.granularities}

    def record(pools, changes, granularity, **kwargs):
        classification = classify_commit(pools, changes, granularity, **kwargs)
        recorded[granularity].append(classification)
        return classification

    patch.setattr(report_module, "classify_commit", record)
    return recorded


def assert_matches_reference(config: AnalysisConfig, monkeypatch, commits=None):
    """Run ``analyze_commits`` with the trace on and off, and the all-diff
    reference, on the same stream (``commits``, or the configured source
    opened anew each time). With the trace on, every classification must
    equal the reference's and be kept in the report; with it off, every one
    but its ``added_count``, which is ``None``, and its ``novel_fragments``,
    which are empty, and the report keeps none.
    Both runs must fill every pool entry, in order, as the reference does,
    and fall back to the full diff on the same pairs. Returns the untraced
    report."""
    def stream():
        return commits if commits is not None else open_source(config)

    expected, pools = reference_classify(stream(), config)
    uncounted = {g: [c._replace(added_count=None,
                                novel_fragments={s: [] for s in c.novel_fragments})
                     for c in cls]
                 for g, cls in expected.items()}
    reports = {}
    for trace_commits, want in ((True, expected), (False, uncounted)):
        captured: dict[Granularity, ScopedPools] = {}

        def capture(pools, changes, granularity):
            captured[granularity] = pools
            return index_commit(pools, changes, granularity)

        with monkeypatch.context() as patch:
            patch.setattr(report_module, "index_commit", capture)
            recorded = record_classifications(patch, config)
            report = analyze_commits(stream(), config.replace(trace_commits=trace_commits))
        assert recorded == want
        assert report.classifications == (want if trace_commits else None)
        assert report.summary == summarize(expected, pools, project=config.project_name,
                                           scopes=config.scopes)
        if report.commit_count:
            assert _pool_state(captured) == _pool_state(pools)
        reports[trace_commits] = report
    assert reports[True].diff_fallbacks == reports[False].diff_fallbacks
    assert reports[True].diagnostics == reports[False].diagnostics
    return reports[False]


def _java(lines: list[str]) -> str:
    return "".join(line + "\n" for line in lines)


# Statements sharing their keywords and operators but no identifier, so a
# reordering moves both whole lines and single tokens.
LINES = [f"int v{i} = w{i} + {i};" for i in range(60)]


def test_since_window_start_falls_back(git_repo, monkeypatch):
    # The window's first version of A.java was never indexed, and the commit
    # moves most of its lines.
    git_repo.commit({"A.java": _java(LINES[:40])}, timestamp=1_600_000_000)
    git_repo.commit({"A.java": _java(LINES[:30][::-1] + LINES[40:50])},
                    timestamp=1_600_000_100)
    git_repo.commit({"A.java": _java(LINES[:30] + LINES[50:55])}, timestamp=1_600_000_200)
    git_repo.commit({"B.java": _java(LINES[5:25][::-1])}, timestamp=1_600_000_300)
    config = AnalysisConfig(source=str(git_repo.path), since=1_600_000_050)
    report = assert_matches_reference(config, monkeypatch)
    assert report.commit_count == 3
    assert report.diff_fallbacks > 0


def test_skipped_merge_falls_back(git_repo, monkeypatch):
    # The merge that brought LINES[20:40] into A.java is not analyzed, so
    # those lines are in no pool when the next commit reorders them.
    base = git_repo.commit({"A.java": _java(LINES[:20])})
    git_repo.branch_from("side", base)
    git_repo.commit({"A.java": _java(LINES[:40])})
    git_repo.checkout("main")
    git_repo.commit({"B.java": _java(LINES[50:55])})
    git_repo.merge("side")
    git_repo.commit({"A.java": _java(LINES[20:40][::-1] + LINES[:10] + LINES[40:45])})
    config = AnalysisConfig(source=str(git_repo.path))
    report = assert_matches_reference(config, monkeypatch)
    assert report.commit_count == 3
    assert report.diff_fallbacks > 0


def test_over_cap_version_falls_back(bundle_writer, monkeypatch):
    # c1's pair is over the cap because of c0's version, so c1's version of
    # A.java is never indexed; c2 reorders it.
    small = LINES[:12]
    bundle = bundle_writer([
        {"id": "c0", "timestamp": 1,
         "files": [{"path": "A.java", "before": None, "after": _java(LINES)}]},
        {"id": "c1", "timestamp": 2,
         "files": [{"path": "A.java", "before": _java(LINES), "after": _java(small)}]},
        {"id": "c2", "timestamp": 3,
         "files": [{"path": "A.java", "before": _java(small),
                    "after": _java(small[::-1] + LINES[40:42])}]},
    ])
    config = AnalysisConfig(source=str(bundle), bundle=True, diff_size_cap=200)
    report = assert_matches_reference(config, monkeypatch)
    assert [s["commit_id"] for s in report.diagnostics["skipped_oversize_files"]] == [
        "c0", "c1"]
    assert report.diff_fallbacks > 0


def test_bundle_with_unseen_before_falls_back(bundle_writer, monkeypatch):
    bundle = bundle_writer([
        {"id": "c0", "timestamp": 1,
         "files": [{"path": "A.java", "before": None, "after": _java(LINES[:20])}]},
        {"id": "c1", "timestamp": 2,
         "files": [{"path": "A.java", "before": _java(LINES[20:50]),
                    "after": _java(LINES[20:50][::-1] + LINES[:5])}]},
        {"id": "c2", "timestamp": 3,
         "files": [{"path": "A.java", "before": _java(LINES[20:50][::-1] + LINES[:5]),
                    "after": _java(LINES[:5] + LINES[20:50])}]},
    ])
    config = AnalysisConfig(source=str(bundle), bundle=True)
    report = assert_matches_reference(config, monkeypatch)
    assert report.diff_fallbacks > 0


@st.composite
def _histories(draw) -> list[CommitRecord]:
    """Up to 8 commits over up to 3 files drawn from a few statements. A
    commit's ``before`` is usually the file's last ``after``, and otherwise
    a version never seen, as after a skipped merge or a window's start."""
    statements = LINES[: draw(st.integers(2, 12))]
    version = st.lists(st.sampled_from(statements), max_size=40)
    paths = ["A.java", "B.java", "C.java"][: draw(st.integers(1, 3))]
    last: dict[str, str | None] = {path: None for path in paths}
    commits = []
    for index in range(draw(st.integers(1, 8))):
        changes = []
        for path in draw(st.lists(st.sampled_from(paths), min_size=1, max_size=2,
                                  unique=True)):
            before = last[path] if draw(st.integers(0, 4)) else _java(draw(version))
            after = _java(draw(version))
            if before != after:
                changes.append(FileChange(path, before, after))
                last[path] = after
        commits.append(CommitRecord(f"c{index}", index, index, changes))
    return commits


@settings(max_examples=300, deadline=None)
@given(_histories(), st.sampled_from([200_000, 150]))
def test_random_histories_match_reference(commits, cap):
    config = AnalysisConfig(source="random", bundle=True, diff_size_cap=cap)
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_matches_reference(config, monkeypatch, commits)


def test_bench_workloads_need_no_fallback(tmp_path, monkeypatch):
    # bundle-3k and rewrites as the benchmark builds them, fewer commits;
    # git-3k is bundle-3k's history in git.
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    bundle = workloads.build_bundle(tmp_path / "bundle-3k", seed=1, commits=400)
    rewrites = workloads.build_rewrites(tmp_path / "rewrites", seed=1, commits=30)
    for source in (bundle, rewrites):
        config = AnalysisConfig(source=str(source), bundle=True)
        report = assert_matches_reference(config, monkeypatch)
        assert report.diff_fallbacks == 0


def test_violation_dump_diffs_a_verdict_delta_in_full():
    before = lex(_java(LINES[:20]))
    after = lex(_java(LINES[:20][::-1]))
    delta = verdict_delta(before, after, frozenset(before), path="A.java",
                          granularity=Granularity.TOKEN)
    assert delta.inserts is not None
    full = diff_fragments(before, after, path="A.java", granularity=Granularity.TOKEN)
    assert delta.added_count == len(full.added) > len(delta.added)
    assert report_module._violation_delta(delta) == report_module._violation_delta(full)
    uncounted = verdict_delta(before, after, frozenset(before), count=False,
                              path="A.java", granularity=Granularity.TOKEN)
    assert uncounted.added_count is None and uncounted.adds
    assert (uncounted.added, uncounted.removed) == (delta.added, delta.removed)
    assert report_module._violation_delta(uncounted) == report_module._violation_delta(full)


def _rewrite(rng: random.Random, tag: str, lines: int) -> str:
    """A Java class of fresh statements: nothing but keywords, operators and
    punctuation in common with another ``tag``'s."""
    body = []
    for i in range(lines):
        a, b, lit = f"{tag}{i}", f"{tag}{rng.randrange(lines)}", rng.randrange(1000)
        body.append(rng.choice([
            f"int {a} = {b} + {lit};",
            f"if ({b} > {lit}) {{ {a} = {b} - {lit}; }}",
            f"{a} = compute({b}, {lit});",
        ]))
    return _java([f"public class {tag.upper()} {{", *body, "}"])


def test_untraced_rewrite_runs_no_myers_and_no_lcs(monkeypatch):
    # Without the trace, every pair of this history takes the verdict route,
    # so neither the Myers pass nor the bit-parallel LCS may run.
    rng = random.Random(5)
    old, new = _rewrite(rng, "p", 60), _rewrite(rng, "q", 60)
    commits = [
        CommitRecord("c0", 0, 0, [FileChange("A.java", None, old)]),
        CommitRecord("c1", 1, 1, [FileChange("A.java", old, new)]),
        CommitRecord("c2", 2, 2, [FileChange("A.java", new, old)]),
    ]

    def forbidden(*args):
        raise AssertionError("an untraced verdict ran a diff or an LCS")

    monkeypatch.setattr(differ, "_middle_edits", forbidden)
    monkeypatch.setattr(differ, "bit_lcs_length", forbidden)
    config = AnalysisConfig(source="rewrite", bundle=True)
    recorded = record_classifications(monkeypatch, config)
    report = analyze_commits(commits, config)
    assert report.diff_fallbacks == 0
    assert report.classifications is None
    for cls in recorded.values():
        assert [c.acceptable for c in cls] == [True, True, True]
        assert [c.redundant[Scope.GLOBAL] for c in cls] == [False, False, True]
        assert all(c.added_count is None for c in cls)


def test_whole_file_rewrite_memory_is_bounded():
    # A 5k-token file, then a rewrite of it sharing only keywords and
    # punctuation: the full differ holds an O(D^2) trace here (D is about
    # 5,000); the verdict delta needs O(N + M).
    rng = random.Random(3)
    old, new = _rewrite(rng, "p", 520), _rewrite(rng, "q", 520)
    commits = [
        CommitRecord("c0", 0, 0, [FileChange("A.java", None, old)]),
        CommitRecord("c1", 1, 1, [FileChange("A.java", old, new)]),
    ]
    config = AnalysisConfig(source="rewrite", bundle=True, granularities=("token",),
                            trace_commits=True)
    tracemalloc.start()
    try:
        report = analyze_commits(commits, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    before, after = lex(old), lex(new)
    assert min(len(before), len(after)) >= 5000
    assert report.diff_fallbacks == 0
    assert peak < 8 * 2**20, f"{peak / 2**20:.2f} MiB"
    rewrite = report.classifications[Granularity.TOKEN][1]
    assert rewrite.added_count == len(diff_fragments(before, after).added)


def test_reversed_file_lcs_memory_is_bounded():
    # 20,000 distinct lines, then the same lines reversed: step 2 takes the
    # pair, and its LCS masks are one per line. As long as the whole shorter
    # side, they made the peak 32.5 MiB; in blocks of LCS_BLOCK_BITS columns
    # it is about 11 MiB, and about 8 MiB with blocks of 256.
    lines = [f"int v{i} = {i};" for i in range(20000)]
    old, new = "\n".join(lines), "\n".join(reversed(lines))
    commits = [
        CommitRecord("c0", 0, 0, [FileChange("A.java", None, old)]),
        CommitRecord("c1", 1, 1, [FileChange("A.java", old, new)]),
    ]
    config = AnalysisConfig(source="reversed", bundle=True, granularities=("line",),
                            trace_commits=True)
    tracemalloc.start()
    try:
        report = analyze_commits(commits, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.diff_fallbacks == 0
    assert peak < 16 * 2**20, f"{peak / 2**20:.2f} MiB"
    assert report.classifications[Granularity.LINE][1].added_count == len(lines) - 1
