"""Synthetic history generator and brute-force oracle tests."""

from __future__ import annotations

import filecmp
import json
from pathlib import Path

import pytest

from tempred.fragmenter import Granularity
from tempred.history import load_history_bundle
from tempred.redundancy import Scope
from tempred.report import AnalysisConfig, run_analysis
from tempred.synth import HistorySpec, generate_history, oracle_classify

from conftest import assert_untraced_matches


def _bundle_files(path: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(path)): p.read_bytes() for p in sorted(path.rglob("*")) if p.is_file()
    }


def test_same_seed_produces_byte_identical_bundles(tmp_path):
    spec = HistorySpec(seed=99, commit_count=15, file_count=4,
                       fragment_alphabet_size=60, reuse_probability=0.5)
    first = generate_history(spec, tmp_path / "one")
    second = generate_history(spec, tmp_path / "two")
    assert _bundle_files(first) == _bundle_files(second)
    cmp = filecmp.dircmp(first, second)
    assert not cmp.diff_files


def test_different_seeds_differ(tmp_path):
    a = generate_history(HistorySpec(seed=1, commit_count=8), tmp_path / "a")
    b = generate_history(HistorySpec(seed=2, commit_count=8), tmp_path / "b")
    assert _bundle_files(a) != _bundle_files(b)


def test_bundle_is_schema_shaped(tmp_path):
    bundle = generate_history(HistorySpec(seed=5, commit_count=6), tmp_path / "b")
    manifest = json.loads((bundle / "manifest.json").read_text(encoding="utf-8"))
    assert len(manifest["commits"]) == 6
    timestamps = [c["timestamp"] for c in manifest["commits"]]
    assert timestamps == sorted(timestamps)
    for commit in manifest["commits"]:
        for f in commit["files"]:
            assert f["path"].endswith(".java")
            for side in ("before", "after"):
                assert f[side] is None or f[side].startswith("@blobs/")


def test_full_reuse_makes_every_later_acceptable_commit_redundant(tmp_path):
    bundle = generate_history(
        HistorySpec(seed=13, commit_count=10, file_count=2,
                    fragment_alphabet_size=100, reuse_probability=1.0),
        tmp_path / "r1",
    )
    report = run_analysis(AnalysisConfig(source=str(bundle), bundle=True, trace_commits=True))
    for granularity in (Granularity.LINE, Granularity.TOKEN):
        cls = report.classifications[granularity]
        acceptable = [c for c in cls if c.acceptable]
        assert len(acceptable) >= 2
        for c in acceptable[1:]:
            assert c.redundant[Scope.GLOBAL] is True


def test_zero_reuse_with_fresh_alphabet_has_zero_redundancy(tmp_path):
    bundle = generate_history(
        HistorySpec(seed=14, commit_count=10, file_count=2,
                    fragment_alphabet_size=5000, reuse_probability=0.0),
        tmp_path / "r0",
    )
    report = run_analysis(AnalysisConfig(source=str(bundle), bundle=True))
    for metric in report.summary.metrics:
        assert metric.redundant_commits == 0
        assert metric.temporal_redundancy == 0.0


def test_oracle_on_empty_bundle(bundle_writer):
    bundle = bundle_writer([])
    result = oracle_classify(bundle)
    assert result.classifications == {Granularity.LINE: [], Granularity.TOKEN: []}
    for metric in result.summary.metrics:
        assert metric.temporal_redundancy is None


def test_oracle_single_commit_is_never_redundant(bundle_writer):
    bundle = bundle_writer(
        [{"id": "c0", "timestamp": 1,
          "files": [{"path": "A.java", "before": None, "after": "int a = 1;\n"}]}]
    )
    result = oracle_classify(bundle)
    for granularity in (Granularity.LINE, Granularity.TOKEN):
        (cls,) = result.classifications[granularity]
        assert cls.acceptable
        assert cls.redundant == {Scope.GLOBAL: False, Scope.LOCAL: False}


def test_oracle_matches_worked_two_file_example(bundle_writer):
    f1 = "int a = 1;\nint b = 2;\nint c = 3;\n"
    f2 = "int d = 4;\nint e = 5;\nint f = 6;\n"
    f2_plus_c = f2 + "int c = 3;\n"
    f2_replaced = f2_plus_c.replace("int e = 5;", "int d = 4;")
    bundle = bundle_writer(
        [
            {"id": "c0", "timestamp": 1, "files": [
                {"path": "F1.java", "before": None, "after": f1},
                {"path": "F2.java", "before": None, "after": f2},
            ]},
            {"id": "c1", "timestamp": 2, "files": [
                {"path": "F2.java", "before": f2, "after": f2_plus_c},
            ]},
            {"id": "c2", "timestamp": 3, "files": [
                {"path": "F2.java", "before": f2_plus_c, "after": f2_replaced},
            ]},
        ]
    )
    result = oracle_classify(bundle)
    line = result.classifications[Granularity.LINE]
    assert line[1].redundant[Scope.GLOBAL] is True
    assert line[1].redundant[Scope.LOCAL] is False
    assert line[2].redundant[Scope.LOCAL] is True


# A window given as the first and last commit it keeps, or None for none.
@pytest.mark.parametrize("window", [None, (3, 14)], ids=["whole", "window"])
def test_oracle_agrees_with_pipeline_on_a_mixed_history(tmp_path, window):
    bundle = generate_history(
        HistorySpec(seed=21, commit_count=18, file_count=3,
                    fragment_alphabet_size=30, reuse_probability=0.6,
                    locality_bias=0.7, token_recombination=0.3),
        tmp_path / "mix",
    )
    bounds = {}
    if window is not None:
        timestamps = [c.timestamp for c in load_history_bundle(bundle)]
        bounds = {"since": timestamps[window[0]], "until": timestamps[window[1]]}
    config = AnalysisConfig(source=str(bundle), bundle=True, trace_commits=True, **bounds)
    report = run_analysis(config)
    oracle = oracle_classify(bundle, config)
    expected = 18 if window is None else window[1] - window[0] + 1
    assert report.commit_count == oracle.commit_count == expected
    assert report.classifications == oracle.classifications
    assert report.summary == oracle.summary
    assert_untraced_matches(config, report, oracle)


@pytest.mark.parametrize("normalize", ["pre", "post"])
def test_oracle_diagnostics_match_pipeline(bundle_writer, normalize):
    # `#` and `€` lex to fallback tokens; B.java's token side is over the
    # cap while its line side is not, so it is skipped at both.
    euros = "".join(f"int b{i} = €;\n" for i in range(8))
    bundle = bundle_writer([
        {"id": "c0", "timestamp": 1,
         "files": [{"path": "A.java", "before": None, "after": "int a = 1; # €\n"},
                   {"path": "B.java", "before": None, "after": euros}]},
    ])
    config = AnalysisConfig(source=str(bundle), bundle=True, diff_size_cap=20,
                            normalize=normalize)
    report, oracle = run_analysis(config), oracle_classify(bundle, config)
    assert oracle.diagnostics["skipped_oversize_files"] == \
        report.diagnostics["skipped_oversize_files"] != []
    assert oracle.diagnostics["fallback_tokens"] == report.diagnostics["fallback_tokens"] == 10
    assert oracle.diagnostics == report.diagnostics

    # A new line with no new token: the commit is acceptable as lines only.
    respaced = bundle_writer([
        {"id": "c0", "timestamp": 1,
         "files": [{"path": "A.java", "before": None, "after": "int a=1;\n"}]},
        {"id": "c1", "timestamp": 2,
         "files": [{"path": "A.java", "before": "int a=1;\n", "after": "int a = 1;\n"}]},
    ], name="respaced")
    config = AnalysisConfig(source=str(respaced), bundle=True, normalize=normalize)
    report, oracle = run_analysis(config), oracle_classify(respaced, config)
    assert oracle.diagnostics["divergent_acceptability"] == [
        {"commit_id": "c1", "order_index": 1, "acceptable_line": True,
         "acceptable_token": False},
    ]
    assert oracle.diagnostics == report.diagnostics

    # In post mode B re-adds a raw line of A whose words were comment text
    # in A, so c1 is line-redundant but not token-redundant. Its dump lists
    # A's removed line too.
    line = " ".join(f"k{i}" for i in range(1, 13)) + " */ s;"
    commented = bundle_writer([
        {"id": "c0", "timestamp": 1,
         "files": [{"path": "A.java", "before": None, "after": f"x;\n/*\n{line}\n"}]},
        {"id": "c1", "timestamp": 2,
         "files": [{"path": "A.java", "before": f"x;\n/*\n{line}\n", "after": f"/*\n{line}\n"},
                   {"path": "B.java", "before": None, "after": f"{line}\n"}]},
    ], name="commented")
    config = AnalysisConfig(source=str(commented), bundle=True, normalize=normalize)
    report, oracle = run_analysis(config), oracle_classify(commented, config)
    violations = oracle.diagnostics["subsumption_violations"]
    if normalize == "post":
        assert [(v["commit_id"], v["scope"]) for v in violations] == [("c1", "global")]
        assert {d["removed_count"] for d in violations[0]["deltas"]} != {0}
    else:
        assert violations == []
    assert oracle.diagnostics == report.diagnostics
