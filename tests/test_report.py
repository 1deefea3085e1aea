"""Report pipeline, serialization, and CLI tests."""

from __future__ import annotations

import ast
import gc
import io
import json
import os
import subprocess
import sys
import tracemalloc
import weakref
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import tempred
from tempred import differ as differ_module
from tempred import history as history_module
from tempred import report as report_module
from tempred.cli import main
from tempred.errors import ConfigurationError
from tempred.fragmenter import Granularity, LexStats, fragment_lines, lex, lex_line
from tempred.history import (
    DEFAULT_EXCLUDE_GLOBS,
    DEFAULT_INCLUDE_GLOBS,
    CommitRecord,
    FileChange,
    export_bundle,
    load_history_bundle,
)
from tempred.redundancy import NOVEL_FRAGMENT_CAP, Scope, ScopedPools, index_commit
from tempred.report import (
    ALL_GRANULARITIES,
    POST,
    AnalysisConfig,
    analyze_commits,
    emit_report,
    format_percent,
    iter_changesets,
    open_source,
    render_table,
    report_to_dict,
    run_analysis,
)
from tempred.synth import HistorySpec, _Generator, generate_history, oracle_classify

from conftest import GitRepoBuilder, assert_untraced_matches, write_bundle


@pytest.fixture(scope="module")
def schema() -> dict:
    text = resources.files("tempred").joinpath("report.schema.json").read_text("utf-8")
    return json.loads(text)


@pytest.fixture
def small_bundle(tmp_path):
    return generate_history(
        HistorySpec(seed=31, commit_count=14, file_count=3,
                    fragment_alphabet_size=40, reuse_probability=0.55,
                    locality_bias=0.6),
        tmp_path / "bundle",
    )


def test_config_requires_granularity_and_scope():
    with pytest.raises(ConfigurationError):
        AnalysisConfig(source="x", granularities=())
    with pytest.raises(ConfigurationError):
        AnalysisConfig(source="x", scopes=())
    with pytest.raises(ConfigurationError):
        AnalysisConfig(source="x", normalize="sideways")
    with pytest.raises(ConfigurationError, match="unknown output format 'xml'"):
        AnalysisConfig(source="x", output_format="xml")


def test_config_rejects_repeated_granularities_and_scopes():
    with pytest.raises(ConfigurationError, match="each granularity may be selected once"):
        AnalysisConfig(source="x", granularities=("line", "token", "line"))
    with pytest.raises(ConfigurationError, match="each scope may be selected once"):
        AnalysisConfig(source="x", scopes=("global", "global"))
    config = AnalysisConfig(source="x", granularities=("token", "line"), scopes=("local",))
    assert config.granularities == (Granularity.TOKEN, Granularity.LINE)


def test_config_rejects_negative_diff_size_cap():
    with pytest.raises(ConfigurationError, match="diff_size_cap"):
        AnalysisConfig(source="x", diff_size_cap=-1)
    assert AnalysisConfig(source="x", diff_size_cap=0).diff_size_cap == 0


def test_config_rejects_unknown_granularity_with_configuration_error():
    with pytest.raises(ConfigurationError, match="'lines' is not a valid Granularity"):
        AnalysisConfig(source="x", granularities=("lines",))


def test_config_rejects_unknown_scope_with_configuration_error():
    with pytest.raises(ConfigurationError, match="'file' is not a valid Scope"):
        AnalysisConfig(source="x", scopes=("global", "file"))


@pytest.mark.parametrize("field", ["since", "until", "diff_size_cap"])
@pytest.mark.parametrize("value", ["abc", 1.5, True])
def test_config_rejects_bounds_that_are_not_integers(field, value):
    with pytest.raises(ConfigurationError, match=f"{field} must be an integer"):
        AnalysisConfig(source="x", **{field: value})


@pytest.mark.parametrize("field", ["include_globs", "exclude_globs"])
def test_config_rejects_a_string_of_globs(field):
    with pytest.raises(ConfigurationError, match=f"{field} must be a sequence of globs"):
        AnalysisConfig(source="x", **{field: "**/*.java"})


@pytest.mark.parametrize("field", ["include_globs", "exclude_globs"])
def test_config_rejects_a_glob_that_is_not_a_string(field):
    with pytest.raises(ConfigurationError, match=f"{field} must hold strings, got 1"):
        AnalysisConfig(source="x", **{field: ["**/*.java", 1]})


@pytest.mark.parametrize("value", ["no", 1, None])
@pytest.mark.parametrize("field", ["bundle", "trace_commits"])
def test_config_rejects_flags_that_are_not_bools(field, value):
    with pytest.raises(ConfigurationError, match=f"{field} must be True or False"):
        AnalysisConfig(source="x", **{field: value})


@pytest.mark.parametrize("field, value", [("source", 5), ("source", None), ("source", Path("r")),
                                          ("branch", 5), ("branch", None),
                                          ("project", 5), ("project", b"p")])
def test_config_rejects_names_that_are_not_strings(field, value):
    with pytest.raises(ConfigurationError, match=f"^{field} must be a string, got "):
        AnalysisConfig(**{"source": "x", field: value})


def test_config_takes_integer_or_absent_time_bounds():
    config = AnalysisConfig(source="x", since=None, until=5, diff_size_cap=7)
    assert (config.since, config.until, config.diff_size_cap) == (None, 5, 7)
    with pytest.raises(ConfigurationError, match="diff_size_cap must be an integer"):
        AnalysisConfig(source="x", diff_size_cap=None)


def test_config_constructs_compares_by_value_and_derives_validated_copies():
    config = AnalysisConfig("repo", trace_commits=True)
    assert (config.source, config.bundle, config.branch, config.since, config.until,
            config.granularities, config.scopes, config.include_globs, config.exclude_globs,
            config.normalize, config.output_format, config.trace_commits,
            config.diff_size_cap, config.project) == (
        "repo", False, "HEAD", None, None, (Granularity.LINE, Granularity.TOKEN),
        (Scope.GLOBAL, Scope.LOCAL), DEFAULT_INCLUDE_GLOBS, DEFAULT_EXCLUDE_GLOBS, "pre",
        "table", True, 200_000, None)
    same = AnalysisConfig(source="repo", trace_commits=True, granularities=["line", "token"],
                          exclude_globs=list(DEFAULT_EXCLUDE_GLOBS))
    assert config == same
    assert config != AnalysisConfig("repo") and config != config.echo()

    derived = config.replace(granularities=["token"], diff_size_cap=5)
    assert derived == AnalysisConfig("repo", trace_commits=True,
                                     granularities=(Granularity.TOKEN,), diff_size_cap=5)
    assert config == AnalysisConfig("repo", trace_commits=True)  # left as it was
    with pytest.raises(ConfigurationError, match="'lines' is not a valid Granularity"):
        config.replace(granularities=("lines",))
    with pytest.raises(ConfigurationError, match="include_globs must be a sequence"):
        config.replace(include_globs="**/*.java")
    with pytest.raises(TypeError):
        config.replace(colour="red")


def test_empty_bundle_report_has_zero_commits_and_null_redundancy(bundle_writer):
    bundle = bundle_writer([])
    report = run_analysis(AnalysisConfig(source=str(bundle), bundle=True))
    assert report.commit_count == 0
    for metric in report.summary.metrics:
        assert metric.temporal_redundancy is None
    payload = report_to_dict(report)
    assert payload["commit_count"] == 0


def test_report_json_validates_against_published_schema(small_bundle, schema):
    report = run_analysis(
        AnalysisConfig(source=str(small_bundle), bundle=True, trace_commits=True)
    )
    jsonschema.validate(report_to_dict(report), schema)


def test_empty_report_validates_against_schema(bundle_writer, schema):
    report = run_analysis(AnalysisConfig(source=str(bundle_writer([])), bundle=True))
    jsonschema.validate(report_to_dict(report), schema)


def test_repeated_runs_are_byte_identical(small_bundle):
    config = AnalysisConfig(source=str(small_bundle), bundle=True, trace_commits=True)
    first = emit_report(run_analysis(config), "json")
    second = emit_report(run_analysis(config), "json")
    assert first == second


def test_untraced_report_keeps_no_classifications_and_renders(small_bundle):
    config = AnalysisConfig(source=str(small_bundle), bundle=True)
    untraced = run_analysis(config)
    traced = run_analysis(config.replace(trace_commits=True))
    assert untraced.classifications is None
    traced_json = report_to_dict(traced)
    del traced_json["commits"]
    assert json.loads(emit_report(untraced, "json")) == traced_json
    for output_format in ("csv", "table"):
        assert emit_report(untraced, output_format) == emit_report(traced, output_format)


# (history, commit count) -> (bytes retained, peak bytes, distinct fragments
# in the global line and token pools) of one untraced run.
_UNTRACED_RUNS: dict[tuple[str, int], tuple[int, int, int]] = {}


def _untraced_run(name: str, spec: HistorySpec) -> tuple[int, int, int]:
    """What an untraced analysis of a generated history retains, its
    ``tracemalloc`` peak, and the size of its global pools."""
    key = name, spec.commit_count
    if key not in _UNTRACED_RUNS:
        commits = _Generator(spec).build()
        config = AnalysisConfig(source=name, bundle=True)
        # A full collection empties CPython's free lists, so the peak does not
        # depend on what ran before. CPython 3.11 then keeps every 20-tuple
        # freed into its free list and never takes one back out, up to 2,000
        # of them (400 KB); filling it first keeps that out of the peak.
        gc.collect()
        filler = [tuple(range(20)) for _ in range(2000)]
        del filler
        tracemalloc.start()
        try:
            report = analyze_commits(commits, config)
            peak = tracemalloc.get_traced_memory()[1]
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert report.commit_count == spec.commit_count
        pools = sum(m.pool_size for m in report.summary.metrics if m.scope is Scope.GLOBAL)
        _UNTRACED_RUNS[key] = retained, peak, pools
    return _UNTRACED_RUNS[key]


def _saturated_run(commit_count: int) -> tuple[int, int]:
    """What an untraced analysis of a reuse-saturated history retains, and its
    ``tracemalloc`` peak. Every line a commit adds after the first was added
    before, so the pools stop growing, while each file grows by about one
    line per edit."""
    spec = HistorySpec(seed=3, commit_count=commit_count, file_count=40, reuse_probability=1.0)
    return _untraced_run("saturated", spec)[:2]


def _fresh_run(commit_count: int) -> tuple[int, int, int]:
    """An untraced analysis of a history that keeps adding fresh code: no
    added line is drawn from earlier ones, and the alphabet is too large to
    repeat itself, so the pools grow with every commit."""
    spec = HistorySpec(seed=3, commit_count=commit_count, file_count=40,
                       fragment_alphabet_size=10**6, reuse_probability=0.0)
    return _untraced_run("fresh", spec)


@pytest.mark.parametrize("commit_count", [2000, 4000])
def test_untraced_run_retains_no_per_commit_memory(commit_count):
    # What the report holds must not grow with the history.
    retained, _ = _saturated_run(commit_count)
    assert retained < 64 * 2**10, f"{retained / 2**10:.1f} KiB"


def test_untraced_run_peak_stays_bounded_on_reuse_saturated_history():
    # The text map holds one version of each of the 40 files, and each
    # distinct line is held once, by the line memo.
    _, peak = _saturated_run(2000)
    assert peak < 2**20, f"{peak / 2**20:.2f} MiB"


def test_untraced_run_peak_is_flat_on_reuse_saturated_history():
    # Twice the commits: only the files, their local pools and their one
    # held version each grow, by about one line per edit.
    (_, short), (_, long) = _saturated_run(2000), _saturated_run(4000)
    assert long <= 1.15 * short, f"{short / 2**20:.2f} -> {long / 2**20:.2f} MiB"


# The peak of a fresh-content run per distinct fragment in its global pools:
# each new line and token, its memo entry, its pool entries and the texts
# that hold it. It was 254 B at 2,000 commits and 249 B at 4,000 on CPython
# 3.11, against 335 B and 331 B with a new string per lexed token.
FRESH_PEAK_PER_FRAGMENT = 280


@pytest.mark.parametrize("commit_count", [2000, 4000])
def test_untraced_run_peak_follows_distinct_fragments_on_fresh_history(commit_count):
    _, peak, pools = _fresh_run(commit_count)
    assert peak < FRESH_PEAK_PER_FRAGMENT * pools, f"{peak / pools:.0f} B a fragment"


def test_untraced_run_peak_grows_with_the_pools_on_fresh_history():
    (_, short, short_pools), (_, long, long_pools) = _fresh_run(2000), _fresh_run(4000)
    assert long_pools > 1.8 * short_pools
    assert long / short <= 1.15 * long_pools / short_pools, (
        f"{short / 2**20:.2f} -> {long / 2**20:.2f} MiB, {short_pools} -> {long_pools} fragments")


def test_equal_lines_are_one_string_in_texts_deltas_and_pools():
    # Every version is its own text, so splitting it gives new line strings;
    # only the line memo of a run that analyzes tokens can make equal lines
    # one object.
    rows = [f"int row{i} = {i};" for i in range(4)]
    a0, a1 = "\n".join(rows[:2]) + "\n", "\n".join(rows[:3]) + "\n"
    b0 = "\n".join(rows[1:]) + "\n"
    commits = [
        CommitRecord("c0", 0, 100, [FileChange("src/A.java", None, a0)]),
        CommitRecord("c1", 1, 200, [FileChange("src/A.java", a0, a1),
                                    FileChange("src/B.java", None, b0)]),
    ]
    config = AnalysisConfig(source="shared", bundle=True)
    granularities = config.granularities
    state = report_module._make_state(config)
    pools = {g: ScopedPools.create(g) for g in granularities}
    changes = []
    for commit in commits:
        changes.append(report_module._commit_changes(commit, config, state, pools))
        for granularity in granularities:
            index_commit(pools[granularity], changes[-1], granularity)
    texts = [state.fragment(text).lines for text in (a0, a1, b0)]
    assert texts[0] == tuple(rows[:2]) and texts[2] == tuple(rows[1:])
    row1 = texts[0][1]
    assert texts[1][1] is row1 and texts[2][0] is row1
    assert texts[1][2] is texts[2][1]
    added = [f for deltas in (c.deltas[Granularity.LINE] for c in changes)
             for delta in deltas for f in delta.added]
    assert added == [*rows[:2], rows[2], *rows[1:]]
    shared = {line: line for text in texts for line in text}
    assert all(shared[f] is f for f in added)
    keys = list(pools[Granularity.LINE].global_pool)
    assert keys == rows and all(shared[key] is key for key in keys)


def test_equal_tokens_and_lines_are_one_string_after_an_untraced_run(monkeypatch):
    # Lexing makes a new string for every token longer than one character;
    # only the memo's token table can make equal tokens one object.
    commits = _Generator(HistorySpec(seed=5, commit_count=200, file_count=6,
                                     reuse_probability=0.6, locality_bias=0.2,
                                     token_recombination=0.3)).build()
    states, pools = [], {}

    def recording_make_state(config):
        states.append(make_state(config))
        return states[-1]

    def recording_index_commit(scoped, changes, granularity):
        pools[granularity] = scoped
        index_commit(scoped, changes, granularity)

    make_state = report_module._make_state
    monkeypatch.setattr(report_module, "_make_state", recording_make_state)
    monkeypatch.setattr(report_module, "index_commit", recording_index_commit)
    analyze_commits(commits, AnalysisConfig(source="reuse", bundle=True))
    [state] = states
    entries = state.memo.entries.values()
    texts = [text for _, text in state.texts.values()]
    for granularity, held in ((Granularity.LINE, [line for line, _, _ in entries]),
                              (Granularity.TOKEN, [t for _, ts, _ in entries for t in ts])):
        scoped = pools[granularity]
        in_texts = [f for text in texts for f in (
            text.lines if granularity is Granularity.LINE else
            [t for ts in text.tokens for t in ts])]
        # Cross-file reuse: some fragment is in more than one local pool.
        local_keys = [f for local in scoped.local_pools.values() for f in local]
        assert len(local_keys) > len(set(local_keys))
        everywhere = [*held, *in_texts, *scoped.global_pool, *local_keys]
        assert len({id(f) for f in everywhere}) == len(set(everywhere)), granularity
    assert all(key is line for key, (line, _, _) in state.memo.entries.items())


def test_only_pre_mode_token_runs_keep_a_line_memo(small_bundle, monkeypatch):
    states = []

    def recording_make_state(config):
        states.append(make_state(config))
        return states[-1]

    def no_lexer(*args, **kwargs):
        raise AssertionError("a run of lines alone lexes nothing")

    make_state = report_module._make_state
    monkeypatch.setattr(report_module, "_make_state", recording_make_state)
    config = AnalysisConfig(source=str(small_bundle), bundle=True)
    for granularities in (ALL_GRANULARITIES, ("line",), ("token",)):
        run_analysis(config.replace(normalize=POST, granularities=granularities))
    run_analysis(config)
    assert [state.memo for state in states[:3]] == [None] * 3
    assert isinstance(states[3].memo, report_module._LineMemo)

    monkeypatch.setattr(report_module, "lex_line", no_lexer)
    monkeypatch.setattr(report_module, "lex", no_lexer)
    run_analysis(config.replace(granularities=("line",)))
    line_only = states[4]
    texts = [text for _, text in line_only.texts.values()]
    assert line_only.memo is None and texts
    assert all(text.lines and text.tokens == () and text.token_count == 0 for text in texts)


@pytest.mark.parametrize("trace_commits", [False, True])
def test_line_measure_does_not_depend_on_analyzing_tokens(trace_commits):
    # Lines shared across files, so that global and local verdicts differ.
    commits = _Generator(HistorySpec(seed=5, commit_count=200, file_count=6,
                                     reuse_probability=0.6, locality_bias=0.2,
                                     token_recombination=0.3)).build()
    config = AnalysisConfig(source="reuse", bundle=True, trace_commits=trace_commits)
    both = analyze_commits(commits, config)
    line_only = analyze_commits(commits, config.replace(granularities=("line",)))
    line_rows = [m for m in both.summary.metrics if m.granularity is Granularity.LINE]
    assert line_only.summary.metrics == line_rows
    assert line_rows[0].redundant_commits > line_rows[1].redundant_commits > 0
    assert line_only.summary.acceptable_commits == {
        Granularity.LINE: both.summary.acceptable_commits[Granularity.LINE]}
    assert line_only.commit_count == both.commit_count == 200
    if trace_commits:
        assert line_only.classifications == {
            Granularity.LINE: both.classifications[Granularity.LINE]}


def test_csv_has_one_row_per_project_granularity_scope(small_bundle):
    report = run_analysis(AnalysisConfig(source=str(small_bundle), bundle=True))
    lines = emit_report([report, report], "csv").strip().splitlines()
    header, rows = lines[0], lines[1:]
    assert header.split(",")[:3] == ["project", "granularity", "scope"]
    assert len(rows) == 2 * 2 * 2  # projects x granularities x scopes


def test_csv_row_count_follows_selection(small_bundle):
    report = run_analysis(
        AnalysisConfig(source=str(small_bundle), bundle=True,
                       granularities=(Granularity.LINE,), scopes=(Scope.GLOBAL,))
    )
    rows = emit_report(report, "csv").strip().splitlines()[1:]
    assert len(rows) == 1


def test_percent_rendering_matches_rounding_rule():
    assert format_percent(None) == "n/a"
    assert format_percent(0.09) == "9%"
    assert format_percent(0.39) == "39%"
    assert format_percent(0.394) == "39%"
    assert format_percent(0.125) == f"{round(12.5)}%"
    assert format_percent(1.0) == "100%"
    assert format_percent(0.0) == "0%"


def test_table_renders_summary_percentages(small_bundle):
    # A summary in the shape of a published per-project row: 1687 acceptable
    # commits, 9% line-global and 39% token-global redundancy.
    report = run_analysis(AnalysisConfig(source=str(small_bundle), bundle=True))
    metrics = []
    for metric in report.summary.metrics:
        metric = metric._replace(acceptable_commits=1687)
        if metric.scope is Scope.GLOBAL:
            metric = metric._replace(
                temporal_redundancy=0.09 if metric.granularity is Granularity.LINE else 0.39
            )
        metrics.append(metric)
    summary = report.summary._replace(
        acceptable_commits={Granularity.LINE: 1687, Granularity.TOKEN: 1687}, metrics=metrics)
    table = render_table([report._replace(summary=summary)])
    row = table.splitlines()[2]
    assert "1687" in row
    assert "9%" in row
    assert "39%" in row


def test_table_renders_null_redundancy_as_na(bundle_writer):
    report = run_analysis(AnalysisConfig(source=str(bundle_writer([])), bundle=True))
    table = emit_report(report, "table")
    assert "n/a" in table


def test_json_ratios_stay_within_unit_interval(small_bundle):
    report = run_analysis(AnalysisConfig(source=str(small_bundle), bundle=True))
    payload = report_to_dict(report)
    for metric in payload["metrics"]:
        value = metric["temporal_redundancy"]
        assert value is None or 0.0 <= value <= 1.0


def test_scope_selection_limits_classification_work(small_bundle):
    report = run_analysis(
        AnalysisConfig(source=str(small_bundle), bundle=True, scopes=(Scope.GLOBAL,),
                       trace_commits=True)
    )
    for cls in report.classifications[Granularity.LINE]:
        assert Scope.LOCAL not in cls.redundant
    assert {m.scope for m in report.summary.metrics} == {Scope.GLOBAL}


def test_bundle_sources_honor_timestamp_range(bundle_writer):
    bundle = bundle_writer(
        [
            {"id": "c0", "timestamp": 100,
             "files": [{"path": "A.java", "before": None, "after": "a;\n"}]},
            {"id": "c1", "timestamp": 200,
             "files": [{"path": "A.java", "before": "a;\n", "after": "a;\nb;\n"}]},
            {"id": "c2", "timestamp": 300,
             "files": [{"path": "A.java", "before": "a;\nb;\n", "after": "a;\n"}]},
            # Outside every window below: its missing blob is never read.
            {"id": "c3", "timestamp": 400,
             "files": [{"path": "A.java", "before": "a;\n", "after": "@blobs/missing"}]},
        ]
    )
    report = run_analysis(
        AnalysisConfig(source=str(bundle), bundle=True, since=150, until=250,
                       trace_commits=True)
    )
    assert report.commit_count == 1
    cls = report.classifications[Granularity.LINE]
    assert [c.commit_id for c in cls] == ["c1"]
    assert cls[0].order_index == 0
    # The clipped commit still diffs against its recorded predecessor state.
    assert cls[0].added_count == 1
    for since, until, expected in [(150, 250, ["c1"]), (150, 300, ["c1", "c2"]),
                                   (None, 250, ["c0", "c1"]), (300, 300, ["c2"])]:
        commits = load_history_bundle(bundle, since=since, until=until)
        assert [(c.order_index, c.commit_id) for c in commits] == list(enumerate(expected))


def test_post_normalization_mode_runs_and_differs_in_config(small_bundle):
    pre = run_analysis(AnalysisConfig(source=str(small_bundle), bundle=True))
    post = run_analysis(
        AnalysisConfig(source=str(small_bundle), bundle=True, normalize="post")
    )
    assert pre.config_echo["normalize"] == "pre"
    assert post.config_echo["normalize"] == "post"
    # Generated histories carry no comments or blank-line noise, so the two
    # modes agree on acceptability here.
    assert pre.summary.acceptable_commits == post.summary.acceptable_commits


def test_post_mode_ignores_comment_only_edits(bundle_writer):
    before = "int a = 1;\n"
    after = "int a = 1; // note\n"
    bundle = bundle_writer(
        [
            {"id": "c0", "timestamp": 1,
             "files": [{"path": "A.java", "before": None, "after": before}]},
            {"id": "c1", "timestamp": 2,
             "files": [{"path": "A.java", "before": before, "after": after}]},
        ]
    )
    report = run_analysis(
        AnalysisConfig(source=str(bundle), bundle=True, normalize="post", trace_commits=True)
    )
    line_cls = report.classifications[Granularity.LINE]
    # The raw-line diff sees a changed line, but its replacement differs only
    # in the trailing comment, which post-filtering cannot hide: the new raw
    # line is kept verbatim and is not in the pool.
    assert line_cls[1].acceptable
    assert line_cls[1].redundant[Scope.GLOBAL] is False


def test_pre_mode_makes_comment_only_edits_invisible(bundle_writer):
    before = "int a = 1;\n"
    after = "int a = 1; // note\n"
    bundle = bundle_writer(
        [
            {"id": "c0", "timestamp": 1,
             "files": [{"path": "A.java", "before": None, "after": before}]},
            {"id": "c1", "timestamp": 2,
             "files": [{"path": "A.java", "before": before, "after": after}]},
        ]
    )
    report = run_analysis(AnalysisConfig(source=str(bundle), bundle=True, trace_commits=True))
    line_cls = report.classifications[Granularity.LINE]
    assert not line_cls[1].acceptable


def test_oversize_files_are_skipped_with_diagnostics(bundle_writer):
    big = "\n".join(f"int x{i} = {i};" for i in range(60)) + "\n"
    bundle = bundle_writer(
        [{"id": "c0", "timestamp": 1,
          "files": [{"path": "A.java", "before": None, "after": big}]}]
    )
    report = run_analysis(
        AnalysisConfig(source=str(bundle), bundle=True, diff_size_cap=10, trace_commits=True)
    )
    assert report.diagnostics["skipped_oversize_files"]
    assert not report.classifications[Granularity.LINE][0].acceptable


def test_line_token_memo_cap_changes_no_output(bundle_writer, monkeypatch):
    versions = [
        "int a = 1; // €\nString s = \"#x\";\n",
        "int a = 1; // €\nprice = €50; # tag\nString s = \"#x\";\n",
        "/* é\n */ price = €50; # tag\nchar c = '`';\nint a = 1;\n",
        "price = €50; # tag\nint a = 1;\nString t = \"open\nß = 2;\n",
    ]
    commits = [
        {"id": f"c{i}", "timestamp": i + 1, "files": [
            {"path": "A.java", "before": versions[i - 1] if i else None, "after": text},
            {"path": "B.java", "before": versions[i - 2] if i > 1 else None,
             "after": versions[i - 1] if i else text},
        ]}
        for i, text in enumerate(versions)
    ]
    bundle = bundle_writer(commits)
    config = AnalysisConfig(source=str(bundle), bundle=True, trace_commits=True)
    expected = emit_report(run_analysis(config), "json")
    # Counted over each kept file's new version, as whole-file lexing counts it.
    whole_file = LexStats()
    for commit in commits:
        for fc in commit["files"]:
            lex(fc["after"], stats=whole_file)
    assert whole_file.fallback_tokens == 11
    assert json.loads(expected)["diagnostics"]["fallback_tokens"] == whole_file.fallback_tokens

    # About two lines' worth: 1 + 5 fragments for "int a = 1;".
    monkeypatch.setattr(report_module, "LINE_MEMO_FRAGMENTS", 12)
    assert emit_report(run_analysis(config), "json") == expected
    state = report_module._make_state(config)
    for text in versions:
        state.fragment(text)
        memo = state.memo
        assert memo.held == sum(1 + len(tokens) for _, tokens, _ in memo.entries.values())
        assert 0 < memo.held <= 12
    assert len(memo.entries) < len({line for text in versions for line in fragment_lines(text)})


# Every bound on a run-path cache, path map, buffer or look-ahead window. None
# of them may change a report; a new ``lru_cache`` must name its bound here.
RUN_PATH_BOUNDS = [
    (report_module, "FRAGMENT_CACHE_PATHS"),
    (report_module, "LINE_MEMO_FRAGMENTS"),
    (history_module, "FILTER_MEMO_ENTRIES"),
    (history_module, "_REUSE_BLOB_PATHS"),
    (history_module, "_REQUEST_WINDOW"),
    (history_module, "_COMMIT_WINDOW"),
    (history_module, "_READ_CHUNK"),
    (differ_module, "LCS_BLOCK_BITS"),
]


@pytest.fixture(scope="module")
def fallback_history(tmp_path_factory) -> list[tuple[AnalysisConfig, str]]:
    """A git history with lexer fallbacks, a binary file, a side-branch merge, a
    revert, a copy and a reversed file (a pair that takes the bit-parallel
    LCS); the same history windowed and exported as a bundle; each run in
    both modes with the trace on, paired with its JSON report."""
    root = tmp_path_factory.mktemp("fallback")
    repo = GitRepoBuilder(root / "repo")
    v = [f"int café{i} = {i}; // € {i}\nString s{i} = \"#{i}\";\nprice{i} = €{i}; # tag\n"
         for i in range(5)]
    rows = [f"int row{i} = {i} €;\n" for i in range(30)]
    base = repo.commit({"src/A.java": v[0], "src/B.java": v[1], "src/L.java": "".join(rows)})
    repo.commit_binary("img.bin", b"\x89PNG\x00")
    repo.commit({"src/A.java": v[1]})
    repo.branch_from("side", base)
    repo.commit({"src/Side.java": v[3]})
    repo.checkout("main")
    repo.merge("side")
    repo.commit({"src/B.java": v[2], "src/L.java": "".join(reversed(rows))})
    repo.commit({"src/A.java": v[0]})  # a revert
    repo.commit({"src/C.java": v[2], "src/B.java": v[4]})  # a copy
    repo.commit({"src/A.java": v[3], "src/Side.java": None})
    repo.commit({"src/B.java": v[1], "src/L.java": "".join(rows)})
    timestamps = sorted(int(t) for t in repo._run("log", "--format=%ct").split())
    bundle = root / "bundle"
    status, _, err = run_cli("export-bundle", "--source", str(repo.path), "--out", str(bundle))
    assert status == 0, err
    sources = [
        {"source": str(repo.path)},
        {"source": str(repo.path), "since": timestamps[2], "until": timestamps[-2]},
        {"source": str(bundle), "bundle": True},
    ]
    runs = []
    for source in sources:
        for normalize in ("pre", "post"):
            config = AnalysisConfig(**source, normalize=normalize, trace_commits=True)
            runs.append((config, emit_report(run_analysis(config), "json")))
    return runs


def test_fallback_tokens_count_the_kept_files_new_versions(fallback_history):
    for config, output in fallback_history:
        expected = LexStats()
        for commit in open_source(config):
            for fc in commit.file_changes:
                if fc.after is not None and fc.path.endswith(".java"):
                    lex(fc.after, include_comments=config.normalize == POST, stats=expected)
        fallback_tokens = json.loads(output)["diagnostics"]["fallback_tokens"]
        assert fallback_tokens == expected.fallback_tokens > 0


@pytest.mark.parametrize("module, name", RUN_PATH_BOUNDS,
                         ids=[name for _, name in RUN_PATH_BOUNDS])
def test_no_run_path_bound_changes_a_report(fallback_history, monkeypatch, module, name):
    monkeypatch.setattr(module, name, 1)
    for config, expected in fallback_history:
        assert emit_report(run_analysis(config), "json") == expected, config.echo()


def test_every_lru_cache_bound_is_a_checked_run_path_bound():
    # The ``maxsize`` given to each ``lru_cache`` in the package, as written.
    bounds = []
    for path in sorted(Path(history_module.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            func = getattr(node, "func", None)
            if getattr(func, "id", getattr(func, "attr", None)) != "lru_cache":
                continue
            sizes = [*node.args[:1], *(k.value for k in node.keywords if k.arg == "maxsize")]
            bounds += [f"{path.name}: {ast.unparse(size)}" for size in sizes] or [
                f"{path.name}: lru_cache()"]
    checked = {f"{Path(module.__file__).name}: {name}" for module, name in RUN_PATH_BOUNDS}
    assert bounds and [b for b in bounds if b not in checked] == []


def test_dropped_caches_free_their_owners(git_repo, monkeypatch):
    """Every run-path cache wraps a module-level function, and the path maps
    hold only versions, so no cache or map forms a reference cycle that
    keeps its owner alive until the cyclic GC runs."""
    git_repo.commit({"A.java": "int a = 1;\n", "B.java": "int b = 1;\n"})
    git_repo.commit({"A.java": "int a = 2;\n"})
    plans: list[weakref.ref] = []

    class RecordedPlan(history_module._BlobPlan):
        def __init__(self, reader) -> None:
            super().__init__(reader)
            plans.append(weakref.ref(self))

    monkeypatch.setattr(history_module, "_BlobPlan", RecordedPlan)
    config = AnalysisConfig(source=str(git_repo.path), branch="main")
    gc.disable()
    try:
        state = report_module._make_state(config)
        for commit in open_source(config):
            for fc in commit.file_changes:
                assert state.rules.matches(fc.path)
                state.sides(fc)
            held = [list(plan().last) for plan in plans]
        # Each map holds one entry per path, the one changed last at the end.
        assert held == [list(state.texts)] == [["B.java", "A.java"]]
        owners = [weakref.ref(state), weakref.ref(state.rules), *plans]
        del state
        assert len(owners) == 3 and [ref() for ref in owners] == [None] * 3
    finally:
        gc.enable()


_X = "int a = 1;\nint b = 2;\n"
_Y = "int c = 3;\n"
_Z = "int c = 3;\nint a = 1;\n"

# Histories whose before-sides are not all their path's last after-side.
# Bundles allow this, and no such side may be taken from the path maps.
PATH_MAP_HISTORIES = {
    # Y is not X, so the second commit adds "int a = 1;", which X added
    # before: redundant. Diffed from X instead, it would add "int c = 3;".
    "before_is_not_the_last_after": [
        [("A.java", None, _X)],
        [("A.java", _Y, _Z)],
    ],
    "deleted_then_re_added": [
        [("A.java", None, _X), ("B.java", None, _Y)],
        [("A.java", _X, None)],
        [("A.java", None, _X)],
        [("A.java", _X, _Z), ("B.java", _Y, _X)],
    ],
    "one_path_twice_in_a_commit": [
        [("A.java", None, _X)],
        [("A.java", _X, _Y), ("A.java", _Y, _Z)],
        [("A.java", _Z, _X), ("A.java", _Y, _X)],
    ],
}


@pytest.mark.parametrize("storage", ["inline", "blobs"])
@pytest.mark.parametrize("name", sorted(PATH_MAP_HISTORIES))
def test_path_maps_serve_only_the_same_content(tmp_path, storage, name):
    records = [CommitRecord(f"c{i}", i, i + 1, [FileChange(*fc) for fc in files])
               for i, files in enumerate(PATH_MAP_HISTORIES[name])]
    if storage == "blobs":
        bundle = export_bundle(records, tmp_path / "bundle")
    else:
        bundle = write_bundle(tmp_path / "bundle", [
            {"id": r.commit_id, "timestamp": r.timestamp,
             "files": [{"path": fc.path, "before": fc.before, "after": fc.after}
                       for fc in r.file_changes]}
            for r in records
        ])
    assert list(load_history_bundle(bundle)) == records
    config = AnalysisConfig(source=str(bundle), bundle=True, trace_commits=True)
    report, oracle = run_analysis(config), oracle_classify(bundle, config)
    got, expected = report_to_dict(report), report_to_dict(oracle)
    del got["config_echo"], expected["config_echo"]
    assert got == expected
    assert_untraced_matches(config, report, oracle)


def test_subsumption_violation_deltas_are_capped(bundle_writer, schema):
    # In post mode lines are raw: A's second line, whose comment opens on the
    # line above, is kept as written, and B re-adds it on its own. B is
    # line-redundant, but k1..k12, "*" and "/" were comment text in A, so B is
    # not token-redundant.
    words = " ".join(f"k{i}" for i in range(1, 13))
    line = f"{words} */ s;"
    bundle = bundle_writer([
        {"id": "c0", "timestamp": 1,
         "files": [{"path": "A.java", "before": None, "after": f"/*\n{line}\n"}]},
        {"id": "c1", "timestamp": 2,
         "files": [{"path": "B.java", "before": None, "after": f"{line}\n"}]},
    ])
    report = run_analysis(AnalysisConfig(source=str(bundle), bundle=True, normalize="post"))
    payload = report_to_dict(report)
    jsonschema.validate(payload, schema)
    violations = payload["diagnostics"]["subsumption_violations"]
    assert [(v["commit_id"], v["scope"]) for v in violations] == [("c1", "global")]
    deltas = {d["granularity"]: d for d in violations[0]["deltas"]}
    assert deltas["line"] == {
        "path": "B.java", "granularity": "line", "added": [line], "added_count": 1,
        "removed": [], "removed_count": 0,
    }
    tokens = lex(line, include_comments=True)
    assert len(tokens) > NOVEL_FRAGMENT_CAP
    assert deltas["token"]["added"] == tokens[:NOVEL_FRAGMENT_CAP]
    assert deltas["token"]["added_count"] == len(tokens)
    item = schema["properties"]["diagnostics"]["properties"]["subsumption_violations"]["items"]
    delta_schema = item["properties"]["deltas"]["items"]["properties"]
    assert delta_schema["added"]["maxItems"] == NOVEL_FRAGMENT_CAP
    assert delta_schema["removed"]["maxItems"] == NOVEL_FRAGMENT_CAP


def test_changeset_groups_deltas_by_granularity(bundle_writer):
    # Each analyzed granularity gets one list of the commit's file deltas,
    # in file order, with the granularities in the configured order.
    bundle = bundle_writer([
        {"id": "c0", "timestamp": 1,
         "files": [{"path": "B.java", "before": None, "after": "int b;\n"},
                   {"path": "A.java", "before": None, "after": "int a;\n"}]},
    ])
    config = AnalysisConfig(source=str(bundle), bundle=True, granularities=("token", "line"))
    [changes] = iter_changesets(load_history_bundle(bundle), config)
    assert list(changes.deltas) == [Granularity.TOKEN, Granularity.LINE]
    for granularity, deltas in changes.deltas.items():
        assert [(d.path, d.granularity) for d in deltas] == [
            ("B.java", granularity), ("A.java", granularity)]


def test_subsumption_violation_lists_line_then_token_deltas_in_file_order(bundle_writer):
    # The history of test_subsumption_violation_deltas_are_capped, with the
    # violating line added to two files, listed out of name order: the dump
    # gives every line delta, then every token delta, each in file order.
    line = " ".join(f"k{i}" for i in range(1, 13)) + " */ s;"
    bundle = bundle_writer([
        {"id": "c0", "timestamp": 1,
         "files": [{"path": "A.java", "before": None, "after": f"/*\n{line}\n"}]},
        {"id": "c1", "timestamp": 2,
         "files": [{"path": "D.java", "before": None, "after": f"{line}\n"},
                   {"path": "B.java", "before": None, "after": f"{line}\n"}]},
    ])
    report = run_analysis(AnalysisConfig(source=str(bundle), bundle=True, normalize="post"))
    violations = report.diagnostics["subsumption_violations"]
    assert [(v["commit_id"], v["scope"]) for v in violations] == [("c1", "global")]
    assert [(d["granularity"], d["path"]) for d in violations[0]["deltas"]] == [
        ("line", "D.java"), ("line", "B.java"), ("token", "D.java"), ("token", "B.java"),
    ]


def test_file_over_the_cap_at_one_granularity_is_skipped_at_both(bundle_writer):
    # A has 3 lines and 33 tokens: over a cap of 30 as tokens only. It must
    # reach neither pool, or B re-adding two of its lines would be
    # line-redundant but not token-redundant.
    lines = [f"int a{i} = b + c + d + e;" for i in range(3)]
    bundle = bundle_writer([
        {"id": "c0", "timestamp": 1,
         "files": [{"path": "A.java", "before": None, "after": "\n".join(lines) + "\n"}]},
        {"id": "c1", "timestamp": 2,
         "files": [{"path": "B.java", "before": None, "after": "\n".join(lines[:2]) + "\n"}]},
    ])
    config = AnalysisConfig(source=str(bundle), bundle=True, diff_size_cap=30,
                            trace_commits=True)
    changes = list(iter_changesets(load_history_bundle(bundle), config))
    assert changes[0].deltas == {Granularity.LINE: [], Granularity.TOKEN: []}
    report = run_analysis(config)
    assert report.diagnostics["skipped_oversize_files"] == [
        {"commit_id": "c0", "path": "A.java", "granularity": "token", "fragments": 33},
    ]
    assert report.diagnostics["subsumption_violations"] == []
    for granularity in (Granularity.LINE, Granularity.TOKEN):
        first, second = report.classifications[granularity]
        assert not first.acceptable
        assert second.acceptable and not second.redundant[Scope.GLOBAL]
    oracle = oracle_classify(bundle, config)
    assert report.classifications == oracle.classifications
    assert report.summary == oracle.summary
    assert_untraced_matches(config, report, oracle)


def test_no_module_imports_a_private_name_from_another():
    # A private name has one owner: the module that defines it. A dunder such
    # as the package's ``__version__`` is public, not private.
    def private(name: str) -> bool:
        return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))

    offenders = []
    for path in sorted(Path(history_module.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                offenders += [f"{path.name}: from {'.' * node.level}{node.module or ''} "
                              f"import {alias.name}"
                              for alias in node.names if private(alias.name)]
    assert offenders == []


def test_package_exports_only_the_library_surface():
    import tempred

    assert set(tempred.__all__) == {
        "__version__", "AnalysisConfig", "ConfigurationError", "Report", "emit_report",
        "run_analysis",
    }
    for name in tempred.__all__:
        assert getattr(tempred, name) is not None
    assert _loaded_by("import tempred", "tempred.synth", "tempred.cli") == []


def _loaded_by(statement: str, *modules: str) -> list[str]:
    """Which of ``modules`` a fresh interpreter has loaded after ``statement``."""
    probe = f"import sys; {statement}; print(sorted(m for m in {modules!r} if m in sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(Path(report_module.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    return ast.literal_eval(out)


def test_cli_imports_neither_synth_nor_statistics():
    # Only `tempred oracle` needs the generator and the oracle.
    assert _loaded_by("import tempred.cli", "tempred.synth", "statistics") == []


def test_run_path_imports_neither_statistics_nor_csv():
    # Each adds to every run's start-up: for a median, for CSV output only, or
    # (logging) for a default warning sink that writes a line to stderr.
    assert _loaded_by("import tempred.report", "statistics", "csv", "logging") == []


def test_run_path_imports_neither_dataclasses_nor_hashlib():
    # ``dataclasses`` brings ``inspect`` and, through it, ``ast``, ``dis`` and
    # ``tokenize``; ``hashlib`` loads OpenSSL. Only bundle export names blobs.
    assert _loaded_by("import tempred.report", "dataclasses", "inspect", "ast", "dis",
                      "tokenize", "string", "hashlib") == []
    assert _loaded_by("import tempred.cli", "hashlib") == []


def test_redundancy_imports_neither_differ_nor_history():
    # The pool layer reads deltas and commits without importing their
    # modules. The package's own __init__ loads the whole run path, so the
    # probe registers an empty package in its place.
    package = str(Path(report_module.__file__).parent)
    stub = (f"import types; pkg = types.ModuleType('tempred'); pkg.__path__ = [{package!r}]; "
            "sys.modules['tempred'] = pkg; import tempred.redundancy")
    assert _loaded_by(stub, "tempred.redundancy", "tempred.differ", "tempred.history") == [
        "tempred.redundancy"]


def test_pre_mode_diffs_only_the_changed_lines_tokens(bundle_writer, monkeypatch):
    # One line of a 200-line file changes. Lexing sees single lines, and the
    # pairs handed to the differ are the changed line and its changed tokens.
    rows = [f"int row{i} = {i};" for i in range(200)]
    edited = rows[:100] + ["int row100 = -1;"] + rows[101:]
    text, new_text = "\n".join(rows) + "\n", "\n".join(edited) + "\n"
    bundle = bundle_writer([
        {"id": "c0", "timestamp": 1,
         "files": [{"path": "A.java", "before": None, "after": text}]},
        {"id": "c1", "timestamp": 2,
         "files": [{"path": "A.java", "before": text, "after": new_text}]},
    ])
    lexed: list[str] = []
    pairs: list[tuple] = []

    def recording_lex_line(source):
        lexed.append(source)
        return lex_line(source)

    def whole_text_lex(source, **kwargs):
        raise AssertionError("pre mode lexes no whole text")

    def recording_verdict_delta(before, after, *args, **kwargs):
        pairs.append((kwargs["granularity"], list(before), list(after)))
        return differ_module.verdict_delta(before, after, *args, **kwargs)

    monkeypatch.setattr(report_module, "lex_line", recording_lex_line)
    monkeypatch.setattr(report_module, "lex", whole_text_lex)
    monkeypatch.setattr(report_module, "verdict_delta", recording_verdict_delta)
    config = AnalysisConfig(source=str(bundle), bundle=True)
    report = run_analysis(config)
    assert lexed and all("\n" not in source for source in lexed)
    assert pairs[-2:] == [(Granularity.LINE, ["int row100 = 100;"], ["int row100 = -1;"]),
                          (Granularity.TOKEN, ["100"], ["-", "1"])]
    assert report.summary.acceptable_commits[Granularity.TOKEN] == 2
    state = report_module._make_state(config)
    tokens = state.fragment(text).tokens
    assert len(tokens) == 200 and all(isinstance(line, tuple) for line in tokens)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def run_cli(*args: str) -> tuple[int, str, str]:
    """Run ``tempred.cli.main`` in-process: ``(status, stdout, stderr)``. A
    usage error, ``--help`` and ``--version`` end in argparse's SystemExit."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        try:
            status = main(list(args))
        except SystemExit as exc:
            status = exc.code
    return status, stdout.getvalue(), stderr.getvalue()


def test_cli_analyze_bundle_json(small_bundle, schema):
    status, out, err = run_cli("analyze", "--source", str(small_bundle), "--bundle",
                               "--format", "json")
    assert status == 0, err
    jsonschema.validate(json.loads(out), schema)


def test_cli_entry_point_runs_in_a_fresh_interpreter(small_bundle):
    args = ["analyze", "--source", str(small_bundle), "--bundle", "--format", "json"]
    env = {**os.environ, "PYTHONPATH": str(Path(report_module.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-m", "tempred.cli", *args], env=env,
                          capture_output=True, text=True)
    config = AnalysisConfig(source=str(small_bundle), bundle=True, output_format="json")
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == emit_report(run_analysis(config), "json")


def test_cli_version_prints_the_package_version():
    assert run_cli("--version") == (0, f"tempred, version {tempred.__version__}\n", "")


def test_package_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11
    pyproject = Path(report_module.__file__).resolve().parents[2] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]
    assert project["version"] == tempred.__version__
    assert project["dependencies"] == []


def test_cli_imports_neither_click_nor_inspect():
    assert _loaded_by("import tempred.cli", "click", "inspect") == []


def test_cli_runs_are_byte_identical(small_bundle):
    args = ["analyze", "--source", str(small_bundle), "--bundle", "--format", "json"]
    first, second = run_cli(*args), run_cli(*args)
    assert first[0] == 0
    assert first == second


@pytest.mark.parametrize("option, field", [("--include", "include_globs"),
                                           ("--exclude", "exclude_globs")])
def test_cli_repeatable_globs_replace_the_default(small_bundle, option, field):
    def echoed(*args: str) -> list[str]:
        status, out, err = run_cli("analyze", "--source", str(small_bundle), "--bundle",
                                   "--format", "json", *args)
        assert status == 0, err
        return json.loads(out)["config_echo"][field]

    assert echoed(option, "**/*.kt") == ["**/*.kt"]
    assert echoed(option, "**/*.kt", option, "**/*.scala") == ["**/*.kt", "**/*.scala"]
    assert echoed() == list(getattr(AnalysisConfig(source="unused"), field))


def test_cli_table_output(small_bundle, bundle_writer):
    status, out, _ = run_cli("analyze", "--source", str(small_bundle), "--bundle")
    assert status == 0
    assert "project" in out
    assert "line global redundancy" in out
    # Re-spacing a line changes its line but none of its tokens.
    respaced = bundle_writer([
        {"id": "c0", "timestamp": 1,
         "files": [{"path": "A.java", "before": None, "after": "int a=1;\n"}]},
        {"id": "c1", "timestamp": 2,
         "files": [{"path": "A.java", "before": "int a=1;\n", "after": "int a = 1;\n"}]},
    ], "respaced")
    _, out, _ = run_cli("analyze", "--source", str(respaced), "--bundle")
    assert out.splitlines()[2].startswith("respaced  line:2/token:1  ")


def test_cli_write_to_file(small_bundle, tmp_path):
    out = tmp_path / "report.json"
    status, stdout, _ = run_cli("analyze", "--source", str(small_bundle), "--bundle",
                                "--format", "json", "--out", str(out))
    assert (status, stdout) == (0, "")
    assert json.loads(out.read_text(encoding="utf-8"))["project"] == "bundle"


def test_cli_empty_bundle_exits_zero(bundle_writer):
    status, out, _ = run_cli("analyze", "--source", str(bundle_writer([])), "--bundle",
                             "--format", "json")
    assert status == 0
    payload = json.loads(out)
    assert payload["commit_count"] == 0
    assert all(m["temporal_redundancy"] is None for m in payload["metrics"])


def _assert_usage_error(result: tuple[int, str, str], option: str) -> None:
    status, out, err = result
    assert (status, out) == (2, "")
    assert err.startswith("usage: tempred ")
    assert f"error: argument {option}: " in err


def test_cli_rejects_missing_source(tmp_path):
    plain_file = tmp_path / "plain.txt"
    plain_file.write_text("not a directory\n", encoding="utf-8")
    for source in (tmp_path / "nope", plain_file):
        _assert_usage_error(run_cli("analyze", "--source", str(source)), "--source")


@pytest.mark.parametrize("args, option", [
    (["--granularity", "foo"], "--granularity"),
    (["--format", "xml"], "--format"),
    (["--since", "yesterday"], "--since"),
], ids=["granularity", "format", "since"])
def test_cli_rejects_bad_values_with_usage_errors(small_bundle, args, option):
    _assert_usage_error(run_cli("analyze", "--source", str(small_bundle), "--bundle", *args),
                        option)


def test_cli_export_bundle_rejects_a_file_as_out(small_bundle, tmp_path):
    plain_file = tmp_path / "plain.txt"
    plain_file.write_text("not a directory\n", encoding="utf-8")
    result = run_cli("export-bundle", "--source", str(small_bundle), "--out", str(plain_file))
    _assert_usage_error(result, "--out")


def test_cli_reports_config_errors_nonzero(tmp_path):
    plain = tmp_path / "plain"
    plain.mkdir()
    result = run_cli("analyze", "--source", str(plain))
    _assert_clean_cli_error(result, "not a git repository")


def test_cli_export_bundle_then_analyze(git_repo, tmp_path):
    git_repo.commit({"src/A.java": "int a = 1;\n"})
    git_repo.commit({"src/A.java": "int a = 1;\nint b = 2;\n"})
    out_dir = tmp_path / "exported"
    status, out, err = run_cli("export-bundle", "--source", str(git_repo.path),
                               "--out", str(out_dir), "--branch", "main")
    assert (status, out) == (0, f"bundle written to {out_dir}\n"), err
    status, out, _ = run_cli("analyze", "--source", str(out_dir), "--bundle", "--format", "json")
    assert status == 0
    assert json.loads(out)["commit_count"] == 2


def test_cli_oracle_outputs_trace_json(small_bundle, bundle_writer):
    status, out, err = run_cli("oracle", "--bundle", str(small_bundle))
    assert status == 0, err
    payload = json.loads(out)
    assert payload["config_echo"]["engine"] == "oracle"
    assert payload["commits"]
    # Both engines return a Report, which renders alike in every format.
    config = AnalysisConfig(source=str(small_bundle), bundle=True)
    oracle, report = oracle_classify(small_bundle, config), run_analysis(config)
    assert payload["commit_count"] == oracle.commit_count == report.commit_count
    for fmt in ("csv", "table"):
        assert emit_report(oracle, fmt) == emit_report(report, fmt)
    # Both engines report the loader's warnings.
    unordered = str(bundle_writer([{"id": "c0", "timestamp": 200, "files": []},
                                   {"id": "c1", "timestamp": 100, "files": []}], "unordered"))
    warned = [json.loads(run_cli(*args)[1])["diagnostics"]["warnings"]
              for args in (["oracle", "--bundle", unordered],
                           ["analyze", "--source", unordered, "--bundle", "--format", "json"])]
    assert warned == [["commits[1]: timestamp 100 is earlier than its predecessor"]] * 2


def _assert_clean_cli_error(result: tuple[int, str, str], message: str) -> None:
    status, out, err = result
    assert (status, out) == (1, "")
    assert err.startswith("Error: ")
    assert err.count("\n") == 1 and message in err


def test_cli_rejects_negative_diff_size_cap(small_bundle):
    result = run_cli("analyze", "--source", str(small_bundle), "--bundle",
                     "--diff-size-cap", "-1")
    _assert_clean_cli_error(result, "diff_size_cap must be >= 0, got -1")


@pytest.mark.parametrize("option", [("--granularity", "line,line"), ("--scope", "global,global")])
def test_cli_rejects_repeated_selection(small_bundle, option):
    result = run_cli("analyze", "--source", str(small_bundle), "--bundle", "--format", "csv",
                     *option)
    _assert_clean_cli_error(result, "may be selected once")


def test_cli_oracle_out_into_missing_directory_is_a_clean_error(small_bundle, tmp_path):
    out = tmp_path / "missing" / "oracle.json"
    result = run_cli("oracle", "--bundle", str(small_bundle), "--out", str(out))
    _assert_clean_cli_error(result, "No such file or directory")
    assert not out.parent.exists()


def test_cli_multiple_sources_render_one_row_each(small_bundle, tmp_path):
    other = generate_history(HistorySpec(seed=77, commit_count=6), tmp_path / "other")
    status, out, _ = run_cli("analyze", "--source", str(small_bundle), "--source", str(other),
                             "--bundle", "--format", "csv")
    assert status == 0
    rows = out.strip().splitlines()[1:]
    assert len(rows) == 8
    projects = {row.split(",")[0] for row in rows}
    assert projects == {"bundle", "other"}
