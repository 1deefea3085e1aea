"""One analysis in a fresh interpreter; prints one JSON object on stdout.

    python3 bench/worker.py e2e   '<AnalysisConfig fields as JSON>'
    python3 bench/worker.py setup '<AnalysisConfig fields as JSON>'
    python3 bench/worker.py trace '<AnalysisConfig fields as JSON>'
    python3 bench/worker.py peak  <file holding one [before, after] pair>

``e2e`` runs the pipeline once with tracing off, the way a user's batch job
does: ``open_source`` -> ``analyze_commits`` -> ``emit_report``. ``setup``
stops at the first commit, for more set-up samples. ``trace``
does the same once for the report to check, then drives every layer
through its public functions, one span per layer, for the per-layer
breakdown. ``run.py`` starts this with ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import tempred
from tempred.differ import diff_fragments
from tempred.fragmenter import Granularity, LexStats, fragment_lines, lex
from tempred.history import FileFilterRules, filter_files
from tempred.redundancy import ScopedPools, classify_commit, index_commit, summarize
from tempred.report import (
    AnalysisConfig,
    Report,
    analyze_commits,
    emit_report,
    iter_changesets,
    open_source,
    report_to_dict,
)

SUMMARY_KEYS = ("commit_count", "acceptable_commits", "metrics")


def summary_of(report: Report) -> dict:
    """The report's deterministic result: commit count, acceptable counts per
    granularity and every metrics row."""
    full = report_to_dict(report)
    return {key: full[key] for key in SUMMARY_KEYS}


class TimedStream:
    """Iterator wrapper that stamps each request the pipeline makes.

    Commit *i*'s latency is the gap between the requests for *i* and *i+1*:
    reading it from the source plus processing it.
    """

    def __init__(self, commits) -> None:
        self._commits = iter(commits)
        self.requests_ns: list[int] = []
        self.first_commit_at: float | None = None

    def __iter__(self):
        return self

    def __next__(self):
        self.requests_ns.append(time.perf_counter_ns())
        commit = next(self._commits)
        if self.first_commit_at is None:
            self.first_commit_at = time.clock_gettime(time.CLOCK_MONOTONIC)
        return commit

    def latencies_ms(self) -> list[float]:
        r = self.requests_ns
        return [(b - a) / 1e6 for a, b in zip(r, r[1:])]


def _status_mb(field: str) -> float:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no {field} in /proc/self/status")


def peak_rss_mb() -> float:
    """This process's own peak RSS (Linux ``VmHWM``). ``ru_maxrss`` is no use
    here: across ``exec`` it keeps the peak of the process that started us."""
    return _status_mb("VmHWM")


def run_pipeline(config: AnalysisConfig) -> tuple[Report, str, TimedStream, float]:
    """The untraced path: source to serialized report, timed as a whole."""
    t0 = time.perf_counter()
    warnings: list[str] = []
    stream = TimedStream(open_source(config, on_warning=warnings.append))
    report = analyze_commits(stream, config, warnings)
    text = emit_report(report, config.output_format)
    return report, text, stream, time.perf_counter() - t0


def e2e(config: AnalysisConfig) -> dict:
    report, text, stream, wall = run_pipeline(config)
    latencies = stream.latencies_ms()
    return {
        "commits": report.commit_count,
        "wall_s": wall,
        "first_commit_at": stream.first_commit_at,
        "latencies_ms": latencies,
        "peak_rss_mb": peak_rss_mb(),
        "digest": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "summary": summary_of(report),
    }


def setup(config: AnalysisConfig) -> dict:
    """Only the set-up: import, open the source, take the first commit."""
    commits = open_source(config)
    stream = TimedStream(commits)
    next(stream)
    commits.close()
    return {"first_commit_at": stream.first_commit_at}


class Spans:
    """Time spent in calls into each layer, kept in memory per span name."""

    def __init__(self) -> None:
        self.by_name: dict[str, dict] = {}

    def add(self, name: str, start: float) -> float:
        """Close a span opened at ``start`` (a ``perf_counter`` reading)."""
        elapsed = time.perf_counter() - start
        span = self.by_name.setdefault(name, {"calls": 0, "s": 0.0})
        span["calls"] += 1
        span["s"] += elapsed
        return elapsed

    def total(self, name: str) -> float:
        return self.by_name[name]["s"]

    def overhead_s(self) -> float:
        """The spans' own cost: spans closed so far times the time one empty
        span takes here."""
        probes = 200_000
        calls = sum(span["calls"] for span in self.by_name.values())
        empty = Spans()
        start = time.perf_counter()
        for _ in range(probes):
            empty.add("empty", time.perf_counter())
        return calls * (time.perf_counter() - start) / probes


def _count_spawns() -> tuple[list[int], type]:
    """Count every ``subprocess.Popen`` this process creates from now on."""
    count = [0]
    real = subprocess.Popen

    class CountingPopen(real):  # type: ignore[misc, valid-type]
        def __init__(self, *args, **kwargs) -> None:
            count[0] += 1
            super().__init__(*args, **kwargs)

    subprocess.Popen = CountingPopen  # type: ignore[misc]
    return count, real


def _child_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def largest_pair_peak_mb(pair: tuple, scratch: Path) -> float:
    """Peak memory the differ adds on one pair, from a fresh interpreter.

    ``tracemalloc`` would slow the D-squared inner loop by minutes on the
    largest ``rewrites`` pair, so the pair is diffed in a new process and
    its peak RSS above the resident set it had just before the diff is
    reported instead.
    """
    path = scratch / "largest_pair.json"
    path.write_text(json.dumps(pair))
    try:
        env = {**os.environ, "PYTHONPATH": str(Path(tempred.__file__).resolve().parents[1])}
        proc = subprocess.run([sys.executable, __file__, "peak", str(path)],
                              stdout=subprocess.PIPE, env=env, check=True)
    finally:
        path.unlink()
    return json.loads(proc.stdout)["peak_mb"]


def peak(path: str) -> dict:
    before, after = json.loads(Path(path).read_text())
    baseline = _status_mb("VmRSS")
    diff_fragments(before, after)
    return {"peak_mb": peak_rss_mb() - baseline}


def trace(config: AnalysisConfig) -> dict:
    report, text, _, _ = run_pipeline(config)
    spans = Spans()
    m: dict[str, float] = {}

    # history: drain the source into memory.
    spawns, real_popen = _count_spawns()
    cpu0 = _child_cpu_s()
    try:
        start = time.perf_counter()
        commits = list(open_source(config))
        m["history.ingest_s"] = spans.add("history.ingest", start)
    finally:
        subprocess.Popen = real_popen  # type: ignore[misc]
    m["history.git_spawns"] = spawns[0]
    m["history.child_cpu_s"] = _child_cpu_s() - cpu0
    rules = FileFilterRules(config.include_globs, config.exclude_globs)
    changes = [fc for c in commits for fc in c.file_changes]
    retained = [fc for c in commits for fc in filter_files(c.file_changes, rules)]
    sides = [t for fc in changes for t in (fc.before, fc.after) if t is not None]
    m["history.commits"] = len(commits)
    m["history.file_sides"] = len(sides)
    m["history.bytes"] = sum(len(t.encode("utf-8")) for t in sides)
    m["history.filtered_out"] = len(changes) - len(retained)

    # fragmenter: each distinct retained file version once per granularity.
    retained_sides = [t for fc in retained for t in (fc.before, fc.after) if t is not None]
    distinct = list(dict.fromkeys(retained_sides))
    lex_stats = LexStats()
    start = time.perf_counter()
    lines = {t: fragment_lines(t) for t in distinct}
    m["fragmenter.line_s"] = spans.add("fragmenter.line", start)
    start = time.perf_counter()
    tokens = {t: lex(t, stats=lex_stats) for t in distinct}
    m["fragmenter.token_s"] = spans.add("fragmenter.token", start)
    m["fragmenter.distinct_texts"] = len(distinct)
    m["fragmenter.distinct_ratio"] = len(distinct) / max(1, len(retained_sides))
    m["fragmenter.chars"] = sum(len(t) for t in distinct)
    m["fragmenter.lines"] = sum(len(v) for v in lines.values())
    m["fragmenter.tokens"] = sum(len(v) for v in tokens.values())
    m["fragmenter.fallback_tokens"] = lex_stats.fallback_tokens

    # differ: every retained file pair at every granularity.
    by_granularity = {Granularity.LINE: lines, Granularity.TOKEN: tokens}
    pairs = fragments_in = edits = max_d = largest_d = 0
    largest: tuple = ((), ())
    start = time.perf_counter()
    for fc in retained:
        for g in config.granularities:
            frags = by_granularity[g]
            before = frags[fc.before] if fc.before is not None else []
            after = frags[fc.after] if fc.after is not None else []
            if len(before) + len(after) > config.diff_size_cap:
                continue
            delta = diff_fragments(before, after, path=fc.path, granularity=g)
            d = len(delta.added) + len(delta.removed)
            pairs += 1
            fragments_in += len(before) + len(after)
            edits += d
            max_d = max(max_d, d)
            # A file added or deleted never enters the Myers loop; the
            # memory probe wants the costliest pair that does.
            if before and after and d > largest_d:
                largest_d, largest = d, (before, after)
    m["differ.diff_s"] = spans.add("differ.diff", start)
    m["differ.pairs"] = pairs
    m["differ.fragments_in"] = fragments_in
    m["differ.edits"] = edits
    m["differ.max_d"] = max_d
    m["differ.peak_alloc_mb"] = largest_pair_peak_mb(largest, Path(config.source).parent)

    # report: the pipeline's own fragment+diff pass, caches included.
    start = time.perf_counter()
    changesets = list(iter_changesets(commits, config))
    m["report.changesets_s"] = spans.add("report.changesets", start)

    # redundancy: the pools driven directly on the changesets.
    pools = {g: ScopedPools.create(g) for g in config.granularities}
    classifications: dict = {g: [] for g in config.granularities}
    lookups = 0
    for cs in changesets:
        start = time.perf_counter()
        verdicts = [classify_commit(pools[g], cs, g, scopes=config.scopes)
                    for g in config.granularities]
        spans.add("redundancy.classify", start)
        start = time.perf_counter()
        for g in config.granularities:
            index_commit(pools[g], cs, g)
        spans.add("redundancy.index", start)
        for v in verdicts:
            classifications[v.granularity].append(v)
            lookups += v.added_count * len(config.scopes)
    m["redundancy.classify_s"] = spans.total("redundancy.classify")
    m["redundancy.index_s"] = spans.total("redundancy.index")
    start = time.perf_counter()
    summary = summarize(classifications, pools, project=config.project_name,
                        scopes=config.scopes)
    m["redundancy.summarize_s"] = spans.add("redundancy.summarize", start)
    m["redundancy.lookups"] = lookups
    m["redundancy.global_pool"] = sum(p.global_pool.size for p in pools.values())
    m["redundancy.local_pools"] = sum(len(p.local_pools) for p in pools.values())

    start = time.perf_counter()
    traced_text = emit_report(report, config.output_format)
    m["report.serialize_s"] = spans.add("report.serialize", start)
    m["report.json_bytes"] = len(traced_text.encode("utf-8"))

    m["bench.trace_overhead_s"] = spans.overhead_s()

    layered = Report(project=config.project_name, summary=summary,
                     classifications=classifications, diagnostics={}, config_echo={},
                     commit_count=len(changesets))
    return {
        "metrics": m,
        "spans": spans.by_name,
        "digest": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "summary": summary_of(report),
        "layered_summary": summary_of(layered),
    }


def main(argv: list[str]) -> int:
    mode, arg = argv[1], argv[2]
    if mode == "peak":
        result = peak(arg)
    else:
        modes = {"e2e": e2e, "setup": setup, "trace": trace}
        result = modes[mode](AnalysisConfig(**json.loads(arg)))
        result["tempred_version"] = tempred.__version__
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
