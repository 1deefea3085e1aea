"""End-to-end analysis runs and report serialization.

``run_analysis`` drives the whole pipeline for one source: stream commits,
filter files, fragment, diff, classify against the pools, index, aggregate.
Reports carry the per-project metrics, diagnostics (including the line-vs-
token subsumption audit), and an echo of the configuration so a run can be
reproduced. Output is deterministic: the same source and config produce
byte-identical JSON.
"""

from __future__ import annotations

import io
import json
from collections import OrderedDict
from functools import partial
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from .differ import FileDelta, diff_fragments, pair_middles, verdict_delta
from .errors import ConfigurationError
from .fragmenter import (
    Granularity,
    LexStats,
    fragment_lines,
    is_comment_token,
    lex,
    lex_line,
    split_raw_lines,
    strip_comments,
)
from .history import (
    DEFAULT_EXCLUDE_GLOBS,
    DEFAULT_INCLUDE_GLOBS,
    CommitRecord,
    FileChange,
    FileFilterRules,
    filter_files,
    load_history_bundle,
    open_repository,
)
from .redundancy import (
    ALL_SCOPES,
    NOVEL_FRAGMENT_CAP,
    ChangeSet,
    CommitClassification,
    ProjectSummary,
    Scope,
    ScopedPools,
    VerdictCounts,
    classify_commit,
    index_commit,
    summarize_counts,
)

ALL_GRANULARITIES: tuple[Granularity, ...] = (Granularity.LINE, Granularity.TOKEN)

PRE = "pre"
POST = "post"

DEFAULT_DIFF_SIZE_CAP = 200_000


class AnalysisConfig:
    """Everything a run needs; echoed verbatim into the report. Configs
    compare by value; ``replace`` derives a changed, validated copy."""

    __slots__ = ("source", "bundle", "branch", "since", "until", "granularities", "scopes",
                 "include_globs", "exclude_globs", "normalize", "output_format",
                 "trace_commits", "diff_size_cap", "project")

    def __init__(
        self,
        source: str,
        bundle: bool = False,
        branch: str = "HEAD",
        since: int | None = None,
        until: int | None = None,
        granularities: Iterable[Granularity | str] = ALL_GRANULARITIES,
        scopes: Iterable[Scope | str] = ALL_SCOPES,
        include_globs: Iterable[str] = DEFAULT_INCLUDE_GLOBS,
        exclude_globs: Iterable[str] = DEFAULT_EXCLUDE_GLOBS,
        normalize: str = PRE,
        output_format: str = "table",
        trace_commits: bool = False,
        diff_size_cap: int = DEFAULT_DIFF_SIZE_CAP,
        project: str | None = None,
    ) -> None:
        self.source, self.bundle, self.branch = source, bundle, branch
        self.since, self.until, self.project = since, until, project
        self.normalize, self.output_format = normalize, output_format
        self.trace_commits, self.diff_size_cap = trace_commits, diff_size_cap
        try:
            self.granularities = tuple(Granularity(g) for g in granularities)
            self.scopes = tuple(Scope(s) for s in scopes)
        except ValueError as exc:
            raise ConfigurationError(str(exc)) from exc
        for name in ("since", "until", "diff_size_cap"):
            value = getattr(self, name)
            if value is None and name != "diff_size_cap":
                continue  # an open time bound
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigurationError(f"{name} must be an integer, got {value!r}")
        for name in ("bundle", "trace_commits"):
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise ConfigurationError(f"{name} must be True or False, got {value!r}")
        for name in ("source", "branch", "project"):
            value = getattr(self, name)
            if value is None and name == "project":
                continue  # named after the source
            if not isinstance(value, str):
                raise ConfigurationError(f"{name} must be a string, got {value!r}")
        for name, globs in (("include_globs", include_globs), ("exclude_globs", exclude_globs)):
            if isinstance(globs, str):
                raise ConfigurationError(f"{name} must be a sequence of globs, got {globs!r}")
            globs = tuple(globs)
            for glob in globs:
                if not isinstance(glob, str):
                    raise ConfigurationError(f"{name} must hold strings, got {glob!r}")
            setattr(self, name, globs)
        if not self.granularities:
            raise ConfigurationError("at least one granularity must be selected")
        if not self.scopes:
            raise ConfigurationError("at least one scope must be selected")
        for kind, chosen in (("granularity", self.granularities), ("scope", self.scopes)):
            if len(set(chosen)) < len(chosen):
                raise ConfigurationError(
                    f"each {kind} may be selected once, got "
                    f"{','.join(item.value for item in chosen)}"
                )
        if self.normalize not in (PRE, POST):
            raise ConfigurationError(f"normalize must be 'pre' or 'post', got {self.normalize!r}")
        if self.output_format not in ("json", "csv", "table"):
            raise ConfigurationError(f"unknown output format {self.output_format!r}")
        if self.diff_size_cap < 0:
            raise ConfigurationError(f"diff_size_cap must be >= 0, got {self.diff_size_cap}")

    def _fields(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def replace(self, **changes) -> AnalysisConfig:
        """A copy with ``changes`` applied, validated as a new config is."""
        return type(self)(**{**self._fields(), **changes})

    @property
    def project_name(self) -> str:
        return self.project or Path(self.source).name or self.source

    def echo(self) -> dict:
        return {
            "source": self.source,
            "bundle": self.bundle,
            "branch": self.branch,
            "since": self.since,
            "until": self.until,
            "granularities": [g.value for g in self.granularities],
            "scopes": [s.value for s in self.scopes],
            "include_globs": list(self.include_globs),
            "exclude_globs": list(self.exclude_globs),
            "normalize": self.normalize,
            "diff_size_cap": self.diff_size_cap,
        }


# Bound on the path -> last after-side map. A file's before-side is nearly
# always the after-side its path's last change wrote, so keeping that one
# version per path avoids re-fragmenting nearly everything.
FRAGMENT_CACHE_PATHS = 1024

# Bound on the fragments the line memo holds: one per line and one per
# token of each entry. Under ``tracemalloc``, on CPython 3.11, a memo holds
# 26 B a fragment filled with the distinct lines of the stdlib's top-level
# modules (81,248 lines, 9.3 tokens a line) and 32 B filled with those of a
# 4,000-commit synthetic history, strings included; so a full memo holds
# 13-16 MiB. The `git-3k` (seed 1) and `rewrites` (seed 3) runs end with
# 39,784 and 37,232 fragments held.
LINE_MEMO_FRAGMENTS = 1 << 19


class _Text(NamedTuple):
    """A file version's fragments. In ``pre`` mode ``lines`` are always
    kept, since pairs are trimmed by line; when tokens are analyzed, both
    they and the per-line token tuples in ``tokens`` are the line memo's
    objects. In ``post`` mode ``tokens`` is the whole file's. What a
    granularity not analyzed would fill is empty or 0."""

    lines: tuple[str, ...]
    tokens: tuple
    token_count: int
    fallback: int


_ABSENT = _Text((), (), 0, 0)


def _post_filter_line(fragment: str) -> bool:
    """Keep raw line fragments that are not whitespace-only or comment-only."""
    return bool(strip_comments(fragment).strip())


def post_filter_delta(delta: FileDelta) -> None:
    """Drop whitespace-only and comment-only fragments from a raw-mode delta."""
    if delta.granularity is Granularity.LINE:
        delta.added = [f for f in delta.added if _post_filter_line(f)]
        delta.removed = [f for f in delta.removed if _post_filter_line(f)]
    else:
        delta.added = [f for f in delta.added if not is_comment_token(f)]
        delta.removed = [f for f in delta.removed if not is_comment_token(f)]


class _LineMemo:
    """Normalized line -> (line, tokens, fallback count), shared across the
    files and commits of one ``pre``-mode run that analyzes tokens.

    ``entries`` is bounded by the fragments it holds, 1 + len(tokens) an
    entry, so that a few long lines cannot hold more than many short ones.
    A new entry that does not fit first drops the older entries, in
    insertion order, until the memo holds at most half its bound and the
    entry fits, and empties ``table``, which bounds the token table too. An
    entry heavier than the whole bound is returned but not kept. The token
    table is the run's own: ``sys.intern``'s strings are immortal from
    CPython 3.12, so they would outlive the run.
    """

    __slots__ = ("entries", "table", "held")

    def __init__(self) -> None:
        self.entries: dict[str, tuple[str, tuple[str, ...], int]] = {}
        self.table: dict[str, str] = {}
        # Fragments held: 1 + len(tokens) per entry.
        self.held = 0

    def add(self, line: str) -> tuple[str, tuple[str, ...], int]:
        """The entry for a line the memo does not hold, kept if it fits: the
        line itself, so that texts share the memo's string, its tokens and
        their fallback count. Each token is ``table``'s string for it, so
        equal tokens of different lines are one string too."""
        lexed, fallback = lex_line(line)
        # A list first, for the reason given in ``_fragment``.
        tokens = tuple(list(map(self.table.setdefault, lexed, lexed)))
        entry = line, tokens, fallback
        weight, bound = 1 + len(tokens), LINE_MEMO_FRAGMENTS
        if self.held + weight > bound:
            if weight > bound:
                return entry
            entries, limit = self.entries, min(bound // 2, bound - weight)
            for old in list(entries):
                if self.held <= limit:
                    break
                self.held -= 1 + len(entries.pop(old)[1])
            self.table.clear()
        self.entries[line] = entry
        self.held += weight
        return entry


def _fragment(granularities: tuple[Granularity, ...], normalize: str, memo: _LineMemo | None,
              text: str) -> _Text:
    if normalize == POST:
        stats = LexStats()
        tokens = (tuple(lex(text, include_comments=True, stats=stats))
                  if Granularity.TOKEN in granularities else ())
        lines = tuple(split_raw_lines(text)) if Granularity.LINE in granularities else ()
        return _Text(lines, tokens, len(tokens), stats.fallback_tokens)
    if memo is None:
        # Lines alone: nothing to lex.
        return _Text(tuple(fragment_lines(text)), (), 0, 0)
    # Lists, not tuples built from iterators: CPython resizes such a tuple to
    # its length, and its free lists then keep the tuple once it dies.
    cached = memo.entries.get
    entries = [cached(line) or memo.add(line) for line in fragment_lines(text)]
    lines, per_line, fallbacks = list(zip(*entries)) or ((), (), ())
    return _Text(lines, per_line, sum(map(len, per_line)), sum(fallbacks))


class _PipelineState:
    """What one run carries from commit to commit.

    ``texts`` maps each of the ``FRAGMENT_CACHE_PATHS`` paths changed most
    recently to its last after-side, as (text, ``_Text``). ``sides`` takes a
    before-side's ``_Text`` from its path's entry when the two texts are
    equal (``==`` returns at once for the same string, which both sources
    hand on for an edit), and fragments every other side with ``fragment``.
    One version per path is kept, so a revert or a copy of an older version
    is fragmented again.
    In ``pre`` mode, tokens never cross a normalized line: lexing a file
    gives the same tokens, and the same fallback count, as lexing each of
    its ``fragment_lines`` in turn (``fragmenter.lex_line``). So when tokens
    are analyzed, a text keeps, per line, the line and the token tuple of
    its ``memo`` entry, since most lines survive from one version to the
    next: a run holds one string per distinct line and one per distinct
    token, not one per file version, and no whole-file token tuple. ``pair``
    trims a file pair once by line and flattens only the tokens of the
    lines that differ (``differ.pair_middles``), so token work and memory
    follow the edit, not the file. Every other run has no ``memo``: a
    ``pre``-mode run of lines alone splits each side and lexes nothing,
    and ``post`` mode keeps comment tokens, which can span lines, so it
    lexes and diffs whole files. The memo holds no reference back to the
    state.
    """

    __slots__ = ("granularities", "normalize", "rules", "fallback_tokens", "skipped_oversize",
                 "diff_fallbacks", "memo", "fragment", "texts", "__weakref__")

    def __init__(self, granularities: tuple[Granularity, ...], normalize: str,
                 rules: FileFilterRules) -> None:
        self.granularities, self.normalize, self.rules = granularities, normalize, rules
        # Lexer fallbacks in the new versions of the retained files.
        self.fallback_tokens = 0
        self.skipped_oversize: list[dict] = []
        # File pairs for which ``verdict_delta`` gave no delta and the full
        # differ ran.
        self.diff_fallbacks = 0
        self.memo = (_LineMemo() if normalize == PRE and Granularity.TOKEN in granularities
                     else None)
        self.fragment = partial(_fragment, granularities, normalize, self.memo)
        self.texts: OrderedDict[str, tuple[str, _Text]] = OrderedDict()

    def sides(self, change: FileChange) -> tuple[_Text, _Text]:
        """The fragments of a change's before- and after-side, which then
        becomes its path's entry; a deletion drops the entry."""
        held = self.texts.pop(change.path, None)
        if change.before is None:
            before = _ABSENT
        elif held is not None and held[0] == change.before:
            before = held[1]
        else:
            before = self.fragment(change.before)
        if change.after is None:
            return before, _ABSENT
        after = self.fragment(change.after)
        self.texts[change.path] = (change.after, after)
        if len(self.texts) > FRAGMENT_CACHE_PATHS:
            self.texts.popitem(last=False)
        return before, after

    def pair(self, before: _Text, after: _Text) -> tuple[tuple, tuple | None]:
        """The line pair and the token pair to diff: the middles of the two
        sides in ``pre`` mode, the whole sides in ``post`` mode."""
        if self.normalize == POST:
            return (before.lines, after.lines), (before.tokens, after.tokens)
        if Granularity.TOKEN not in self.granularities:
            return pair_middles(before.lines, after.lines)
        return pair_middles(before.lines, after.lines, before.tokens, after.tokens)


def _make_state(config: AnalysisConfig) -> _PipelineState:
    return _PipelineState(
        granularities=config.granularities,
        normalize=config.normalize,
        rules=FileFilterRules(config.include_globs, config.exclude_globs),
    )


def _commit_changes(commit: CommitRecord, config: AnalysisConfig,
                    state: _PipelineState,
                    pools: dict[Granularity, ScopedPools] | None = None) -> ChangeSet:
    """One commit's deltas: a list per analyzed granularity, in file order.
    Given the pools the commit will be classified against, a ``pre``-mode
    pair takes ``verdict_delta``'s deltas, which classify and index as the
    full diff's would, and are counted only when the trace prints the
    counts; ``post`` mode filters the full diff's fragments, so it always
    diffs."""
    changes = ChangeSet(commit, {})
    fast = pools is not None and config.normalize == PRE
    retained = filter_files(commit.file_changes, state.rules)
    # Each side is fragmented at most once, whatever the granularities analyzed.
    sides = [state.sides(fc) for fc in retained]
    state.fallback_tokens += sum(after.fallback for _, after in sides)
    # Fragments per pair, as (lines, tokens); 0 at a granularity not analyzed.
    count_lines = Granularity.LINE in config.granularities
    sizes = [(len(before.lines) + len(after.lines) if count_lines else 0,
              before.token_count + after.token_count) for before, after in sides]
    # A file over the cap at any granularity is skipped at every one, so the
    # line and token pools index the same files.
    pairs = [None if max(size) > config.diff_size_cap else state.pair(*side)
             for side, size in zip(sides, sizes)]
    for granularity in config.granularities:
        deltas = changes.deltas[granularity] = []
        slot = 0 if granularity is Granularity.LINE else 1
        for fc, size, pair in zip(retained, sizes, pairs):
            if size[slot] > config.diff_size_cap:
                state.skipped_oversize.append(
                    {
                        "commit_id": commit.commit_id,
                        "path": fc.path,
                        "granularity": granularity.value,
                        "fragments": size[slot],
                    }
                )
            if pair is None:
                continue
            before, after = pair[slot]
            delta = None
            if fast:
                delta = verdict_delta(before, after,
                                      pools[granularity].local_pools.get(fc.path) or (),
                                      count=config.trace_commits, path=fc.path,
                                      granularity=granularity)
                state.diff_fallbacks += delta is None
            if delta is None:
                delta = diff_fragments(before, after, path=fc.path, granularity=granularity)
            if config.normalize == POST:
                post_filter_delta(delta)
            deltas.append(delta)
    return changes


def iter_changesets(
    commits: Iterable[CommitRecord], config: AnalysisConfig
) -> Iterator[ChangeSet]:
    """Fragment and diff a commit stream without classifying it.

    Exposed for harnesses that drive the pool layer directly.
    """
    state = _make_state(config)
    for commit in commits:
        yield _commit_changes(commit, config, state)


class Report(NamedTuple):
    """Everything a run produces. ``classifications`` holds one
    classification per commit and granularity only when commits are traced
    (``trace_commits``); it is ``None`` otherwise, since the summary needs
    only the verdict counts."""

    project: str
    summary: ProjectSummary
    classifications: dict[Granularity, list[CommitClassification]] | None
    diagnostics: dict
    config_echo: dict
    commit_count: int
    trace_commits: bool = False
    # File pairs the pipeline had to diff in full (see ``verdict_delta``);
    # kept out of the serialized report.
    diff_fallbacks: int = 0


def open_source(config: AnalysisConfig, on_warning=None) -> Iterator[CommitRecord]:
    if config.bundle:
        return load_history_bundle(config.source, since=config.since, until=config.until,
                                   on_warning=on_warning)
    return open_repository(
        config.source,
        branch=config.branch,
        since=config.since,
        until=config.until,
        on_warning=on_warning,
    )


def _violation_delta(delta: FileDelta) -> dict:
    """A delta as dumped into ``subsumption_violations``: at most
    ``NOVEL_FRAGMENT_CAP`` added and removed fragments, plus the full counts,
    so one large file cannot blow up the diagnostics. A verdict delta is
    diffed in full first."""
    delta = delta.exact()
    return {
        "path": delta.path,
        "granularity": delta.granularity.value,
        "added": delta.added[:NOVEL_FRAGMENT_CAP],
        "added_count": len(delta.added),
        "removed": delta.removed[:NOVEL_FRAGMENT_CAP],
        "removed_count": len(delta.removed),
    }


def analyze_commits(commits: Iterable[CommitRecord], config: AnalysisConfig,
                    warnings: list[str] | None = None) -> Report:
    """Run classification over an already-open commit stream.

    Each commit is classified, audited line against token and counted, and
    its classifications are kept only when ``trace_commits`` is set, so an
    untraced run's memory does not grow with the number of commits."""
    warnings = warnings if warnings is not None else []
    state = _make_state(config)
    pools = {g: ScopedPools.create(g) for g in config.granularities}
    counts = {g: VerdictCounts() for g in config.granularities}
    classifications: dict[Granularity, list[CommitClassification]] | None = (
        {g: [] for g in config.granularities} if config.trace_commits else None
    )
    subsumption_violations: list[dict] = []
    divergent_acceptability: list[dict] = []
    audit_pair = (
        Granularity.LINE in config.granularities
        and Granularity.TOKEN in config.granularities
    )
    commit_count = 0

    for commit in commits:
        commit_count += 1
        changes = _commit_changes(commit, config, state, pools)
        per_commit: dict[Granularity, CommitClassification] = {}
        for granularity in config.granularities:
            per_commit[granularity] = classify_commit(
                pools[granularity], changes, granularity, scopes=config.scopes,
                count=config.trace_commits,
            )
        if audit_pair:
            line_cls = per_commit[Granularity.LINE]
            token_cls = per_commit[Granularity.TOKEN]
            for scope in config.scopes:
                if line_cls.redundant.get(scope) and not token_cls.redundant.get(scope):
                    subsumption_violations.append(
                        {
                            "commit_id": commit.commit_id,
                            "order_index": commit.order_index,
                            "scope": scope.value,
                            "deltas": [_violation_delta(d) for deltas in changes.deltas.values()
                                       for d in deltas],
                        }
                    )
            if line_cls.acceptable != token_cls.acceptable:
                divergent_acceptability.append(
                    {
                        "commit_id": commit.commit_id,
                        "order_index": commit.order_index,
                        "acceptable_line": line_cls.acceptable,
                        "acceptable_token": token_cls.acceptable,
                    }
                )
        for granularity in config.granularities:
            index_commit(pools[granularity], changes, granularity)
            counts[granularity].add(per_commit[granularity])
            if classifications is not None:
                classifications[granularity].append(per_commit[granularity])

    summary = summarize_counts(
        counts, pools, project=config.project_name, scopes=config.scopes
    )
    diagnostics = {
        "warnings": warnings,
        "skipped_oversize_files": state.skipped_oversize,
        "fallback_tokens": state.fallback_tokens,
        "subsumption_violations": subsumption_violations,
        "divergent_acceptability": divergent_acceptability,
    }
    return Report(
        project=config.project_name,
        summary=summary,
        classifications=classifications,
        diagnostics=diagnostics,
        config_echo=config.echo(),
        commit_count=commit_count,
        trace_commits=config.trace_commits,
        diff_fallbacks=state.diff_fallbacks,
    )


def run_analysis(config: AnalysisConfig) -> Report:
    """Open the configured source and analyze it end to end."""
    warnings: list[str] = []
    commits = open_source(config, on_warning=warnings.append)
    return analyze_commits(commits, config, warnings)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def report_to_dict(report: Report) -> dict:
    """Stable JSON-able form of a report (see report.schema.json)."""
    acceptable = {
        g.value: report.summary.acceptable_commits[g]
        for g in sorted(report.summary.acceptable_commits, key=lambda g: g.value)
    }
    metrics = [
        {
            "granularity": m.granularity.value,
            "scope": m.scope.value,
            "redundant_commits": m.redundant_commits,
            "temporal_redundancy": m.temporal_redundancy,
            "pool_size": m.pool_size,
            "local_pool_size_median": m.local_pool_size_median,
        }
        for m in report.summary.metrics
    ]
    out = {
        "project": report.project,
        "commit_count": report.commit_count,
        "acceptable_commits": acceptable,
        "metrics": metrics,
        "diagnostics": report.diagnostics,
        "config_echo": report.config_echo,
    }
    if report.trace_commits:
        out["commits"] = _trace_rows(report)
    return out


def _trace_rows(report: Report) -> list[dict]:
    rows = []
    for granularity in sorted(report.classifications, key=lambda g: g.value):
        for c in report.classifications[granularity]:
            rows.append(
                {
                    "commit_id": c.commit_id,
                    "order_index": c.order_index,
                    "granularity": c.granularity.value,
                    "acceptable": c.acceptable,
                    "added_count": c.added_count,
                    "redundant": {s.value: v for s, v in sorted(c.redundant.items())},
                    "novel_fragments": {
                        s.value: list(v) for s, v in sorted(c.novel_fragments.items())
                    },
                }
            )
    return rows


def render_json(reports: list[Report]) -> str:
    payload: object = (
        report_to_dict(reports[0]) if len(reports) == 1 else [report_to_dict(r) for r in reports]
    )
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


CSV_COLUMNS = [
    "project",
    "granularity",
    "scope",
    "acceptable_commits",
    "redundant_commits",
    "temporal_redundancy",
    "pool_size",
    "local_pool_size_median",
]


def render_csv(reports: list[Report]) -> str:
    import csv  # only CSV output needs it; kept off the run path's imports

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for report in reports:
        for m in report.summary.metrics:
            writer.writerow(
                [
                    report.project,
                    m.granularity.value,
                    m.scope.value,
                    m.acceptable_commits,
                    m.redundant_commits,
                    "" if m.temporal_redundancy is None else repr(m.temporal_redundancy),
                    "" if m.pool_size is None else m.pool_size,
                    "" if m.local_pool_size_median is None else repr(m.local_pool_size_median),
                ]
            )
    return buf.getvalue()


def format_percent(ratio: float | None) -> str:
    return "n/a" if ratio is None else f"{round(100 * ratio)}%"


def _format_number(value: float | int | None) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


def _acceptable_cell(report: Report) -> str:
    values = [report.summary.acceptable_commits[g] for g in report.summary.acceptable_commits]
    if len(set(values)) == 1:
        return str(values[0])
    # Line/token acceptability diverged; show both rather than conflate them.
    return "/".join(
        f"{g.value}:{n}" for g, n in report.summary.acceptable_commits.items()
    )


def render_table(reports: list[Report]) -> str:
    """Human-readable per-project rows: acceptable commits, then per granularity
    the redundancy percent and pool size for each scope. Percentages are
    rounded to whole percents; machine formats keep full precision."""
    if not reports:
        return ""
    granularities = [g for g in ALL_GRANULARITIES if g in reports[0].summary.acceptable_commits]
    scopes = []
    for m in reports[0].summary.metrics:
        if m.scope not in scopes:
            scopes.append(m.scope)

    header = ["project", "acceptable"]
    for g in granularities:
        for s in scopes:
            header.append(f"{g.value} {s.value} redundancy")
            header.append(f"{g.value} {s.value} pool")

    rows = []
    for report in reports:
        by_key = {(m.granularity, m.scope): m for m in report.summary.metrics}
        row = [report.project, _acceptable_cell(report)]
        for g in granularities:
            for s in scopes:
                m = by_key[(g, s)]
                row.append(format_percent(m.temporal_redundancy))
                row.append(
                    _format_number(
                        m.pool_size if s is Scope.GLOBAL else m.local_pool_size_median
                    )
                )
        rows.append(row)

    widths = [max(len(header[i]), *(len(r[i]) for r in rows)) for i in range(len(header))]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def emit_report(reports: list[Report] | Report, output_format: str) -> str:
    """Serialize one or more reports; no cross-project aggregation."""
    if isinstance(reports, Report):
        reports = [reports]
    if output_format == "json":
        return render_json(reports)
    if output_format == "csv":
        return render_csv(reports)
    if output_format == "table":
        return render_table(reports)
    raise ConfigurationError(f"unknown output format {output_format!r}")
