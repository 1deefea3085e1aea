"""Fragment pools and commit redundancy classification.

A commit is acceptable at a granularity when it adds at least one fragment
after filtering. An acceptable commit is temporally redundant at a scope when
every one of its added fragments was already added by some earlier commit at
that scope: anywhere in the project (global) or in the same file path (local).
Fragments added earlier in the same commit do not count; the check is strictly
inter-commit.
"""

from __future__ import annotations

from enum import Enum
from itertools import islice
from typing import TYPE_CHECKING, Mapping, NamedTuple

from .errors import PipelineOrderError
from .fragmenter import Granularity

if TYPE_CHECKING:
    from .differ import FileDelta
    from .history import CommitRecord

# How many missing fragments a classification keeps for reporting.
NOVEL_FRAGMENT_CAP = 10


class Scope(str, Enum):
    GLOBAL = "global"
    LOCAL = "local"


ALL_SCOPES: tuple[Scope, ...] = (Scope.GLOBAL, Scope.LOCAL)


class FragmentPool(dict[str, int]):
    """Distinct fragments seen so far, each mapped to the order index of the
    commit that first added it."""

    __slots__ = ()

    @property
    def size(self) -> int:
        return len(self)


class ScopedPools:
    """One global pool plus one local pool per file path, single granularity."""

    __slots__ = ("global_pool", "local_pools", "last_indexed")

    def __init__(self) -> None:
        self.global_pool = FragmentPool()
        self.local_pools: dict[str, FragmentPool] = {}
        self.last_indexed: int | None = None

    @classmethod
    def create(cls, granularity: Granularity) -> "ScopedPools":
        """Empty pools for one granularity, which they do not record."""
        return cls()


class ChangeSet(NamedTuple):
    """One commit's per-file deltas, listed per granularity in file order."""

    commit: CommitRecord
    deltas: Mapping[Granularity, list[FileDelta]]


class CommitClassification(NamedTuple):
    """Per-commit verdicts at one granularity.

    ``redundant`` and ``novel_fragments`` are keyed by the scopes that were
    evaluated. Novel fragments are the distinct added fragments not found in
    the pool, in first-occurrence order, capped for reporting.
    ``added_count`` is ``None`` when a delta's count was not computed, as in
    a run without ``trace_commits``, which also collects no novel
    fragments; ``acceptable`` and ``redundant`` are always exact.
    """

    commit_id: str
    order_index: int
    granularity: Granularity
    acceptable: bool
    added_count: int | None
    redundant: dict[Scope, bool]
    novel_fragments: dict[Scope, list[str]]


def _known(pools: ScopedPools, scope: Scope, path: str) -> Mapping[str, int]:
    """The fragments the scope's pool holds for a file at ``path``."""
    return pools.global_pool if scope is Scope.GLOBAL else pools.local_pools.get(path, {})


def classify_commit(
    pools: ScopedPools,
    changes: ChangeSet,
    granularity: Granularity,
    scopes: tuple[Scope, ...] = ALL_SCOPES,
    *,
    count: bool = True,
) -> CommitClassification:
    """Classify one commit against pools that reflect strictly earlier commits.

    The commit's own additions must not be indexed yet; a pool that has
    already advanced to this commit's position raises ``PipelineOrderError``.
    ``added_count`` is ``None`` without ``count``, or when a delta's count
    is unknown. Without ``count``, a scope's first missing fragment settles
    its verdict and ``novel_fragments`` holds no fragments.
    """
    commit = changes.commit
    if pools.last_indexed is not None and pools.last_indexed >= commit.order_index:
        raise PipelineOrderError(
            f"pool already indexed commit {pools.last_indexed}, cannot classify "
            f"commit {commit.order_index} ({commit.commit_id})"
        )

    deltas = changes.deltas[granularity]
    counts = [d.added_count for d in deltas] if count else ()
    added_count = sum(counts) if count and None not in counts else None
    acceptable = any(d.adds for d in deltas)

    redundant: dict[Scope, bool] = {}
    novel: dict[Scope, list[str]] = {}

    for scope in scopes:
        if not count:
            # The first added fragment not in the pool settles the verdict.
            redundant[scope] = acceptable and all(
                all(map(_known(pools, scope, delta.path).__contains__, delta.added))
                for delta in deltas)
            novel[scope] = []
            continue
        # The added fragments not in the pool, in first-occurrence order.
        missing: dict[str, None] = {}
        for delta in deltas:
            known = _known(pools, scope, delta.path)
            for fragment in delta.added:
                if fragment not in known:
                    missing[fragment] = None
        redundant[scope] = acceptable and not missing
        novel[scope] = list(islice(missing, NOVEL_FRAGMENT_CAP))

    return CommitClassification(
        commit_id=commit.commit_id,
        order_index=commit.order_index,
        granularity=granularity,
        acceptable=acceptable,
        added_count=added_count,
        redundant=redundant,
        novel_fragments=novel,
    )


def index_commit(pools: ScopedPools, changes: ChangeSet, granularity: Granularity) -> ScopedPools:
    """Index the commit's added fragments; first-seen entries are never overwritten.

    A local pool springs into existence on the first addition to its path and
    survives file deletion (path identity, no rename following).
    """
    order_index = changes.commit.order_index
    for delta in changes.deltas[granularity]:
        if not delta.added:
            continue
        local = pools.local_pools.get(delta.path)
        if local is None:
            local = pools.local_pools[delta.path] = FragmentPool()
        for fragment in delta.added:
            pools.global_pool.setdefault(fragment, order_index)
            local.setdefault(fragment, order_index)
    pools.last_indexed = order_index
    return pools


class ScopeMetrics(NamedTuple):
    """One (granularity, scope) row of the project summary."""

    granularity: Granularity
    scope: Scope
    acceptable_commits: int
    redundant_commits: int
    temporal_redundancy: float | None  # None when there are no acceptable commits
    pool_size: int | None  # global scope: final global pool size
    local_pool_size_median: float | None  # local scope: median of final local pool sizes


class ProjectSummary(NamedTuple):
    project: str
    acceptable_commits: dict[Granularity, int]
    metrics: list[ScopeMetrics]


def _median(sizes: list[int]) -> float | None:
    """The median as ``statistics.median`` takes it (the mean of the two
    middle values of an even count), as a float; ``None`` when empty."""
    if not sizes:
        return None
    sizes = sorted(sizes)
    mid = len(sizes) // 2
    return float(sizes[mid]) if len(sizes) % 2 else (sizes[mid - 1] + sizes[mid]) / 2


class VerdictCounts:
    """Running verdict totals at one granularity: the acceptable commits,
    and the redundant commits per scope. A run keeps these, not one
    classification per commit, unless it traces commits."""

    __slots__ = ("acceptable", "redundant")

    def __init__(self) -> None:
        self.acceptable = 0
        self.redundant: dict[Scope, int] = {}

    def add(self, classification: CommitClassification) -> None:
        self.acceptable += classification.acceptable
        for scope, redundant in classification.redundant.items():
            self.redundant[scope] = self.redundant.get(scope, 0) + redundant


def summarize_counts(
    counts: dict[Granularity, VerdictCounts],
    pools: dict[Granularity, ScopedPools],
    *,
    project: str = "",
    scopes: tuple[Scope, ...] = ALL_SCOPES,
) -> ProjectSummary:
    """The per-project metrics table from each granularity's verdict counts.

    The redundancy ratio divides redundant commits by acceptable commits at
    the same granularity and is undefined (None) when nothing was acceptable.
    The local pool median over an even number of files is the mean of the two
    middle values.
    """
    acceptable = {g: c.acceptable for g, c in counts.items()}
    metrics: list[ScopeMetrics] = []
    for granularity, count in counts.items():
        pool = pools[granularity]
        for scope in scopes:
            redundant = count.redundant.get(scope, 0)
            ratio = redundant / count.acceptable if count.acceptable else None
            if scope is Scope.GLOBAL:
                pool_size: int | None = len(pool.global_pool)
                median = None
            else:
                pool_size = None
                median = _median(list(map(len, pool.local_pools.values())))
            metrics.append(
                ScopeMetrics(
                    granularity=granularity,
                    scope=scope,
                    acceptable_commits=count.acceptable,
                    redundant_commits=redundant,
                    temporal_redundancy=ratio,
                    pool_size=pool_size,
                    local_pool_size_median=median,
                )
            )
    return ProjectSummary(project=project, acceptable_commits=acceptable, metrics=metrics)


def summarize(
    classifications: dict[Granularity, list[CommitClassification]],
    pools: dict[Granularity, ScopedPools],
    *,
    project: str = "",
    scopes: tuple[Scope, ...] = ALL_SCOPES,
) -> ProjectSummary:
    """``summarize_counts`` over the counts of per-commit classifications."""
    counts = {g: VerdictCounts() for g in classifications}
    for granularity, cls in classifications.items():
        for c in cls:
            counts[granularity].add(c)
    return summarize_counts(counts, pools, project=project, scopes=scopes)
