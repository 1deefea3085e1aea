"""Pool and classification tests for the redundancy core."""

from __future__ import annotations

import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tempred import redundancy
from tempred.differ import FileDelta
from tempred.errors import PipelineOrderError
from tempred.fragmenter import Granularity
from tempred.history import CommitRecord
from tempred.redundancy import (
    ChangeSet,
    CommitClassification,
    FragmentPool,
    Scope,
    ScopedPools,
    classify_commit,
    index_commit,
    summarize,
)

from conftest import check_pool_invariants

LINE = Granularity.LINE


def make_changes(order_index: int, per_file_added: dict[str, list[str]],
                 per_file_removed: dict[str, list[str]] | None = None) -> ChangeSet:
    commit = CommitRecord(
        commit_id=f"c{order_index}", order_index=order_index, timestamp=order_index
    )
    deltas = []
    removed = per_file_removed or {}
    for path, added in per_file_added.items():
        deltas.append(
            FileDelta(path=path, granularity=LINE, added=list(added),
                      removed=list(removed.get(path, [])))
        )
    for path, gone in removed.items():
        if path not in per_file_added:
            deltas.append(FileDelta(path=path, granularity=LINE, added=[], removed=list(gone)))
    return ChangeSet(commit=commit, deltas={LINE: deltas})


def test_first_commit_is_acceptable_but_not_redundant():
    pools = ScopedPools.create(LINE)
    changes = make_changes(0, {"A.java": ["int a = 1;"]})
    cls = classify_commit(pools, changes, LINE)
    assert cls.acceptable
    assert cls.redundant == {Scope.GLOBAL: False, Scope.LOCAL: False}
    assert cls.novel_fragments[Scope.GLOBAL] == ["int a = 1;"]


def test_commit_adding_nothing_is_not_acceptable():
    pools = ScopedPools.create(LINE)
    cls = classify_commit(pools, make_changes(0, {}), LINE)
    assert not cls.acceptable
    assert cls.added_count == 0
    assert cls.redundant == {Scope.GLOBAL: False, Scope.LOCAL: False}


def test_cross_file_reuse_is_globally_but_not_locally_redundant():
    """Two files with three fragments each; copying a fragment from the first
    file into the second is redundant globally but not locally, and a later
    in-file reuse is redundant locally too."""
    a, b, c = "int a = 1;", "int b = 2;", "int c = 3;"
    d, e, f = "int d = 4;", "int e = 5;", "int f = 6;"
    pools = ScopedPools.create(LINE)

    initial = make_changes(0, {"F1.java": [a, b, c], "F2.java": [d, e, f]})
    classify_commit(pools, initial, LINE)
    index_commit(pools, initial, LINE)

    copy_c = make_changes(1, {"F2.java": [c]})
    cls1 = classify_commit(pools, copy_c, LINE)
    assert cls1.acceptable
    assert cls1.redundant[Scope.GLOBAL] is True
    assert cls1.redundant[Scope.LOCAL] is False
    assert cls1.novel_fragments[Scope.LOCAL] == [c]
    index_commit(pools, copy_c, LINE)

    replace_e_with_d = make_changes(2, {"F2.java": [d]}, {"F2.java": [e]})
    cls2 = classify_commit(pools, replace_e_with_d, LINE)
    assert cls2.redundant[Scope.LOCAL] is True
    assert cls2.redundant[Scope.GLOBAL] is True


def test_redundant_implies_acceptable_even_for_empty_commits():
    pools = ScopedPools.create(LINE)
    seed = make_changes(0, {"A.java": ["x;"]})
    classify_commit(pools, seed, LINE)
    index_commit(pools, seed, LINE)
    # A later commit with an empty delta adds nothing: not acceptable, and
    # therefore not redundant even though vacuously "all" fragments are known.
    empty = make_changes(1, {"A.java": []})
    cls = classify_commit(pools, empty, LINE)
    assert not cls.acceptable
    assert cls.redundant == {Scope.GLOBAL: False, Scope.LOCAL: False}


def test_first_seen_index_wins():
    pools = ScopedPools.create(LINE)
    first = make_changes(0, {"A.java": ["x;"]})
    classify_commit(pools, first, LINE)
    index_commit(pools, first, LINE)
    again = make_changes(1, {"B.java": ["x;"]})
    classify_commit(pools, again, LINE)
    index_commit(pools, again, LINE)
    assert pools.global_pool["x;"] == 0
    assert pools.local_pools["A.java"]["x;"] == 0
    assert pools.local_pools["B.java"]["x;"] == 1


def test_fragment_added_to_two_files_lands_in_both_local_pools():
    pools = ScopedPools.create(LINE)
    changes = make_changes(0, {"A.java": ["x;"], "B.java": ["x;"]})
    classify_commit(pools, changes, LINE)
    index_commit(pools, changes, LINE)
    assert pools.global_pool.size == 1
    assert "x;" in pools.local_pools["A.java"]
    assert "x;" in pools.local_pools["B.java"]


def test_duplicate_occurrences_covered_by_single_pool_entry():
    pools = ScopedPools.create(LINE)
    seed = make_changes(0, {"A.java": ["x;"]})
    classify_commit(pools, seed, LINE)
    index_commit(pools, seed, LINE)
    doubled = make_changes(1, {"A.java": ["x;", "x;"]})
    cls = classify_commit(pools, doubled, LINE)
    assert cls.added_count == 2
    assert cls.redundant[Scope.GLOBAL] is True
    assert cls.redundant[Scope.LOCAL] is True


def test_same_commit_additions_do_not_make_each_other_redundant():
    pools = ScopedPools.create(LINE)
    changes = make_changes(0, {"A.java": ["x;", "x;"]})
    cls = classify_commit(pools, changes, LINE)
    assert cls.redundant[Scope.GLOBAL] is False


def test_novel_fragments_span_files_deduped_in_order_and_capped():
    # "x" is in A's local pool, so it is novel locally only in B. "n2" and
    # "n1" repeat; each counts once, where it first occurs.
    pools = ScopedPools.create(LINE)
    seed = make_changes(0, {"A.java": ["x", "y"]})
    classify_commit(pools, seed, LINE)
    index_commit(pools, seed, LINE)
    fresh = [f"m{i}" for i in range(redundancy.NOVEL_FRAGMENT_CAP)]
    changes = make_changes(1, {"A.java": ["n1", "x", "n2", "n1"],
                               "B.java": ["x", "n2", *fresh, "n1"]})
    cls = classify_commit(pools, changes, LINE)
    assert cls.redundant == {Scope.GLOBAL: False, Scope.LOCAL: False}
    cap = redundancy.NOVEL_FRAGMENT_CAP
    assert cls.novel_fragments == {
        Scope.GLOBAL: ["n1", "n2", *fresh][:cap],
        Scope.LOCAL: ["n1", "n2", "x", *fresh][:cap],
    }


def test_untraced_classification_counts_no_delta(monkeypatch):
    # Without ``count`` no delta's ``added_count`` is read, not even a full
    # diff's, whose count is known.
    def counted(delta):
        raise AssertionError("an untraced classification counts no delta")

    monkeypatch.setattr(FileDelta, "added_count", property(counted))
    cls = classify_commit(ScopedPools.create(LINE), make_changes(0, {"A.java": ["x;"]}), LINE,
                          count=False)
    assert cls.acceptable and cls.added_count is None


def test_local_pool_created_on_first_addition_only():
    pools = ScopedPools.create(LINE)
    removal_only = make_changes(0, {}, {"A.java": ["x;"]})
    classify_commit(pools, removal_only, LINE)
    index_commit(pools, removal_only, LINE)
    assert "A.java" not in pools.local_pools


def test_deleted_and_recreated_path_keeps_its_pool():
    pools = ScopedPools.create(LINE)
    create = make_changes(0, {"A.java": ["x;"]})
    classify_commit(pools, create, LINE)
    index_commit(pools, create, LINE)
    delete = make_changes(1, {}, {"A.java": ["x;"]})
    classify_commit(pools, delete, LINE)
    index_commit(pools, delete, LINE)
    recreate = make_changes(2, {"A.java": ["x;"]})
    cls = classify_commit(pools, recreate, LINE)
    assert cls.redundant[Scope.LOCAL] is True


def test_classifying_an_already_indexed_commit_aborts():
    pools = ScopedPools.create(LINE)
    changes = make_changes(0, {"A.java": ["x;"]})
    classify_commit(pools, changes, LINE)
    index_commit(pools, changes, LINE)
    with pytest.raises(PipelineOrderError):
        classify_commit(pools, changes, LINE)


def test_pools_grow_monotonically_and_local_subsets_global():
    pools = ScopedPools.create(LINE)
    history = [
        make_changes(0, {"A.java": ["a;", "b;"]}),
        make_changes(1, {"B.java": ["a;", "c;"]}),
        make_changes(2, {"A.java": ["c;"]}, {"A.java": ["b;"]}),
        make_changes(3, {}, {"B.java": ["a;"]}),
    ]
    last_size = 0
    for changes in history:
        classify_commit(pools, changes, LINE)
        index_commit(pools, changes, LINE)
        assert pools.global_pool.size >= last_size
        last_size = pools.global_pool.size
        check_pool_invariants(pools)
    assert pools.global_pool.size == 3


def _classification(order_index: int, acceptable: bool, redundant: dict) -> CommitClassification:
    return CommitClassification(
        commit_id=f"c{order_index}",
        order_index=order_index,
        granularity=LINE,
        acceptable=acceptable,
        added_count=1 if acceptable else 0,
        redundant=redundant,
        novel_fragments={Scope.GLOBAL: [], Scope.LOCAL: []},
    )


def _pools_with_local_sizes(sizes: list[int]) -> ScopedPools:
    pools = ScopedPools.create(LINE)
    for i, size in enumerate(sizes):
        pool = FragmentPool()
        for k in range(size):
            pool[f"f{i}:{k}"] = 0
            pools.global_pool[f"f{i}:{k}"] = 0
        pools.local_pools[f"F{i}.java"] = pool
    return pools


def test_ten_acceptable_one_redundant_reads_as_ten_percent():
    cls = [
        _classification(i, True, {Scope.GLOBAL: i == 3, Scope.LOCAL: False})
        for i in range(10)
    ]
    summary = summarize({LINE: cls}, {LINE: _pools_with_local_sizes([18])})
    by_scope = {m.scope: m for m in summary.metrics}
    assert by_scope[Scope.GLOBAL].temporal_redundancy == 0.10
    assert by_scope[Scope.GLOBAL].acceptable_commits == 10
    assert by_scope[Scope.LOCAL].local_pool_size_median == 18


def test_median_of_even_count_is_mean_of_middle_values():
    summary = summarize(
        {LINE: [_classification(0, True, {Scope.GLOBAL: False, Scope.LOCAL: False})]},
        {LINE: _pools_with_local_sizes([20, 25])},
    )
    local = next(m for m in summary.metrics if m.scope is Scope.LOCAL)
    assert local.local_pool_size_median == 22.5


@settings(max_examples=500)
@given(st.lists(st.integers(0, 2**60), max_size=40))
def test_local_pool_median_equals_statistics_median(sizes):
    unsorted = list(sizes)
    expected = float(statistics.median(sizes)) if sizes else None
    assert redundancy._median(sizes) == expected
    assert sizes == unsorted


def test_zero_acceptable_commits_reports_undefined_redundancy():
    summary = summarize(
        {LINE: [_classification(0, False, {Scope.GLOBAL: False, Scope.LOCAL: False})]},
        {LINE: ScopedPools.create(LINE)},
    )
    for m in summary.metrics:
        assert m.temporal_redundancy is None
        assert m.redundant_commits == 0
    local = next(m for m in summary.metrics if m.scope is Scope.LOCAL)
    assert local.local_pool_size_median is None
