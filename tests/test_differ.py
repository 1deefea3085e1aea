"""Diff tests: minimality against the DP oracle, patch validity, determinism."""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from tempred.differ import (
    EQUAL,
    INSERT,
    ChangeSet,
    EditOp,
    diff_fragments,
    edit_script,
    lcs_length,
)
from tempred.fragmenter import Granularity
from tempred.history import CommitRecord


def apply_edit_script(before: list, after: list, ops: list[EditOp]) -> list:
    """Replay a script against ``before``; must reconstruct ``after`` exactly."""
    out = []
    for kind, i, j in ops:
        if kind == EQUAL:
            out.append(before[i])
        elif kind == INSERT:
            out.append(after[j])
    return out


def test_identical_sequences_produce_empty_delta():
    delta = diff_fragments(["a", "b", "c"], ["a", "b", "c"])
    assert delta.added == [] and delta.removed == []


def test_file_creation_is_pure_insertion():
    delta = diff_fragments([], ["a", "b"])
    assert delta.added == ["a", "b"] and delta.removed == []


def test_file_deletion_is_pure_removal():
    delta = diff_fragments(["a", "b"], [])
    assert delta.added == [] and delta.removed == ["a", "b"]


def test_single_replace_verified_by_dp_oracle():
    before, after = ["a", "b", "c"], ["a", "c", "d"]
    assert lcs_length(before, after) == 2
    delta = diff_fragments(before, after)
    assert delta.removed == ["b"] and delta.added == ["d"]
    assert len(delta.added) + len(delta.removed) == len(before) + len(after) - 2 * 2


def test_lcs_length_examples():
    assert lcs_length(["a", "b", "c"], ["a", "c", "d"]) == 2
    seq = list("hello world")
    assert lcs_length(seq, seq) == len(seq)
    assert lcs_length(seq, []) == 0
    assert lcs_length([], seq) == 0


sequences = st.lists(st.sampled_from("abcdefgh"), max_size=30)


@settings(max_examples=300)
@given(sequences, sequences)
def test_minimality_matches_dp_oracle(a: list[str], b: list[str]):
    delta = diff_fragments(a, b)
    assert len(delta.added) + len(delta.removed) == len(a) + len(b) - 2 * lcs_length(a, b)


@settings(max_examples=300)
@given(sequences, sequences)
def test_edit_script_reconstructs_after(a: list[str], b: list[str]):
    assert apply_edit_script(a, b, edit_script(a, b)) == b


@settings(max_examples=300)
@given(sequences, sequences)
def test_added_and_removed_counts_are_symmetric(a: list[str], b: list[str]):
    forward = diff_fragments(a, b)
    backward = diff_fragments(b, a)
    assert len(forward.added) == len(backward.removed)
    assert len(forward.removed) == len(backward.added)


@settings(max_examples=200)
@given(sequences, sequences)
def test_delta_fragments_occur_in_their_sequences(a: list[str], b: list[str]):
    delta = diff_fragments(a, b)
    for fragment in delta.added:
        assert fragment in b
    for fragment in delta.removed:
        assert fragment in a
    assert len(b) - len(a) == len(delta.added) - len(delta.removed)


def test_output_is_deterministic():
    rng = random.Random(11)
    for _ in range(200):
        a = [rng.choice("abc") for _ in range(rng.randint(0, 25))]
        b = [rng.choice("abc") for _ in range(rng.randint(0, 25))]
        first = diff_fragments(a, b)
        second = diff_fragments(list(a), list(b))
        assert first.added == second.added
        assert first.removed == second.removed


def test_changeset_groups_deltas_by_granularity():
    commit = CommitRecord(commit_id="c1", order_index=0, timestamp=0)
    line_delta = diff_fragments(["a;"], ["a;", "b;"], path="A.java",
                                granularity=Granularity.LINE)
    token_delta = diff_fragments(["a"], ["a", "b"], path="A.java",
                                 granularity=Granularity.TOKEN)
    changes = ChangeSet(commit=commit, deltas=[line_delta, token_delta])
    assert changes.deltas_for(Granularity.LINE) == [line_delta]
    assert changes.added_count(Granularity.TOKEN) == 1
