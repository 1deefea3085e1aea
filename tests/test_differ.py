"""Diff tests: minimality against the DP oracle, patch validity, determinism,
and identity with the reference edit script."""

from __future__ import annotations

import random
import tracemalloc
from collections import Counter
from typing import Sequence

import pytest
from hypothesis import example, find, given, settings
from hypothesis import strategies as st

from tempred import differ
from tempred.differ import (
    bit_lcs_length,
    diff_fragments,
    lcs_length,
    pair_middles,
    verdict_delta,
)
from tempred.fragmenter import Granularity, fragment_lines, lex
from tempred.history import load_history_bundle
from tempred.synth import HistorySpec, generate_history

# ---------------------------------------------------------------------------
# Reference: the full canonical Myers edit script, with an EQUAL op for every
# unchanged fragment and indices shifted past the trimmed prefix.
# ``diff_fragments`` must return exactly its inserted and deleted fragments,
# in order.
# ---------------------------------------------------------------------------

# Edit ops are (kind, before_index, after_index). "equal" copies
# before[before_index] (== after[after_index]); "delete" consumes
# before[before_index]; "insert" emits after[after_index].
EditOp = tuple[str, int, int]

EQUAL = "equal"
DELETE = "delete"
INSERT = "insert"


def _myers_middle(a: Sequence, b: Sequence) -> list[EditOp]:
    """Canonical Myers script for sequences with no common prefix/suffix trimmed off.

    Index fields are relative to the inputs given here; callers shift them.
    """
    n, m = len(a), len(b)
    if n == 0:
        return [(INSERT, 0, j) for j in range(m)]
    if m == 0:
        return [(DELETE, i, 0) for i in range(n)]

    max_d = n + m
    offset = max_d + 1
    v = [0] * (2 * max_d + 4)
    trace: list[list[int]] = []
    found_d = -1
    for d in range(max_d + 1):
        trace.append(v[offset - d - 1 : offset + d + 2])
        for k in range(-d, d + 1, 2):
            ki = offset + k
            if k == -d or (k != d and v[ki - 1] < v[ki + 1]):
                x = v[ki + 1]  # step down: insertion
            else:
                x = v[ki - 1] + 1  # step right: deletion (preferred on ties)
            y = x - k
            while x < n and y < m and a[x] == b[y]:
                x += 1
                y += 1
            v[ki] = x
            if x >= n and y >= m:
                found_d = d
                break
        if found_d >= 0:
            break

    ops: list[EditOp] = []
    x, y = n, m
    for d in range(found_d, 0, -1):
        win = trace[d]
        base = d + 1  # window index of k == 0
        k = x - y
        if k == -d or (k != d and win[base + k - 1] < win[base + k + 1]):
            prev_k = k + 1
        else:
            prev_k = k - 1
        prev_x = win[base + prev_k]
        prev_y = prev_x - prev_k
        while x > prev_x and y > prev_y:
            x -= 1
            y -= 1
            ops.append((EQUAL, x, y))
        if x == prev_x:
            ops.append((INSERT, x, prev_y))
        else:
            ops.append((DELETE, prev_x, y))
        x, y = prev_x, prev_y
    while x > 0 and y > 0:
        x -= 1
        y -= 1
        ops.append((EQUAL, x, y))
    ops.reverse()
    return ops


def reference_edit_script(before: Sequence, after: Sequence) -> list[EditOp]:
    """Full canonical minimal edit script transforming ``before`` into ``after``."""
    n, m = len(before), len(after)
    pre = 0
    limit = min(n, m)
    while pre < limit and before[pre] == after[pre]:
        pre += 1
    suf = 0
    while suf < limit - pre and before[n - 1 - suf] == after[m - 1 - suf]:
        suf += 1

    ops: list[EditOp] = [(EQUAL, i, i) for i in range(pre)]
    middle = _myers_middle(before[pre : n - suf], after[pre : m - suf])
    for kind, i, j in middle:
        ops.append((kind, i + pre, j + pre))
    for t in range(suf):
        ops.append((EQUAL, n - suf + t, m - suf + t))
    return ops


def apply_edit_script(before: list, after: list, ops: list[EditOp]) -> list:
    """Replay a script against ``before``; must reconstruct ``after`` exactly."""
    out = []
    for kind, i, j in ops:
        if kind == EQUAL:
            out.append(before[i])
        elif kind == INSERT:
            out.append(after[j])
    return out


def assert_matches_reference(before: Sequence, after: Sequence) -> None:
    ops = reference_edit_script(before, after)
    delta = diff_fragments(before, after)
    assert delta.added == [after[j] for kind, _, j in ops if kind == INSERT], (before, after)
    assert delta.removed == [before[i] for kind, i, _ in ops if kind == DELETE], (before, after)


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
    assert apply_edit_script(a, b, reference_edit_script(a, b)) == b


@st.composite
def _pair_over_small_alphabet(draw) -> tuple[list[str], list[str]]:
    alphabet = "abcdefgh"[: draw(st.integers(1, 8))]
    side = st.lists(st.sampled_from(alphabet), max_size=60)
    return draw(side), draw(side)


@settings(max_examples=2000)
@given(_pair_over_small_alphabet())
def test_added_and_removed_equal_reference_script(pair):
    assert_matches_reference(*pair)


@st.composite
def _lopsided_pair(draw) -> tuple[list[str], list[str]]:
    """One side up to 400 long, the other up to 40, so D often exceeds the
    shorter length and the forward pass runs along the edges of its band."""
    alphabet = "abcdefgh"[: draw(st.integers(1, 8))]

    def side(max_len: int) -> list[str]:
        # Fixed-size text draws much faster than a list of one-symbol draws.
        size = draw(st.integers(0, max_len))
        return list(draw(st.text(alphabet, min_size=size, max_size=size)))

    long, short = side(400), side(40)
    return (long, short) if draw(st.booleans()) else (short, long)


@settings(max_examples=2000, deadline=None)
@given(_lopsided_pair())
def test_lopsided_pairs_equal_reference_script(pair):
    assert_matches_reference(*pair)


@pytest.mark.parametrize("long_first", [True, False], ids=["600-vs-60", "60-vs-600"])
def test_lopsided_pair_trace_memory_is_bounded(long_first):
    # The trace keeps one window per edit step, holding only the in-band
    # entries of one parity: about 1 MiB here. A window of every k in
    # [-d, d] would take about 3.2 MiB.
    rng = random.Random(5)
    alphabet = [f"f{i}" for i in range(400)]
    long = [rng.choice(alphabet) for _ in range(600)]
    short = [rng.choice(alphabet) for _ in range(60)]
    before, after = (long, short) if long_first else (short, long)
    tracemalloc.start()
    try:
        delta = diff_fragments(before, after)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.6 * 2**20, f"{peak / 2**20:.2f} MiB"
    assert len(delta.added) + len(delta.removed) == 660 - 2 * lcs_length(before, after)


@pytest.fixture(scope="module")
def synth_version_pairs(tmp_path_factory) -> list[tuple[str, str]]:
    """Every consecutive (before, after) file version pair of a synthetic history."""
    bundle = generate_history(
        HistorySpec(seed=7, commit_count=300, file_count=8, fragment_alphabet_size=400,
                    reuse_probability=0.5, locality_bias=0.5, token_recombination=0.3),
        tmp_path_factory.mktemp("synth") / "bundle",
    )
    return [
        (fc.before or "", fc.after or "")
        for commit in load_history_bundle(bundle)
        for fc in commit.file_changes
    ]


@pytest.mark.parametrize("fragment", [fragment_lines, lex], ids=["line", "token"])
def test_synth_history_pairs_equal_reference_script(synth_version_pairs, fragment):
    assert len(synth_version_pairs) >= 300
    for before, after in synth_version_pairs:
        assert_matches_reference(fragment(before), fragment(after))


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


def test_delta_sides_stay_out_of_eq_and_repr():
    line = Granularity.LINE
    full = diff_fragments(["a"], ["a", "b"], path="A.java", granularity=line)
    verdict = differ.FileDelta(path="A.java", granularity=line, added=["b"], removed=[],
                               sides=(["a"], ["a", "b"]))
    assert verdict == full and repr(verdict) == repr(full)
    assert repr(full) == ("FileDelta(path='A.java', granularity=<Granularity.LINE: 'line'>, "
                          "added=['b'], removed=[], inserts=None, any_inserted=False)")
    assert verdict != differ.FileDelta(path="A.java", granularity=line, added=["b"],
                                       removed=[], any_inserted=True)


def test_output_is_deterministic():
    rng = random.Random(11)
    for _ in range(200):
        a = [rng.choice("abc") for _ in range(rng.randint(0, 25))]
        b = [rng.choice("abc") for _ in range(rng.randint(0, 25))]
        first = diff_fragments(a, b)
        second = diff_fragments(list(a), list(b))
        assert first.added == second.added
        assert first.removed == second.removed


# ---------------------------------------------------------------------------
# Bit-parallel LCS and verdict deltas
# ---------------------------------------------------------------------------


@st.composite
def _pair_for_lcs(draw) -> tuple[list[str], list[str]]:
    """Both sides up to 60 long (either may be empty), or one in four
    lopsided, up to 400 vs 40, over alphabets of 1-8 symbols."""
    size = draw(st.integers(1, 8))
    lopsided = draw(st.integers(0, 3)) == 0
    # Bytes mapped onto the alphabet draw much faster than text or lists.
    a, b = (
        [chr(ord("a") + byte % size) for byte in draw(st.binary(max_size=max_len))]
        for max_len in ((400, 40) if lopsided else (60, 60))
    )
    return (a, b) if draw(st.booleans()) else (b, a)


@settings(max_examples=5000, deadline=None)
@given(_pair_for_lcs())
def test_bit_lcs_length_matches_dp_oracle(pair):
    assert bit_lcs_length(*pair) == lcs_length(*pair)


@settings(max_examples=2000, deadline=None)
@given(_pair_for_lcs())
def test_blocked_bit_lcs_length_matches_dp_oracle(pair):
    # With 8-column blocks every shorter side over 8 fragments runs the
    # carry path, over up to 8 blocks.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(differ, "LCS_BLOCK_BITS", 8)
        assert bit_lcs_length(*pair) == lcs_length(*pair)


def test_bit_lcs_length_examples():
    assert bit_lcs_length([], []) == 0
    assert bit_lcs_length(list("abc"), []) == 0
    assert bit_lcs_length(list("abcbdab"), list("bdcaba")) == 4
    assert bit_lcs_length(["x"] * 70, ["x"] * 90) == 70


def assert_sound_verdict(before: list[str], after: list[str], known: frozenset[str]) -> str:
    """``verdict_delta`` gives the canonical delta, or a verdict delta that
    classifies and indexes like it, or ``None`` only where a fragment on
    both sides is unknown. Returns which of the three it gave."""
    canonical = diff_fragments(before, after, path="F", granularity=Granularity.TOKEN)
    delta = verdict_delta(before, after, known, path="F", granularity=Granularity.TOKEN)
    if delta is None:
        assert set(before) & set(after) - known
        return "fallback"
    assert (delta.path, delta.granularity) == ("F", Granularity.TOKEN)
    if delta.inserts is None:
        assert delta == canonical
        return "diff"
    assert delta.removed == []
    assert delta.added_count == len(canonical.added)
    assert delta.exact() == canonical
    # The canonical additions are these in order, plus known fragments only.
    rest = iter(canonical.added)
    assert all(fragment in rest for fragment in delta.added)
    extra = Counter(canonical.added) - Counter(delta.added)
    assert set(extra) <= known
    return "verdict"


@st.composite
def _pair_and_known(draw) -> tuple[list[str], list[str], frozenset[str]]:
    """A pair up to 60 long over 1-8 symbols, and a set of known fragments:
    some of those on both sides, and maybe some on neither."""
    size = draw(st.integers(1, 8))
    before, after = (
        [chr(ord("a") + byte % size) for byte in draw(st.binary(max_size=60))]
        for _ in range(2)
    )
    shared = sorted(set(before) & set(after))
    known = draw(st.sets(st.sampled_from(shared))) if shared else set()
    return before, after, frozenset(known | draw(st.sets(st.sampled_from("xyz"))))


@settings(max_examples=1000, deadline=None)
@given(_pair_and_known())
def test_verdict_delta_is_canonical_or_sound(case):
    assert_sound_verdict(*case)


def _middles(before: list[str], after: list[str]) -> tuple[list[str], list[str]]:
    """B' and A': both sides less their common prefix and suffix."""
    lo, shorter = 0, min(len(before), len(after))
    while lo < shorter and before[lo] == after[lo]:
        lo += 1
    hi = 0
    while hi < shorter - lo and before[-1 - hi] == after[-1 - hi]:
        hi += 1
    return before[lo : len(before) - hi], after[lo : len(after) - hi]


@settings(max_examples=1000, deadline=None)
@given(_pair_and_known())
def test_uncounted_verdict_matches_dp_oracle(case):
    # Without a count, a pair whose shared fragments are all known takes the
    # verdict route: its flag is LCS < M, its fragments A' minus set(B').
    # Any other pair gets what the counted call gives outside step 2.
    before, after, known = case
    old, new = _middles(before, after)
    delta = verdict_delta(before, after, known, count=False, path="F",
                          granularity=Granularity.TOKEN)
    counted = verdict_delta(before, after, known, path="F", granularity=Granularity.TOKEN)
    if set(old) & set(new) <= known:
        assert delta.sides is not None and delta.added_count is None
        assert delta.adds == (lcs_length(old, new) < len(new)) == counted.adds
        assert delta.added == [fragment for fragment in new if fragment not in set(old)]
        assert delta.removed == []
        assert delta.exact() == diff_fragments(before, after, path="F",
                                               granularity=Granularity.TOKEN)
    else:
        assert delta == counted
        assert delta is None or delta.sides is None


def test_verdict_delta_outcomes():
    small_edit = (list("abcdefgh"), list("abcXefgh"))
    reversal = (list("abcdefghij"), list("jihgfedcba"))
    assert assert_sound_verdict(*small_edit, frozenset()) == "diff"
    assert assert_sound_verdict(*reversal, frozenset("abcdefghij")) == "verdict"
    assert assert_sound_verdict(*reversal, frozenset("abcdefghi")) == "fallback"
    delta = verdict_delta(list("abcdefghij") + ["k"], ["n"] + list("jihgfedcba"),
                          frozenset("abcdefghij"))
    assert delta.added == ["n"] and delta.added_count == 10


# ---------------------------------------------------------------------------
# Token middles from line middles: ``pair_middles`` must give the middles of
# trimming the whole-file token sequences.
# ---------------------------------------------------------------------------

# Distinct lines that share tokens: the first two lex alike, and the last
# three overlap, so a token trim can run past a line boundary.
LINE_ALPHABET = ("int a=1;", "int a = 1;", "a;", "a; b;", "b;")
RESPACED = {"int a=1;": "int a = 1;", "int a = 1;": "int a=1;"}


@st.composite
def _line_pair(draw) -> tuple[list[str], list[str]]:
    """A file's lines and a later version: a few line inserts, deletes,
    replacements and whitespace-only edits, or a fresh file."""
    lines = st.sampled_from(LINE_ALPHABET)
    before = draw(st.lists(lines, max_size=12))
    if draw(st.integers(0, 5)) == 0:
        return before, draw(st.lists(lines, max_size=12))
    after = list(before)
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("insert", "delete", "replace", "respace")))
        if kind == "insert":
            after.insert(draw(st.integers(0, len(after))), draw(lines))
            continue
        if not after:
            continue
        at = draw(st.integers(0, len(after) - 1))
        if kind == "delete":
            del after[at]
        elif kind == "replace":
            after[at] = draw(lines)
        else:
            after[at] = RESPACED.get(after[at], after[at])
    return before, after


def _tokens(lines: list[str]) -> list[tuple[str, ...]]:
    return [tuple(lex(line)) for line in lines]


def _flat(lines: list[str]) -> list[str]:
    return [token for line in lines for token in lex(line)]


def _window_exhausts(before: list[str], after: list[str]) -> bool:
    """Whether the token trim of the middle lines alone uses up a side while
    common suffix lines are left to widen into."""
    lo, n, m = differ._trim(before, after)
    old, new = _flat(before[lo:n]), _flat(after[lo:m])
    return (n < len(before) and (lo < n or lo < m)
            and differ._trim(old, new)[0] == min(len(old), len(new)))


@settings(max_examples=2000, deadline=None)
@given(_line_pair())
@example((["a;", "b;"], ["a;", "a;", "b;"]))  # a pure insert
@example((["int a=1;", "b;", "a;"], ["int a=1;", "a;"]))  # a pure delete
@example((["int a=1;", "b;"], ["int a = 1;", "b;"]))  # whitespace only
@example((["a; b;", "b;"], ["a; b;", "b;"]))  # equal sides
@example(([], ["a;"]))  # an empty side
@example((["a;", "b;", "b;"], ["a; b;", "b;", "b;"]))  # widened twice
def test_pair_middles_equal_trimming_the_whole_token_sequences(pair):
    before, after = pair
    lo, n, m = differ._trim(before, after)
    flat_before, flat_after = _flat(before), _flat(after)
    t_lo, t_n, t_m = differ._trim(flat_before, flat_after)
    lines, tokens = pair_middles(before, after, _tokens(before), _tokens(after))
    assert lines == (before[lo:n], after[lo:m])
    assert tokens == (flat_before[t_lo:t_n], flat_after[t_lo:t_m])
    assert pair_middles(before, after) == (lines, None)
    # So the pipeline's deltas, diffed from the middles, are the whole files'.
    assert diff_fragments(*tokens) == diff_fragments(flat_before, flat_after)


def _pure_insert(before: list[str], after: list[str]) -> bool:
    lo, n, m = differ._trim(before, after)
    return bool(before) and lo == n < m


def _pure_delete(before: list[str], after: list[str]) -> bool:
    return _pure_insert(after, before)


@pytest.mark.parametrize("holds", [
    _pure_insert,
    _pure_delete,
    lambda before, after: before != after and _flat(before) == _flat(after),
    lambda before, after: bool(before) and before == after,
    lambda before, after: not before or not after,
    _window_exhausts,
], ids=["pure-insert", "pure-delete", "whitespace-only", "equal-sides", "empty-side",
        "prefix-exhausting-window"])
def test_line_pairs_cover_every_case(holds):
    find(_line_pair(), lambda pair: holds(*pair),
         settings=settings(max_examples=2000, database=None))
