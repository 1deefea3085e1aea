"""Minimal added/removed fragments between fragment sequences via the Myers
O((N+M)D) diff, and verdict deltas that skip the diff where its choice of
path cannot change a verdict.

The added/removed fragment collections are multisets (duplicates kept).
Several minimal edit paths can exist for one input pair; this implementation
always follows the canonical path that prefers deletions over insertions at
each furthest-reaching step, so output is deterministic. Only the inserted
and deleted fragments are collected; no edit script is built.

After the common prefix and suffix are trimmed, N before and M after
fragments remain. The forward pass visits only the diagonals of that edit
graph, k in [-M, N], as GNU diff bounds its search by ``dmin``/``dmax``:
step d visits about (min(d, M) + min(d, N)) / 2 diagonals. For each step
the backtrack reads only the V entries of parity d - 1 that border that
band, so the trace keeps only those. Time and trace memory are still
quadratic in D when N and M are both near D.

``pair_middles`` gives the pipeline a ``pre``-mode file pair already
trimmed, at both granularities, from one trim of its lines. Lines compare
first, and a line's tokens depend on its text alone, so equal lines have
equal tokens. After the line trim, the before and after token sequences are
P + X + S and P + Y + S: P and S are the tokens of the common prefix and
suffix lines, X and Y those of the middle lines. Trimming them whole, the
prefix step crosses P, then walks X and Y together; if it stops inside both,
at p, the suffix step crosses S and walks X and Y back, bounded by that same
stop. Every compare after P is one that trimming X and Y alone makes, so
the middles are the same. Only if the prefix step uses up X or Y does it go
on into S; then the windows take the tokens of the first w suffix lines,
X + S_w and Y + S_w, for w = 1, 2, 4, ... up to the whole suffix, where the
windows are the whole sequences less P. The same argument holds for any
window in which the prefix step stops inside both sides. If both line
middles are empty the files have the same lines, so the token middles are
empty. Handed the middles, ``verdict_delta`` and ``diff_fragments`` find
nothing more to trim and give the deltas of the whole sequences, which
depend on the middles alone.

``verdict_delta`` gives redundancy classification what it reads of a delta
without paying that quadratic cost: whether the pair adds anything, and
which fragments to check against the pools. Call the trimmed middles B' and
A', with N and M fragments as above, and L the fragments already indexed at
the file's path (its local pool, as the commit will be classified against
it). The verdict route applies when every fragment in both A' and B' is in
L. Its delta's ``added`` lists the A' fragments that are not in B', in A'
order, and nothing is ``removed``.

Without a count (``count=False``, a run that prints no per-commit rows) a
pair takes the verdict route whenever it applies, with no Myers pass and no
LCS. Whether the pair adds anything is one subsequence test: trimming removes
only matched fragments, so a minimal diff inserts M - LCS(B', A') fragments,
and M - LCS >= 1 iff LCS < M iff A' is not a subsequence of B'. Its count
is ``None``. A pair outside the route takes steps 1 and 3 below.

With a count, a pair takes the first of three steps that applies:

1. The Myers pass above, stopped after step 2 * isqrt(N + M), or not run
   when |N - M|, a lower bound on D, is larger. Step d visits at most
   d + 1 diagonals, so this is at most about 2 (N + M) diagonals and
   O(N + M) trace memory, about what step 2 costs. A pair that finishes
   keeps its canonical delta.
2. The verdict route, with ``added_count`` M - LCS(B', A') computed by
   ``bit_lcs_length``.
3. Otherwise ``None``: the caller runs ``diff_fragments`` in full.

Why the verdict route changes no verdict, pool or count. A fragment of A'
that is not in B' has nothing to match, so every diff, the canonical one
included, inserts each of its occurrences. The canonical ``added`` is
therefore the verdict ``added`` with some occurrences of fragments of
A' ∩ B' interleaved, all in A' order. Those fragments are in L, and L is a
subset of the global pool, because indexing adds every fragment to both.
Against either pool the extra occurrences are present, so they change
neither "every added fragment is in the pool" nor the novel fragments, which
skip present fragments; the order of the novel fragments is kept too.
Indexing them adds nothing, because ``index_commit`` keeps the first
entry, so the pools, the order indexes they hold and their insertion order
come out the same. A local pool is created when a delta adds something. If
the canonical ``added`` is non-empty and the verdict ``added`` is empty,
every fragment of A' is in B', hence in L, so L already exists and neither
delta creates a pool. Acceptability reads the delta's ``adds``, which is
exact on both routes, and the count is M - LCS(B', A'), which is ``len`` of
the canonical ``added``.
"""

from __future__ import annotations

from itertools import chain, pairwise
from math import isqrt
from typing import Container, Sequence

from .fragmenter import Granularity

# Columns per block of ``bit_lcs_length``. It bounds the memory of the match
# masks.
LCS_BLOCK_BITS = 8192


class FileDelta:
    """Added and removed fragments of one file in one commit, one granularity.

    A delta from ``verdict_delta``'s verdict route lists in ``added`` only
    the fragments every minimal diff inserts, and nothing in ``removed``:
    ``any_inserted`` says whether a minimal diff inserts anything,
    ``inserts`` holds how many (``None`` when the count was not asked
    for), and ``sides`` the two sequences it was given (the pipeline gives
    the trimmed middles), so that ``exact`` can diff them in full.
    ``sides`` is kept out of ``==`` and ``repr``.
    """

    __slots__ = ("path", "granularity", "added", "removed", "inserts", "any_inserted", "sides")

    def __init__(self, path: str, granularity: Granularity, added: list[str],
                 removed: list[str], inserts: int | None = None, any_inserted: bool = False,
                 sides: tuple[Sequence[str], Sequence[str]] | None = None) -> None:
        self.path, self.granularity, self.added, self.removed = path, granularity, added, removed
        self.inserts, self.any_inserted, self.sides = inserts, any_inserted, sides

    def _shown(self) -> dict:
        """Every field but ``sides``, the last."""
        return {name: getattr(self, name) for name in self.__slots__[:-1]}

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._shown() == other._shown()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self._shown().items())
        return f"{type(self).__name__}({fields})"

    @property
    def added_count(self) -> int | None:
        """How many fragments a minimal diff inserts, or ``None`` for a
        verdict delta whose count was not asked for."""
        return len(self.added) if self.sides is None else self.inserts

    @property
    def adds(self) -> bool:
        """Whether a minimal diff inserts any fragment."""
        return bool(self.added) if self.sides is None else self.any_inserted

    def exact(self) -> FileDelta:
        """This delta with every inserted and deleted fragment listed."""
        if self.sides is None:
            return self
        return diff_fragments(*self.sides, path=self.path, granularity=self.granularity)


def _trim(before: Sequence[str], after: Sequence[str]) -> tuple[int, int, int]:
    """``(lo, n, m)``: the middles left after the common prefix and suffix
    are ``before[lo:n]`` and ``after[lo:m]``."""
    n, m = len(before), len(after)
    lo = 0
    while lo < n and lo < m and before[lo] == after[lo]:
        lo += 1
    while n > lo and m > lo and before[n - 1] == after[m - 1]:
        n -= 1
        m -= 1
    return lo, n, m


def pair_middles(
    before: Sequence[str],
    after: Sequence[str],
    before_tokens: Sequence[Sequence[str]] | None = None,
    after_tokens: Sequence[Sequence[str]] | None = None,
) -> tuple[tuple[Sequence[str], Sequence[str]], tuple[list[str], list[str]] | None]:
    """The middles of a line pair and, given each line's tokens, of the
    token pair the lines flatten to.

    The lines are trimmed once; only the tokens of the middle lines are
    flattened and trimmed. When that prefix step uses up a side, the token
    windows widen by common-suffix lines, doubling up to the whole suffix,
    and are trimmed again. The token middles are those of trimming the
    whole-file token sequences (see the module docstring).
    """
    lo, n, m = _trim(before, after)
    lines = before[lo:n], after[lo:m]
    if before_tokens is None or after_tokens is None:
        return lines, None
    if lo == n and lo == m:
        return lines, ([], [])
    suffix = len(before) - n
    width = 0
    while True:
        old = list(chain.from_iterable(before_tokens[lo : n + width]))
        new = list(chain.from_iterable(after_tokens[lo : m + width]))
        t_lo, t_n, t_m = _trim(old, new)
        if width == suffix or t_lo < min(len(old), len(new)):
            # Trimmed in place: slices would copy the middles once more.
            del old[t_n:], old[:t_lo], new[t_m:], new[:t_lo]
            return lines, (old, new)
        width = min(suffix, 2 * width or 1)


def _middle_edits(before: Sequence[str], after: Sequence[str], lo: int, n: int,
                  m: int, max_d: int) -> tuple[list[str], list[str]] | None:
    """Canonical (added, removed) of the trimmed middles, or ``None`` if
    they are more than ``max_d`` edits apart."""
    if lo == n or lo == m:
        return list(after[lo:m]), list(before[lo:n])
    if abs(n - m) > max_d:
        return None  # D is at least the difference in length

    # Forward pass over the trimmed middle in absolute indices: a diagonal
    # k = x - y is the same in both, and V starts at x = lo. A diagonal
    # outside the band k in [-rows, cols], or not reached yet, holds -1, so
    # an edge k needs no special case. Step d reads its neighbours from the
    # window it stores for the backtrack.
    cols, rows = n - lo, m - lo
    offset = rows + 1
    v = [-1] * (cols + rows + 3)
    v[offset + 1] = lo
    end = offset + cols - rows  # the diagonal of the end point (n, m)
    trace: list[tuple[int, list[int]]] = []
    for d in range(min(cols + rows, max_d) + 1):
        k_lo = -d if d <= rows else -rows + ((d - rows) & 1)
        k_hi = d if d <= cols else cols - ((d - cols) & 1)
        window = v[offset + k_lo - 1 : offset + k_hi + 2 : 2]
        trace.append((k_lo, window))
        k = k_lo
        for left, right in pairwise(window):
            # Step down (insertion) from k + 1 if it reaches further, else
            # right (deletion) from k - 1, which wins when both are equal.
            x = right if left < right else left + 1
            y = x - k
            while x < n and y < m and before[x] == after[y]:
                x += 1
                y += 1
            v[offset + k] = x
            k += 2
        if v[end] >= n:
            break
    else:
        return None

    # Backtrack the canonical path, skipping each snake, then restore order.
    added: list[str] = []
    removed: list[str] = []
    x, y = n, m
    for k_lo, window in reversed(trace[1:]):
        k = x - y
        i = (k - k_lo) // 2  # window index of k - 1; k + 1 is next
        if window[i] < window[i + 1]:
            x = window[i + 1]
            y = x - k - 1
            added.append(after[y])
        else:
            x = window[i]
            y = x - k + 1
            removed.append(before[x])
    added.reverse()
    removed.reverse()
    return added, removed


def diff_fragments(
    before: Sequence[str],
    after: Sequence[str],
    *,
    path: str = "",
    granularity: Granularity = Granularity.LINE,
) -> FileDelta:
    """Minimal added/removed fragment multisets between two fragment sequences.

    Both lists are in sequence order. An absent file side is the empty
    sequence (file add means empty before, file delete means empty after).
    """
    added, removed = _middle_edits(before, after, *_trim(before, after),
                                   len(before) + len(after))
    return FileDelta(path=path, granularity=granularity, added=added, removed=removed)


def verdict_delta(
    before: Sequence[str],
    after: Sequence[str],
    known: Container[str],
    *,
    count: bool = True,
    path: str = "",
    granularity: Granularity = Granularity.LINE,
) -> FileDelta | None:
    """A delta that classifies and indexes like ``diff_fragments``'s, or
    ``None`` when only the full diff can give one.

    ``known`` holds the fragments already indexed at ``path``. With
    ``count`` the delta's ``added_count`` is exact; without it a verdict
    delta's is ``None``. See the module docstring for the routes and why a
    verdict delta is safe.
    """
    lo, n, m = _trim(before, after)
    # Sides that are already middles, as the pipeline gives them, are not copied.
    old = before[lo:n] if lo or n < len(before) else before
    new = after[lo:m] if lo or m < len(after) else after
    common = None if count else _known_common(old, new, known)
    if common is None:
        edits = _middle_edits(before, after, lo, n, m, 2 * isqrt(len(old) + len(new)))
        if edits is not None:
            return FileDelta(path=path, granularity=granularity, added=edits[0],
                             removed=edits[1])
        # Without a count, the verdict route was ruled out above.
        common = _known_common(old, new, known) if count else None
        if common is None:
            return None
    added = [fragment for fragment in new if fragment not in common]
    if count:
        # A fragment on one side only matches nothing, so the LCS of the
        # middles is the LCS of their common fragments.
        inserts: int | None = len(new) - bit_lcs_length(
            [f for f in old if f in common], [f for f in new if f in common])
        any_inserted = inserts > 0
    else:
        inserts = None
        any_inserted = bool(added) or not _is_subsequence(new, old)
    return FileDelta(path=path, granularity=granularity, added=added, removed=[],
                     inserts=inserts, any_inserted=any_inserted, sides=(before, after))


def _known_common(old: Sequence[str], new: Sequence[str],
                  known: Container[str]) -> set[str] | None:
    """The fragments on both sides, or ``None`` if one of them is not known."""
    common = set(old).intersection(new)
    return common if all(fragment in known for fragment in common) else None


def _is_subsequence(a: Sequence[str], b: Sequence[str]) -> bool:
    """Whether ``a`` is a subsequence of ``b``: each ``in`` consumes ``b``'s
    iterator up to its match, in C."""
    if len(a) > len(b):
        return False
    rest = iter(b)
    return all(fragment in rest for fragment in a)


def bit_lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    """Exact longest-common-subsequence length, bit-parallel.

    The bit-string LCS of Allison and Dix (IPL 1986) in Hyyrö's form
    ("Bit-parallel LCS-length computation revisited", 2004). Columns are the
    fragments of the shorter side; one Python int holds a row of the LCS
    table, and each fragment of the longer side updates it with a few integer
    operations over one bit per column, done in C. The zero bits of
    ``row`` mark the columns where the row steps up, so they count the LCS.

    The columns are split into blocks of at most ``LCS_BLOCK_BITS``, run one
    after another over every row, so that the match masks (one int per
    distinct fragment of the block) of at most one block, about
    ``LCS_BLOCK_BITS ** 2 / 16`` bytes, are alive at a time. The only
    state one block passes to the next is which rows' additions carried
    out of it. A shorter side that fits in one block takes one pass with no
    carries.
    """
    if len(a) > len(b):
        a, b = b, a
    lcs = 0
    carry_rows: list[int] = []
    for start in range(0, len(a), LCS_BLOCK_BITS):
        block_lcs, carry_rows = _block_lcs(a[start : start + LCS_BLOCK_BITS], b, carry_rows)
        lcs += block_lcs
    return lcs


def _block_lcs(block: Sequence[str], b: Sequence[str], carry_rows: list[int]) -> tuple[int, list[int]]:
    """The LCS steps that ``block``'s columns contribute, and the rows whose
    addition carries out of the block, given the rows (ascending) whose
    addition carried into it from the block before."""
    masks = _match_masks(block)
    width = len(block)
    full = (1 << width) - 1
    row = full
    carries_out: list[int] = []
    carries_in = iter(carry_rows)
    next_carry = next(carries_in, -1)
    for i, match in enumerate(map(masks.get, b)):
        if i == next_carry:
            next_carry = next(carries_in, -1)
            low = row & match if match else 0
            total = row + low + 1
        elif match:
            low = row & match
            total = row + low
        else:
            continue
        if total > full:
            carries_out.append(i)
        row = (total | (row - low)) & full
    return width - row.bit_count(), carries_out


def _match_masks(columns: Sequence[str]) -> dict[str, int]:
    """Fragment -> int with bit i set where ``columns[i]`` is that fragment."""
    masks: dict[str, int] = {}
    for i, fragment in enumerate(columns):
        masks[fragment] = masks.get(fragment, 0) | (1 << i)
    return masks


def lcs_length(a: Sequence, b: Sequence) -> int:
    """Exact longest-common-subsequence length by quadratic dynamic programming.

    Reference used in tests to certify diff minimality; intentionally shares
    nothing with the Myers implementation above.
    """
    n, m = len(a), len(b)
    if n == 0 or m == 0:
        return 0
    prev = [0] * (m + 1)
    for x in a:
        cur = [0] * (m + 1)
        prev_row = prev
        cj = 0
        for j in range(1, m + 1):
            if x == b[j - 1]:
                cj = prev_row[j - 1] + 1
            else:
                pj = prev_row[j]
                if pj > cj:
                    cj = pj
            cur[j] = cj
        prev = cur
    return prev[m]
