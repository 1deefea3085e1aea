"""Minimal added/removed fragments between fragment sequences via the Myers
O((N+M)D) diff.

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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import pairwise
from typing import Sequence, TYPE_CHECKING

from .fragmenter import Granularity

if TYPE_CHECKING:
    from .history import CommitRecord


@dataclass
class FileDelta:
    """Added and removed fragments of one file in one commit, one granularity."""

    path: str
    granularity: Granularity
    added: list[str]
    removed: list[str]


@dataclass
class ChangeSet:
    """All per-file deltas of one commit, across granularities."""

    commit: "CommitRecord"
    deltas: list[FileDelta] = field(default_factory=list)

    def deltas_for(self, granularity: Granularity) -> list[FileDelta]:
        return [d for d in self.deltas if d.granularity == granularity]


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
    n, m = len(before), len(after)
    lo = 0
    while lo < n and lo < m and before[lo] == after[lo]:
        lo += 1
    while n > lo and m > lo and before[n - 1] == after[m - 1]:
        n -= 1
        m -= 1
    if lo == n or lo == m:
        return FileDelta(path=path, granularity=granularity,
                         added=list(after[lo:m]), removed=list(before[lo:n]))

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
    for d in range(cols + rows + 1):
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
    return FileDelta(path=path, granularity=granularity, added=added, removed=removed)


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
