"""Minimal added/removed fragments between fragment sequences via the Myers
O((N+M)D) diff.

The added/removed fragment collections are multisets (duplicates kept).
Several minimal edit paths can exist for one input pair; this implementation
always follows the canonical path that prefers deletions over insertions at
each furthest-reaching step, so output is deterministic. Only the inserted
and deleted fragments are collected; no edit script is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    # k = x - y is the same in both, and V starts at x = lo.
    max_d = (n - lo) + (m - lo)
    offset = max_d + 1
    v = [lo] * (2 * max_d + 4)
    trace: list[list[int]] = []
    found_d = -1
    for d in range(max_d + 1):
        # Keep only the window the backtrack can read: k in [-d-1, d+1].
        trace.append(v[offset - d - 1 : offset + d + 2])
        for k in range(-d, d + 1, 2):
            ki = offset + k
            if k == -d or (k != d and v[ki - 1] < v[ki + 1]):
                x = v[ki + 1]  # step down: insertion
            else:
                x = v[ki - 1] + 1  # step right: deletion (preferred on ties)
            y = x - k
            while x < n and y < m and before[x] == after[y]:
                x += 1
                y += 1
            v[ki] = x
            if x >= n and y >= m:
                found_d = d
                break
        if found_d >= 0:
            break

    # Backtrack the canonical path, skipping each snake, then restore order.
    added: list[str] = []
    removed: list[str] = []
    x, y = n, m
    for d in range(found_d, 0, -1):
        win = trace[d]
        base = d + 1  # window index of k == 0
        k = x - y
        if k == -d or (k != d and win[base + k - 1] < win[base + k + 1]):
            x = win[base + k + 1]
            y = x - k - 1
            added.append(after[y])
        else:
            x = win[base + k - 1]
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
