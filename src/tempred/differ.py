"""Minimal edit scripts between fragment sequences via the Myers O((N+M)D) diff.

The added/removed fragment collections are multisets (duplicates kept).
Several minimal scripts can exist for one input pair; this implementation
always follows the canonical path that prefers deletions over insertions at
each furthest-reaching step, so output is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, TYPE_CHECKING

from .fragmenter import Granularity

if TYPE_CHECKING:
    from .history import CommitRecord

# Edit ops are (kind, before_index, after_index). "equal" copies
# before[before_index] (== after[after_index]); "delete" consumes
# before[before_index]; "insert" emits after[after_index].
EditOp = tuple[str, int, int]

EQUAL = "equal"
DELETE = "delete"
INSERT = "insert"


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

    def added_count(self, granularity: Granularity) -> int:
        return sum(len(d.added) for d in self.deltas_for(granularity))


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
        # Keep only the window the backtrack can read: k in [-d-1, d+1].
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


def edit_script(before: Sequence, after: Sequence) -> list[EditOp]:
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


def diff_fragments(
    before: Sequence[str],
    after: Sequence[str],
    *,
    path: str = "",
    granularity: Granularity = Granularity.LINE,
) -> FileDelta:
    """Minimal added/removed fragment multisets between two fragment sequences.

    An absent file side is the empty sequence (file add means empty before,
    file delete means empty after).
    """
    added: list[str] = []
    removed: list[str] = []
    for kind, i, j in edit_script(before, after):
        if kind == INSERT:
            added.append(after[j])
        elif kind == DELETE:
            removed.append(before[i])
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
