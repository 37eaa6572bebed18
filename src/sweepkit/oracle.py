"""Brute-force reference implementations (test-only API).

Everything here goes through plain enumeration or a direct count and never
calls the fast operations it exists to validate: no tableau walk, no linear
inversion, no rank-sort dinv.  ``_fill_columns`` is the per-column list
filling that the label-indexed ``fuss._fill`` replaced, kept as its
reference.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from typing import Iterator

from .core import NORTH, DyckPath, enumerate_paths, make_frame
from .errors import PrematureStall, SearchExhausted
from .fuss import FussTableau, path_tableau
from .sweep import S_STEP, sweep


@lru_cache(maxsize=64)
def _sweep_images(m: int, n: int) -> dict[str, str]:
    """steps of sweep(D) -> steps of D, over the whole frame."""
    frame = make_frame(m, n)
    return {sweep(D).steps: D.steps for D in enumerate_paths(frame)}


def oracle_invert_sweep(path: DyckPath) -> DyckPath:
    """Sweep preimage found by exhaustive enumeration of the frame."""
    table = _sweep_images(path.frame.m, path.frame.n)
    try:
        return DyckPath(path.frame, table[path.steps])
    except KeyError:
        raise SearchExhausted(f"no sweep preimage of {path.steps}") from None


def _east_heights(path: DyckPath) -> list[int]:
    """Height of the East step in each column x = 0 .. m-1 (non-decreasing)."""
    heights = []
    y = 0
    for ch in path.steps:
        if ch == NORTH:
            y += 1
        else:
            heights.append(y)
    return heights


def oracle_dinv(path: DyckPath) -> int:
    """Count cells above the path whose boundary ranks a, b satisfy 0 < a-b < m+n.

    For a cell in column x and row y (both 0-indexed), a is the rank of the
    left vertex of the East step in column x, and b is the rank of the bottom
    vertex of the North step crossing row y.  This O(mn) cell rule is
    independent of the sweep map, so checking it against ``core.dinv`` tests
    the transport identity dinv(D) = area(sweep(D)).
    """
    m, n = path.frame.m, path.frame.n
    east_rank = []  # a(x), by column
    north_rank = []  # b(y), by row
    r = 0
    for ch in path.steps:
        (north_rank if ch == NORTH else east_rank).append(r)
        r += m if ch == NORTH else -n
    size = m + n
    count = 0
    for x, h in enumerate(_east_heights(path)):
        a = east_rank[x]
        for y in range(h, n):
            diff = a - north_rank[y]
            if 0 < diff < size:
                count += 1
    return count


def _fill_columns(letters: str, k: int) -> list[list[int]]:
    """Run the column filling over the first m+n-1 letters."""
    columns: list[list[int]] = []
    active: deque[int] = deque()
    full = k + 1
    for label, ch in enumerate(letters[:-1], start=1):
        if ch == S_STEP:
            active.append(len(columns))
            columns.append([label])
        else:
            if not active:
                raise PrematureStall(f"no active column for label {label}")
            c = active.popleft()
            col = columns[c]
            col.append(label)
            if len(col) < full:
                active.append(c)
    return columns


def oracle_fiber(T_reduced: FussTableau) -> list[DyckPath]:
    """All paths one frame up whose reduced tableau equals T_reduced."""
    from .reduction import red

    k, n = T_reduced.k, T_reduced.n + 1
    frame = make_frame(k * n + 1, n)
    return [D for D in enumerate_paths(frame) if red(path_tableau(D)) == T_reduced]


def _strip_ok(columns: list[list[int]]) -> bool:
    """No two labels strictly between vertical neighbors share a column."""
    column_of = {e: j for j, col in enumerate(columns) for e in col}
    for col in columns:
        for a, d in zip(col, col[1:]):
            seen = set()
            for e in range(a + 1, d):
                j = column_of[e]
                if j in seen:
                    return False
                seen.add(j)
    return True


def enumerate_tableaux(k: int, n: int) -> Iterator[FussTableau]:
    """Backtracking enumeration of all valid sign +1 tableaux.

    Fills the (k+1) x n rectangle with 1 .. (k+1)n keeping rows and columns
    increasing, then filters by the horizontal-strip condition; independent
    of the column-filling algorithm.
    """
    total = (k + 1) * n
    heights = [0] * n
    columns: list[list[int]] = [[] for _ in range(n)]

    def place(label: int) -> Iterator[FussTableau]:
        if label > total:
            if _strip_ok(columns):
                yield FussTableau(
                    k=k, n=n, sign=+1, columns=tuple(tuple(c) for c in columns)
                )
            return
        for j in range(n):
            h = heights[j]
            if h == k + 1:
                continue
            if j > 0 and heights[j - 1] <= h:
                continue
            columns[j].append(label)
            heights[j] += 1
            yield from place(label + 1)
            heights[j] -= 1
            columns[j].pop()

    yield from place(1)
