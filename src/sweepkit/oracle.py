"""Brute-force reference implementations (the tests, ``sweepkit verify`` and
``sweepkit invert --method brute`` use them).

Everything here goes through plain enumeration or a direct count and never
calls the fast operations it exists to validate: no walk kernel, no linear
inversion, no rank-sort dinv.  ``_fill_columns`` is the per-column list
filling that the label-indexed ``fuss._fill`` replaced, ``_walk_order`` the
walk over arbitrary columns that ``fuss._cycle`` replaced,
``oracle_bipartite_invert`` the position-list walk that
``sweep.bipartite_invert`` replaced, ``oracle_fiber_by_cutting`` the
lift-and-sweep per cut that ``reduction.fiber_by_cutting`` replaced,
``oracle_validate`` the round trip through a second tableau that
``FussTableau.validate`` replaced, ``oracle_red`` the bisection per entry
that ``reduction.red`` replaced, ``oracle_vertex_of_rank`` the search of the
rank walk that ``core._vertex_of_rank`` replaced, and ``oracle_min_rank`` the
per-letter rank loop that ``core._min_rank`` replaced; all are kept as references.
``oracle_invert_sweep`` is the package's only brute-force sweep inversion.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import deque
from functools import lru_cache
from operator import indexOf
from typing import Iterator

from .core import (EAST, NORTH, DyckPath, Frame, Fuss, RankSequence, _prefix_ranks,
                   _unchecked, enumerate_paths, make_frame, ranks)
from .errors import (
    FrameTooLarge,
    InconsistentPair,
    NotSingleCycle,
    PrematureStall,
    SearchExhausted,
    SweepkitError,
    TooNarrow,
)
from .fuss import FussTableau, _fuss_frame, _require_plus, path_tableau
from .qtcatalan import path_count
from .reduction import cut_and_lift
from .sweep import S_STEP, W_STEP, ENWord, SWWord, sweep


# One table near BRUTE_PATH_LIMIT holds about 15 MB, so only a few are kept.
@lru_cache(maxsize=4)
def _sweep_images(m: int, n: int) -> dict[str, str]:
    """steps of sweep(D) -> steps of D, over the whole frame."""
    frame = make_frame(m, n)
    return {sweep(D).steps: D.steps for D in enumerate_paths(frame)}


# Most paths a brute search will enumerate; building the table of the
# 84,825 paths of (24, 7) takes about 1.7 s (CPython 3.11, x86-64).
BRUTE_PATH_LIMIT = 100_000


def _refuse_large(frame: Frame) -> None:
    """FrameTooLarge if the frame has more than BRUTE_PATH_LIMIT paths."""
    count = path_count(frame)
    if count > BRUTE_PATH_LIMIT:
        raise FrameTooLarge(f"({frame.m}, {frame.n}) has {count} paths, brute search "
                            f"is limited to {BRUTE_PATH_LIMIT}")


def oracle_invert_sweep(path: DyckPath) -> DyckPath:
    """Sweep preimage found by exhaustive enumeration of the frame.

    Refuses, with FrameTooLarge, frames of more than BRUTE_PATH_LIMIT paths,
    before the frame's image table is built or cached.
    """
    frame = path.frame
    _refuse_large(frame)
    table = _sweep_images(frame.m, frame.n)
    try:
        return DyckPath(frame, table[path.steps])
    except KeyError:
        raise SearchExhausted(f"no sweep preimage of {path.steps}") from None


def oracle_bipartite_invert(sw: SWWord, en: ENWord) -> tuple[DyckPath, RankSequence]:
    """Rebuild the unique common preimage from its SW and EN rank-order words.

    Follow the Eulerian walk S_i -> N_i (rank +m) and W_j -> E_j (rank -n)
    starting from rank 0 at the first position; the visiting order of
    positions spells the preimage's step word and the per-position ranks
    recover its rank sequence.  The per-letter position lists that
    ``sweep.bipartite_invert`` replaced, kept as its reference.
    """
    if sw.frame != en.frame:
        raise InconsistentPair("SW and EN words live on different frames")
    m, n = sw.frame.m, sw.frame.n
    size = m + n
    s_positions = [i for i, ch in enumerate(sw.letters) if ch == S_STEP]
    w_positions = [i for i, ch in enumerate(sw.letters) if ch == W_STEP]
    n_positions = [i for i, ch in enumerate(en.letters) if ch == "N"]
    e_positions = [i for i, ch in enumerate(en.letters) if ch == "E"]
    if len(s_positions) != len(n_positions):
        raise InconsistentPair("letter counts of the SW and EN words disagree")
    index_within = [0] * size  # position -> its ordinal among its own letter kind
    for arr in (s_positions, w_positions):
        for i, p in enumerate(arr):
            index_within[p] = i

    rank_at = [0] * size
    visited = [False] * size
    order = []
    pos = 0
    r = 0
    for _ in range(size):
        if visited[pos]:
            raise InconsistentPair(f"walk revisits position {pos + 1} before closing")
        visited[pos] = True
        order.append(pos)
        rank_at[pos] = r
        if sw.letters[pos] == S_STEP:
            pos = n_positions[index_within[pos]]
            r += m
        else:
            pos = e_positions[index_within[pos]]
            r -= n
    if pos != 0:
        raise InconsistentPair("walk does not close at the starting position")
    if any(rank_at[i] >= rank_at[i + 1] for i in range(size - 1)):
        raise InconsistentPair("recovered ranks are not increasing along the words")
    word = "".join(NORTH if sw.letters[p] == S_STEP else EAST for p in order)
    return DyckPath(sw.frame, word), RankSequence(tuple(rank_at))


def oracle_vertex_of_rank(m: int, n: int, steps: str, rank: int) -> int:
    """Index of the first step of the word that starts at the rank, by search; else ValueError."""
    return indexOf(_prefix_ranks(m, n, steps), rank)


def oracle_min_rank(m: int, n: int, steps: str) -> int:
    """Least start rank of a word over {N, E}, walked letter by letter: the loop of
    ``DyckPath``'s validation, which tested the rank only after East steps, since North
    steps only raise it."""
    r = low = 0
    for ch in steps[:-1]:
        if ch == NORTH:
            r += m
        else:
            r -= n
            if r < low:
                low = r
    return low


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


def _walk_order(columns: tuple[tuple[int, ...], ...], sign: int) -> list[int]:
    """Closed walk on completed columns whose entries may be any distinct ints.

    Entries are compared through their ordinals in the sorted label universe
    (grid entries plus, for sign +1, one off-grid label just past the
    maximum); turns land at foot ordinal +- 1 and the bold slide moves the
    opposite way.  Raises NotSingleCycle unless every label is written
    exactly once and the walk closes back at the smallest label.
    """
    universe = sorted({e for c in columns for e in c})
    if sign > 0:
        universe.append(universe[-1] + 1)
    ordinal = {e: i + 1 for i, e in enumerate(universe)}
    size = len(universe) if sign > 0 else len(universe) - 1

    up = [0] * (len(universe) + 2)
    in_row1 = bytearray(len(universe) + 2)
    turn = [0] * (len(universe) + 2)
    bold = bytearray(len(universe) + 2)
    for col in columns:
        top = ordinal[col[0]]
        in_row1[top] = 1
        foot = ordinal[col[-1]]
        turn[top] = foot + sign
        bold[foot + sign] = 1
        for above, below in zip(col, col[1:]):
            up[ordinal[below]] = ordinal[above]

    order = []
    seen = bytearray(len(universe) + 2)
    cur = 1
    for _ in range(size):
        if seen[cur]:
            raise NotSingleCycle(f"label {universe[cur - 1]} visited twice")
        seen[cur] = 1
        order.append(universe[cur - 1])
        if in_row1[cur]:
            cur = turn[cur]
        else:
            r = size if sign > 0 and cur == size else up[cur]
            while bold[r]:
                r -= sign
            cur = r
    if cur != 1:
        raise NotSingleCycle("walk does not close at the smallest label")
    expected = set(universe[:size]) if sign < 0 else set(universe)
    if set(order) != expected:
        raise NotSingleCycle("walk misses labels")
    return order


def oracle_validate(k: int, n: int, sign: int, columns) -> None:
    """The check of ``FussTableau`` on the tableau with these columns, as the round trip
    that ``validate`` replaced: (k, sign) the Fuss classification of (kn + sign, n),
    S at the first-row labels and W elsewhere an SW word of that frame, and its
    per-column list filling (``_fill_columns``, not the fill kernel) ``columns``
    again, which also fixes the shape.  ValueError otherwise.
    """
    frame = make_frame(k * n + sign, n)
    if frame.fuss != Fuss(k, sign):
        raise ValueError("(k, sign) is not the Fuss classification of the frame")
    tops = {c[0] for c in columns}
    letters = "".join(S_STEP if label in tops else W_STEP for label in range(1, frame.size + 1))
    try:
        filled = tuple(map(tuple, _fill_columns(SWWord(frame, letters).letters, k)))
    except SweepkitError as exc:
        raise ValueError(f"tableau encodes no path: {exc}") from exc
    if filled != columns:
        raise ValueError("tableau is not the column filling of its first row")


def oracle_red(T: FussTableau) -> FussTableau:
    """``reduction.red`` by one bisection per entry: each entry of columns
    2 .. n drops by the number of column-1 entries below it.  The loop that
    the shift table of ``red`` replaced, kept as its reference; unchecked."""
    _require_plus(T, "oracle_red")
    if T.n < 2:
        raise TooNarrow("cannot remove the only column")
    col1 = [row[0] for row in T.rows]
    rows = tuple(tuple(e - bisect_left(col1, e) for e in row[1:]) for row in T.rows)
    return _unchecked(FussTableau, k=T.k, n=T.n - 1, sign=+1, rows=rows)


def oracle_fiber(T_reduced: FussTableau) -> list[DyckPath]:
    """All paths one frame up whose reduced tableau equals T_reduced.

    Refuses, with FrameTooLarge, a frame one up of more than
    BRUTE_PATH_LIMIT paths, before enumerating it.  Reduces by ``oracle_red``.
    """
    k, n = T_reduced.k, T_reduced.n + 1
    frame = make_frame(k * n + 1, n)
    _refuse_large(frame)
    return [D for D in enumerate_paths(frame) if oracle_red(path_tableau(D)) == T_reduced]


def oracle_fiber_by_cutting(T_reduced: FussTableau) -> list[DyckPath]:
    """``reduction.fiber_by_cutting`` one member at a time: lift the reduced
    preimage at each vertex of rank < m', by rank, and sweep the lifted path.

    The preimage is spelled by ``_walk_order`` (N at the first-row labels),
    not by the walk kernel.  The loop that the one rank sort of
    ``fiber_by_cutting`` replaced, kept as its reference.
    """
    _require_plus(T_reduced, "oracle_fiber_by_cutting")
    tops = set(T_reduced.first_row())
    order = _walk_order(tuple(zip(*T_reduced.rows)), +1)
    preimage = DyckPath(T_reduced.frame(), "".join(NORTH if t in tops else EAST for t in order))
    m = preimage.frame.m
    return [sweep(cut_and_lift(preimage, r)) for r in sorted(ranks(preimage)) if r < m]


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
    of the column-filling algorithm.  The search visits every standard
    tableau of the rectangle, not only the valid ones, so it refuses, with
    FrameTooLarge, when their hook-length count exceeds BRUTE_PATH_LIMIT,
    before the first tableau is placed.  That count bounds the (kn+1, n)
    frame's path count from above.  Built unchecked: no fill kernel runs.
    """
    _fuss_frame(k, n, +1)  # ValueError unless (kn + 1, n) classifies as (k, +1)
    total = (k + 1) * n
    # Hook of cell (i, j) of a rectangle: i + j + 1 counted from its far corner.
    searched = math.factorial(total) // math.prod(
        i + j + 1 for i in range(k + 1) for j in range(n)
    )
    if searched > BRUTE_PATH_LIMIT:
        raise FrameTooLarge(f"the {k + 1} x {n} rectangle has {searched} standard "
                            f"tableaux, the search is limited to {BRUTE_PATH_LIMIT}")
    heights = [0] * n
    columns: list[list[int]] = [[] for _ in range(n)]

    def place(label: int) -> Iterator[FussTableau]:
        if label > total:
            if _strip_ok(columns):
                yield _unchecked(FussTableau, k=k, n=n, sign=+1, rows=tuple(zip(*columns)))
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

    return place(1)
