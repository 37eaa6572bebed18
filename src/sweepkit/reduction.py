"""Column reduction of Fuss tableaux and its fiber structure (m = kn+1 only).

Removing column 1 of a tableau and renumbering drops it from n to n-1
columns; the map on paths induced through their tableaux is many-to-one
with fiber size equal to the foot of column 1.  The two fiber constructions
below (cutting the reduced preimage at every small rank, and freeing the
first bottom-row entry) build the exact same tableau set, and the row sums
of a tableau read off area and coarea of its path directly.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import chain, islice, pairwise

from .core import (
    EAST,
    NORTH,
    DyckPath,
    _rank_keys,
    _rank_sort,
    _unchecked,
    _vertex_of_rank,
    make_frame,
    parse_path,
    ranks,
)
from .errors import NotFuss, RankNotPresent, RankTooLarge, TooNarrow
from .fuss import FussTableau, _require_plus, _walk_path, invert_fuss, tableau_from_bottom_row


def red(T: FussTableau) -> FussTableau:
    """Remove column 1 and renumber the remaining entries contiguously.

    An entry drops by the number of column-1 entries below it, a shift that
    is constant between consecutive column-1 entries.  So one table of the
    labels 0 .. (k+1)n, built a segment of ``range`` at a time, renumbers
    each row past its first entry in one pass.
    Unchecked: column reduction maps T^k_n onto T^k_{n-1} (the paper's red).
    The bisection per entry it replaced is ``oracle.oracle_red``.
    """
    _require_plus(T, "red")
    if T.n < 2:
        raise TooNarrow("cannot remove the only column")
    bounds = (0, *[row[0] for row in T.rows], T.size)  # T.size - 1 = (k+1)n is the largest entry
    renumber = list(chain.from_iterable(
        range(a - i, b - i) for i, (a, b) in enumerate(pairwise(bounds))))
    rows = tuple(tuple(map(renumber.__getitem__, islice(row, 1, None))) for row in T.rows)
    return _unchecked(FussTableau, k=T.k, n=T.n - 1, sign=+1, rows=rows)


def fiber_count(T_reduced: FussTableau) -> int:
    """Number of tableaux reducing to T_reduced: the foot of its column 1."""
    _require_plus(T_reduced, "fiber_count")
    return T_reduced.rows[-1][0]


def fiber_by_bottom_rows(T_reduced: FussTableau) -> list[FussTableau]:
    """All preimages of red, rebuilt from their bottom rows.

    The bottom rows agree except in the first entry, which ranges over
    k+1 .. k + b'_1; returned in increasing order of that entry.
    """
    _require_plus(T_reduced, "fiber_by_bottom_rows")
    k, n = T_reduced.k, T_reduced.n + 1
    bottom = T_reduced.rows[-1]
    tail = [b + k + 1 for b in bottom]
    return [tableau_from_bottom_row(k, n, [b1] + tail) for b1 in range(k + 1, k + bottom[0] + 1)]


def cut_and_lift(preimage: DyckPath, r: int) -> DyckPath:
    """Cut a reduced-frame preimage at the rank-r vertex and lift it.

    With preimage = A B cut at the vertex of rank r < m', the lifted path is
    N B A E^k one frame up; its sweep image reduces back to the original
    tableau, and its cobounce exceeds the reduced one by exactly r.  As r comes
    from the caller, the vertex ``_vertex_of_rank`` gives is checked to have rank r.
    """
    frame = preimage.frame
    if frame.fuss is None or frame.fuss.sign != +1:
        raise NotFuss("cut_and_lift needs an m = kn+1 frame")
    m, n, k, steps = frame.m, frame.n, frame.fuss.k, preimage.steps
    if r >= m:
        raise RankTooLarge(f"rank {r} >= {m} lifts to no valid path")
    i = _vertex_of_rank(m, n, r)
    if not (0 <= i < m + n and steps.count(NORTH, 0, i) * (m + n) - i * n == r):
        raise RankNotPresent(f"rank {r} is not a vertex rank")
    lifted_frame = make_frame(k * (n + 1) + 1, n + 1)
    return parse_path(lifted_frame, NORTH + steps[i:] + steps[:i] + EAST * k)


def fiber_by_cutting(T_reduced: FussTableau) -> list[DyckPath]:
    """All paths whose tableau reduces to T_reduced, via preimage cutting.

    Each member is the sweep image of ``cut_and_lift`` at a vertex of the
    reduced preimage of rank < m', returned in increasing order of that
    rank; the list has exactly fiber_count(T_reduced) members.  All members
    come from one rank sort and, being sweep images (below), are unchecked.

    Write (m, n) = (m'+k, n'+1) for the lifted frame and give the vertex
    (E, H) of the reduced preimage the key kappa = m*H - n*E.  Cut at the
    vertex of key kappa0, the lifted path N B A E^k starts each B step at
    rank m + kappa - kappa0 and each A step at rank m + kappa - kappa0 - 1,
    since m*n' - n*m' = -1.  Hence:

    - kappa is injective, as gcd(m, n) = 1 and 0 <= H <= n' < n;
    - the lifted path's start ranks are distinct, so the B and A letters
      come in kappa order, whatever the cut;
    - the tail E's start at ranks n, 2n, ..., kn, and the one at j*n
      follows exactly the letters of kappa <= j*n - m + kappa0.

    ``oracle.oracle_fiber_by_cutting`` lifts and sweeps each cut instead.
    """
    _require_plus(T_reduced, "fiber_by_cutting")
    k = T_reduced.k
    preimage = _walk_path(T_reduced)
    steps, reduced_m = preimage.steps, preimage.frame.m
    frame = make_frame(reduced_m + k, preimage.frame.n + 1)
    m, n = frame.m, frame.n
    # kappa is a start rank of the lifted frame, so the keys are its rank-sort keys.
    keys = _rank_keys(frame, steps)  # 2*kappa + (1 for E): kappa <= x iff key <= 2x + 1
    cuts = sorted((r, key >> 1) for r, key in zip(ranks(preimage), keys) if r < reduced_m)
    letters = _rank_sort(keys)
    members = []
    for _, kappa0 in cuts:
        tails = [bisect_right(keys, 2 * (j * n - m + kappa0) + 1) for j in range(1, k + 1)]
        bounds = [0, *tails, None]
        word = EAST.join([letters[a:b] for a, b in pairwise(bounds)])
        members.append(_unchecked(DyckPath, frame=frame, steps=NORTH + word))
    return members


def coarea_from_top_row(T: FussTableau) -> int:
    """coarea of the encoded path: sum of first-row entries minus C(n+1, 2)."""
    _require_plus(T, "coarea_from_top_row")
    n = T.n
    return sum(T.first_row()) - n * (n + 1) // 2


def area_from_bottom_row(T: FussTableau) -> int:
    """area of the encoded path: sum of bottom-row entries minus (k+1) C(n+1, 2)."""
    _require_plus(T, "area_from_bottom_row")
    n = T.n
    return sum(T.bottom_row()) - (T.k + 1) * n * (n + 1) // 2


def reduced_path_of(path: DyckPath) -> DyckPath:
    """The unique one-column-narrower path whose tableau is red of the path's.

    Geometric form: strip the sweep preimage's leading North step and trailing
    k East steps; a rotation of the remainder is the reduced frame's sweep
    preimage.  A rotation shifts every start rank by one constant, so one rank
    sort of the remainder as it stands spells the sweep, a path built unchecked.
    """
    frame = path.frame
    if frame.fuss is None or frame.fuss.sign != +1:
        raise NotFuss("reduction needs an m = kn+1 frame")
    if frame.n < 2:
        raise TooNarrow("cannot reduce a single-row frame")
    k = frame.fuss.k
    preimage = invert_fuss(path)
    middle = preimage.steps[1 : len(preimage.steps) - k]
    reduced_frame = make_frame(k * (frame.n - 1) + 1, frame.n - 1)
    steps = _rank_sort(_rank_keys(reduced_frame, middle))
    return _unchecked(DyckPath, frame=reduced_frame, steps=steps)
