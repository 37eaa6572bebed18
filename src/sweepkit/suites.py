"""Exhaustive property suites behind ``sweepkit verify`` and the acceptance gate.

Each suite checks the fast code against ``oracle`` on every path of the
frames it is given (on every sign +1 Fuss frame, for the Catalan routes)
and returns ``(checked, counterexample)``: how many inputs it checked, and
the first one on which the fast code disagrees or raises, or None.
``oracle`` never imports this module, so the references stay independent
of the suites that use them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

from .core import (DyckPath, Frame, _unchecked, area, dinv, enumerate_paths, make_frame,
                   rank_complement, rank_sequence)
from .fuss import (FussTableau, en_from_tableau, fill_tableau, invert_fuss, path_tableau, psi,
                   tableau_from_bottom_row, tableau_from_first_row, tableau_to_sw, walk)
from .oracle import (
    _fill_columns,
    _walk_order,
    oracle_dinv,
    oracle_fiber_by_cutting,
    oracle_invert_sweep,
    oracle_red,
)
from .reduction import fiber_by_cutting, red, reduced_path_of
from .qtcatalan import CATALAN_ROUTES, path_count
from .sweep import SWWord, bipartite_invert, en_word, steps_to_sw, sw_word, sweep


def coprime_frames(max_steps: int) -> list[Frame]:
    """Every coprime frame with 2 <= m+n <= max_steps, by size, then by m."""
    return [
        make_frame(m, size - m)
        for size in range(2, max_steps + 1)
        for m in range(1, size)
        if math.gcd(m, size - m) == 1
    ]


def reference_columns(path: DyckPath) -> tuple[tuple[int, ...], ...]:
    """Completed columns of the path's tableau, from the per-column oracle
    fill; sign -1 continues the word with two virtual W's (m+n, m+n+1)."""
    fuss = path.frame.fuss
    letters = steps_to_sw(path.steps) + "WW" * (fuss.sign < 0)
    return tuple(map(tuple, _fill_columns(letters, fuss.k)))


@dataclass(frozen=True)
class Counterexample:
    """An input on which the fast code disagrees with a reference, or raises."""

    suite: str
    frame: Frame
    word: str
    expected: object
    got: object

    def __str__(self) -> str:
        where = f"({self.frame.m}, {self.frame.n}) {self.word}".rstrip()
        return f"{self.suite} on {where}: expected {self.expected!r}, got {self.got!r}"


def _outcome(call, *args):
    """``call(*args)``, or the exception it raises: on a bad input that is the finding."""
    try:
        return call(*args)
    except Exception as exc:
        return exc


def _first(suite: str, cases) -> tuple[int, Counterexample | None]:
    """Run ``(frame, word, reference, fast, *args)`` cases up to the first where
    ``fast(*args)`` differs from ``reference()``.  An exception on either side is
    that side's value and equals nothing, so a reference that raises on a bad input
    names that input too, instead of ending ``verify`` before the later suites."""
    checked = 0
    for frame, word, reference, fast, *args in cases:
        checked += 1
        expected, got = _outcome(reference), _outcome(fast, *args)
        if got != expected:
            return checked, Counterexample(suite, frame, word, expected, got)
    return checked, None


def _fuss_paths(frames):
    return ((f, D) for f in frames if f.fuss is not None for D in enumerate_paths(f))


def _rebuilt(*outputs) -> bool:
    """Every output, most built unchecked, passes its own constructor (False: there is none):
    ``replace`` reruns the type's ``__post_init__``, which normalises no field."""
    return all(replace(x) == x for x in outputs if x is not False)


def _transport(D: DyckPath, preimages: dict[str, str], last: bool) -> dict:
    cells, complement = dinv(D), rank_complement(D)  # before the sweep: a sort and a max
    frame, image, sw, en = D.frame, sweep(D), sw_word(D), en_word(D)
    rs, preimage = rank_sequence(D), bipartite_invert(sw, en)[0]
    return {"path count": path_count(frame) if last else None, "dinv": cells,
            "dinv(kept sort)": dinv(D), "area(sweep)": area(image),
            "sweep preimage": preimages.setdefault(image.steps, D.steps),
            "outputs rebuilt": _rebuilt(D, image, sw, en, complement, rs, preimage),
            "rank_complement(kept sort)": rank_complement(D).steps == complement.steps,
            "bipartite_invert": preimage.steps}


def _transport_expected(D: DyckPath, count: int | None) -> dict:
    cells = oracle_dinv(D)
    return {"path count": count, "dinv": cells, "dinv(kept sort)": cells, "area(sweep)": cells,
            "sweep preimage": D.steps, "outputs rebuilt": True,
            "rank_complement(kept sort)": True, "bipartite_invert": D.steps}


def _transport_cases(frames):
    preimages: dict[str, str] = {}  # one for every frame: a word fixes its frame
    for frame in frames:
        paths = list(enumerate_paths(frame))
        for D in paths:
            # The count is checked on the frame's last path, so that a path the
            # enumeration got wrong is named before the count it throws off.
            last = D is paths[-1]
            reference = partial(_transport_expected, D, len(paths) if last else None)
            yield frame, D.steps, reference, _transport, D, preimages, last


def sweep_transport(frames) -> tuple[int, Counterexample | None]:
    """Path count, sweep injective, dinv = cell-rule dinv = area of the image, dinv and
    the rank complement alike before and after the sweep keeps its rank sort, the
    enumerated path and every output built unchecked rebuilt by its own constructor, and
    bipartite_invert(sw_word, en_word) the path."""
    return _first("sweep transport", _transport_cases(frames))


def _inversion(D: DyckPath) -> dict:
    preimage = invert_fuss(D)
    return {"invert_fuss": preimage.steps, "sweep(invert_fuss)": sweep(preimage).steps}


def _inversion_expected(D: DyckPath) -> dict:
    return {"invert_fuss": oracle_invert_sweep(D).steps, "sweep(invert_fuss)": D.steps}


def fuss_inversion(frames) -> tuple[int, Counterexample | None]:
    """The linear inversion equals the brute search and is a sweep preimage."""
    return _first("Fuss inversion", (
        (frame, D.steps, partial(_inversion_expected, D), _inversion, D)
        for frame, D in _fuss_paths(frames)))


def _tableau(D: DyckPath, fillers: dict) -> dict:
    T = fill_tableau(SWWord(D.frame, steps_to_sw(D.steps)))
    plus = T.sign > 0
    fiber = fiber_by_cutting(T) if plus else ()
    sw, en = tableau_to_sw(T), en_from_tableau(T)
    reduced = plus and T.n >= 2 and reduced_path_of(D)
    return {"outputs rebuilt": _rebuilt(
                T, sw, en, *fiber, reduced, plus and T.n >= 2 and red(T), plus and psi(T),
                plus and tableau_from_first_row(T.k, T.n, T.first_row()),
                plus and tableau_from_bottom_row(T.k, T.n, T.bottom_row())),
            "path_tableau(reduced_path_of)": path_tableau(reduced).rows if reduced else None,
            "tableau_to_sw": sw.letters, "walk": walk(T).order,
            "filled from": fillers.setdefault(T.rows, D.steps),
            "fiber": [P.steps for P in fiber] if plus else None}


def _tableau_expected(D: DyckPath) -> dict:
    fuss, columns = D.frame.fuss, reference_columns(D)
    fiber = reduced = None  # a sign -1 tableau has no fiber and no reduction
    if fuss.sign > 0:  # the reference tableau is unchecked: no fill kernel runs
        reference = _unchecked(FussTableau, k=fuss.k, n=D.frame.n, sign=+1,
                               rows=tuple(zip(*columns)))
        fiber = [P.steps for P in oracle_fiber_by_cutting(reference)]
        reduced = oracle_red(reference).rows if D.frame.n >= 2 else None
    return {"outputs rebuilt": True, "path_tableau(reduced_path_of)": reduced,
            "tableau_to_sw": steps_to_sw(D.steps), "walk": tuple(_walk_order(columns, fuss.sign)),
            "filled from": D.steps, "fiber": fiber}


def tableau_walk(frames) -> tuple[int, Counterexample | None]:
    """Column filling is injective; the tableau, its words from ``tableau_to_sw`` and
    ``en_from_tableau``, and for sign +1 its ``red``, ``psi``, fiber one column up,
    ``reduced_path_of`` and the row constructors' tableaux from its first and bottom rows
    are rebuilt by their own constructors; ``reduced_path_of`` fills the oracle's ``red``
    of the oracle's fill; ``tableau_to_sw`` undoes the filling; the walk is the oracle's
    column walk over the oracle's fill, and the fiber is the oracle's cut-by-cut one."""
    fillers: dict = {}  # one for every frame: the rows fix the frame
    return _first("tableau and walk", (
        (frame, D.steps, partial(_tableau_expected, D), _tableau, D, fillers)
        for frame, D in _fuss_paths(frames)))


def _routes(k: int, n: int):
    """The routes' common value at q = t = 1, or each route's polynomial if they differ."""
    # The step route builds the frame from the one a column narrower.
    polys = {via: route(k, n) for via, route in CATALAN_ROUTES.items() if n >= 2 or via != "step"}
    if any(p != polys["dinv-area"] for p in polys.values()):
        return {via: p.pretty() for via, p in polys.items()}
    return polys["dinv-area"].evaluate(1, 1)


def catalan_routes(frames) -> tuple[int, Counterexample | None]:
    """On every sign +1 Fuss frame the three routes agree and count its paths."""
    return _first("Catalan routes", (
        (frame, "", partial(path_count, frame), _routes, frame.fuss.k, frame.n)
        for frame in frames if frame.fuss is not None and frame.fuss.sign > 0))
