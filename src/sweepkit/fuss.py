"""Tableau encoding of Fuss paths and the O(m+n) sweep-map inversion.

For m = kn+1 the SW word of a path fills a (k+1) x n standard tableau, one
new column per S, each W going below the smallest active column foot
(active: bottom of a column not yet of full height).  A closed walk through
the tableau labels then spells the step word of the sweep preimage, so a
path is inverted in two linear passes with no search.  The walk has two
loops: ``_preimage`` spells the letters alone, for ``invert_fuss`` and
``bounce``, and ``_cycle`` also records the visit order, for the tableau
API (``walk``, ``reduced_walk``, ``tableau_rank_labels``).

For m = kn-1 the same filling leaves the rectangle two cells short; the
rules below run on the rectangle completed by continuing the filling with
two virtual labels m+n and m+n+1, with the walk redirections mirrored
(+1 turns at foot+1 and slides down, -1 turns at foot-1 and slides up).

The active feet form a FIFO queue, so columns grow, and finish, in the
order they were started: the i-th W of a column always comes before the
i-th W of every column started after it.  Hence the j-th top and the j-th
foot share a column.  ``_fill`` therefore keeps no per-column list, only the
label above each label: following it k times up from the feet reads the rows
off one at a time, and one fill serves both the inversion and ``_tableau``,
the one builder of a tableau from a path word.  A tableau is valid iff its
(k, sign) is its frame's own Fuss classification, its first-row word is a
path, and ``_tableau`` of that word is the tableau; the constructor checks
this, so every ``FussTableau`` is the filling of a path.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import chain, zip_longest
from operator import is_not, lt

from .core import (DyckPath, Frame, Fuss, _E_FLAGS, _east_area, _field_state, _prefix_ranks,
                   _unchecked, make_frame)
from .errors import NotFuss, NotSingleCycle, RowConstraintViolated, SweepkitError
from .sweep import SWWord, ENWord, steps_to_sw, sw_to_steps


def _transpose(lines) -> tuple[tuple[int, ...], ...]:
    """Rows <-> columns of a ragged array of ints, with one C-level zip.

    The gaps ``zip_longest`` pads with None are dropped, so entry i of the
    result holds the i-th entries of the lines long enough to have one.
    """
    not_none = partial(is_not, None)
    return tuple(
        tuple(filter(not_none, line)) if None in line else line
        for line in zip_longest(*lines)
    )


@dataclass(frozen=True)
class FussTableau:
    """Column-filled array for a Fuss frame m = kn + sign, stored as its rows.

    ``rows`` holds the real entries 1 .. m+n-1 only, row 1 first, as ``to_json``
    writes them.  For sign +1 that is the full (k+1) x n rectangle; for sign -1
    the rows are ragged, two cells short at their right ends (an empty row left
    out), and the two virtual labels m+n, m+n+1 live only in the completed rows
    used by the walk.  ``columns`` is a view, derived on each call.

    Every instance is valid: the constructor checks the shape, then runs
    ``validate``.  The first walk is kept in ``_walked``, a cached property
    and not a field, so equality, hashing, repr, JSON, ``dataclasses.replace``,
    pickle and ``copy`` ignore it; a walked tableau keeps its order of m+n
    labels alive as long as it lives.
    """

    k: int
    n: int
    sign: int
    rows: tuple[tuple[int, ...], ...]
    __getstate__ = _field_state

    def __post_init__(self) -> None:
        """ValueError unless a path fills this shape (k+1 rows of n, except for sign -1
        two last rows of n-1 under k-1 >= 1 rows of n, or a last row of n-2 under k rows
        of n) and ``validate`` accepts the tableau."""
        k, n, sign = self.k, self.n, self.sign
        if sign not in (+1, -1) or k < 1 or n < 1:
            raise ValueError("bad tableau parameters")
        # The rows of n entries come first; by their count, the lengths of the rows after
        # them (a length 0 is no row).  Only lengths are compared: O(number of rows).
        lengths = tuple(map(len, self.rows))
        full = lengths.count(n)
        short = {k + 1: ()} if sign > 0 else {k - 1: (n - 1, n - 1), k: (n - 2,)}
        if not full or full not in short or tuple(filter(None, short[full])) != lengths[full:]:
            raise ValueError(f"rows do not have the shape of a k = {k}, n = {n}, "
                             f"sign {sign:+d} tableau")
        self.validate()

    @classmethod
    def from_columns(cls, k: int, n: int, sign: int, columns) -> "FussTableau":
        """The tableau with these n columns, each top to foot; ValueError unless no column is
        higher than the one before it (so rows hold no gaps) and the constructor accepts them."""
        heights = tuple(map(len, columns))
        if len(heights) != n or any(map(lt, heights, heights[1:])):
            raise ValueError(f"columns do not have the shape of a tableau of {n} columns")
        return cls(k=k, n=n, sign=sign, rows=_transpose(columns))

    @property
    def columns(self) -> tuple[tuple[int, ...], ...]:
        """Column view of ``rows``, column 1 first; derived on each call and never kept."""
        return _transpose(self.rows)

    @property
    def m(self) -> int:
        return self.k * self.n + self.sign

    @property
    def size(self) -> int:
        """m + n of the underlying frame."""
        return self.m + self.n

    def frame(self) -> Frame:
        return make_frame(self.m, self.n)

    def first_row(self) -> tuple[int, ...]:
        return self.rows[0]

    def _completed_rows(self) -> tuple[tuple[int, ...], ...]:
        """Rows with the sign -1 virtual labels appended (no-op for +1).

        Columns finish in the order they start, so the virtual labels m+n,
        m+n+1 end the bottom row, or each of the last two rows (which for
        n <= 2 may be empty, and so left out of ``rows``).
        """
        if self.sign > 0:
            return self.rows
        rows, size = self.rows + ((),) * (self.k + 1 - len(self.rows)), self.size
        if len(rows[-1]) < self.n - 1:
            return rows[:-1] + (rows[-1] + (size, size + 1),)
        return rows[:-2] + (rows[-2] + (size,), rows[-1] + (size + 1,))

    def completed_columns(self) -> tuple[tuple[int, ...], ...]:
        """Columns with the sign -1 virtual labels appended (no-op for +1)."""
        return tuple(zip(*self._completed_rows()))

    def bottom_row(self) -> tuple[int, ...]:
        """Feet of the completed columns (row k+1)."""
        return self._completed_rows()[-1]

    def validate(self) -> None:
        """Check that a tableau of legal shape equals the tableau its first-row word fills.

        (k, sign) must be the Fuss classification of the frame (kn + sign, n):
        for n <= 2 a sign -1 frame classifies as sign +1 with k - 1, and a
        tableau of the same shape would then encode a path of that other
        classification.  The rest is one fill: N at the first-row labels (each
        in 1 .. m+n, as they index the word) and E elsewhere must spell a path
        of the frame, and ``_tableau`` of that path must be this tableau.
        Linear; raises ValueError on violation.  The constructor runs it, before
        any walk; the round trip through a second tableau is kept as
        ``oracle.oracle_validate``.
        """
        frame, size, first_row = _fuss_frame(self.k, self.n, self.sign), self.size, self.first_row()
        if min(first_row) < 1 or max(first_row) > size:
            bad = next(e for e in first_row if not 1 <= e <= size)
            raise ValueError(f"first-row label {bad} lies outside 1 .. {size}")
        steps = _first_row_word(size, first_row)
        try:
            DyckPath(frame, steps)
        except SweepkitError as exc:
            raise ValueError(f"tableau encodes no path: {exc}") from exc
        if _tableau(frame, steps).rows != self.rows:
            raise ValueError("tableau is not the column filling of its first row")

    _json_fields = _field_state  # the object to_json writes, for callers that nest it in theirs

    def to_json(self) -> str:
        return json.dumps(self._json_fields())

    @classmethod
    def from_json(cls, text: str) -> "FussTableau":
        """Parse ``{"k", "n", "sign", "rows"}`` into a tableau; ValueError on bad input."""
        data = json.loads(text)
        if not isinstance(data, dict) or not {"k", "n", "sign", "rows"} <= data.keys():
            raise ValueError("tableau JSON must be an object with keys k, n, sign, rows")
        k, n, sign, rows = data["k"], data["n"], data["sign"], data["rows"]
        if not (isinstance(rows, list) and rows and all(isinstance(r, list) and r for r in rows)):
            raise ValueError("tableau rows must be a non-empty list of non-empty lists")
        if set(map(type, chain((k, n, sign), *rows))) != {int}:
            raise ValueError("tableau k, n, sign and entries must be integers")
        return cls(k=k, n=n, sign=sign, rows=tuple(map(tuple, rows)))

    def render_text(self) -> str:
        width = len(str(self.size - 1))
        return "\n".join(" ".join(str(e).rjust(width) for e in row) for row in self.rows)

    @cached_property
    def _walked(self) -> tuple[str, tuple[int, ...]]:
        """``(letters, order)`` of the walk, from the completed rows alone.

        ``up[below] = above`` for vertical neighbours; the tops are the first
        row and the feet the bottom row.  Every tableau is valid, so the
        walk is one cycle through all m+n labels.
        """
        size, sign = self.size, self.sign
        rows = self._completed_rows()
        up = [0] * (size - sign + 2)
        for upper, lower in zip(rows, rows[1:]):
            for above, below in zip(upper, lower):
                up[below] = above
        bold = _turns(up, rows[0], rows[-1], size, sign)
        del rows  # freed before the walk fills ``order``
        letters, order = _cycle(up, bold, size, sign)
        return letters, tuple(order)


@dataclass(frozen=True)
class WalkPermutation:
    """Visiting order of the labels 1 .. m+n; a single cycle starting at 1."""

    order: tuple[int, ...]


def _fuss_frame(k: int, n: int, sign: int) -> Frame:
    """The (kn + sign, n) frame; ValueError unless its Fuss classification is (k, sign)."""
    frame = make_frame(k * n + sign, n)
    if frame.fuss != Fuss(k, sign):
        raise ValueError(f"k = {k}, sign {sign:+d} is not the Fuss classification of {frame}")
    return frame


def _fuss_params(frame: Frame) -> tuple[int, int]:
    if frame.fuss is None:
        raise NotFuss(f"({frame.m}, {frame.n}) is not a Fuss frame")
    return frame.fuss.k, frame.fuss.sign


def _require_plus(T: FussTableau, op: str) -> None:
    if T.sign != +1:
        raise ValueError(f"{op} is defined for sign +1 tableaux only")


def _fill(steps: str, k: int, sign: int) -> tuple[list[int], list[int], list[int]]:
    """Column filling of a valid Fuss path word, by label; O(m+n).

    Label i takes letter i of the step word: N starts a new column, E goes
    below the foot at the head of the FIFO queue of active feet.  Sign -1
    continues with two virtual E's (labels m+n, m+n+1) to complete the
    rectangle.  Returns ``(up, tops, feet)`` over the completed grid:
    ``up[label]`` is the label above it (0 in row 1), and ``tops``/``feet``
    the first and last labels of the columns, both increasing, so the j-th
    top and the j-th foot share a column.  A label's row, ``depth``, is
    needed only to tell when its column is full.

    Both callers, ``_tableau`` and ``_preimage``, pass a path word, so no E
    finds the queue empty: after a N's it empties only once all a*k cells
    below their tops are filled, and the prefix ending at the e-th E has rank
    a*m - e*n >= 0.  For sign +1 that gives e <= a*k + a/n, so e <= a*k while
    a < n, and at a = n only the last E, never filled, exceeds n*k.  For
    sign -1 it gives e <= a*k - a/n < a*k (a >= 1, as a path starts with N),
    and the two virtual E's fill the last two of the n*k cells.
    ``oracle._fill_columns`` keeps the check.
    """
    size = len(steps)
    full = k + 1
    grid = size - 1 if sign > 0 else size + 1
    up = [0] * (grid + 2)
    depth = [0] * (grid + 2)
    tops: list[int] = []
    feet: list[int] = []
    active: deque[int] = deque()
    pop = active.popleft
    push = active.append
    top = tops.append
    foot = feet.append
    label = 0
    for ch in steps[:-1] if sign > 0 else steps[:-1] + "EE":
        label += 1
        if ch == "N":
            depth[label] = 1
            top(label)
            push(label)
        else:
            a = pop()
            up[label] = a
            d = depth[a] + 1
            depth[label] = d
            if d < full:
                push(label)
            else:
                foot(label)
    return up, tops, feet


def _tableau(frame: Frame, steps: str) -> FussTableau:
    """The one builder of a tableau from a path word of a Fuss frame: one ``_fill``,
    then each foot followed up k times, one C-level pass over the n columns per row;
    unchecked, as the filling of a path is by definition a tableau of T^k_n."""
    k, sign = _fuss_params(frame)
    up, _, feet = _fill(steps, k, sign)
    rows = [tuple(feet)]
    for _ in range(k):
        rows.append(tuple(map(up.__getitem__, rows[-1])))
    rows.reverse()
    if sign < 0:
        # m+n+1 ends the bottom row, m+n that row or the one above; an emptied row goes.
        rows[-1] = rows[-1][:-1]
        at = -1 if rows[-1][-1:] == (frame.size,) else -2
        rows[at] = rows[at][:-1]
    return _unchecked(FussTableau, k=k, n=frame.n, sign=sign, rows=tuple(filter(None, rows)))


def fill_tableau(sw: SWWord) -> FussTableau:
    """Build the tableau of a Fuss SW word (one new column per S); O(m+n)."""
    return _tableau(sw.frame, sw_to_steps(sw.letters))


def path_tableau(path: DyckPath) -> FussTableau:
    """Tableau of the path's own step word; it encodes the sweep preimage."""
    return _tableau(path.frame, path.steps)


def _first_row_word(size: int, first_row) -> str:
    """N at the first-row labels, E elsewhere, in a word of the given size; each
    label must lie in 1 .. size, which every caller has made sure of."""
    letters = bytearray(b"E") * size
    for t in first_row:
        letters[t - 1] = 78  # ord("N")
    return letters.decode("ascii")


def tableau_to_sw(T: FussTableau) -> SWWord:
    """Inverse of fill_tableau: S at the first-row entries, W elsewhere.

    Unchecked: every tableau is the column filling of a path, and a filling
    starts a new column at each S, so its first row spells that path's word.
    """
    steps = _first_row_word(T.size, T.first_row())
    return _unchecked(SWWord, frame=T.frame(), letters=steps_to_sw(steps))


def bold_set(T: FussTableau) -> frozenset[int]:
    """Walk redirection labels: foot+1 for sign +1 (incl. m+n), foot-1 for -1."""
    return frozenset(b + T.sign for b in T.bottom_row())


def en_from_tableau(T: FussTableau) -> ENWord:
    """EN rank-order word of the encoded preimage: N at foot +- 1.

    Unchecked: by the paper's theorem the walk of a tableau spells the sweep
    preimage of the path it fills, and this is that preimage's EN word.
    """
    sign, size, feet = T.sign, T.size, T.bottom_row()
    letters = bytearray(b"E") * size
    for b in feet:
        letters[b + sign - 1] = 78  # ord("N")
    return _unchecked(ENWord, frame=T.frame(), letters=letters.decode("ascii"))


def _turns(up: list[int], tops, feet, size: int, sign: int) -> bytearray:
    """Finish ``up`` for the walk in place and return the bold flags.

    A row-1 label t turns to its column's foot + sign, stored as ``up[t] =
    -(foot + sign)``: row 1 has no label above, so a negative entry marks
    it.  The labels foot + sign are bold.  For sign +1 the off-grid label
    m+n goes up to m+n-1.
    """
    if sign > 0:
        up[size] = size - 1
    bold = bytearray(len(up))
    for t, b in zip(tops, feet):
        up[t] = -(b + sign)
        bold[b + sign] = 1
    return bold


def _cycle(up: list[int], bold: bytearray, size: int, sign: int) -> tuple[str, list[int]]:
    """The closed walk over the arrays of ``_turns``, recording its visit order; O(m+n).

    A turn spells N.  Any other label spells E, goes up one cell, then
    slides past bold labels against the sign.  Returns ``(letters, order)``:
    the step word of the sweep preimage and the labels in visiting order,
    starting at 1.  NotSingleCycle unless it closes at 1 after m+n steps.
    The one kernel behind ``FussTableau._walked``.  ``_preimage`` runs the same
    steps for the callers that need the letters alone, as a shared loop would
    test at every step whether to store the label.
    """
    out = bytearray(b"E") * size
    order = [0] * size
    cur = 1
    for j in range(size):
        order[j] = cur
        r = up[cur]
        if r < 0:
            out[j] = 78  # ord("N")
            cur = -r
        else:
            while bold[r]:
                r -= sign
            cur = r
    if cur != 1:
        raise NotSingleCycle("walk does not close at label 1")
    return out.decode("ascii"), order


def _preimage(path: DyckPath) -> bytearray:
    """ASCII step word of the sweep preimage of a Fuss path; O(m+n).

    One ``_fill`` and ``_turns``, then the walk of ``_cycle`` with only the letters
    stored: ``invert_fuss`` decodes them and ``bounce`` reads their E flags.  Kept
    apart from ``_cycle``, the kernel of the tableau API, as a shared loop would
    test at every step whether to store the label.  NotSingleCycle unless it
    closes at 1 after m+n steps.
    """
    k, sign = _fuss_params(path.frame)
    size = path.frame.size
    up, tops, feet = _fill(path.steps, k, sign)
    bold = _turns(up, tops, feet, size, sign)
    out = bytearray(b"E") * size
    cur = 1
    for j in range(size):
        r = up[cur]
        if r < 0:
            out[j] = 78  # ord("N")
            cur = -r
        else:
            while bold[r]:
                r -= sign
            cur = r
    if cur != 1:
        raise NotSingleCycle("walk does not close at label 1")
    return out


def _walk_path(T: FussTableau) -> DyckPath:
    """The sweep preimage that the walk spells (the paper's theorem), unchecked."""
    return _unchecked(DyckPath, frame=T.frame(), steps=T._walked[0])


def walk(T: FussTableau) -> WalkPermutation:
    """The single-cycle walk through the labels 1 .. m+n.

    Every ``FussTableau`` is valid, so this is one cycle; the reference walk
    over the columns is ``oracle._walk_order``.
    """
    return WalkPermutation(order=T._walked[1])


def reduced_walk(T: FussTableau) -> tuple[int, ...]:
    """Walk of the tableau with column 1 removed, original labels kept.

    Sign +1 with n >= 2 only; starts at the smallest remaining label and is
    the full walk with the column-1 segment spliced out.
    """
    _require_plus(T, "reduced_walk")
    if T.n < 2:
        raise ValueError("reduced walk needs at least two columns")
    column1 = {row[0] for row in T.rows}
    rest = [label for label in T._walked[1] if label not in column1]
    at = rest.index(min(rest))
    return tuple(rest[at:] + rest[:at])


def tableau_rank_labels(T: FussTableau) -> dict[int, int]:
    """Rank of each label along the walk: +m after a first-row label, -n after others.

    Strictly increasing in the label, which is exactly the statement that
    sweeping the reconstructed preimage returns the original path.
    """
    letters, order = T._walked
    return dict(zip(order, _prefix_ranks(T.m, T.n, letters)))


def invert_fuss(path: DyckPath) -> DyckPath:
    """The sweep preimage of a Fuss path in O(m+n) time.

    The input is trusted as validated.  ``_preimage`` spells the word without the
    walk's visit order; it is a path of the frame by the paper's theorem, so the
    preimage is built unchecked.
    """
    return _unchecked(DyckPath, frame=path.frame, steps=_preimage(path).decode("ascii"))


def bounce(path: DyckPath) -> int:
    """area(sweep^-1(D)), from the E flags of the bytes ``_preimage`` spells, with no
    preimage path built; O(m+n).  NotFuss off Fuss frames."""
    return _east_area(path.frame, _preimage(path).translate(_E_FLAGS))


def cobounce(path: DyckPath) -> int:
    """Complement of bounce within (m-1)(n-1)/2; NotFuss, from bounce, off Fuss frames."""
    return path.frame.statistic_bound() - bounce(path)


def tableau_from_first_row(k: int, n: int, t) -> FussTableau:
    """The unique sign +1 tableau with the given first row.

    The row checks are the Dyck condition on the first-row word (N at the
    t_j, E elsewhere, m+n letters), so ``_tableau`` fills it unchecked.  The
    rank falls only at E's, and after the last N to the final 0, so the word
    is a path iff the prefix before each N has rank >= 0.  Before the j-th N
    come j-1 N's and t_j - j E's, rank (j-1)m - (t_j - j)n, which is >= 0 iff
    t_j - j <= (j-1)(k + 1/n), that is (as j-1 < n) iff t_j <= 1 + (j-1)(k+1).
    """
    frame, t = _fuss_frame(k, n, +1), tuple(t)
    if set(map(type, t)) - {int}:
        raise ValueError("first-row entries must be integers")
    if len(t) != n:
        raise ValueError(f"expected {n} first-row entries, got {len(t)}")
    for j, (before, tj) in enumerate(zip((0, *t), t), start=1):
        if not before < tj <= 1 + (j - 1) * (k + 1):
            raise RowConstraintViolated(j)
    return _tableau(frame, _first_row_word(frame.size, t))


def tableau_from_bottom_row(k: int, n: int, b) -> FussTableau:
    """The unique sign +1 tableau with the given bottom row.

    Built through the half-turn involution ``psi``: the mirror's first row is
    t_i = (k+1)n + 1 - b_{n+1-i}, and the bottom-row checks are the checks of
    ``tableau_from_first_row`` on it: t_1 = 1 iff b_n = (k+1)n, t increases iff
    b does, and t_i <= 1 + (i-1)(k+1) iff b_j >= j(k+1) for j = n+1-i.  So the
    mirror's word is a path, filled unchecked by ``_tableau`` and turned back.
    """
    frame, b = _fuss_frame(k, n, +1), tuple(b)
    if set(map(type, b)) - {int}:
        raise ValueError("bottom-row entries must be integers")
    total = (k + 1) * n
    if len(b) != n:
        raise ValueError(f"expected {n} bottom-row entries, got {len(b)}")
    for j, (before, bj) in enumerate(zip((0, *b), b), start=1):
        if bj <= before or bj < j * (k + 1) or (j == n and bj != total):
            raise RowConstraintViolated(j)
    return psi(_tableau(frame, _first_row_word(frame.size, [total + 1 - bj for bj in b])))


def psi(T: FussTableau) -> FussTableau:
    """Half-turn involution: entry (i, j) becomes (k+1)n+1 - T[k+2-i, n+1-j];
    unchecked, as the half-turn is an involution of T^k_n (the paper's psi)."""
    _require_plus(T, "psi")
    flip = ((T.k + 1) * T.n + 1).__sub__
    flipped = tuple(tuple(map(flip, reversed(row))) for row in reversed(T.rows))
    return _unchecked(FussTableau, k=T.k, n=T.n, sign=+1, rows=flipped)
