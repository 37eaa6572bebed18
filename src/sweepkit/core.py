"""Rational (m,n)-Dyck paths over a coprime frame.

A path takes n North and m East unit steps from (0,0) to (m,n) and stays
weakly above the diagonal of slope n/m.  Every vertex gets an integer rank:
0 at the origin, +m after a North step, -n after an East step.  Coprimality
makes the m+n step-start ranks pairwise distinct and nonnegative, and they
are the backbone of everything else in this package: the sweep map reads
the steps back in increasing rank order.
"""

from __future__ import annotations

import json
import math
import sys
from array import array
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import accumulate, compress, repeat
from operator import add, and_, lt, rshift
from typing import Iterator, Optional, Sequence

from .errors import BelowDiagonal, NotCoprime, NotFuss, WrongStepCounts

NORTH = "N"
EAST = "E"

# Step word bytes -> 1 at each E, 0 at each N; the low byte of a rank-sort key (byte _LOW_BYTE
# of its 8 in an array('q')) -> the letter of bit 0 (the step's own) or bit 1 (the step before).
_E_FLAGS = bytes.maketrans(b"NE", b"\0\1")
_OWN_LETTERS = b"NE" * 128
_BEFORE_LETTERS = b"NNEE" * 64
_LOW_BYTE = 0 if sys.byteorder == "little" else 7


@dataclass(frozen=True)
class Fuss:
    """Classification m = k*n + sign with k >= 1 and sign in {+1, -1}."""

    k: int
    sign: int


@dataclass(frozen=True)
class Frame:
    """Coprime m x n lattice rectangle (m East steps wide, n North steps tall)."""

    m: int
    n: int
    fuss: Optional[Fuss] = None

    @property
    def size(self) -> int:
        return self.m + self.n

    def statistic_bound(self) -> int:
        """Shared upper bound (m-1)(n-1)/2 for area and dinv."""
        return (self.m - 1) * (self.n - 1) // 2


def make_frame(m: int, n: int) -> Frame:
    """Build a frame, checking coprimality and detecting the Fuss shape.

    When both m = kn+1 and m = kn-1 admit k >= 1 (possible only for
    n in {1, 2}), the +1 classification wins.
    """
    if m < 1 or n < 1:
        raise ValueError(f"frame sides must be positive, got ({m}, {n})")
    if math.gcd(m, n) != 1:
        raise NotCoprime(f"gcd({m}, {n}) != 1")
    fuss = None
    if (m - 1) % n == 0 and (m - 1) // n >= 1:
        fuss = Fuss(k=(m - 1) // n, sign=+1)
    elif (m + 1) % n == 0 and (m + 1) // n >= 1:
        fuss = Fuss(k=(m + 1) // n, sign=-1)
    return Frame(m=m, n=n, fuss=fuss)


def _unchecked(cls, **fields):
    """``cls`` built from ``fields`` without ``__post_init__``, for an output made valid
    by a theorem that the making function's docstring names (README, Validation boundary)."""
    value = object.__new__(cls)
    value.__dict__.update(fields)  # a frozen dataclass refuses plain setattr
    return value


def _field_state(self) -> dict:
    """``__getstate__`` of a dataclass with kept caches: its fields alone, for pickle and copy."""
    return {f.name: self.__dict__[f.name] for f in fields(self)}


def _prefix_ranks(m: int, n: int, steps: str) -> Iterator[int]:
    """Rank of the start vertex of each step of a word over {N, E}, lazily: the one rank
    walk, beside the least rank of ``_min_rank`` and the walk of ``sweep.bipartite_invert``."""
    return accumulate(map({NORTH: m, EAST: -n}.__getitem__, steps[:-1]), initial=0)


# _min_rank jumps over a stretch of at least _JUMP letters that cannot set a new least rank,
# and below that walks the next _WALK letters one at a time.
_JUMP = 32
_WALK = 128


def _letter_bits(word: bytes) -> int:
    """Set bits of an ASCII word: N (0x4E) has four and E (0x45) three, so a word of h letters
    over {N, E} holds bits - 3h N's.  No branch per letter, unlike ``str.count`` (on a random
    word 5x slower than on a sorted one, CPython 3.11, x86-64)."""
    return int.from_bytes(word, "little").bit_count()


def _min_rank(m: int, n: int, steps: str) -> int:
    """Least start rank of a word of n N's and m E's, unchecked; ``oracle.oracle_min_rank``
    is the per-letter loop it replaced.

    A step lowers the rank by at most n, so from rank r, with least rank ``low`` so far, the
    next h = (r - low) // n letters set no new least.  When h >= _JUMP they are jumped: their
    N's, counted by ``_letter_bits``, add m+n each and every letter takes n off.  Otherwise the
    next _WALK letters are walked one at a time.  Near the diagonal h stays below _JUMP, so a
    path that hugs the diagonal is the worst case: every letter walked.  A jump or walk may run
    past the end, which is harmless: r is not read again, and the end vertex has rank 0.
    """
    word = steps.encode()
    size = len(word)
    r = low = i = 0
    while i < size:
        h = (r - low) // n
        if h >= _JUMP:
            j = i + h
            r += (_letter_bits(word[i:j]) - 3 * h) * (m + n) - h * n
        else:
            j = i + _WALK
            for ch in word[i:j]:
                if ch == 78:  # ord("N")
                    r += m
                else:
                    r -= n
                    if r < low:
                        low = r
        i = j
    return low


def _vertex_of_rank(m: int, n: int, rank: int) -> int:
    """Index i of the vertex of the given start rank in any word of n N's and m E's (m, n
    coprime) that has one, unchecked; ``oracle.oracle_vertex_of_rank`` searches instead.  After
    a N's it has rank a*m - (i-a)*n, so a = rank/m mod n (n if n divides a positive rank, 0
    if another) and i = (a*(m+n) - rank)/n."""
    a = rank * pow(m, -1, n) % n or (n if rank > 0 else 0)
    return (a * (m + n) - rank) // n


def _lowest_rank_rotation(m: int, n: int, steps: str) -> str:
    """The cyclic rotation of the word that starts at its lowest-rank vertex.

    For a word of n N's and m E's, m and n coprime, this is the only
    rotation that is a path of the frame (the cycle lemma).  ``_min_rank`` finds the
    least start rank, jumping over most of a random word, and ``_vertex_of_rank`` its vertex.
    """
    i = _vertex_of_rank(m, n, _min_rank(m, n, steps))
    return steps[i:] + steps[:i]


def _rank_keys(frame: Frame, steps: str) -> list[int]:
    """Keys 2*rank + (1 for East) of the steps, in word order, by start rank, for ``dinv``
    and ``reduction``'s ``fiber_by_cutting`` and ``reduced_path_of``.  Rotating the word
    shifts every key by one constant, so all its rotations sort alike."""
    flags = steps.encode().translate(_E_FLAGS)
    return list(map(add, _prefix_ranks(2 * frame.m, 2 * frame.n, steps), flags))


def _low_bytes(keys: array) -> bytes:
    """Each key's low byte off an array('q')'s raw bytes: two's complement, so its low bits."""
    return keys.tobytes()[_LOW_BYTE::8]


def _rank_sort(keys: list[int]) -> str:
    """Sort ``_rank_keys`` in place and spell their letters: the sweep of the word's path
    rotation (sweep reads the steps by start rank), for ``reduction``'s ``fiber_by_cutting``
    and ``reduced_path_of``.  The ranks are distinct, so the low bit of each key, negative
    (a rotated word) or not, is its letter, read by ``_low_bytes`` as for the sweep's keys
    in ``DyckPath._rank_words``, which sorts its own."""
    keys.sort()
    return _low_bytes(array("q", keys)).translate(_OWN_LETTERS).decode("ascii")


@dataclass(frozen=True)
class DyckPath:
    """A validated (m,n)-Dyck path; ``steps`` is its word over {N, E}.

    Construction checks the type (a str), the length, the letter counts (exactly
    n N's and m E's, so no other letter) and that no prefix ends below the diagonal.
    Cost: C-level passes for the letters (no other letter, ``_letter_bits`` for the N's) plus
    ``_min_rank``, which jumps over the letters that cannot take the rank below 0 and walks
    the rest; a path that hugs the diagonal is walked letter by letter, the worst case.  Only
    on failure is the word scanned again, to report the first offending prefix.

    The rank words of a swept path and their sorted keys are kept in ``_rank_words``, a
    cached property and not a field, so equality, hashing, repr, JSON, ``dataclasses.replace``,
    pickle and ``copy`` ignore them; they live as long as the path.
    """

    frame: Frame
    steps: str
    __getstate__ = _field_state

    def __post_init__(self):
        m, n = self.frame.m, self.frame.n
        steps = self.steps
        if not isinstance(steps, str):
            raise ValueError(f"step word must be a str, got {type(steps).__name__}")
        if len(steps) != m + n:
            raise WrongStepCounts(f"expected {m + n} steps, got {len(steps)}")
        word = steps.encode("ascii", "replace")  # one byte a letter, "?" for a non-ASCII one
        if word.translate(None, b"NE") or _letter_bits(word) != 3 * (m + n) + n:
            raise WrongStepCounts(f"expected {n} N's and {m} E's in {steps!r}")
        if _min_rank(m, n, steps) < 0:
            # The counts make the word pure N/E: start rank i ends prefix i.
            starts = enumerate(_prefix_ranks(m, n, steps))
            raise BelowDiagonal(next(i for i, rank in starts if rank < 0))

    def _json_fields(self) -> dict:
        """The object to_json writes, for callers that nest it in theirs."""
        return {"m": self.frame.m, "n": self.frame.n, "steps": self.steps}

    def to_json(self) -> str:
        return json.dumps(self._json_fields())

    @cached_property
    def _rank_words(self) -> tuple[str, str, array]:
        """``(image steps, EN letters, sorted keys)``: the letters of the steps in increasing
        start rank, beside each the letter of the step before it, cyclically, and the keys.

        The end rank of a step is the start rank of the next one (for the last step,
        of the first), so both words order the same m+n distinct start ranks, and one
        sort of the keys 4*rank + 2*(step before is E) + (step is E) spells both from
        their low bytes.  The two flag bits are one carry-free big-integer sum, since no
        byte exceeds 3.  The keys stay, an array('q') of 8 bytes a step, for ``_kept_keys``.
        """
        m, n, steps = self.frame.m, self.frame.n, self.steps
        own = steps.encode().translate(_E_FLAGS)
        before = own[-1:] + own[:-1]
        flags = int.from_bytes(own, "big") + 2 * int.from_bytes(before, "big")
        keys = array("q", sorted(map(add, _prefix_ranks(4 * m, 4 * n, steps),
                                     flags.to_bytes(len(own), "big"))))
        low = _low_bytes(keys)
        return (low.translate(_OWN_LETTERS).decode("ascii"),
                low.translate(_BEFORE_LETTERS).decode("ascii"), keys)


def parse_path(frame: Frame, word: str | Sequence[str]) -> DyckPath:
    """Validate a step word over {N, E} (any case) against the frame.

    A ``str`` is used as is, other sequences are joined first.  DyckPath's
    length and count checks decide: right counts at the right length make a
    pure N/E word.  Only on WrongStepCounts is the word scanned again, for
    letters other than N and E, which get their own ValueError.
    """
    steps = (word if isinstance(word, str) else "".join(word)).upper()
    try:
        return DyckPath(frame, steps)
    except WrongStepCounts:
        bad = set(steps) - {NORTH, EAST}
        if bad:
            raise ValueError(f"step word may only contain N and E, got {sorted(bad)}") from None
        raise


def path_from_json(text: str) -> DyckPath:
    """Parse ``{"m": int, "n": int, "steps": str}`` and validate; ValueError on bad input."""
    data = json.loads(text)
    if not isinstance(data, dict) or not {"m", "n", "steps"} <= data.keys():
        raise ValueError("path JSON must be an object with keys m, n, steps")
    m, n, steps = data["m"], data["n"], data["steps"]
    if type(m) is not int or type(n) is not int or not isinstance(steps, str):
        raise ValueError("path m and n must be integers and steps a string")
    return parse_path(make_frame(m, n), steps)


def ranks(path: DyckPath) -> tuple[int, ...]:
    """Start-vertex rank of each step, in path order (first value 0)."""
    return tuple(_prefix_ranks(path.frame.m, path.frame.n, path.steps))


@dataclass(frozen=True)
class RankSequence:
    """The m+n step-start ranks sorted increasingly; always starts at 0."""

    values: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.values, tuple):  # a frozen value that hash() refuses otherwise
            raise ValueError(f"rank sequence must be a tuple, got {type(self.values).__name__}")
        if not self.values or self.values[0] != 0:
            raise ValueError("rank sequence must start at 0")
        if not all(map(lt, self.values, self.values[1:])):
            raise ValueError("rank sequence must be strictly increasing")

    def __iter__(self):
        return iter(self.values)

    def __len__(self):
        return len(self.values)

    def __getitem__(self, i):
        return self.values[i]


def _kept_keys(path: DyckPath) -> Optional[array]:
    """The sorted keys of ``DyckPath._rank_words`` if the path holds its rank sort (swept, or
    its SW or EN word taken), else None; never sorts, so no statistic builds the sort."""
    kept = vars(path).get("_rank_words")
    return kept[2] if kept else None


def rank_sequence(path: DyckPath) -> RankSequence:
    """Sorted start ranks, unchecked: coprime ranks are distinct and the least is 0.  Kept
    keys (``_kept_keys``) give them as each key >> 2; otherwise the ranks are sorted here."""
    if keys := _kept_keys(path):
        return _unchecked(RankSequence, values=tuple(map(rshift, keys, repeat(2))))
    return _unchecked(RankSequence,
                      values=tuple(sorted(_prefix_ranks(path.frame.m, path.frame.n, path.steps))))


def _east_area(frame: Frame, east_flags) -> int:
    """area of a path of the frame from its E flags (1 at each E, 0 at each N), in one pass.

    On a path the E of column x, at position p (from 0), sits at height
    p - x >= ceil(n(x+1)/m), so area is the sum of the E positions, less m(m-1)/2
    for the x's, less sum_{x=1..m} ceil(nx/m) = (m-1)(n-1)/2 + m + n - 1 (m, n coprime).
    """
    m = frame.m
    east_positions = sum(compress(range(frame.size), east_flags))
    return east_positions - m * (m - 1) // 2 - frame.statistic_bound() - frame.size + 1


def area(path: DyckPath) -> int:
    """Full lattice cells strictly between the path and the diagonal.

    Cells cut by the diagonal are excluded; cell (x, y) lies weakly above
    the diagonal iff m*y >= n*(x+1).
    """
    return _east_area(path.frame, path.steps.encode().translate(_E_FLAGS))


def coarea(path: DyckPath) -> int:
    """Cells above the path: the complement of area within (m-1)(n-1)/2.

    For m = kn+1 this is the usual k*C(n,2) - area normalization.
    """
    if path.frame.fuss is None:
        raise NotFuss(f"coarea needs a Fuss frame, got ({path.frame.m}, {path.frame.n})")
    return path.frame.statistic_bound() - area(path)


def dinv(path: DyckPath) -> int:
    """dinv through the sweep transport: dinv(D) = area(sweep(D)).

    The sweep image's step word is the path's letters in increasing start-rank order, so
    dinv is the ``_east_area`` of its E flags: the kept image's steps when the path holds
    its rank sort (``_kept_keys``), else the low bits of the keys 2*rank + (1 for East),
    sorted here in O((m+n) log(m+n)) and kept nowhere.  The O(mn) cell rule this identity
    replaces is kept as ``oracle.oracle_dinv``, and the tests check the two against each
    other exhaustively.
    """
    if _kept_keys(path):
        return _east_area(path.frame, path._rank_words[0].encode().translate(_E_FLAGS))
    keys = _rank_keys(path.frame, path.steps)
    keys.sort()
    return _east_area(path.frame, map(and_, keys, repeat(1)))


def rank_complement(path: DyckPath) -> DyckPath:
    """Cut at the highest-rank vertex as A|B and rotate BA by 180 degrees.

    An involution on the frame's paths that preserves dinv; built unchecked.  The highest
    rank is the last kept key >> 2 (``_kept_keys``), else a lazy rank walk's max, and
    ``_vertex_of_rank`` gives its vertex.
    """
    m, n, steps = path.frame.m, path.frame.n, path.steps
    keys = _kept_keys(path)
    i = _vertex_of_rank(m, n, keys[-1] >> 2 if keys else max(_prefix_ranks(m, n, steps)))
    return _unchecked(DyckPath, frame=path.frame, steps=(steps[i:] + steps[:i])[::-1])


def enumerate_paths(frame: Frame) -> Iterator[DyckPath]:
    """Yield every path of the frame once, in lexicographic order with N < E.

    A depth-first walk over an explicit stack of (prefix, N's left, E's left,
    rank), pushing E before N so that N comes out first.  E is taken only from
    rank >= n, and once no N is left the forced tail of E's ends the word.
    Every path is built unchecked: each prefix ends at rank >= 0, and the
    forced tail walks the rank down to the endpoint's 0.
    """
    m, n = frame.m, frame.n
    stack = [("", n, m, 0)]
    pop, push = stack.pop, stack.append
    while stack:
        prefix, north, east, r = pop()
        if not north:
            yield _unchecked(DyckPath, frame=frame, steps=prefix + EAST * east)
            continue
        if r >= n:  # so east > 0: with no E left the rank is -m*north < 0
            push((prefix + EAST, north, east - 1, r - n))
        push((prefix + NORTH, north - 1, east, r + m))
