"""The sweep map and its rank-order words.

Sweeping a path means rereading its steps in increasing order of their
start-vertex ranks.  Recording S for a North start and W for an East start
gives the SW word, which doubles as the step word of the image path; the EN
word does the same for step ends.  Knowing both words pins down the rank
sequence of the preimage, which is what bipartite_invert exploits.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import invert

from .core import (
    EAST,
    NORTH,
    DyckPath,
    Frame,
    RankSequence,
    _E_FLAGS,
    _unchecked,
)
from .errors import InconsistentPair

S_STEP = "S"
W_STEP = "W"

_SW_TO_NE = str.maketrans("SW", "NE")
_NE_TO_SW = str.maketrans("NE", "SW")
# EN word bytes -> 1 at each N (core._E_FLAGS: at each E), 0 elsewhere, for compress.
_N_FLAGS = bytes.maketrans(b"NE", b"\1\0")


def steps_to_sw(steps: str) -> str:
    """Rewrite a step word over {N,E} in the {S,W} alphabet."""
    return steps.translate(_NE_TO_SW)


def sw_to_steps(letters: str) -> str:
    return letters.translate(_SW_TO_NE)


@dataclass(frozen=True)
class SWWord:
    """Length m+n word over {S, W} in rank order; itself a valid path word."""

    frame: Frame
    letters: str

    def __post_init__(self):
        letters = self.letters
        if not isinstance(letters, str):
            raise ValueError(f"SW word must be a str, got {type(letters).__name__}")
        if letters.count(S_STEP) + letters.count(W_STEP) != len(letters):
            bad = set(letters) - {S_STEP, W_STEP}
            raise ValueError(f"SW word may only contain S and W, got {sorted(bad)}")
        DyckPath(self.frame, sw_to_steps(letters))

    def as_path(self) -> DyckPath:
        """The path drawn by reading the letters left to right (S up, W right); unchecked:
        the constructor parsed it, and the unchecked makers spell one by their theorems."""
        return _unchecked(DyckPath, frame=self.frame, steps=sw_to_steps(self.letters))


@dataclass(frozen=True)
class ENWord:
    """Length m+n word over {E, N} in rank order.

    Its reversal, with N -> S and E -> W, is the SW word of the swept rank
    complement, hence must itself be a valid path word.
    """

    frame: Frame
    letters: str

    def __post_init__(self):
        letters = self.letters
        if not isinstance(letters, str):
            raise ValueError(f"EN word must be a str, got {type(letters).__name__}")
        if letters.count(NORTH) + letters.count(EAST) != len(letters):
            bad = set(letters) - {NORTH, EAST}
            raise ValueError(f"EN word may only contain N and E, got {sorted(bad)}")
        DyckPath(self.frame, letters[::-1])


def sw_word(path: DyckPath) -> SWWord:
    """S/W at each rank starting a North/East step, read off the path's kept rank words;
    unchecked: it spells the sweep image."""
    return _unchecked(SWWord, frame=path.frame, letters=steps_to_sw(sweep(path).steps))


def en_word(path: DyckPath) -> ENWord:
    """N/E at each rank ending a North/East step, read off the path's kept rank words;
    unchecked: read backwards, it is the SW word of the swept rank complement."""
    return _unchecked(ENWord, frame=path.frame, letters=path._rank_words[1])


def sweep(path: DyckPath) -> DyckPath:
    """The sweep image, the SW word drawn as steps, read off the path's kept rank words
    (``DyckPath._rank_words``: one rank sort serves sweep, sw_word and en_word); a new
    path each call, unchecked: sweep maps D_{m,n} onto itself."""
    return _unchecked(DyckPath, frame=path.frame, steps=path._rank_words[0])


def bipartite_invert(sw: SWWord, en: ENWord) -> tuple[DyckPath, RankSequence]:
    """Rebuild the unique common preimage from its SW and EN rank-order words.

    Follow the Eulerian walk S_i -> N_i (rank +m) and W_j -> E_j (rank -n)
    starting from rank 0 at the first position; the visiting order of
    positions spells the preimage's step word and the per-position ranks
    recover its rank sequence.  One C-level merge builds the successor of
    every position, ``~p`` for the N position p of an S and the E position
    p of a W (the signed encoding of ``fuss._turns``); one loop walks it.
    The reference walk is ``oracle.oracle_bipartite_invert``.  The path is
    unchecked: the walk visits each position once and RankSequence keeps ranks >= 0.

    No closure check is needed: with the S and N counts equal, ``succ`` is a
    permutation, and following one from position 0 the first position seen
    twice is 0; after m+n positions with no revisit, the next is 0.  Nor is a count
    check: SWWord and ENWord hold path words of their frame (constructor or maker), so
    once the frames match, both words have n S's and n N's.  The oracle keeps its check.
    """
    if sw.frame != en.frame:
        raise InconsistentPair("SW and EN words live on different frames")
    m, n = sw.frame.m, sw.frame.n
    size = m + n
    letters = sw.letters.encode()
    targets = en.letters.encode()
    positions = range(size)
    # Each S pulls the next N position and each W the next E position, so
    # the i-th S gets the i-th N and the j-th W the j-th E.
    next_target = {
        ord(S_STEP): map(invert, compress(positions, targets.translate(_N_FLAGS))),
        ord(W_STEP): compress(positions, targets.translate(_E_FLAGS)),
    }
    succ = list(map(next, map(next_target.__getitem__, letters)))

    rank_at: list[int | None] = [None] * size
    out = bytearray(b"E") * size
    pos = 0
    r = 0
    for j in positions:
        if rank_at[pos] is not None:
            raise InconsistentPair(f"walk revisits position {pos + 1} before closing")
        rank_at[pos] = r
        t = succ[pos]
        if t < 0:
            out[j] = 78  # ord("N")
            r += m
            pos = ~t
        else:
            r -= n
            pos = t
    try:
        rs = RankSequence(tuple(rank_at))
    except ValueError:
        raise InconsistentPair("recovered ranks are not increasing along the words") from None
    return _unchecked(DyckPath, frame=sw.frame, steps=out.decode("ascii")), rs
