"""The sweep map and its rank-order words.

Sweeping a path means rereading its steps in increasing order of their
start-vertex ranks.  Recording S for a North start and W for an East start
gives the SW word, which doubles as the step word of the image path; the EN
word does the same for step ends.  Knowing both words pins down the rank
sequence of the preimage, which is what bipartite_invert exploits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import (
    EAST,
    NORTH,
    DyckPath,
    Frame,
    RankSequence,
    _rank_typed_letters,
    area,
    parse_path,
)
from .errors import InconsistentPair, NotFuss

S_STEP = "S"
W_STEP = "W"

_SW_TO_NE = str.maketrans("SW", "NE")
_NE_TO_SW = str.maketrans("NE", "SW")


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
    _path: DyckPath = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        letters = self.letters
        if letters.count(S_STEP) + letters.count(W_STEP) != len(letters):
            bad = set(letters) - {S_STEP, W_STEP}
            raise ValueError(f"SW word may only contain S and W, got {sorted(bad)}")
        object.__setattr__(self, "_path", parse_path(self.frame, sw_to_steps(letters)))

    def as_path(self) -> DyckPath:
        """The path drawn by reading the letters left to right (S up, W right).

        Validated once, when the word was built; no second parse.
        """
        return self._path


@dataclass(frozen=True)
class ENWord:
    """Length m+n word over {E, N} in rank order.

    Its reversal, with N -> S and E -> W, is the SW word of the swept rank
    complement, hence must itself be a valid path word.
    """

    frame: Frame
    letters: str

    def __post_init__(self):
        parse_path(self.frame, self.letters[::-1])


def sw_word(path: DyckPath) -> SWWord:
    """S at each rank starting a North step, W at each rank starting an East step."""
    return SWWord(path.frame, steps_to_sw(_rank_typed_letters(path, at_start=True)))


def en_word(path: DyckPath) -> ENWord:
    """N at each rank ending a North step, E at each rank ending an East step."""
    return ENWord(path.frame, _rank_typed_letters(path, at_start=False))


def sweep(path: DyckPath) -> DyckPath:
    """The sweep image: draw the SW word of the path as steps."""
    return DyckPath(path.frame, _rank_typed_letters(path, at_start=True))


def bipartite_invert(sw: SWWord, en: ENWord) -> tuple[DyckPath, RankSequence]:
    """Rebuild the unique common preimage from its SW and EN rank-order words.

    Follow the Eulerian walk S_i -> N_i (rank +m) and W_j -> E_j (rank -n)
    starting from rank 0 at the first position; the visiting order of
    positions spells the preimage's step word and the per-position ranks
    recover its rank sequence.
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


def bounce(path: DyckPath) -> int:
    """area of the sweep preimage, bounce(D) = area(sweep^-1(D)).

    Uses the linear-time tableau inversion, so Fuss frames only (NotFuss
    otherwise).
    """
    from .fuss import invert_fuss

    return area(invert_fuss(path))


def cobounce(path: DyckPath) -> int:
    """Complement of bounce within (m-1)(n-1)/2, Fuss frames only."""
    if path.frame.fuss is None:
        raise NotFuss(f"cobounce needs a Fuss frame, got ({path.frame.m}, {path.frame.n})")
    return path.frame.statistic_bound() - bounce(path)
