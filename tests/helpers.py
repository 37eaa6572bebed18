"""Shared fixtures: frame lists, cached enumerations, golden constants."""

from functools import lru_cache

from sweepkit import DyckPath, enumerate_paths, make_frame
from sweepkit.suites import coprime_frames


def fuss_frames(max_steps, sign=None):
    frames = [f for f in coprime_frames(max_steps) if f.fuss is not None]
    if sign is not None:
        frames = [f for f in frames if f.fuss.sign == sign]
    return frames


@lru_cache(maxsize=None)
def frame_paths(m, n) -> tuple[DyckPath, ...]:
    return tuple(enumerate_paths(make_frame(m, n)))


def prefix_scan(m, n, word):
    """Independent path check: None if valid, else the error it must raise.

    Returns ("counts",) unless the word has exactly n N's and m E's, else
    ("below", p) for the first prefix p with b*m - a*n < 0 (b North and a
    East steps so far), else None.
    """
    if len(word) != m + n or word.count("N") != n or word.count("E") != m:
        return ("counts",)
    b = a = 0
    for p, ch in enumerate(word, start=1):
        if ch == "N":
            b += 1
        else:
            a += 1
        if b * m - a * n < 0:
            return ("below", p)
    return None


# Worked example on the (7,5) frame.
FIG_FRAME = (7, 5)
FIG_WORD = "NNENEENEENEE"
FIG_RANKS = (0, 7, 14, 9, 16, 11, 6, 13, 8, 3, 10, 5)
FIG_RANK_SEQUENCE = (0, 3, 5, 6, 7, 8, 9, 10, 11, 13, 14, 16)
FIG_SW = "SSWSSWSWWWWW"
FIG_EN = "EEEENEENENNN"
FIG_DINV = 8
FIG_VISITING_SW = "SSWSWWSWWSWW"

# Worked example on the (13,4) frame, k=3.
K3N4_SW = "SWSWWSWWSWWWWWWWW"  # S at 1, 3, 6, 9
K3N4_ROWS = ((1, 3, 6, 9), (2, 5, 10, 12), (4, 8, 13, 14), (7, 11, 15, 16))
K3N4_WALK = (1, 8, 5, 3, 12, 9, 17, 15, 13, 10, 6, 16, 14, 11, 7, 4, 2)
K3N4_REDUCED_WALK = (3, 12, 9, 17, 15, 13, 10, 6, 16, 14, 11, 8, 5)
K3N4_REDUCED_ROWS = ((1, 3, 5), (2, 6, 8), (4, 9, 10), (7, 11, 12))
K3N4_PREIMAGE_SW = "SWWSWSWWWWSWWWWWW"

# Worked example on the (13,3) frame, k=4.
K4N3_SW = "SWWWSWWWWSWWWWWW"
K4N3_COLUMNS = ((1, 2, 3, 4, 6), (5, 7, 8, 9, 11), (10, 12, 13, 14, 15))
K4N3_N_POSITIONS = (7, 12, 16)

# Worked example on the (16,5) frame, k=3, and its reduction to (13,4).
BIG_FIRST_ROW = (1, 2, 5, 9, 15)
BIG_ROWS = (
    (1, 2, 5, 9, 15),
    (3, 4, 8, 13, 17),
    (6, 7, 12, 16, 19),
    (10, 11, 14, 18, 20),
)
BIG_REDUCED_ROWS = (
    (1, 3, 6, 11),
    (2, 5, 9, 13),
    (4, 8, 12, 15),
    (7, 10, 14, 16),
)
BIG_PSI_OF_REDUCED_ROWS = (
    (1, 3, 7, 10),
    (2, 5, 9, 13),
    (4, 8, 12, 15),
    (6, 11, 14, 16),
)
