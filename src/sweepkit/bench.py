"""Timing harness for the linear-time inversion.

Random paths are drawn uniformly by the cycle lemma: shuffle n North steps
into m+n positions, then take the unique cyclic rotation that stays above
the diagonal (start at the vertex of minimum prefix rank).
"""

from __future__ import annotations

import random
import time

from .core import DyckPath, Frame, _lowest_rank_rotation, _unchecked, make_frame
from .fuss import invert_fuss


def random_path(frame: Frame, rng: random.Random) -> DyckPath:
    """Uniform random path of the frame in O(m+n), unchecked by the cycle lemma."""
    m, n = frame.m, frame.n
    word = bytearray(b"E") * (m + n)
    for i in rng.sample(range(m + n), n):
        word[i] = 78  # ord("N")
    return _unchecked(DyckPath, frame=frame, steps=_lowest_rank_rotation(m, n, word.decode()))


def time_inversions(k: int, sizes: list[int], reps: int, seed: int) -> list[dict]:
    """Mean wall time of one inversion per frame height, one row per size."""
    if reps < 1:
        raise ValueError(f"reps must be at least 1, got {reps}")
    rows = []
    for n in sizes:
        frame = make_frame(k * n + 1, n)
        rng = random.Random(f"{seed}:{k}:{n}")
        total_ns = 0
        for _ in range(reps):
            path = random_path(frame, rng)
            t0 = time.perf_counter_ns()
            invert_fuss(path)
            t1 = time.perf_counter_ns()
            total_ns += t1 - t0
        rows.append(
            {
                "k": k,
                "n": n,
                "m": frame.m,
                "steps": frame.size,
                "mean_ns": total_ns // reps,
                "reps": reps,
            }
        )
    return rows


def rows_to_csv(rows: list[dict]) -> str:
    lines = ["k,n,m,steps,mean_ns,reps"]
    for row in rows:
        lines.append(
            f"{row['k']},{row['n']},{row['m']},{row['steps']},{row['mean_ns']},{row['reps']}"
        )
    return "\n".join(lines)
