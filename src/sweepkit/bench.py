"""Timing harness: the layers of ``LAYERS`` on uniform random Fuss paths.

Random paths are drawn uniformly by the cycle lemma: shuffle n North steps
into m+n positions, then take the unique cyclic rotation that stays above
the diagonal (start at the vertex of minimum prefix rank).
"""

from __future__ import annotations

import random
import sys
from functools import partial
from time import perf_counter

from .core import (DyckPath, Frame, _lowest_rank_rotation, _unchecked, area, dinv,
                   rank_complement, rank_sequence)
from .fuss import FussTableau, _fuss_frame, invert_fuss, path_tableau, tableau_rank_labels, walk
from .reduction import fiber_by_cutting, red
from .sweep import bipartite_invert, en_word, sw_word, sweep


def random_path(frame: Frame, rng: random.Random) -> DyckPath:
    """Uniform random path of the frame in O(m+n), unchecked by the cycle lemma."""
    m, n = frame.m, frame.n
    word = bytearray(b"E") * (m + n)
    for i in rng.sample(range(m + n), n):
        word[i] = 78  # ord("N")
    return _unchecked(DyckPath, frame=frame, steps=_lowest_rank_rotation(m, n, word.decode()))


# Layer -> (path -> timed call); inputs are built outside the timer, paths and tableaux fresh
# on each call, so that no layer reads rank words that another layer's call has kept.
LAYERS = {  # invert_fuss, the yardstick, first; the last two are sign +1 only
    "invert_fuss": lambda p: partial(invert_fuss, p),
    "random_path": lambda p: partial(random_path, p.frame, random.Random(p.frame.m)),
    "sweep": lambda p: partial(sweep, p),
    "sw_word": lambda p: partial(sw_word, p),
    "en_word": lambda p: partial(en_word, p),
    "rank_sequence": lambda p: partial(rank_sequence, p),
    "rank_complement": lambda p: partial(rank_complement, p),
    "area": lambda p: partial(area, p),
    "dinv": lambda p: partial(dinv, p),
    "bipartite_invert": lambda p: partial(bipartite_invert, sw_word(p), en_word(p)),
    "path_tableau": lambda p: partial(path_tableau, p),
    "walk": lambda p: partial(walk, path_tableau(p)),
    "tableau_rank_labels": lambda p: partial(tableau_rank_labels, path_tableau(p)),
    "validate": lambda p: path_tableau(p).validate,
    "from_json": lambda p: partial(FussTableau.from_json, path_tableau(p).to_json()),
    "red": lambda p: partial(red, path_tableau(p)),
    "fiber_by_cutting": lambda p: partial(fiber_by_cutting, red(path_tableau(p))),
}


def time_layers(k: int, sign: int, sizes, reps: int, seed: int, layers=("invert_fuss",)) -> list:
    """Rows {layer, k, sign, n, steps, best_s, mean_s, per_invert_fuss, reps, python} per size
    in LAYERS order, invert_fuss always (timed first; per_invert_fuss is a best over its best).
    ("all",) is every layer the sign admits.  Size n draws a path per rep from random.Random(
    f"{seed}:{k}:{n}"), the reps round-robin over the sizes so a slow spell hits all of them."""
    if reps < 1:
        raise ValueError(f"reps must be at least 1, got {reps}")
    if not sizes:
        raise ValueError("sizes must name at least one n")
    admitted = list(LAYERS)[:None if sign > 0 else -2]
    layers = {"invert_fuss", *(admitted if tuple(layers) == ("all",) else layers)}
    if unknown := layers.difference(admitted):
        raise ValueError(f"no layer {sorted(unknown)} for sign {sign:+d}; only all or {admitted}")
    drawn = [(_fuss_frame(k, n, sign), random.Random(f"{seed}:{k}:{n}")) for n in sizes]
    times = [{name: [] for name in admitted if name in layers} for _ in sizes]
    for _ in range(reps):
        for (frame, rng), by_layer in zip(drawn, times):
            path = random_path(frame, rng)
            for name, seconds in by_layer.items():
                call = LAYERS[name](_unchecked(DyckPath, frame=frame, steps=path.steps))
                t0 = perf_counter()
                out = call()
                seconds.append(perf_counter() - t0)
                del call, out  # freed outside the timer
    return [{"layer": name, "k": k, "sign": sign, "n": frame.n, "steps": frame.size,
             "best_s": min(seconds), "mean_s": sum(seconds) / reps,
             "per_invert_fuss": min(seconds) / min(by_layer["invert_fuss"]), "reps": reps,
             "python": "%d.%d.%d" % sys.version_info[:3]}
            for (frame, _), by_layer in zip(drawn, times) for name, seconds in by_layer.items()]
