"""Time the path and Fuss tableau layers on one random path, one JSON line per layer.

    python3 scripts/tableau_layers.py --n 1000000 --k 2 --sign 1 --reps 2
    python3 scripts/tableau_layers.py --src OTHER_CHECKOUT/src ...

Layers: random_path (from a fresh generator of the same seed), sweep,
sw_word, en_word, rank_sequence, rank_complement, area, dinv,
bipartite_invert(sw, en), invert_fuss, path_tableau, walk(T),
tableau_rank_labels(T), T.validate() and FussTableau.from_json, and for
sign +1 also red(T) and fiber_by_cutting(red(T)).  Every input is built outside the timer, and each
timed call gets a tableau fresh from ``path_tableau`` (or ``red`` of one),
so nothing an earlier call stored on it is reused.  A row reports the best of
``--reps`` calls, and ``per_invert_fuss``, that best over the best of the
``invert_fuss`` row (timed first, printed in its place).  ``--src`` imports
sweepkit from another checkout, so one script times two commits alike.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from functools import partial
from pathlib import Path
from time import perf_counter


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=1_000_000)
    parser.add_argument("--k", type=int, default=2)
    parser.add_argument("--sign", type=int, choices=(1, -1), default=1)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--reps", type=int, default=2)
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"))
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    import sweepkit as sk
    from sweepkit.bench import random_path

    frame = sk.make_frame(args.k * args.n + args.sign, args.n)
    path = random_path(frame, random.Random(args.seed))
    text = sk.path_tableau(path).to_json()
    words = (sk.sw_word(path), sk.en_word(path))
    layers = {
        "random_path": (lambda: random.Random(args.seed), partial(random_path, frame)),
        "sweep": (lambda: path, sk.sweep),
        "sw_word": (lambda: path, sk.sw_word),
        "en_word": (lambda: path, sk.en_word),
        "rank_sequence": (lambda: path, sk.rank_sequence),
        "rank_complement": (lambda: path, sk.rank_complement),
        "area": (lambda: path, sk.area),
        "dinv": (lambda: path, sk.dinv),
        "bipartite_invert": (lambda: words, lambda pair: sk.bipartite_invert(*pair)),
        "invert_fuss": (lambda: path, sk.invert_fuss),
        "path_tableau": (lambda: path, sk.path_tableau),
        "walk": (lambda: sk.path_tableau(path), sk.walk),
        "tableau_rank_labels": (lambda: sk.path_tableau(path), sk.tableau_rank_labels),
        "validate": (lambda: sk.path_tableau(path), sk.FussTableau.validate),
        "from_json": (lambda: text, sk.FussTableau.from_json),
    }
    if args.sign > 0:
        layers["red"] = (lambda: sk.path_tableau(path), sk.red)
        layers["fiber_by_cutting"] = (lambda: sk.red(sk.path_tableau(path)), sk.fiber_by_cutting)

    def best_of(make_input, call) -> float:
        best = float("inf")
        for _ in range(args.reps):
            arg = make_input()
            t0 = perf_counter()
            out = call(arg)
            best = min(best, perf_counter() - t0)
            del arg, out
        return best

    invert_best = best_of(*layers["invert_fuss"])
    for layer, timed in layers.items():
        best = invert_best if layer == "invert_fuss" else best_of(*timed)
        row = {"layer": layer, "k": args.k, "sign": args.sign, "n": args.n,
               "steps": frame.size, "best_s": round(best, 4),
               "per_invert_fuss": round(best / invert_best, 3), "reps": args.reps}
        print(json.dumps(row), flush=True)


if __name__ == "__main__":
    main()
