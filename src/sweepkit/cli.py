"""Command-line surface: compute, verify, enumerate, render, benchmark.

Exit codes: 0 success, 2 domain errors (non-coprime frame, path below the
diagonal, non-Fuss frame, ...), 1 I/O errors.  All JSON output is
stable-ordered so runs can be golden-file tested.  SWEEPKIT_SEED, when set,
overrides --seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import bench as bench_mod, qtcatalan
from .core import (
    DyckPath,
    area,
    coarea,
    dinv,
    make_frame,
    parse_path,
    rank_sequence,
    ranks,
)
from .errors import SweepkitError
from .fuss import FussTableau, _walk_path, invert_fuss, path_tableau
from .qtcatalan import CATALAN_ROUTES, path_count
from .reduction import fiber_by_cutting, red
from .render import render_svg
from .sweep import (
    ENWord,
    SWWord,
    bipartite_invert,
    steps_to_sw,
    sw_word,
    en_word,
    sweep,
)


def _path_from_args(args) -> DyckPath:
    if args.m is None or args.n is None or args.word is None:
        raise SweepkitError("a path needs --m, --n and --word")
    frame = make_frame(args.m, args.n)
    kind = args.word_kind
    if kind == "ne":
        return parse_path(frame, args.word)
    if kind == "sw":
        return SWWord(frame, args.word.upper()).as_path()
    raise SweepkitError("an EN word alone does not determine a path")


def cmd_stats(args) -> int:
    path = _path_from_args(args)
    frame = path.frame
    # The words first: their one rank sort stays on the path for rank_sequence and dinv.
    sw, en = sw_word(path).letters, en_word(path).letters
    report = {
        **path._json_fields(),
        "fuss": None if frame.fuss is None else {"k": frame.fuss.k, "sign": frame.fuss.sign},
        "ranks": list(ranks(path)),
        "rank_sequence": list(rank_sequence(path)),
        "area": area(path),
        "coarea": coarea(path) if frame.fuss is not None else None,
        "dinv": dinv(path),
        "sw_word": sw,
        "en_word": en,
    }
    print(json.dumps(report))
    return 0


def cmd_sweep(args) -> int:
    print(sweep(_path_from_args(args)).to_json())
    return 0


def cmd_invert(args) -> int:
    if args.method == "bipartite":
        if args.m is None or args.n is None or args.word is None or args.en_word is None:
            raise SweepkitError("bipartite inversion needs --m, --n, --word and --en-word")
        if args.word_kind == "en":
            raise SweepkitError("pass the EN word through --en-word, not --word")
        frame = make_frame(args.m, args.n)
        letters = args.word.upper()
        sw = SWWord(frame, steps_to_sw(letters) if args.word_kind == "ne" else letters)
        en = ENWord(frame, args.en_word.upper())
        path, rs = bipartite_invert(sw, en)
        print(json.dumps({**path._json_fields(), "rank_sequence": list(rs)}))
        return 0
    invert = invert_fuss
    if args.method == "brute":  # imported here, so that no other command compiles the oracle
        from .oracle import oracle_invert_sweep as invert
    print(invert(_path_from_args(args)).to_json())
    return 0


def cmd_tableau(args) -> int:
    T = (FussTableau.from_json(args.tableau_json) if args.tableau_json
         else path_tableau(_path_from_args(args)))
    print(T.to_json())
    print(T.render_text(), file=sys.stderr)
    return 0


def cmd_red(args) -> int:
    if not args.tableau_json:
        raise SweepkitError("red needs --tableau-json")
    print(red(FussTableau.from_json(args.tableau_json)).to_json())
    return 0


def cmd_fiber(args) -> int:
    if not args.tableau_json:
        raise SweepkitError("fiber needs --tableau-json")
    T_reduced = FussTableau.from_json(args.tableau_json)
    members = []
    for D in fiber_by_cutting(T_reduced):
        T = path_tableau(D)  # its walk spells the preimage, whose area is the bounce
        members.append({"tableau": T._json_fields(), "area": area(D),
                        "bounce": area(_walk_path(T))})
    print(json.dumps(members))
    return 0


def cmd_catalan(args) -> int:
    # By name on the module, so that a rebound route (a tracer, a mock) is what runs.
    poly = getattr(qtcatalan, CATALAN_ROUTES[args.via].__name__)(args.k, args.n)
    print(poly.to_json())
    print(poly.pretty(), file=sys.stderr)
    return 0


def cmd_count(args) -> int:
    # str() of an int past sys.get_int_max_str_digits() digits raises; a Decimal prints it
    # exactly.  Imported here, so that only this command pays for the module.
    from decimal import Decimal

    print(Decimal(path_count(make_frame(args.m, args.n))))
    return 0


def cmd_render(args) -> int:
    svg = render_svg(_path_from_args(args), labels=args.labels)
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(svg)
    print(args.out)
    return 0


def cmd_bench(args) -> int:
    sizes = [int(s) for s in args.sizes.split(",") if s]
    seed = int(os.environ.get("SWEEPKIT_SEED", args.seed))
    rows = bench_mod.time_layers(args.k, args.sign, sizes, args.reps, seed, args.layers.split(","))
    print(*map(json.dumps, rows), sep="\n")
    # Growth per layer and size step goes to stderr; the rows run size by size.
    for small, big in zip(rows, rows[len(rows) // len(sizes):]):
        print(f"# {big['layer']} n={big['n']}: time x{big['mean_s'] / small['mean_s']:.2f} "
              f"for n x{big['n'] / small['n']:.2f}", file=sys.stderr)
    return 0


def cmd_verify(args) -> int:
    """Exhaustive property suites over every coprime frame up to --max-steps."""
    # Imported here so that no other command pays for compiling the suites.
    from . import suites

    frames = suites.coprime_frames(args.max_steps)
    failed = False
    for label, suite, unit in (
        ("sweep bijection and dinv->area transport", suites.sweep_transport,
         f"paths over {len(frames)} frames"),
        ("linear inversion vs enumeration", suites.fuss_inversion, "paths"),
        ("tableau invariants and walk vs column walk", suites.tableau_walk, "paths"),
        ("q,t-Catalan routes and path counts", suites.catalan_routes, "frames"),
    ):
        checked, counterexample = suite(frames)
        if counterexample is None:
            print(f"{label}: {checked} {unit} ok")
        else:
            print(f"{label}: FAILED")
            print(f"  counterexample: {counterexample}")
            failed = True
    return 2 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sweepkit",
        description="Rational Dyck paths, the sweep map, and its Fuss-case inversion",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_path_args(p):
        p.add_argument("--m", type=int)
        p.add_argument("--n", type=int)
        p.add_argument("--word")
        p.add_argument("--word-kind", choices=["ne", "sw", "en"], default="ne")

    p = sub.add_parser("stats", help="ranks, area, coarea, dinv, SW/EN words")
    add_path_args(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("sweep", help="sweep map image of a path")
    add_path_args(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("invert", help="sweep map preimage of a path")
    add_path_args(p)
    p.add_argument("--method", choices=["fuss", "bipartite", "brute"], default="fuss")
    p.add_argument("--en-word", help="EN word, required by --method bipartite")
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("tableau", help="tableau encoding of a Fuss path")
    add_path_args(p)
    p.add_argument("--tableau-json")
    p.set_defaults(func=cmd_tableau)

    p = sub.add_parser("red", help="remove column 1 of a tableau and renumber")
    p.add_argument("--tableau-json", required=True)
    p.set_defaults(func=cmd_red)

    p = sub.add_parser("fiber", help="all paths whose tableau reduces to the given one")
    p.add_argument("--tableau-json", required=True)
    p.set_defaults(func=cmd_fiber)

    p = sub.add_parser("catalan", help="higher q,t-Catalan polynomial")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--via", choices=list(CATALAN_ROUTES), default="dinv-area")
    p.set_defaults(func=cmd_catalan)

    p = sub.add_parser("count", help="number of paths of a frame")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("render", help="render a path to SVG")
    add_path_args(p)
    p.add_argument("--out", required=True)
    p.add_argument("--labels", action=argparse.BooleanOptionalAction, default=True)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("bench", help="time the inversion and the other layers on random paths")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--sign", type=int, choices=[1, -1], default=1)
    p.add_argument("--sizes", required=True, help="comma-separated frame heights n")
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--layers", default="invert_fuss", help="comma-separated layers, or all")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("verify", help="run the exhaustive property suites")
    p.add_argument("--max-steps", type=int, default=12)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SweepkitError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
