"""The four workloads: inputs from a seed, one request, and its checks.

Each workload builds a fixed pool of inputs in ``build`` and the runner
sends the pool round after round, one request at a time (a closed loop with
one caller).  Every set-up rebuilds the same pool from the same seed, so
repeated inputs are part of the traffic; each set-up also re-imports
sweepkit, which empties any cache the package keeps.  ``request`` is the timed unit of user work; ``check`` runs
untimed right after it and returns a message on failure; ``final_check``
runs once per pool item after the timed loop, for checks too heavy to
repeat on every request; ``digest_values`` lists what the pinned output
digest covers.  Library calls go through module attributes (``sk.core.area``)
so the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass


@dataclass
class Item:
    """One pool entry: the frame it lives on and the workload's own input."""

    frame: tuple[int, int]
    data: object


@dataclass
class Modules:
    """The sweepkit modules a run imported (re-imported on every set-up)."""

    package: object
    core: object
    sweep: object
    fuss: object
    reduction: object
    qtcatalan: object
    cli: object
    bench: object


class Workload:
    """Defaults shared by the workloads below."""

    def final_check(self, sk: Modules, index: int, item: Item) -> str | None:
        return None


def _random_paths(sk: Modules, rng: random.Random, frames, per_frame: int):
    """Random paths via bench.random_path, interleaving the frames."""
    frames = [sk.core.make_frame(m, n) for m, n in frames]
    return [
        sk.bench.random_path(frame, rng) for _ in range(per_frame) for frame in frames
    ]


class Invert(Workload):
    """parse_path -> invert_fuss -> preimage steps at n = 2*10^4, k = 2, both signs."""

    name = "invert_20k"
    n = 20_000
    traced_rounds = 10

    def __init__(self):
        # Kept across set-ups, which rebuild the same pool.
        self.first_output: dict[int, str] = {}

    def build(self, sk: Modules, rng: random.Random) -> list[Item]:
        paths = _random_paths(sk, rng, [(2 * self.n + 1, self.n), (2 * self.n - 1, self.n)], 2)
        return [Item((p.frame.m, p.frame.n), p.steps) for p in paths]

    def request(self, sk: Modules, item: Item):
        frame = sk.core.make_frame(*item.frame)
        return sk.fuss.invert_fuss(sk.core.parse_path(frame, item.data)).steps

    def check(self, sk: Modules, index: int, item: Item, output) -> str | None:
        # Every output must equal the first one for its input, which
        # final_check verifies independently of the fuss kernel.
        first = self.first_output.setdefault(index, output)
        return None if output == first else "preimage differs from the first run's"

    def final_check(self, sk: Modules, index: int, item: Item) -> str | None:
        preimage = self.first_output.get(index)
        if preimage is None:  # every request on this input raised
            return None
        frame = sk.core.make_frame(*item.frame)
        if sk.sweep.sweep(sk.core.parse_path(frame, preimage)).steps != item.data:
            return "sweep(preimage) != input"
        return None

    def digest_values(self, output):
        return [output]


class Words(Workload):
    """sweep, SW/EN words, bipartite inversion and core statistics at n = 5000."""

    name = "words_5k"
    n = 5000
    traced_rounds = 10
    # A Fuss frame and a non-Fuss coprime frame of the same height.
    frames = [(2 * n + 1, n), (7501, n)]

    def build(self, sk: Modules, rng: random.Random) -> list[Item]:
        return [Item((p.frame.m, p.frame.n), p) for p in _random_paths(sk, rng, self.frames, 2)]

    def request(self, sk: Modules, item: Item):
        path = item.data
        swept = sk.sweep.sweep(path)
        sw = sk.sweep.sw_word(path)
        en = sk.sweep.en_word(path)
        preimage, rs = sk.sweep.bipartite_invert(sw, en)
        return (
            swept, sw, en, preimage, rs,
            sk.core.rank_sequence(path), sk.core.area(path), sk.core.rank_complement(path),
        )

    def check(self, sk: Modules, index: int, item: Item, output) -> str | None:
        _, _, _, preimage, rs, rank_seq, _, _ = output
        if preimage.steps != item.data.steps:
            return "bipartite_invert(sw, en) != input"
        if rs.values != rank_seq.values:
            return "bipartite rank sequence != rank_sequence"
        return None

    def digest_values(self, output):
        swept, sw, en, preimage, rs, rank_seq, area, complement = output
        return [swept.steps, sw.letters, en.letters, preimage.steps, rs.values,
                rank_seq.values, area, complement.steps]


class Tableaux(Workload):
    """dinv and the tableau-object API at n = 500, k = 2, both signs."""

    name = "tableau_500"
    n = 500
    per_sign = 4
    traced_rounds = 5

    def build(self, sk: Modules, rng: random.Random) -> list[Item]:
        frames = [(2 * self.n + 1, self.n), (2 * self.n - 1, self.n)]
        paths = _random_paths(sk, rng, frames, self.per_sign)
        return [Item((p.frame.m, p.frame.n), p) for p in paths]

    def request(self, sk: Modules, item: Item):
        path = item.data
        fuss = sk.fuss
        d = sk.core.dinv(path)
        T = fuss.path_tableau(path)
        text = T.to_json()
        back = fuss.FussTableau.from_json(text)
        order = fuss.walk(T).order
        en = fuss.en_from_tableau(T)
        labels = fuss.tableau_rank_labels(T)
        out = {"dinv": d, "T": T, "json": text, "back": back, "walk": order,
               "en": en.letters, "labels": sorted(labels.items())}
        if T.sign > 0:
            reduced = sk.reduction.red(T)
            out.update(
                red=reduced,
                fiber=sk.reduction.fiber_by_cutting(reduced),
                area=sk.reduction.area_from_bottom_row(T),
                coarea=sk.reduction.coarea_from_top_row(T),
            )
        return out

    def check(self, sk: Modules, index: int, item: Item, out) -> str | None:
        path, T = item.data, out["T"]
        if out["dinv"] != sk.core.area(sk.sweep.sweep(path)):
            return "dinv != area(sweep(D))"
        if out["back"] != T:
            return "from_json(to_json(T)) != T"
        row1 = set(T.first_row())
        preimage = sk.fuss.invert_fuss(path)
        if "".join("N" if label in row1 else "E" for label in out["walk"]) != preimage.steps:
            return "walk(T) does not spell invert_fuss"
        if T.sign > 0:
            if len(out["fiber"]) != sk.reduction.fiber_count(out["red"]):
                return "fiber size != fiber_count"
            if out["area"] != sk.core.area(path):
                return "area_from_bottom_row != area(D)"
            if out["coarea"] != sk.core.coarea(path):
                return "coarea_from_top_row != coarea(D)"
        return None

    def digest_values(self, out):
        values = [out["dinv"], out["json"], out["walk"], out["en"], out["labels"]]
        if "red" in out:
            values += [out["red"].to_json(), [D.steps for D in out["fiber"]],
                       out["area"], out["coarea"]]
        return values


class CliSmall(Workload):
    """In-process ``sweepkit.cli.main`` calls on paths of at most 40 steps."""

    name = "cli_small"
    traced_rounds = 10
    fuss_frames = [(27, 13), (25, 13), (21, 10)]
    other_frames = [(23, 17), (19, 14)]
    plus_frames = [(27, 13), (21, 10)]
    count_frames = [(27, 13), (23, 17), (101, 50), (1001, 400)]
    # (k, n): 1,428, 140 and 429 paths.
    catalan_frames = [(2, 6), (3, 4), (1, 7)]

    def __init__(self):
        # (m, n) -> the first route's terms, kept across set-ups.  Terms, not
        # the polynomial: each set-up re-imports QTPolynomial as a new class.
        self.catalan_ref: dict[tuple[int, int], dict] = {}

    def build(self, sk: Modules, rng: random.Random) -> list[Item]:
        all_frames = self.fuss_frames + self.other_frames

        def path(frame):
            return sk.bench.random_path(sk.core.make_frame(*frame), rng)

        def tableau_json(frame):
            return sk.fuss.path_tableau(path(frame)).to_json()

        def path_args(frame, word):
            return ["--m", str(frame[0]), "--n", str(frame[1]), "--word", word]

        calls = []
        for i in range(8):
            f = all_frames[i % len(all_frames)]
            calls.append((f, ["stats", *path_args(f, path(f).steps)]))
            calls.append((f, ["sweep", *path_args(f, path(f).steps)]))
        for i in range(6):
            f = self.fuss_frames[i % len(self.fuss_frames)]
            calls.append((f, ["invert", *path_args(f, path(f).steps)]))
            calls.append((f, ["tableau", *path_args(f, path(f).steps)] if i % 2 else
                          ["tableau", "--tableau-json", tableau_json(f)]))
            g = all_frames[i % len(all_frames)]
            target = path(g)
            sw = sk.sweep.sw_word(target).letters
            en = sk.sweep.en_word(target).letters
            calls.append((g, ["invert", "--method", "bipartite", "--word-kind", "sw",
                              *path_args(g, sw), "--en-word", en]))
        for i in range(4):
            f = self.plus_frames[i % len(self.plus_frames)]
            calls.append((f, ["red", "--tableau-json", tableau_json(f)]))
            calls.append((f, ["fiber", "--tableau-json", tableau_json(f)]))
            f = self.count_frames[i]
            calls.append((f, ["count", "--m", str(f[0]), "--n", str(f[1])]))
        for k, n in self.catalan_frames:
            for via in ("dinv-area", "area-bounce", "step"):
                calls.append(((k * n + 1, n), ["catalan", "--k", str(k), "--n", str(n), "--via", via]))
        rng.shuffle(calls)
        return [Item(frame, argv) for frame, argv in calls]

    def request(self, sk: Modules, item: Item):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = sk.cli.main(list(item.data))
            except SystemExit as exc:  # argparse rejects its arguments
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def check(self, sk: Modules, index: int, item: Item, output) -> str | None:
        code, stdout, stderr = output
        if code != 0:
            return f"exit code {code}: {stderr.strip()[:200]}"
        argv = item.data
        if argv[0] == "catalan":
            poly = sk.qtcatalan.QTPolynomial.from_json(stdout)
            m, n = item.frame
            if poly.terms != self.catalan_ref.setdefault((m, n), poly.terms):
                return "the three Catalan routes disagree"
            if poly.evaluate(1, 1) != sk.qtcatalan.path_count(sk.core.make_frame(m, n)):
                return "evaluate(1, 1) != path_count"
        elif argv[0] == "invert":
            got = json.loads(stdout)["steps"]
            m, n = item.frame
            frame = sk.core.make_frame(m, n)
            if "bipartite" in argv:
                word = argv[argv.index("--word") + 1]
                if sk.sweep.sw_word(sk.core.parse_path(frame, got)).letters != word:
                    return "bipartite preimage has another SW word"
            elif sk.sweep.sweep(sk.core.parse_path(frame, got)).steps != argv[argv.index("--word") + 1]:
                return "sweep(preimage) != input"
        return None

    def digest_values(self, output):
        code, stdout, _ = output
        return [code, stdout]


WORKLOADS = {w.name: w for w in (Invert, Words, Tableaux, CliSmall)}
