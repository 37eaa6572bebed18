import json
import random
from functools import partial

import pytest

from sweepkit import (bench, dinv, make_frame, parse_path, path_count, rank_complement,
                      rank_sequence)
from sweepkit.bench import random_path, time_layers
from sweepkit.cli import main
from sweepkit.sweep import en_word, sw_word, sweep
from helpers import coprime_frames, frame_paths


def test_random_path_is_valid_and_deterministic():
    # random_path builds its output unchecked, by the cycle lemma.
    for frame in coprime_frames(20):
        for seed in range(16):
            path = random_path(frame, random.Random(seed))
            assert parse_path(frame, path.steps) == path
    frame = make_frame(41, 20)
    assert random_path(frame, random.Random("x")) == random_path(frame, random.Random("x"))


def test_random_path_single_row_frame():
    frame = make_frame(3, 1)
    assert random_path(frame, random.Random(0)).steps == "NEEE"


def test_random_path_covers_small_frame():
    frame = make_frame(3, 2)
    rng = random.Random(1)
    seen = {random_path(frame, rng).steps for _ in range(64)}
    assert seen == {p.steps for p in frame_paths(3, 2)}
    assert path_count(frame) == 2


def test_time_layers_rows():
    rows = time_layers(k=1, sign=1, sizes=[1, 16], reps=2, seed=0)
    assert [(row["layer"], row["n"], row["steps"]) for row in rows] == [
        ("invert_fuss", 1, 3), ("invert_fuss", 16, 33)]
    assert all(row["mean_s"] >= row["best_s"] > 0 and row["per_invert_fuss"] == 1
               and row["reps"] == 2 for row in rows)


def test_time_layers_times_the_seeded_paths(monkeypatch):
    # Round-robin over the sizes, each size still draws its paths in turn from its own generator.
    seen = []
    monkeypatch.setitem(bench.LAYERS, "invert_fuss", lambda p: partial(seen.append, p))
    time_layers(k=2, sign=1, sizes=[40, 80], reps=2, seed=5)
    drawn = {}
    for n in (40, 80):
        rng = random.Random(f"5:2:{n}")
        drawn[n] = [random_path(make_frame(2 * n + 1, n), rng) for _ in range(2)]
    assert seen == [drawn[40][0], drawn[80][0], drawn[40][1], drawn[80][1]]


def test_time_layers_times_every_layer_on_a_fresh_path(monkeypatch):
    # sweep, sw_word and en_word keep their rank words on the path, so a layer
    # timed on a path that another layer has swept would time a cache hit.
    cached_at_call = []

    def recording(layer):
        return lambda p: lambda: (cached_at_call.append("_rank_words" in vars(p)), layer(p))

    # rank_sequence, rank_complement and dinv read the kept sort when the path holds one.
    layers = {"sweep": sweep, "sw_word": sw_word, "en_word": en_word,
              "rank_sequence": rank_sequence, "rank_complement": rank_complement, "dinv": dinv}
    for name, layer in layers.items():
        monkeypatch.setitem(bench.LAYERS, name, recording(layer))
    time_layers(k=2, sign=1, sizes=[10, 20], reps=2, seed=0, layers=tuple(layers))
    assert cached_at_call == [False] * 24  # 6 layers x 2 sizes x 2 reps


@pytest.mark.parametrize("sign", [1, -1])
def test_bench_all_layers(capsys, sign):
    assert main(["bench", "--k", "2", "--sign", str(sign), "--layers", "all", "--sizes", "50",
                 "--reps", "1"]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    reduction = ["red", "fiber_by_cutting"] if sign > 0 else []
    assert [row["layer"] for row in rows] == [
        "invert_fuss", "random_path", "sweep", "sw_word", "en_word", "rank_sequence",
        "rank_complement", "area", "dinv", "bipartite_invert", "path_tableau", "walk",
        "tableau_rank_labels", "validate", "from_json", *reduction,
    ]
    assert all(list(row) == ["layer", "k", "sign", "n", "steps", "best_s", "mean_s",
                             "per_invert_fuss", "reps", "python"] for row in rows)
    assert all((row["k"], row["sign"], row["n"], row["steps"], row["reps"])
               == (2, sign, 50, 150 + sign, 1) and row["per_invert_fuss"] > 0 for row in rows)
    # Each layer's best over invert_fuss's best, so the ROADMAP ratios read straight off.
    assert rows[0]["per_invert_fuss"] == 1
