import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from sweepkit import make_frame, parse_path, path_count
from sweepkit.bench import random_path, rows_to_csv, time_inversions
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


def test_time_inversions_rows():
    rows = time_inversions(k=1, sizes=[1, 16], reps=2, seed=0)
    assert [row["n"] for row in rows] == [1, 16]
    assert rows[0]["m"] == 2 and rows[0]["steps"] == 3
    assert all(row["mean_ns"] >= 0 and row["reps"] == 2 for row in rows)


def test_csv_format():
    rows = [{"k": 2, "n": 10, "m": 21, "steps": 31, "mean_ns": 5, "reps": 3}]
    assert rows_to_csv(rows) == "k,n,m,steps,mean_ns,reps\n2,10,21,31,5,3"


@pytest.mark.parametrize("sign", ["1", "-1"])
def test_tableau_layers_script_runs(sign):
    script = Path(__file__).resolve().parents[1] / "scripts" / "tableau_layers.py"
    done = subprocess.run(
        [sys.executable, str(script), "--n", "50", "--reps", "1", "--sign", sign],
        capture_output=True, text=True, timeout=120, check=True,
    )
    rows = [json.loads(line) for line in done.stdout.splitlines()]
    reduction = ["red", "fiber_by_cutting"] if sign == "1" else []
    assert [row["layer"] for row in rows] == [
        "random_path", "sweep", "sw_word", "en_word", "rank_sequence", "rank_complement",
        "area", "dinv", "bipartite_invert", "invert_fuss", "path_tableau", "walk", "tableau_rank_labels", "validate", "from_json",
        *reduction,
    ]
    assert all(row["sign"] == int(sign) and row["n"] == 50 for row in rows)
    # Each layer's best over invert_fuss's best, so the ROADMAP ratios read straight off.
    assert all(row["per_invert_fuss"] >= 0 for row in rows)
    assert next(row for row in rows if row["layer"] == "invert_fuss")["per_invert_fuss"] == 1
