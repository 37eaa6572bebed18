"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Run with  pytest tests/test_acceptance.py -v -s  to see the lines live.
"""

import time
from contextlib import contextmanager

from sweepkit import (
    SWWord,
    area,
    area_from_bottom_row,
    bipartite_invert,
    catalan_qt,
    coarea,
    coarea_from_top_row,
    cobounce,
    cut_and_lift,
    dinv,
    en_from_tableau,
    en_word,
    fiber_by_bottom_rows,
    fiber_by_cutting,
    fiber_count,
    fill_tableau,
    invert_fuss,
    make_frame,
    parse_path,
    path_count,
    path_tableau,
    rank_sequence,
    ranks,
    red,
    reduced_walk,
    steps_to_sw,
    sw_word,
    sweep,
    tableau_to_sw,
    walk,
)
from sweepkit.bench import time_layers
from sweepkit.oracle import (
    enumerate_tableaux,
    oracle_fiber,
)
from sweepkit.suites import catalan_routes, fuss_inversion, sweep_transport, tableau_walk
from helpers import (
    FIG_EN,
    FIG_RANK_SEQUENCE,
    FIG_SW,
    FIG_VISITING_SW,
    FIG_WORD,
    K3N4_REDUCED_ROWS,
    K3N4_REDUCED_WALK,
    K3N4_ROWS,
    K3N4_SW,
    K3N4_WALK,
    K4N3_SW,
    coprime_frames,
    frame_paths,
    fuss_frames,
)


@contextmanager
def criterion(num: int, desc: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} FAIL: {desc}")
        raise
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {num:02d} PASS ({elapsed:.2f}s): {desc}")


def test_criterion_01_golden_worked_example():
    with criterion(1, "golden (7,5) example, exact equality in under 1 ms"):
        frame = make_frame(7, 5)
        path = parse_path(frame, FIG_WORD)
        started = time.perf_counter()
        rseq = rank_sequence(path).values
        sw = sw_word(path)
        en = en_word(path)
        d = dinv(path)
        image_area = area(sweep(path))
        back, _ = bipartite_invert(sw, en)
        visiting = steps_to_sw(back.steps)
        elapsed = time.perf_counter() - started
        assert rseq == FIG_RANK_SEQUENCE
        assert sw.letters == FIG_SW
        assert en.letters == FIG_EN
        assert d == 8
        assert image_area == 8
        assert back == path
        assert visiting == FIG_VISITING_SW
        assert elapsed < 1e-3, f"took {elapsed * 1e3:.3f} ms"


def test_criterion_02_sweep_bijection_and_transport():
    with criterion(2, "sweep bijective, area(sweep) = dinv = cell-rule dinv, m+n <= 14"):
        started = time.perf_counter()
        frames = coprime_frames(14)
        checked, counterexample = sweep_transport(frames)
        assert counterexample is None, str(counterexample)
        assert checked == sum(path_count(frame) for frame in frames)
        assert time.perf_counter() - started < 60


def test_criterion_03_fuss_inversion():
    with criterion(3, "invert_fuss matches enumeration, both signs, m+n <= 18"):
        started = time.perf_counter()
        checked, counterexample = fuss_inversion(fuss_frames(18))
        assert counterexample is None, str(counterexample)
        assert checked > 0
        assert time.perf_counter() - started < 120


def test_criterion_04_tableau_bijection():
    with criterion(4, "column filling bijects paths onto valid tableaux, m+n <= 18"):
        frames = fuss_frames(18, sign=+1)
        # Fill, validate, tableau_to_sw round trip and injectivity, per path.
        checked, counterexample = tableau_walk(frames)
        assert counterexample is None, str(counterexample)
        assert checked == sum(path_count(frame) for frame in frames)
        for frame in frames:
            k, n = frame.fuss.k, frame.n
            paths = frame_paths(frame.m, frame.n)
            assert len(paths) == path_count(frame)
            images = {path_tableau(path).rows for path in paths}
            universe = {T.rows for T in enumerate_tableaux(k, n)}
            assert images == universe


def test_criterion_05_golden_tableau_and_walks():
    with criterion(5, "k=3,n=4 tableau, its walk, the reduced walk, reduced tableau"):
        T = fill_tableau(SWWord(make_frame(13, 4), K3N4_SW))
        assert T.rows == K3N4_ROWS
        assert walk(T).order == K3N4_WALK
        assert reduced_walk(T) == K3N4_REDUCED_WALK
        assert red(T).rows == K3N4_REDUCED_ROWS


def test_criterion_06_en_extraction():
    with criterion(6, "EN word read off the tableau feet, all Fuss frames m+n <= 18"):
        T = fill_tableau(SWWord(make_frame(13, 3), K4N3_SW))
        letters = en_from_tableau(T).letters
        assert tuple(i + 1 for i, ch in enumerate(letters) if ch == "N") == (7, 12, 16)
        for frame in fuss_frames(18):
            for path in frame_paths(frame.m, frame.n):
                assert en_from_tableau(fill_tableau(sw_word(path))) == en_word(path)


def test_criterion_07_fibers():
    with criterion(7, "fiber solutions coincide; fiber size = column-1 foot"):
        # Golden reduced tableau with exactly 7 preimages.
        T_reduced = red(path_tableau(
            SWWord(make_frame(16, 5),
                   "".join("S" if i in {1, 2, 5, 9, 15} else "W" for i in range(1, 22))
                   ).as_path()
        ))
        by_cut = fiber_by_cutting(T_reduced)
        by_rows = fiber_by_bottom_rows(T_reduced)
        assert len(by_cut) == len(by_rows) == fiber_count(T_reduced) == 7
        assert {path_tableau(D).rows for D in by_cut} == {T.rows for T in by_rows}
        assert {D.steps for D in by_cut} == {D.steps for D in oracle_fiber(T_reduced)}
        # Exhaustive fiber law over every reduced shape with (k+1)(n-1) <= 16:
        # group the taller frame by reduced tableau, then compare both
        # constructions against the groups, member sets included.
        shapes = [
            (k, n_reduced)
            for k in range(1, 16)
            for n_reduced in range(1, 16 // (k + 1) + 1)
        ]
        for k, n_reduced in shapes:
            n = n_reduced + 1
            groups: dict = {}
            for D in frame_paths(k * n + 1, n):
                T = path_tableau(D)
                groups.setdefault(red(T).rows, set()).add(T.rows)
            for reduced_path in frame_paths(k * n_reduced + 1, n_reduced):
                T = path_tableau(reduced_path)
                members = groups[T.rows]
                assert len(members) == fiber_count(T)
                assert {M.rows for M in fiber_by_bottom_rows(T)} == members
                assert {path_tableau(D).rows for D in fiber_by_cutting(T)} == members


def test_criterion_08_statistics_formulas():
    with criterion(8, "row-sum area/coarea formulas and the cobounce shift law"):
        # Worked instances on the (13,4) -> (16,5) pair.
        T_reduced = red(path_tableau(
            SWWord(make_frame(16, 5),
                   "".join("S" if i in {1, 2, 5, 9, 15} else "W" for i in range(1, 22))
                   ).as_path()
        ))
        reduced_path = tableau_to_sw(T_reduced).as_path()
        assert area(reduced_path) == 7
        assert cobounce(reduced_path) == 11
        preimage = invert_fuss(reduced_path)
        lifted = sweep(cut_and_lift(preimage, 9))
        assert area(lifted) == 11
        assert cobounce(lifted) == 20
        # Row sums against direct statistics, sign +1 frames with m+n <= 18.
        for frame in fuss_frames(18, sign=+1):
            for path in frame_paths(frame.m, frame.n):
                T = path_tableau(path)
                assert area_from_bottom_row(T) == area(path)
                assert coarea_from_top_row(T) == coarea(path)
        # Shift law at every admissible cut rank, reduced frames m+n <= 18.
        for frame in fuss_frames(18, sign=+1):
            for path in frame_paths(frame.m, frame.n):
                preimage = invert_fuss(path)
                base = cobounce(path)
                for r in ranks(preimage):
                    if r < frame.m:
                        assert cobounce(sweep(cut_and_lift(preimage, r))) == base + r


def test_criterion_09_catalan_identities():
    with criterion(9, "q,t-Catalan routes agree for k <= 3, n <= 5"):
        started = time.perf_counter()
        assert catalan_qt(1, 2).pretty() == "q + t"
        frames = [
            make_frame(k * n + 1, n)
            for k in (1, 2, 3)
            for n in (1, 2, 3, 4, 5)
            if (k + 1) * n <= 24
        ]
        checked, counterexample = catalan_routes(frames)
        assert counterexample is None, str(counterexample)
        assert checked == len(frames)
        assert time.perf_counter() - started < 300


def test_criterion_10_linear_time_scaling():
    with criterion(10, "inversion time grows <= 2.5x per doubling of n, <= 5 s per run"):
        rows = time_layers(k=2, sign=1, sizes=[250_000, 500_000, 1_000_000], reps=3, seed=0)
        means = [row["mean_s"] for row in rows]
        for row in rows:
            assert row["mean_s"] <= 5, f"run too slow: {row}"
        for small, big in zip(means, means[1:]):
            assert big <= 2.5 * small, f"superlinear growth: {means}"
        print("  bench means (ms):", [round(m * 1e3, 1) for m in means])
