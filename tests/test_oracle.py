import pytest

from sweepkit import (
    FrameTooLarge,
    area,
    make_frame,
    parse_path,
    path_count,
    path_tableau,
    red,
    sweep,
    tableau_from_first_row,
)
from sweepkit.oracle import (
    _sweep_images,
    enumerate_tableaux,
    oracle_fiber,
    oracle_invert_sweep,
)
from helpers import FIG_FRAME, FIG_WORD, coprime_frames, frame_paths


def test_oracle_invert_identity_on_strips():
    for m in (2, 3, 7):
        path = parse_path(make_frame(m, 1), "N" + "E" * m)
        assert oracle_invert_sweep(path) == path


def test_oracle_invert_golden_pair():
    path = parse_path(make_frame(*FIG_FRAME), FIG_WORD)
    assert oracle_invert_sweep(sweep(path)) == path


def test_oracle_invert_inverts_sweep():
    for frame in coprime_frames(11):
        for path in frame_paths(frame.m, frame.n):
            assert oracle_invert_sweep(sweep(path)) == path


def test_refuses_frames_above_the_path_limit():
    # (17, 9) has 120,175 paths; the table would hold them all.
    frame = make_frame(17, 9)
    path = parse_path(frame, "N" * 9 + "E" * 17)
    cached = _sweep_images.cache_info().currsize
    with pytest.raises(FrameTooLarge):
        oracle_invert_sweep(path)
    with pytest.raises(FrameTooLarge):
        area(oracle_invert_sweep(path))
    # Refused before the image table is built or cached.
    assert _sweep_images.cache_info().currsize == cached


def test_image_cache_stays_small():
    # One table near the path limit holds about 15 MB.
    maxsize = _sweep_images.cache_info().maxsize
    assert maxsize <= 4
    for frame in coprime_frames(9):
        oracle_invert_sweep(sweep(frame_paths(frame.m, frame.n)[0]))
        assert _sweep_images.cache_info().currsize <= maxsize


def test_oracle_fiber_refuses_frames_above_the_path_limit():
    # One frame up is (19, 9), with 246,675 paths.
    T_reduced = path_tableau(parse_path(make_frame(17, 8), "N" * 8 + "E" * 17))
    with pytest.raises(FrameTooLarge):
        oracle_fiber(T_reduced)


def test_enumerate_tableaux_refuses_frames_above_the_path_limit():
    # Raised by the call itself, before the first tableau is placed.
    with pytest.raises(FrameTooLarge):
        enumerate_tableaux(2, 9)


def test_enumerate_tableaux_refuses_k_0():
    # (1, 3) classifies as no Fuss frame, so no k = 0 tableau exists; the call itself
    # raises, as the row constructors do, instead of yielding tableaux of k = 0.
    with pytest.raises(ValueError, match="not the Fuss classification"):
        enumerate_tableaux(0, 3)


def test_enumerate_tableaux_refuses_rectangles_of_many_tableaux():
    # (15, 7) has 7,752 paths, but the 3 x 7 rectangle 1,385,670 standard
    # tableaux, and the search visits every one.
    assert path_count(make_frame(15, 7)) <= 100_000
    with pytest.raises(FrameTooLarge, match="1385670 standard tableaux"):
        enumerate_tableaux(2, 7)


def test_oracle_fiber_golden_seven():
    T_reduced = red(tableau_from_first_row(3, 5, (1, 2, 5, 9, 15)))
    members = oracle_fiber(T_reduced)
    assert len(members) == 7
    assert all(red(path_tableau(D)) == T_reduced for D in members)


def test_oracle_fiber_single_column():
    T = path_tableau(parse_path(make_frame(4, 1), "NEEEE"))
    assert len(oracle_fiber(T)) == 4


def test_enumerate_tableaux_counts():
    for k, n in ((1, 2), (1, 4), (2, 3), (3, 2), (4, 1)):
        count = sum(1 for _ in enumerate_tableaux(k, n))
        assert count == path_count(make_frame(k * n + 1, n))


def test_enumerate_tableaux_all_valid():
    for T in enumerate_tableaux(2, 3):
        T.validate()
