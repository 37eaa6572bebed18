"""Property-based checks complementing the exhaustive small-frame suites."""

import math
import random

from hypothesis import given, settings, strategies as st

from sweepkit import (
    BelowDiagonal,
    WrongStepCounts,
    area,
    bipartite_invert,
    dinv,
    en_word,
    invert_fuss,
    make_frame,
    parse_path,
    path_tableau,
    rank_complement,
    sw_word,
    sweep,
    walk,
)
from sweepkit.bench import random_path
from helpers import coprime_frames, frame_paths, prefix_scan

SMALL_FRAMES = [f for f in coprime_frames(12)]
FUSS_SMALL = [f for f in SMALL_FRAMES if f.fuss is not None]


def _lower_corner_valid(m, n, word):
    """Prefix check restricted to E-before-N corners (plus the full word)."""
    b = a = 0
    for i, ch in enumerate(word):
        if ch == "N":
            b += 1
        else:
            a += 1
            if i + 1 < len(word) and word[i + 1] == "N" and b * m - a * n < 0:
                return False
    return b * m - a * n >= 0


@st.composite
def frame_and_word(draw):
    frame = draw(st.sampled_from(SMALL_FRAMES))
    letters = draw(
        st.lists(st.sampled_from("NE"), min_size=frame.size, max_size=frame.size)
    )
    return frame, "".join(letters)


@st.composite
def frame_and_path(draw):
    frame = draw(st.sampled_from(SMALL_FRAMES))
    paths = frame_paths(frame.m, frame.n)
    return draw(st.sampled_from(list(paths)))


@st.composite
def fuss_path(draw):
    frame = draw(st.sampled_from(FUSS_SMALL))
    paths = frame_paths(frame.m, frame.n)
    return draw(st.sampled_from(list(paths)))


@given(frame_and_word())
def test_parse_accepts_iff_prefixes_stay_above(case):
    frame, word = case
    verdict = prefix_scan(frame.m, frame.n, word)
    try:
        parse_path(frame, word)
        accepted = True
    except (BelowDiagonal, WrongStepCounts):
        accepted = False
    assert accepted == (verdict is None)
    if verdict != ("counts",):
        # Lower-corner prefixes alone decide validity.
        assert (verdict is None) == _lower_corner_valid(frame.m, frame.n, word)


@given(frame_and_path())
def test_transport_and_words(path):
    assert area(sweep(path)) == dinv(path)
    back, rs = bipartite_invert(sw_word(path), en_word(path))
    assert back == path


@given(frame_and_path())
def test_complement_involution(path):
    comp = rank_complement(path)
    assert rank_complement(comp) == path
    assert dinv(comp) == dinv(path)


@given(fuss_path())
def test_inversion_round_trip_small(path):
    assert sweep(invert_fuss(path)) == path
    assert invert_fuss(sweep(path)) == path


@given(fuss_path())
def test_walk_is_a_permutation(path):
    order = walk(path_tableau(path)).order
    assert sorted(order) == list(range(1, path.frame.size + 1))


@settings(max_examples=25, deadline=None)
@given(
    k=st.integers(min_value=1, max_value=6),
    n=st.integers(min_value=1, max_value=60),
    sign=st.sampled_from([+1, -1]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_inversion_round_trip_random_large(k, n, sign, seed):
    m = k * n + sign
    if m < 1 or math.gcd(m, n) != 1:
        return
    frame = make_frame(m, n)
    path = random_path(frame, random.Random(seed))
    assert sweep(invert_fuss(path)) == path


@given(
    k=st.integers(min_value=1, max_value=8),
    n=st.integers(min_value=2, max_value=12),
)
def test_diagonal_embedding_monotone(k, n):
    # Short of the far corner (m',n'), whose rank 0 becomes -1 upstairs.
    m, n_ = k * n + 1, n - 1
    m_ = k * n_ + 1
    for a in range(m_ + 1):
        for b in range(n_ + 1):
            if a + b < m_ + n_ and b * m_ - a * n_ >= 0:
                assert b * m - a * n >= 0
