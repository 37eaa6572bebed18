import itertools
import math
import random
from array import array

import pytest

from sweepkit import (
    BelowDiagonal,
    DyckPath,
    ENWord,
    Fuss,
    NotCoprime,
    NotFuss,
    RankSequence,
    SWWord,
    WrongStepCounts,
    area,
    coarea,
    dinv,
    make_frame,
    parse_path,
    path_from_json,
    rank_complement,
    rank_sequence,
    ranks,
    sweep,
)
from sweepkit.bench import random_path
from sweepkit.core import (_JUMP, _WALK, _low_bytes, _lowest_rank_rotation, _min_rank,
                           _prefix_ranks, _rank_keys, _rank_sort, _vertex_of_rank)
from sweepkit.oracle import oracle_min_rank, oracle_vertex_of_rank
from helpers import (
    FIG_DINV,
    FIG_FRAME,
    FIG_RANK_SEQUENCE,
    FIG_RANKS,
    FIG_WORD,
    coprime_frames,
    frame_paths,
    prefix_scan,
)


def fig_path():
    return parse_path(make_frame(*FIG_FRAME), FIG_WORD)


class TestMakeFrame:
    def test_non_fuss(self):
        f = make_frame(7, 5)
        assert (f.m, f.n, f.fuss) == (7, 5, None)

    def test_height_one_prefers_plus(self):
        # n=1 forces m = k+1 with k = m-1, canonically sign +1.
        assert make_frame(3, 1).fuss == Fuss(k=2, sign=+1)
        assert make_frame(17, 1).fuss == Fuss(k=16, sign=+1)

    def test_unit_square_is_minus(self):
        assert make_frame(1, 1).fuss == Fuss(k=2, sign=-1)

    def test_plus_wins_over_minus(self):
        # (3,2) fits both 3 = 1*2+1 and 3 = 2*2-1.
        assert make_frame(3, 2).fuss == Fuss(k=1, sign=+1)

    def test_minus_only(self):
        assert make_frame(1, 2).fuss == Fuss(k=1, sign=-1)
        assert make_frame(2, 3).fuss == Fuss(k=1, sign=-1)
        assert make_frame(11, 6).fuss == Fuss(k=2, sign=-1)

    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            make_frame(6, 4)

    def test_nonpositive(self):
        with pytest.raises(ValueError):
            make_frame(0, 3)


class TestParsePath:
    def test_golden(self):
        path = fig_path()
        assert ranks(path) == FIG_RANKS
        assert rank_sequence(path).values == FIG_RANK_SEQUENCE

    def test_trivial_strip(self):
        assert parse_path(make_frame(3, 1), "NEEE").steps == "NEEE"

    def test_below_diagonal_reports_prefix(self):
        with pytest.raises(BelowDiagonal) as err:
            parse_path(make_frame(3, 2), "ENNEE")
        assert err.value.prefix == 1

    def test_wrong_counts(self):
        with pytest.raises(WrongStepCounts):
            parse_path(make_frame(3, 2), "NNNEE")
        with pytest.raises(WrongStepCounts):
            parse_path(make_frame(3, 2), "NNEE")

    def test_bad_alphabet(self):
        with pytest.raises(ValueError):
            parse_path(make_frame(3, 2), "NNXEE")

    def test_bad_alphabet_and_wrong_length(self):
        # The letter is named, not the counts, whatever the length.
        for word in ("NNXE", "NNXEEE"):
            with pytest.raises(ValueError, match=r"only contain N and E, got \['X'\]"):
                parse_path(make_frame(3, 2), word)

    def test_json_roundtrip(self):
        path = fig_path()
        assert path_from_json(path.to_json()) == path

    @pytest.mark.parametrize("text", [
        '{"m": 3.7, "n": true, "steps": "NEEE"}',
        '{"m": 3.0, "n": 1, "steps": "NEEE"}',
        '{"m": "3", "n": 1, "steps": "NEEE"}',
        '{"m": 3, "n": false, "steps": "NEEE"}',
        '{"m": 3, "n": 1, "steps": ["N", "E", "E", "E"]}',
        '{"m": 3, "n": 1}',
        '{"n": 1, "steps": "NEEE"}',
        '[3, 1, "NEEE"]',
        '"NEEE"',
        'null',
    ])
    def test_json_schema_rejected(self, text):
        with pytest.raises(ValueError):
            path_from_json(text)

    def test_accepts_exactly_the_scanned_words(self):
        # Every N/E word of full length on every small coprime frame: the
        # constructor raises what the independent prefix scan predicts,
        # with the same first offending prefix.
        for frame in coprime_frames(12):
            for letters in itertools.product("NE", repeat=frame.size):
                word = "".join(letters)
                expected = prefix_scan(frame.m, frame.n, word)
                try:
                    DyckPath(frame, word)
                    got = None
                except WrongStepCounts:
                    got = ("counts",)
                except BelowDiagonal as err:
                    got = ("below", err.prefix)
                assert got == expected, (frame, word)

    def test_direct_construction_rejects_other_letters(self):
        # Right length and N count, but a letter that is not E; G has the set bits of an N
        # and \x07 those of an E, so the letters' bit count alone would pass the last two.
        for word in ("NNEeE", "NNEXE", "NN EE", "NNEEÉ", "NNEE\ud800", "GNEEE", "NNEE\x07"):
            with pytest.raises(WrongStepCounts):
                DyckPath(make_frame(3, 2), word)

    def test_sequence_input_is_joined(self):
        assert parse_path(make_frame(3, 2), ["N", "n", "E", "e", "E"]).steps == "NNEEE"

    def test_word_constructors_reject_a_non_str(self):
        # A sequence of letters is no word to a constructor, though parse_path joins one.
        frame = make_frame(1, 2)
        for build, word in ((DyckPath, ["N", "N", "E"]), (SWWord, ("S", "S", "W")),
                            (ENWord, ["E", "N", "N"])):
            with pytest.raises(ValueError, match=f"must be a str, got {type(word).__name__}"):
                build(frame, word)
            assert build(frame, "".join(word)).frame == frame
        assert parse_path(frame, ("N", "N", "E")) == DyckPath(frame, "NNE")


class TestRanks:
    def test_small(self):
        assert ranks(parse_path(make_frame(3, 2), "NNEEE")) == (0, 3, 6, 4, 2)
        assert ranks(parse_path(make_frame(3, 1), "NEEE")) == (0, 3, 2, 1)

    def test_sorted(self):
        assert rank_sequence(parse_path(make_frame(3, 2), "NNEEE")).values == (0, 2, 3, 4, 6)
        assert rank_sequence(parse_path(make_frame(3, 1), "NEEE")).values == (0, 1, 2, 3)

    def test_rank_sequence_must_start_at_zero(self):
        with pytest.raises(ValueError) as err:
            RankSequence((1, 2))
        assert type(err.value) is ValueError and str(err.value) == "rank sequence must start at 0"

    def test_rank_sequence_must_be_a_tuple(self):
        # A list would make a frozen value that hash() refuses.
        with pytest.raises(ValueError) as err:
            RankSequence([0, 1])
        assert type(err.value) is ValueError
        assert str(err.value) == "rank sequence must be a tuple, got list"
        assert hash(RankSequence((0, 1))) == hash(RankSequence((0, 1)))

    def test_rank_sequence_indexes_its_values(self):
        rs = rank_sequence(fig_path())
        assert [rs[i] for i in range(len(rs))] == list(FIG_RANK_SEQUENCE)
        assert rs[-1] == FIG_RANK_SEQUENCE[-1] and rs[2:5] == FIG_RANK_SEQUENCE[2:5]

    def test_sorted_before_and_after_the_kept_rank_sort(self):
        # Before a sweep rank_sequence sorts the ranks, rank_complement walks them for the
        # highest and dinv sorts its own keys, each keeping nothing; after one all three
        # read the path's kept sorted keys.
        statistics = (rank_sequence, rank_complement, dinv)
        for frame in coprime_frames(12):
            for path in frame_paths(frame.m, frame.n):
                path = DyckPath(frame, path.steps)
                fresh = []
                for statistic in statistics:
                    fresh.append(statistic(path))
                    assert "_rank_words" not in vars(path)
                assert fresh[0].values == tuple(sorted(ranks(path)))
                sweep(path)
                assert "_rank_words" in vars(path)
                assert [statistic(path) for statistic in statistics] == fresh

    def test_low_bytes_are_twos_complement(self):
        keys = [0, 1, 2, 3, 255, 256, 257, -1, -2, -3, -4, -256, -257, 2**40 + 5, -(2**40) - 5,
                2**62, -(2**63)]
        assert _low_bytes(array("q", keys)) == bytes(key & 255 for key in keys)

    def test_rank_sort_spells_rotated_words_by_rank(self):
        # A rotated word starts at a vertex of positive rank, so its keys can be
        # negative; their two's-complement low bytes still carry the letters.
        negative = 0
        for frame in coprime_frames(10):
            m, n = frame.m, frame.n
            for path in frame_paths(m, n):
                for i in range(frame.size):
                    word = path.steps[i:] + path.steps[:i]
                    keys = _rank_keys(frame, word)
                    negative += min(keys) < 0
                    by_rank = sorted(zip(_prefix_ranks(m, n, word), word))
                    assert _rank_sort(keys) == "".join(ch for _, ch in by_rank)
                    assert keys == sorted(keys)  # sorted in place, for fiber_by_cutting
        assert negative > 0

    def test_distinct_nonnegative_start_zero(self):
        for frame in coprime_frames(11):
            for path in frame_paths(frame.m, frame.n):
                rs = ranks(path)
                assert rs[0] == 0
                assert min(rs) == 0
                assert len(set(rs)) == len(rs)

    def test_lowest_rank_rotation_is_the_cycle_lemma(self):
        # Every rotation of a path word rotates back to the path itself.
        for frame in coprime_frames(10):
            for path in frame_paths(frame.m, frame.n):
                word = path.steps
                for i in range(len(word)):
                    rotated = word[i:] + word[:i]
                    assert _lowest_rank_rotation(frame.m, frame.n, rotated) == word

    def test_vertex_of_rank_is_the_search(self):
        # Every start rank of every rotation, so negative ranks and multiples of n too.
        checked = 0
        for frame in coprime_frames(12):
            m, n = frame.m, frame.n
            for path in frame_paths(m, n):
                for i in range(frame.size):
                    rotated = path.steps[i:] + path.steps[:i]
                    for r in _prefix_ranks(m, n, rotated):
                        assert _vertex_of_rank(m, n, r) == oracle_vertex_of_rank(m, n, rotated, r)
                        checked += 1
        assert checked > 40_000


def _shuffled(m, n, rng):
    """A uniform word of n N's and m E's: a path or not, any rotation."""
    word = list("N" * n + "E" * m)
    rng.shuffle(word)
    return "".join(word)


class TestMinRank:
    """``_min_rank`` against the per-letter loop it replaced, ``oracle.oracle_min_rank``."""

    def test_every_word_of_the_small_frames(self):
        # Paths and non-paths alike; DyckPath refuses a non-path at the prefix the
        # independent scan names.
        below = 0
        for frame in coprime_frames(14):
            m, n = frame.m, frame.n
            for north in itertools.combinations(range(frame.size), n):
                letters = ["E"] * frame.size
                for i in north:
                    letters[i] = "N"
                word = "".join(letters)
                low = oracle_min_rank(m, n, word)
                assert _min_rank(m, n, word) == low, (frame, word)
                if low >= 0:
                    assert DyckPath(frame, word).steps == word
                    continue
                below += 1
                with pytest.raises(BelowDiagonal) as err:
                    DyckPath(frame, word)
                assert ("below", err.value.prefix) == prefix_scan(m, n, word), (frame, word)
        assert below > 16_000

    @pytest.mark.parametrize("sign", [1, -1])
    def test_long_paths_and_shuffles(self, sign):
        n = 20_000
        frame = make_frame(2 * n + sign, n)
        m, rng = frame.m, random.Random(f"min-rank:{sign}")
        for _ in range(3):
            path = random_path(frame, rng)
            assert _min_rank(m, n, path.steps) == oracle_min_rank(m, n, path.steps) == 0
            word = _shuffled(m, n, rng)
            low = oracle_min_rank(m, n, word)
            assert _min_rank(m, n, word) == low < 0
            with pytest.raises(BelowDiagonal) as err:
                DyckPath(frame, word)
            assert ("below", err.value.prefix) == prefix_scan(m, n, word)

    @pytest.mark.parametrize("m, n", [(601, 300), (599, 300), (1001, 10), (301, 300)])
    def test_words_landing_on_a_jump_boundary(self, m, n):
        # N^a E^b, then the other N's and E's: the E run is jumped to within n of the least
        # rank so far (a multiple of n away lands on it), and its end is one letter short
        # of, on, or one or two letters past the least rank 0.
        checked = 0
        for a in range(1, n + 1):
            for b in range(a * m // n - 1, a * m // n + 3):
                if 0 <= b <= m:
                    word = "N" * a + "E" * b + "N" * (n - a) + "E" * (m - b)
                    assert _min_rank(m, n, word) == oracle_min_rank(m, n, word) == min(
                        0, a * m - b * n), (a, b)
                    checked += 1
        assert checked >= 3 * n

    def test_lengths_around_the_jump_and_the_walk(self):
        # Every length from just under _JUMP to just past two walks, on a wide, a square and
        # a tall frame of each length: uniform shuffles, paths, and the word that climbs first.
        rng = random.Random("min-rank-lengths")
        for size in range(_JUMP - 1, 2 * _WALK + 2):
            for m in {size * 2 // 3, size // 2, size // 3}:
                if m < 1 or math.gcd(m, size - m) != 1:
                    continue
                n = size - m
                words = [_shuffled(m, n, rng) for _ in range(4)]
                words += [random_path(make_frame(m, n), rng).steps, "N" * n + "E" * m]
                for word in words:
                    assert _min_rank(m, n, word) == oracle_min_rank(m, n, word), (m, n, word)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_rotation_starts_at_the_reference_minimum(self, sign):
        # So random_path, the cycle lemma over a shuffle, draws the same paths as before.
        rng = random.Random(f"rotation:{sign}")
        for n in (7, 300, 20_000):
            m = 2 * n + sign
            for _ in range(3):
                word = _shuffled(m, n, rng)
                i = oracle_vertex_of_rank(m, n, word, oracle_min_rank(m, n, word))
                assert _lowest_rank_rotation(m, n, word) == word[i:] + word[:i]


class TestStatistics:
    def test_area_examples(self):
        assert area(parse_path(make_frame(3, 1), "NEEE")) == 0
        assert area(parse_path(make_frame(3, 2), "NNEEE")) == 1
        assert area(parse_path(make_frame(3, 2), "NENEE")) == 0

    def test_area_of_swept_golden(self):
        assert area(sweep(fig_path())) == 8

    def test_dinv_examples(self):
        assert dinv(fig_path()) == FIG_DINV
        assert dinv(parse_path(make_frame(3, 1), "NEEE")) == 0
        assert dinv(parse_path(make_frame(3, 2), "NENEE")) == 1

    def test_bounds(self):
        for frame in coprime_frames(11):
            m, n = frame.m, frame.n
            bound = frame.statistic_bound()
            for path in frame_paths(m, n):
                assert 0 <= area(path) <= bound
                assert 0 <= dinv(path) <= bound
                # The docstring rule, cell by cell: each cell (x, y) below the E step
                # of column x, at height h, counts iff m*y >= n*(x+1).
                cells = h = x = 0
                for ch in path.steps:
                    if ch == "N":
                        h += 1
                    else:
                        cells += sum(m * y >= n * (x + 1) for y in range(h))
                        x += 1
                assert area(path) == cells

    def test_coarea(self):
        assert coarea(parse_path(make_frame(3, 1), "NEEE")) == 0
        # k*C(n,2) - area = 1 - 1 on the (3,2) frame
        assert coarea(parse_path(make_frame(3, 2), "NNEEE")) == 0
        assert coarea(parse_path(make_frame(3, 2), "NENEE")) == 1

    def test_coarea_needs_fuss(self):
        with pytest.raises(NotFuss):
            coarea(fig_path())

    def test_coarea_counts_cells_above(self):
        # coarea equals the number of whole cells above the path.
        for frame in coprime_frames(10):
            if frame.fuss is None:
                continue
            for path in frame_paths(frame.m, frame.n):
                above = 0
                x = 0
                for ch in path.steps:
                    if ch == "N":
                        above += x
                    else:
                        x += 1
                assert coarea(path) == above


class TestRankComplement:
    def test_involution_and_dinv(self):
        for frame in coprime_frames(14):
            for path in frame_paths(frame.m, frame.n):
                comp = rank_complement(path)
                assert rank_complement(comp) == path
                assert dinv(comp) == dinv(path)

    def test_cut_is_the_vertex_of_highest_rank(self):
        # The cut found from the highest rank alone is the index of that rank; a word
        # of coprime letter counts has no two equal rotations, so the images tell.
        frames = coprime_frames(14)
        assert {1, 2} <= {frame.n for frame in frames}
        for frame in frames:
            for path in frame_paths(frame.m, frame.n):
                rs, steps = ranks(path), path.steps
                i = rs.index(max(rs))
                assert rank_complement(path).steps == (steps[i:] + steps[:i])[::-1]

    def test_small_frame_fixed_points(self):
        # Both (3,2) paths are self-complementary.
        for word in ("NNEEE", "NENEE"):
            path = parse_path(make_frame(3, 2), word)
            assert rank_complement(path) == path


class TestEnumerate:
    def test_small_sets(self):
        assert {p.steps for p in frame_paths(3, 2)} == {"NNEEE", "NENEE"}
        assert {p.steps for p in frame_paths(3, 1)} == {"NEEE"}

    def test_lexicographic_with_n_first(self):
        words = [p.steps for p in frame_paths(5, 3)]
        key = [w.replace("N", "0").replace("E", "1") for w in words]
        assert key == sorted(key)

    def test_counts(self):
        for frame in coprime_frames(16):
            count = math.comb(frame.size, frame.m) // frame.size
            assert len(frame_paths(frame.m, frame.n)) == count

    def test_seventy_five(self):
        assert len(frame_paths(7, 5)) == 66

    def test_equals_sorted_prefix_scan_accepts(self):
        # Paths are built unchecked; the independent prefix scan must accept
        # exactly them, in lexicographic order with N < E.
        for frame in coprime_frames(14):
            m, n = frame.m, frame.n
            words = ("".join("N" if i in north else "E" for i in range(m + n))
                     for north in map(set, itertools.combinations(range(m + n), n)))
            accepted = sorted((w for w in words if prefix_scan(m, n, w) is None),
                              key=lambda w: w.replace("N", "0").replace("E", "1"))
            assert [p.steps for p in frame_paths(m, n)] == accepted, (m, n)
