import random

import pytest

from sweepkit import (
    FussTableau,
    NotFuss,
    RankNotPresent,
    RankTooLarge,
    SWWord,
    TooNarrow,
    area,
    area_from_bottom_row,
    coarea,
    coarea_from_top_row,
    cobounce,
    cut_and_lift,
    fiber_by_bottom_rows,
    fiber_by_cutting,
    fiber_count,
    fill_tableau,
    invert_fuss,
    make_frame,
    parse_path,
    path_tableau,
    psi,
    ranks,
    red,
    reduced_path_of,
    reduced_walk,
    sweep,
    tableau_from_first_row,
    tableau_to_sw,
)
from sweepkit.bench import random_path
from sweepkit.oracle import (enumerate_tableaux, oracle_fiber, oracle_fiber_by_cutting,
                             oracle_red, oracle_vertex_of_rank)
from helpers import (
    BIG_FIRST_ROW,
    BIG_PSI_OF_REDUCED_ROWS,
    BIG_REDUCED_ROWS,
    BIG_ROWS,
    K3N4_REDUCED_ROWS,
    K3N4_ROWS,
    K3N4_SW,
    frame_paths,
    fuss_frames,
)


def big_tableau():
    return tableau_from_first_row(3, 5, BIG_FIRST_ROW)


def big_reduced():
    return red(big_tableau())


class TestRed:
    def test_big_golden(self):
        T = big_tableau()
        assert T.rows == BIG_ROWS
        assert red(T).rows == BIG_REDUCED_ROWS

    def test_k3n4_golden(self):
        T = fill_tableau(SWWord(make_frame(13, 4), K3N4_SW))
        assert T.rows == K3N4_ROWS
        assert red(T).rows == K3N4_REDUCED_ROWS

    def test_two_columns_reduce_to_single(self):
        for path in frame_paths(5, 2):
            T = red(path_tableau(path))
            assert T.rows == ((1,), (2,), (3,))

    def test_agrees_with_the_bisection_oracle(self):
        # Every valid sign +1 tableau of criterion 4's frames, m+n <= 18.
        for frame in fuss_frames(18, sign=+1):
            if frame.n < 2:
                continue
            for T in enumerate_tableaux(frame.fuss.k, frame.n):
                assert red(T) == oracle_red(T), T

    @pytest.mark.parametrize("rows", [((1, 3), (2, 9)), ((1, 0), (2, 4)), ((3, 2), (1, 4))],
                             ids=[f"columns{i}" for i in range(3)])
    def test_rejects_labels_it_cannot_renumber(self, rows):
        # red never sees these labels: the constructor refuses the tableau.
        with pytest.raises(ValueError):
            red(FussTableau(k=1, n=2, sign=1, rows=rows))

    def test_too_narrow(self):
        T = path_tableau(parse_path(make_frame(4, 1), "NEEEE"))
        with pytest.raises(TooNarrow):
            red(T)

    def test_geometric_description(self):
        # red on tableaux = strip, rotate at the lowest rank, sweep.
        for frame in fuss_frames(13, sign=+1):
            if frame.n < 2:
                continue
            for path in frame_paths(frame.m, frame.n):
                reduced = reduced_path_of(path)
                assert parse_path(reduced.frame, reduced.steps) == reduced
                assert red(path_tableau(path)) == path_tableau(reduced)


class TestRefusals:
    # Each pins the exception class itself and its whole message.
    @pytest.mark.parametrize("op", [red, psi, reduced_walk, fiber_count, fiber_by_bottom_rows,
                                    fiber_by_cutting, coarea_from_top_row, area_from_bottom_row],
                             ids=lambda op: op.__name__)
    def test_sign_minus_tableau(self, op):
        T = path_tableau(parse_path(make_frame(5, 3), "NNENEEEE"))  # 5 = 2*3 - 1
        assert T.sign == -1
        with pytest.raises(ValueError) as err:
            op(T)
        assert type(err.value) is ValueError
        assert str(err.value) == f"{op.__name__} is defined for sign +1 tableaux only"

    def test_reduced_walk_of_one_column(self):
        with pytest.raises(ValueError) as err:
            reduced_walk(path_tableau(parse_path(make_frame(4, 1), "NEEEE")))
        assert type(err.value) is ValueError
        assert str(err.value) == "reduced walk needs at least two columns"

    @pytest.mark.parametrize("m, n, word, error, message", [
        (5, 3, "NNENEEEE", NotFuss, "reduction needs an m = kn+1 frame"),
        (4, 1, "NEEEE", TooNarrow, "cannot reduce a single-row frame"),
    ], ids=["sign-minus", "one-row"])
    def test_reduced_path_of(self, m, n, word, error, message):
        with pytest.raises(error) as err:
            reduced_path_of(parse_path(make_frame(m, n), word))
        assert type(err.value) is error and str(err.value) == message


class TestPsi:
    def test_lives_in_fuss_and_is_re_exported(self):
        import sweepkit
        import sweepkit.fuss

        assert sweepkit.psi is sweepkit.fuss.psi

    def test_golden(self):
        assert psi(big_reduced()).rows == BIG_PSI_OF_REDUCED_ROWS

    def test_first_row_is_complemented_bottom_row(self):
        for frame in fuss_frames(12, sign=+1):
            total = (frame.fuss.k + 1) * frame.n
            for path in frame_paths(frame.m, frame.n):
                T = path_tableau(path)
                expected = tuple(total + 1 - b for b in reversed(T.bottom_row()))
                assert psi(T).first_row() == expected

    def test_involution_and_membership(self):
        for frame in fuss_frames(12, sign=+1):
            for path in frame_paths(frame.m, frame.n):
                T = path_tableau(path)
                image = psi(T)
                image.validate()
                assert psi(image) == T


class TestFiberCount:
    def test_golden_seven(self):
        assert fiber_count(big_reduced()) == 7

    def test_single_column(self):
        T = path_tableau(parse_path(make_frame(4, 1), "NEEEE"))
        assert fiber_count(T) == 4

    def test_matches_enumeration(self):
        # Group the next frame's paths by their reduced tableau; group sizes
        # must equal the column-1 foot of each reduced tableau.
        for frame in fuss_frames(11, sign=+1):
            k, n = frame.fuss.k, frame.n
            groups = {}
            for D in frame_paths(k * (n + 1) + 1, n + 1):
                key = red(path_tableau(D)).rows
                groups[key] = groups.get(key, 0) + 1
            for path in frame_paths(frame.m, frame.n):
                T = path_tableau(path)
                assert groups[T.rows] == fiber_count(T)
            assert sum(groups.values()) == len(frame_paths(k * (n + 1) + 1, n + 1))


class TestFiberSolutions:
    def test_bottom_rows_golden(self):
        members = fiber_by_bottom_rows(big_reduced())
        assert [T.bottom_row()[0] for T in members] == [4, 5, 6, 7, 8, 9, 10]
        assert all(T.bottom_row()[1:] == (11, 14, 18, 20) for T in members)
        by_b1 = {T.bottom_row()[0]: T for T in members}
        assert by_b1[10].rows == BIG_ROWS
        assert area_from_bottom_row(by_b1[8]) == 11

    def test_cutting_golden(self):
        members = fiber_by_cutting(big_reduced())
        assert len(members) == 7
        assert {path_tableau(D).rows for D in members} == {
            T.rows for T in fiber_by_bottom_rows(big_reduced())
        }

    def test_matches_oracle(self):
        expected = {D.steps for D in oracle_fiber(big_reduced())}
        assert {D.steps for D in fiber_by_cutting(big_reduced())} == expected

    def test_single_column_fiber(self):
        T = path_tableau(parse_path(make_frame(4, 1), "NEEEE"))
        assert len(fiber_by_cutting(T)) == 4
        assert len(fiber_by_bottom_rows(T)) == 4

    def test_solutions_coincide_exhaustively(self):
        for frame in fuss_frames(10, sign=+1):
            for path in frame_paths(frame.m, frame.n):
                T = path_tableau(path)
                by_cut = {path_tableau(D).rows for D in fiber_by_cutting(T)}
                by_rows = {M.rows for M in fiber_by_bottom_rows(T)}
                assert by_cut == by_rows
                assert len(by_cut) == fiber_count(T)
                for D in fiber_by_cutting(T):
                    assert red(path_tableau(D)) == T

    def test_one_sort_matches_the_cut_by_cut_reference(self):
        # The same members in the same order, lifted and swept cut by cut.
        tableaux = [path_tableau(D) for f in fuss_frames(17, sign=+1)
                    for D in frame_paths(f.m, f.n)]
        frame = make_frame(1001, 500)
        tableaux += [path_tableau(random_path(frame, random.Random(seed))) for seed in range(4)]
        for T in tableaux:
            assert fiber_by_cutting(T) == oracle_fiber_by_cutting(T), T.rows

    def test_bottom_rows_differ_only_in_first_entry(self):
        members = fiber_by_bottom_rows(big_reduced())
        tails = {T.bottom_row()[1:] for T in members}
        assert len(tails) == 1


class TestCutAndLift:
    def test_rank_zero_is_wrap(self):
        T = big_reduced()
        pre = invert_fuss(tableau_to_sw(T).as_path())
        k = pre.frame.fuss.k
        lifted = cut_and_lift(pre, 0)
        assert lifted.steps == "N" + pre.steps + "E" * k

    def test_missing_rank(self):
        T = big_reduced()
        pre = invert_fuss(tableau_to_sw(T).as_path())
        missing = next(r for r in range(pre.frame.m) if r not in ranks(pre))
        with pytest.raises(RankNotPresent):
            cut_and_lift(pre, missing)

    def test_rank_too_large(self):
        T = big_reduced()
        pre = invert_fuss(tableau_to_sw(T).as_path())
        with pytest.raises(RankTooLarge):
            cut_and_lift(pre, pre.frame.m)

    def test_needs_plus_frame(self):
        with pytest.raises(NotFuss):
            cut_and_lift(parse_path(make_frame(2, 3), "NNENE"), 0)

    def test_every_rank_against_the_search(self):
        # Ranks below, among and above the start ranks: a lift where the search finds the
        # rank under m, RankNotPresent where it finds none, RankTooLarge from m up.
        for frame in fuss_frames(14, sign=+1):
            m, n, k = frame.m, frame.n, frame.fuss.k
            for pre in frame_paths(m, n):
                steps = pre.steps
                for r in range(-(m + n), m + (m + n)):
                    if r >= m:
                        with pytest.raises(RankTooLarge):
                            cut_and_lift(pre, r)
                        continue
                    try:
                        i = oracle_vertex_of_rank(m, n, steps, r)
                    except ValueError:
                        with pytest.raises(RankNotPresent):
                            cut_and_lift(pre, r)
                        continue
                    lifted = cut_and_lift(pre, r)
                    assert lifted.steps == "N" + steps[i:] + steps[:i] + "E" * k

    def test_circled_ranks_golden(self):
        # 7 vertex ranks of the reduced preimage lie below m' = 13.
        pre = invert_fuss(tableau_to_sw(big_reduced()).as_path())
        assert sum(1 for r in ranks(pre) if r < 13) == 7

    def test_cobounce_shift(self):
        for frame in fuss_frames(13, sign=+1):
            for path in frame_paths(frame.m, frame.n):
                pre = invert_fuss(path)
                base = cobounce(path)
                for r in ranks(pre):
                    if r >= frame.m:
                        continue
                    lifted = sweep(cut_and_lift(pre, r))
                    assert cobounce(lifted) == base + r


class TestRowSumFormulas:
    def test_golden_instances(self):
        T = big_reduced()
        reduced_path = tableau_to_sw(T).as_path()
        assert area_from_bottom_row(T) == 7 == area(reduced_path)
        assert cobounce(reduced_path) == 11

    def test_cobounce_twenty(self):
        pre = invert_fuss(tableau_to_sw(big_reduced()).as_path())
        lifted = sweep(cut_and_lift(pre, 9))
        assert area(lifted) == 11
        assert cobounce(lifted) == 20

    def test_area_shift_via_first_bottom_entry(self):
        # area grows by b1 - (k+1) from the reduced path's area.
        T = big_reduced()
        base = area_from_bottom_row(T)
        for member in fiber_by_bottom_rows(T):
            shift = member.bottom_row()[0] - (member.k + 1)
            assert area_from_bottom_row(member) == base + shift

    def test_exhaustive_agreement(self):
        for frame in fuss_frames(14, sign=+1):
            for path in frame_paths(frame.m, frame.n):
                T = path_tableau(path)
                assert area_from_bottom_row(T) == area(path)
                assert coarea_from_top_row(T) == coarea(path)

    def test_strip_area_zero(self):
        T = path_tableau(parse_path(make_frame(4, 1), "NEEEE"))
        assert area_from_bottom_row(T) == 0
