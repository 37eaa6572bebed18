import copy
import dataclasses
import itertools
import json
import pickle

import pytest

import sweepkit.fuss

from sweepkit import (
    DyckPath,
    FussTableau,
    NotFuss,
    NotSingleCycle,
    RowConstraintViolated,
    SWWord,
    bold_set,
    en_from_tableau,
    fiber_by_bottom_rows,
    en_word,
    enumerate_paths,
    fill_tableau,
    invert_fuss,
    make_frame,
    parse_path,
    path_tableau,
    psi,
    ranks,
    red,
    reduced_walk,
    steps_to_sw,
    sw_word,
    tableau_from_bottom_row,
    tableau_from_first_row,
    tableau_rank_labels,
    tableau_to_sw,
    walk,
)
from sweepkit.core import Fuss
from sweepkit.oracle import _walk_order, oracle_validate
from sweepkit.suites import fuss_inversion, reference_columns, tableau_walk
from helpers import (
    K3N4_PREIMAGE_SW,
    K3N4_REDUCED_WALK,
    K3N4_ROWS,
    K3N4_SW,
    K3N4_WALK,
    K4N3_COLUMNS,
    K4N3_N_POSITIONS,
    K4N3_SW,
    fuss_frames,
    frame_paths,
)


def k3n4_tableau() -> FussTableau:
    return fill_tableau(SWWord(make_frame(13, 4), K3N4_SW))


def k4n3_tableau() -> FussTableau:
    return fill_tableau(SWWord(make_frame(13, 3), K4N3_SW))


class TestFill:
    def test_k4n3_columns(self):
        assert k4n3_tableau().columns == K4N3_COLUMNS

    def test_k3n4_rows(self):
        assert k3n4_tableau().rows == K3N4_ROWS

    def test_single_column(self):
        T = fill_tableau(SWWord(make_frame(4, 1), "SWWWW"))
        assert T.columns == ((1, 2, 3, 4),)

    def test_matches_per_column_reference(self):
        # The label-indexed fill (rows by depth) against the per-column
        # list filling, for both entry points, every path, both signs.
        for frame in fuss_frames(14):
            for path in frame_paths(frame.m, frame.n):
                word = sw_word(path)
                expected = reference_columns(word.as_path())
                assert fill_tableau(word).completed_columns() == expected
                assert path_tableau(path).completed_columns() == reference_columns(path)


class TestTableauToSw:
    def test_k3n4_first_row(self):
        assert tableau_to_sw(k3n4_tableau()).letters == K3N4_SW

    def test_single_column(self):
        T = fill_tableau(SWWord(make_frame(4, 1), "SWWWW"))
        assert tableau_to_sw(T).letters == "SWWWW"

    @pytest.mark.parametrize("columns, label", [(((1, 2), (9, 4)), 9), (((1, 2), (0, 4)), 0),
                                                (((-3, 2), (3, 4)), -3)])
    def test_names_a_first_row_label_outside_the_word(self, columns, label):
        with pytest.raises(ValueError, match=f"first-row label {label} "):
            FussTableau.from_columns(k=1, n=2, sign=1, columns=columns)


class TestEnExtraction:
    def test_k4n3_positions(self):
        letters = en_from_tableau(k4n3_tableau()).letters
        positions = tuple(i + 1 for i, ch in enumerate(letters) if ch == "N")
        assert positions == K4N3_N_POSITIONS

    def test_single_column_last_position(self):
        T = fill_tableau(SWWord(make_frame(4, 1), "SWWWW"))
        assert en_from_tableau(T).letters == "EEEEN"

    def test_matches_en_word_of_preimage(self):
        # Building from sw_word(D) must yield en_word(D), both signs.
        for frame in fuss_frames(13):
            for path in frame_paths(frame.m, frame.n):
                T = fill_tableau(sw_word(path))
                assert en_from_tableau(T) == en_word(path)


class TestBoldSet:
    def test_k3n4(self):
        assert bold_set(k3n4_tableau()) == {8, 12, 16, 17}

    def test_k4n3(self):
        assert bold_set(k4n3_tableau()) == {7, 12, 16}

    def test_single_column_virtual_only(self):
        T = fill_tableau(SWWord(make_frame(4, 1), "SWWWW"))
        assert bold_set(T) == {5}


class TestWalk:
    def test_golden_cycle(self):
        assert walk(k3n4_tableau()).order == K3N4_WALK

    def test_reduced_golden_cycle(self):
        assert reduced_walk(k3n4_tableau()) == K3N4_REDUCED_WALK

    def test_single_column_descends(self):
        T = fill_tableau(SWWord(make_frame(4, 1), "SWWWW"))
        assert walk(T).order == (1, 5, 4, 3, 2)

    def test_column_segment_and_splice(self):
        # The full walk contains the descending column-1 segment; splicing
        # it out (with the wrap edge) gives the column-deleted walk, whose
        # length is shorter by k+1.
        for frame in fuss_frames(13, sign=+1):
            if frame.n < 2:
                continue
            k = frame.fuss.k
            for path in frame_paths(frame.m, frame.n):
                T = path_tableau(path)
                col1 = T.columns[0]
                full = list(walk(T).order)
                reduced = list(reduced_walk(T))
                assert len(full) == len(reduced) + k + 1
                # The descending column-1 segment is contiguous in the cycle
                # (possibly wrapping past the list end back to label 1).
                segment = list(col1[::-1])  # c_{k+1} -> ... -> c_1
                doubled = full + full
                start = full.index(segment[0])
                assert doubled[start : start + k + 1] == segment
                # Dropping column 1 preserves the cyclic order of the rest.
                spliced = [label for label in full if label not in set(col1)]
                at = spliced.index(reduced[0])
                assert spliced[at:] + spliced[:at] == reduced

    def test_matches_reference_column_walk_both_signs(self):
        frames = fuss_frames(14)
        checked, counterexample = tableau_walk(frames)
        assert counterexample is None, str(counterexample)
        assert checked == sum(len(frame_paths(f.m, f.n)) for f in frames)

    def test_reduced_matches_reference_column_walk(self):
        for frame in fuss_frames(14, sign=+1):
            if frame.n < 2:
                continue
            for path in frame_paths(frame.m, frame.n):
                expected = tuple(_walk_order(reference_columns(path)[1:], +1))
                assert reduced_walk(path_tableau(path)) == expected, (frame, path.steps)


class TestRankLabels:
    def test_strictly_increasing(self):
        for frame in fuss_frames(13):
            for path in frame_paths(frame.m, frame.n):
                labels = tableau_rank_labels(path_tableau(path))
                values = [labels[i] for i in range(1, frame.size + 1)]
                assert values[0] == 0
                assert all(a < b for a, b in zip(values, values[1:]))

    def test_single_column_values(self):
        T = fill_tableau(SWWord(make_frame(4, 1), "SWWWW"))
        assert tableau_rank_labels(T) == {1: 0, 2: 1, 3: 2, 4: 3, 5: 4}

    def test_ranks_are_the_preimage_ranks(self):
        for frame in fuss_frames(12):
            for path in frame_paths(frame.m, frame.n):
                labels = tableau_rank_labels(path_tableau(path))
                expected = sorted(ranks(invert_fuss(path)))
                assert [labels[i] for i in range(1, frame.size + 1)] == expected


class TestInvertFuss:
    def test_k3n4_golden(self):
        path = SWWord(make_frame(13, 4), K3N4_SW).as_path()
        assert steps_to_sw(invert_fuss(path).steps) == K3N4_PREIMAGE_SW

    def test_strip_fixed_point(self):
        path = parse_path(make_frame(4, 1), "NEEEE")
        assert invert_fuss(path) == path

    def test_not_fuss(self):
        with pytest.raises(NotFuss):
            invert_fuss(parse_path(make_frame(7, 5), "N" * 5 + "E" * 7))

    def test_matches_oracle_both_signs(self):
        frames = fuss_frames(14)
        checked, counterexample = fuss_inversion(frames)
        assert counterexample is None, str(counterexample)
        assert checked == sum(len(frame_paths(f.m, f.n)) for f in frames)

    def test_walks_that_do_not_close_raise(self, monkeypatch):
        # No path fills such arrays: the vertical links are lost, so after its first turn
        # the walk stays on the empty label 0 and never comes back to 1.
        path = SWWord(make_frame(13, 4), K3N4_SW).as_path()
        up, tops, feet = sweepkit.fuss._fill(path.steps, 3, +1)
        broken = [0] * len(up)
        walked = broken[:]
        bold = sweepkit.fuss._turns(walked, tops, feet, 17, +1)
        with pytest.raises(NotSingleCycle, match="does not close"):
            sweepkit.fuss._cycle(walked, bold, 17, +1)
        monkeypatch.setattr(sweepkit.fuss, "_fill", lambda *args: (broken, tops, feet))
        with pytest.raises(NotSingleCycle, match="does not close"):
            sweepkit.fuss._preimage(path)


class TestRowConstructors:
    def test_first_row_golden(self):
        assert tableau_from_first_row(3, 4, (1, 3, 6, 9)).rows == K3N4_ROWS

    def test_first_row_small(self):
        assert tableau_from_first_row(1, 2, (1, 3)).rows == ((1, 3), (2, 4))

    def test_bottom_row_small(self):
        T = tableau_from_bottom_row(1, 2, (2, 4))
        assert T.rows == ((1, 3), (2, 4))

    def test_bottom_row_golden(self):
        T = tableau_from_bottom_row(3, 4, (7, 10, 14, 16))
        assert T.rows == (
            (1, 3, 6, 11),
            (2, 5, 9, 13),
            (4, 8, 12, 15),
            (7, 10, 14, 16),
        )

    def test_first_row_violations(self):
        with pytest.raises(RowConstraintViolated) as err:
            tableau_from_first_row(3, 4, (1, 3, 6, 14))
        assert err.value.index == 4
        with pytest.raises(RowConstraintViolated):
            tableau_from_first_row(3, 4, (2, 3, 6, 9))

    def test_bottom_row_violations(self):
        with pytest.raises(RowConstraintViolated) as err:
            tableau_from_bottom_row(3, 4, (3, 10, 14, 16))
        assert err.value.index == 1
        with pytest.raises(RowConstraintViolated):
            tableau_from_bottom_row(3, 4, (7, 10, 14, 15))

    @pytest.mark.parametrize("build, k, row, match", [
        (tableau_from_first_row, 1, (1, 2.9), "integers"),
        (tableau_from_first_row, 1, ("1", "3"), "integers"),
        (tableau_from_first_row, 1, (True, 3), "integers"),
        (tableau_from_bottom_row, 1, (2.5, 4), "integers"),
        # (0 * 2 + 1, 2) = (1, 2) classifies as k = 1, sign -1.
        (tableau_from_first_row, 0, (1, 2), "not the Fuss classification"),
        (tableau_from_bottom_row, 0, (1, 2), "not the Fuss classification"),
    ], ids=["first-float", "first-str", "first-bool", "bottom-float", "first-k0", "bottom-k0"])
    def test_rejects_bad_input(self, build, k, row, match):
        with pytest.raises(ValueError, match=match):
            build(k, 2, row)

    @pytest.mark.parametrize("build, name, row", [
        (tableau_from_first_row, "first", (1, 3, 6)),
        (tableau_from_first_row, "first", (1, 3, 6, 9, 12)),
        (tableau_from_bottom_row, "bottom", (10, 14, 16)),
        (tableau_from_bottom_row, "bottom", (7, 10, 14, 15, 16)),
    ], ids=["first-short", "first-long", "bottom-short", "bottom-long"])
    def test_rejects_a_row_of_the_wrong_length(self, build, name, row):
        with pytest.raises(ValueError) as err:
            build(3, 4, row)
        assert type(err.value) is ValueError
        assert str(err.value) == f"expected 4 {name}-row entries, got {len(row)}"

    def test_reconstruct_every_tableau(self):
        for frame in fuss_frames(12, sign=+1):
            k, n = frame.fuss.k, frame.n
            by_first, by_bottom = {}, {}
            for path in frame_paths(frame.m, frame.n):
                T = path_tableau(path)
                assert tableau_from_first_row(k, n, T.first_row()) == T
                assert tableau_from_bottom_row(k, n, T.bottom_row()) == T
                by_first[T.first_row()], by_bottom[T.bottom_row()] = T, T
            # Every strictly increasing row over 1 .. (k+1)n that starts at 1 (first
            # rows) or ends at (k+1)n (bottom rows): accepted iff a path fills it.
            total = (k + 1) * n
            candidates = [
                (tableau_from_first_row, by_first,
                 [(1, *rest) for rest in itertools.combinations(range(2, total + 1), n - 1)]),
                (tableau_from_bottom_row, by_bottom,
                 [(*rest, total) for rest in itertools.combinations(range(1, total), n - 1)]),
            ]
            for build, tableaux, rows in candidates:
                for row in rows:
                    if row not in tableaux:
                        with pytest.raises(RowConstraintViolated):
                            build(k, n, row)
                        continue
                    U = build(k, n, row)
                    assert U == tableaux[row]
                    assert FussTableau.from_columns(k=U.k, n=U.n, sign=U.sign, columns=U.columns) == U


class TestEmbeddingMonotonicity:
    def test_rank_positivity_transfers(self):
        # A point weakly above the (m',n') diagonal stays weakly above the
        # (m,n) diagonal when m = kn+1, m' = k(n-1)+1, short of the far
        # corner (m',n') itself (whose rank 0 drops to -1 upstairs).
        for k in range(1, 5):
            for n in range(2, 6):
                m, n_ = k * n + 1, n - 1
                m_ = k * n_ + 1
                for a in range(m_ + 1):
                    for b in range(n_ + 1):
                        if a + b < m_ + n_ and b * m_ - a * n_ >= 0:
                            assert b * m - a * n >= 0


def increasing_fillings(k, n, sign):
    """Every filling of n non-empty columns of height <= k+1 by 1 .. m+n-1
    that increases down each column and rightwards along each row."""
    total = (k + 1) * n + sign - 1
    for shape in itertools.product(range(1, k + 2), repeat=n):
        if sum(shape) != total:
            continue
        heights = [0] * n
        columns = [[] for _ in range(n)]

        def place(label):
            if label > total:
                yield tuple(tuple(c) for c in columns)
                return
            for j in range(n):
                h = heights[j]
                if h == shape[j]:
                    continue
                if j > 0 and shape[j - 1] > h and heights[j - 1] <= h:
                    continue  # the left neighbour must come first
                if j + 1 < n and heights[j + 1] > h:
                    continue  # the right neighbour may not come first
                columns[j].append(label)
                heights[j] += 1
                yield from place(label + 1)
                heights[j] -= 1
                columns[j].pop()

        yield from place(1)


class TestValidate:
    @pytest.mark.parametrize("sign", [+1, -1])
    def test_accepts_exactly_the_path_images(self, sign):
        for k in (1, 2, 3):
            for n in (1, 2, 3, 4):
                if k * n + sign < 1:
                    continue
                frame = make_frame(k * n + sign, n)
                # For n <= 2 a sign -1 frame may classify as (k - 1, +1): no (k, -1) images.
                images = {path_tableau(D).columns for D in enumerate_paths(frame)
                          if frame.fuss == Fuss(k, sign)}
                accepted = set()
                for columns in increasing_fillings(k, n, sign):
                    try:
                        FussTableau.from_columns(k=k, n=n, sign=sign, columns=columns).validate()
                    except ValueError:
                        continue
                    accepted.add(columns)
                assert accepted == images, (k, n, sign)

    @pytest.mark.parametrize("sign", [+1, -1])
    def test_agrees_with_the_round_trip_oracle(self, sign):
        def accepts(check, *fields):
            try:
                check(*fields)
            except ValueError:
                return False
            return True

        for k in (1, 2, 3):
            for n in (1, 2, 3, 4):
                if k * n + sign < 1:
                    continue
                for columns in increasing_fillings(k, n, sign):
                    fields = (k, n, sign, columns)
                    assert accepts(FussTableau.from_columns, *fields) == accepts(oracle_validate, *fields), fields

    def test_rejects_a_sign_the_frame_does_not_classify(self):
        # (3, 2) classifies as k = 1, sign +1.  Read as k = 2, sign -1 these rows
        # walk to NENEE, but they are the filling of the path NENEE, whose preimage is NNEEE.
        text = '{"k": 2, "n": 2, "sign": -1, "rows": [[1, 3], [2, 4]]}'
        with pytest.raises(ValueError, match="classification"):
            FussTableau.from_json(text)
        with pytest.raises(ValueError, match="classification"):
            oracle_validate(2, 2, -1, ((1, 2), (3, 4)))
        assert invert_fuss(parse_path(make_frame(3, 2), "NENEE")).steps == "NNEEE"
        FussTableau.from_json('{"k": 1, "n": 2, "sign": 1, "rows": [[1, 3], [2, 4]]}')

    def test_rejects_minus_filling_of_no_path(self):
        # Rows [[1, 3, 4], [2]] satisfy the strip conditions but encode no path.
        with pytest.raises(ValueError, match="encodes no path"):
            FussTableau.from_columns(k=1, n=3, sign=-1, columns=((1, 2), (3,), (4,)))

    @pytest.mark.parametrize(
        "columns",
        # The last three put a first-row label past m+n = 5, at 0, and at -10 (no wrap-around).
        [((1, 2, 3, 4), ()), ((1, 2),), ((1, 2), (3, 3)), ((2, 1), (3, 4)), ((1, 2), (9, 4)),
         ((0, 1), (2, 3)), ((-10, 2), (3, 4))],
    )
    def test_rejects_bad_shape_or_labels(self, columns):
        with pytest.raises(ValueError):
            FussTableau.from_columns(k=1, n=2, sign=1, columns=columns).validate()

    @pytest.mark.parametrize("n, sign, columns", [
        # Legal shapes that no path fills: a foot past the grid, rows crossed, and a
        # column 1 that decreases.
        (2, 1, ((1, 2), (3, 9))), (2, 1, ((1, 4), (2, 3))), (2, 1, ((2, 1), (3, 4))),
        # Feet outside the completed grid; sign -1 completes them with 5 and 6.
        (2, 1, ((1, 2), (3, 0))), (2, 1, ((1, -4), (3, 4))),
        (3, -1, ((1, 1), (3,), (4,))), (3, -1, ((1, 7), (3,), (4,))),
        # An entry below 1, and a column 1 that decreases.
        (2, 1, ((1, 2), (0, 4))), (2, 1, ((3, 1), (2, 4))),
    ], ids=["foot-9", "rows-crossed", "column-1-2-1", "foot-0", "foot--4", "minus-foot-1",
            "minus-foot-7", "entry-0", "column-1-3-1"])
    def test_rejects_what_no_path_fills(self, n, sign, columns):
        with pytest.raises(ValueError):
            FussTableau.from_columns(k=1, n=n, sign=sign, columns=columns)
        rows = [list(row) for row in sweepkit.fuss._transpose(columns)]
        with pytest.raises(ValueError):
            FussTableau.from_json(json.dumps({"k": 1, "n": n, "sign": sign, "rows": rows}))

    def test_shape_checked_at_construction(self):
        # The one column of a k = 2, n = 1, sign -1 tableau is k - 1 = 1 high, not 2.
        with pytest.raises(ValueError, match="shape"):
            FussTableau.from_columns(k=2, n=1, sign=-1, columns=((1, 2),))
        # Nor two columns k high: a tableau has exactly n columns.
        with pytest.raises(ValueError, match="shape"):
            FussTableau.from_columns(k=2, n=1, sign=-1, columns=((1, 2), (3, 4)))
        # A legal shape passes the shape check; that it encodes no path is validate's finding.
        with pytest.raises(ValueError, match="encodes no path"):
            FussTableau.from_columns(k=1, n=3, sign=-1, columns=((1, 2), (3,), (4,)))

    @pytest.mark.parametrize("sign", [+1, -1])
    def test_shape_rule_on_every_height_list(self, sign):
        def listed_shapes(k, n, heights):
            # The rule written out as whole height lists of n columns, one per legal shape.
            full = [k + 1] * n
            shapes = [full] if sign > 0 else [full[1:] + [k - 1], full[2:] + [k, k]]
            return heights in shapes and len(heights) == n and bool(heights[-1])

        for k in (1, 2, 3):
            for n in (1, 2, 3, 4):
                for width in range(max(n - 2, 0), n + 2):
                    for heights in itertools.product(range(k + 3), repeat=width):
                        columns = tuple(tuple(range(h)) for h in heights)
                        try:
                            FussTableau.from_columns(k=k, n=n, sign=sign, columns=columns)
                            shaped = True
                        except ValueError as exc:  # validate rejects these labels, not the shape
                            shaped = "shape" not in str(exc)
                        assert shaped == listed_shapes(k, n, list(heights)), (k, n, heights)


class TestTableauJson:
    def test_roundtrip(self):
        T = k3n4_tableau()
        assert FussTableau.from_json(T.to_json()) == T

    def test_golden_shape(self):
        import json

        data = json.loads(k3n4_tableau().to_json())
        assert data == {
            "k": 3,
            "n": 4,
            "sign": 1,
            "rows": [[1, 3, 6, 9], [2, 5, 10, 12], [4, 8, 13, 14], [7, 11, 15, 16]],
        }

    @pytest.mark.parametrize(
        "text",
        [
            '{"k": 1, "n": 2, "sign": 1, "rows": [[1, 3.0], [2, 4]]}',
            '{"k": "1", "n": 2, "sign": 1, "rows": [[1, 3], [2, 4]]}',
            '{"k": 1, "n": 2, "sign": 1, "rows": [[1, 3], 2]}',
            # The columns of a valid tableau, but 5 and 6 written a row too low.
            '{"k": 2, "n": 3, "sign": -1, "rows": [[1, 2, 3], [4], [7, 5, 6]]}',
        ],
    )
    def test_malformed_raises_value_error(self, text):
        with pytest.raises(ValueError):
            FussTableau.from_json(text)

    def test_minus_sign_rows_accepted(self):
        text = '{"k": 2, "n": 3, "sign": -1, "rows": [[1, 2, 3], [4, 5, 6], [7]]}'
        T = FussTableau.from_json(text)
        assert T.columns == ((1, 4, 7), (2, 5), (3, 6))

    def test_render_text(self):
        text = k4n3_tableau().render_text()
        assert text.splitlines()[0].split() == ["1", "5", "10"]


class TestMinusSignShape:
    def test_ragged_columns(self):
        # (2,3) frame, k=1: two short columns completed by virtual labels.
        path = parse_path(make_frame(2, 3), "NNENE")
        T = path_tableau(path)
        assert T.columns == ((1, 3), (2,), (4,))
        assert T.completed_columns() == ((1, 3), (2, 5), (4, 6))
        assert T.bottom_row() == (3, 5, 6)
        assert bold_set(T) == {2, 4, 5}

    def test_stacked_virtuals(self):
        # Word leaving one column two cells short.
        path = SWWord(make_frame(5, 3), "SSWWWSWW").as_path()
        T = path_tableau(path)
        assert T.columns == ((1, 3, 5), (2, 4, 7), (6,))
        assert T.completed_columns() == ((1, 3, 5), (2, 4, 7), (6, 8, 9))

    def test_minus_walk(self):
        path = parse_path(make_frame(2, 3), "NNENE")
        assert walk(path_tableau(path)).order == (1, 2, 4, 5, 3)
        assert invert_fuss(path).steps == "NNNEE"


class TestColumnViews:
    def test_columns_are_derived_and_never_kept(self):
        for T in (k3n4_tableau(), path_tableau(parse_path(make_frame(5, 3), "NNEENEEE"))):
            walk(T)
            assert T.columns == sweepkit.fuss._transpose(T.rows)
            assert FussTableau.from_columns(T.k, T.n, T.sign, T.columns) == T
            assert "columns" not in vars(T)
            # A pickle holds the four fields, not the kept walk nor a column view.
            assert set(vars(pickle.loads(pickle.dumps(T)))) == {"k", "n", "sign", "rows"}

    def test_from_columns_rejects_rising_heights(self):
        T = path_tableau(parse_path(make_frame(5, 3), "NNEENEEE"))
        assert T.columns == ((1, 3, 6), (2, 4, 7), (5,))
        # Heights (3, 1, 3): dropping the gaps would give T's rows, a legal shape.
        rising = ((1, 3, 6), (2,), (5, 4, 7))
        assert sweepkit.fuss._transpose(rising) == T.rows
        with pytest.raises(ValueError, match="shape"):
            FussTableau.from_columns(2, 3, -1, rising)


def built_five_ways(path):
    """The tableau of a path from each constructor; ``red`` for sign +1 only."""
    T = path_tableau(path)
    built = [
        T,
        fill_tableau(sw_word(invert_fuss(path))),
        FussTableau.from_json(T.to_json()),
        FussTableau.from_columns(k=T.k, n=T.n, sign=T.sign, columns=T.columns),
    ]
    if T.sign > 0:
        # Any member of the fiber one column up reduces to T.
        built.append(red(fiber_by_bottom_rows(T)[0]))
    return built


def reference_answers(path):
    """Walk order, rank labels and EN word of the path's tableau, read off the
    oracle's column walk: its letters spell the preimage."""
    columns = reference_columns(path)
    order = tuple(_walk_order(columns, path.frame.fuss.sign))
    tops = {c[0] for c in columns}
    preimage = DyckPath(path.frame, "".join("N" if t in tops else "E" for t in order))
    return order, dict(zip(order, ranks(preimage))), en_word(preimage)


class TestCarriedWordAndWalk:
    def test_every_construction_gives_the_same_answers(self):
        for frame in fuss_frames(14):
            for path in frame_paths(frame.m, frame.n):
                built = built_five_ways(path)
                assert len(built) == (5 if frame.fuss.sign > 0 else 4)
                order, labels, en = reference_answers(path)
                reduced = None
                if frame.fuss.sign > 0 and frame.n >= 2:
                    reduced = tuple(_walk_order(reference_columns(path)[1:], +1))
                for U in built:
                    assert walk(U).order == order, (frame, path.steps)
                    assert tableau_rank_labels(U) == labels
                    assert en_from_tableau(U) == en
                    if reduced is not None:
                        assert reduced_walk(U) == reduced

    def test_hidden_fields_stay_out_of_value_semantics(self):
        fields = [f.name for f in dataclasses.fields(FussTableau)]
        assert fields == ["k", "n", "sign", "rows"]
        for frame in fuss_frames(14):
            for path in frame_paths(frame.m, frame.n):
                fresh, *others = built_five_ways(path)
                for U in others:
                    walk(U)
                    assert "_walked" in vars(U)
                    assert U == fresh and hash(U) == hash(fresh)
                    assert repr(U) == repr(fresh)
                    assert U.to_json() == fresh.to_json()
                    # Pickle and copy carry the fields only, not the kept walk.
                    assert pickle.dumps(U) == pickle.dumps(fresh)
                    for carried in (pickle.loads(pickle.dumps(U)), copy.copy(U), copy.deepcopy(U)):
                        assert carried == fresh and "_walked" not in vars(carried)
                assert "_walked" not in repr(fresh)

    def test_replace_does_not_inherit_a_stale_word(self):
        for frame in fuss_frames(14):
            paths = frame_paths(frame.m, frame.n)
            for a, b in zip(paths, paths[1:]):
                T = path_tableau(a)
                walk(T)
                U = dataclasses.replace(T, rows=path_tableau(b).rows)
                assert "_walked" not in vars(U)
                fresh = path_tableau(b)
                assert walk(U).order == walk(fresh).order
                assert tableau_rank_labels(U) == tableau_rank_labels(fresh)

    def test_one_walk_and_no_reparse_per_filled_tableau(self, monkeypatch):
        T = k3n4_tableau()
        plus = [
            T,
            fill_tableau(tableau_to_sw(T)),
            path_tableau(tableau_to_sw(T).as_path()),
            FussTableau.from_json(T.to_json()),
            FussTableau.from_columns(k=3, n=4, sign=1, columns=T.columns),
            red(fiber_by_bottom_rows(T)[0]),
            psi(T),
        ]
        M = path_tableau(SWWord(make_frame(5, 3), "SSWWWSWW").as_path())
        minus = [M, FussTableau.from_columns(k=2, n=3, sign=-1, columns=M.columns)]
        calls = dict.fromkeys(["_cycle", "_fill", "tableau_to_sw"], 0)

        def counted(name):
            real = getattr(sweepkit.fuss, name)

            def call(*args):
                calls[name] += 1
                return real(*args)

            return call

        for name in calls:
            monkeypatch.setattr(sweepkit.fuss, name, counted(name))
        for U in plus + minus:
            order = walk(U).order
            assert walk(U).order is order
            tableau_rank_labels(U)
            if U.sign > 0:
                reduced_walk(U)
        assert calls == {"_cycle": len(plus) + len(minus), "_fill": 0, "tableau_to_sw": 0}

    def test_validate_does_not_trust_the_carried_word(self):
        good = path_tableau(parse_path(make_frame(5, 2), "NENEEEE"))
        bad = ((1, 2, 5), (3, 4, 6))
        # Same first row, so the same word, but 5 and 4 swapped.
        assert good.first_row() == (1, 3) and good.columns != bad
        with pytest.raises(ValueError, match="not the column filling"):
            FussTableau.from_columns(k=2, n=2, sign=1, columns=bad)
