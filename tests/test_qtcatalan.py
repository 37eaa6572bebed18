import json

import pytest

from sweepkit import (
    QTPolynomial,
    catalan_qt,
    catalan_step,
    make_frame,
    path_count,
)
from sweepkit.qtcatalan import CATALAN_ROUTES


class TestPathCount:
    def test_examples(self):
        assert path_count(make_frame(7, 5)) == 66
        assert path_count(make_frame(7, 3)) == 12
        assert path_count(make_frame(9, 1)) == 1

    def test_matches_enumeration(self):
        from helpers import coprime_frames, frame_paths

        for frame in coprime_frames(13):
            assert path_count(frame) == len(frame_paths(frame.m, frame.n))


class TestPolynomialType:
    def test_zero_coefficients_dropped(self):
        assert QTPolynomial({(1, 0): 0, (0, 1): 2}).terms == {(0, 1): 2}

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            QTPolynomial({(0, 0): -1})

    def test_add_mul(self):
        # A polynomial is a result: nothing adds or multiplies them.
        q = QTPolynomial({(1, 0): 1})
        t = QTPolynomial({(0, 1): 1})
        with pytest.raises(TypeError):
            q + t
        with pytest.raises(TypeError):
            q * t

    def test_json_sorted_by_total_degree_then_q(self):
        poly = catalan_qt(1, 3)
        data = json.loads(poly.to_json())
        keys = [(a + b, a) for a, b, _ in data]
        assert keys == sorted(keys)
        assert all(isinstance(c, str) for _, _, c in data)

    @pytest.mark.parametrize("via", list(CATALAN_ROUTES))
    def test_json_round_trip_and_repr_of_each_route(self, via):
        route = CATALAN_ROUTES[via]
        for k, n in ((1, 3), (2, 4), (3, 3)):
            poly = route(k, n)
            assert QTPolynomial.from_json(poly.to_json()) == poly
        assert repr(route(1, 3)) == "QTPolynomial(q^3 + q^2 t + q t^2 + t^3 + q t)"

    @pytest.mark.parametrize("text", ['[[0.5, 1, "2"]]', '[[1, 1, 2.7]]', '[[true, 1, "2"]]',
                                      '[["1", "1", "2"]]'])
    def test_from_json_refuses_coercion(self, text):
        with pytest.raises(ValueError, match="int exponents and coefficient"):
            QTPolynomial.from_json(text)

    def test_pretty(self):
        assert catalan_qt(1, 2).pretty() == "q + t"
        assert catalan_qt(1, 3).pretty() == "q^3 + q^2 t + q t^2 + t^3 + q t"
        assert QTPolynomial({(0, 0): 3}).pretty() == "3"
        assert QTPolynomial({}).pretty() == "0"


class TestCatalan:
    def test_k1_n2(self):
        assert catalan_qt(1, 2) == QTPolynomial({(1, 0): 1, (0, 1): 1})

    def test_n1_is_one(self):
        for k in (1, 2, 5):
            assert catalan_qt(k, 1) == QTPolynomial({(0, 0): 1})

    def test_k1_n3_classical(self):
        expected = QTPolynomial({(3, 0): 1, (2, 1): 1, (1, 2): 1, (0, 3): 1, (1, 1): 1})
        assert catalan_qt(1, 3) == expected

    def test_step_needs_two_columns(self):
        with pytest.raises(ValueError):
            catalan_step(2, 1)

    def test_degree_bound(self):
        for k in (1, 2, 3):
            for n in (2, 3, 4):
                poly = catalan_qt(k, n)
                bound = k * n * (n - 1) // 2
                assert max(a for a, _ in poly.terms) == bound
                assert max(b for _, b in poly.terms) == bound
