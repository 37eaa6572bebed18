"""Path counting and higher q,t-Catalan polynomials.

C_n^(k)(q, t) sums q^dinv t^area over the m = kn+1 frame; the sweep map
transports (dinv, area) to (area, bounce), so summing q^area t^bounce gives
the same polynomial.  catalan_step instead builds it from the one-column-
narrower frame, weighting each path by its small ranks.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from typing import Iterator

from .core import DyckPath, Frame, _prefix_ranks, area, dinv, enumerate_paths, make_frame
from .errors import NotFuss
from .fuss import bounce


class QTPolynomial:
    """Sparse bivariate polynomial in q, t with nonnegative integer coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[int, int], int] | None = None):
        clean = {}
        for (a, b), c in (terms or {}).items():
            if c < 0 or a < 0 or b < 0:
                raise ValueError("exponents and coefficients must be nonnegative")
            if c:
                clean[(a, b)] = c
        self.terms = clean

    def __eq__(self, other) -> bool:
        return isinstance(other, QTPolynomial) and self.terms == other.terms

    def __repr__(self) -> str:
        return f"QTPolynomial({self.pretty()})"

    def evaluate(self, q: int, t: int) -> int:
        return sum(c * q**a * t**b for (a, b), c in self.terms.items())

    def sorted_terms(self) -> list[tuple[int, int, int]]:
        """(q-exp, t-exp, coeff) ascending by (total degree, q-exponent)."""
        return [
            (a, b, self.terms[(a, b)])
            for a, b in sorted(self.terms, key=lambda ab: (ab[0] + ab[1], ab[0]))
        ]

    def to_json(self) -> str:
        return json.dumps([[a, b, str(c)] for a, b, c in self.sorted_terms()])

    @classmethod
    def from_json(cls, text: str) -> "QTPolynomial":
        """ValueError unless the exponents are JSON integers and each coefficient is one, >= 0,
        or an ASCII decimal string; str() of a bool, float, null, list or object is neither."""
        terms = json.loads(text)
        for a, b, c in terms:
            if not (type(a) is type(b) is int and str(c).isascii() and str(c).isdecimal()):
                raise ValueError(f"q,t term {[a, b, c]} needs int exponents and coefficient >= 0")
        return cls({(a, b): int(c) for a, b, c in terms})

    def pretty(self) -> str:
        """Human form, highest (total degree, q-exponent) first: 'q^3 + q^2 t + ...'."""
        if not self.terms:
            return "0"
        parts = []
        for a, b, c in reversed(self.sorted_terms()):
            factors = []
            if c != 1 or (a == 0 and b == 0):
                factors.append(str(c))
            if a:
                factors.append("q" if a == 1 else f"q^{a}")
            if b:
                factors.append("t" if b == 1 else f"t^{b}")
            parts.append(" ".join(factors))
        return " + ".join(parts)


def path_count(frame: Frame) -> int:
    """Number of paths of the frame: C(m+n, m) / (m+n), exactly."""
    return math.comb(frame.size, frame.m) // frame.size


def _fuss_paths(k: int, n: int) -> Iterator[DyckPath]:
    if k < 1:
        raise NotFuss(f"k must be at least 1, got {k}")
    return enumerate_paths(make_frame(k * n + 1, n))


def catalan_qt(k: int, n: int) -> QTPolynomial:
    """Sum of q^dinv t^area over the m = kn+1 frame."""
    return QTPolynomial(Counter((dinv(D), area(D)) for D in _fuss_paths(k, n)))


def catalan_qt_via_bounce(k: int, n: int) -> QTPolynomial:
    """Sum of q^area t^bounce, bounce taken through the linear inversion."""
    return QTPolynomial(Counter((area(D), bounce(D)) for D in _fuss_paths(k, n)))


def catalan_step(k: int, n: int) -> QTPolynomial:
    """One-column-step form: build C_n^(k) from the n-1 frame.

    Each reduced path contributes q^dinv t^area times one monomial
    q^(i-1) t^(n'k - r_i) per sorted rank r_i below m'.
    """
    if n < 2:
        raise ValueError("catalan_step needs n >= 2")
    n_ = n - 1
    m_ = k * n_ + 1

    def monomials() -> Iterator[tuple[int, int]]:
        for D in _fuss_paths(k, n_):
            d, a = dinv(D), area(D) + n_ * k
            for i, r in enumerate(sorted(filter(m_.__gt__, _prefix_ranks(m_, n_, D.steps)))):
                yield d + i, a - r

    return QTPolynomial(Counter(monomials()))


# The three routes to C_n^(k)(q, t), by the name ``sweepkit catalan --via`` takes.
CATALAN_ROUTES = {"dinv-area": catalan_qt, "area-bounce": catalan_qt_via_bounce,
                  "step": catalan_step}
