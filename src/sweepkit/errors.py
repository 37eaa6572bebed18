"""Domain error hierarchy.

Every error below maps to exit code 2 on the command line; plain I/O
problems (missing files, bad JSON) map to exit code 1.
"""


class SweepkitError(Exception):
    """Base class for all domain errors raised by this package."""


class NotCoprime(SweepkitError):
    """gcd(m, n) != 1."""


class WrongStepCounts(SweepkitError):
    """A step word does not contain exactly n N's and m E's."""


class BelowDiagonal(SweepkitError):
    """A step word dips below the lattice diagonal.

    ``prefix`` is the 1-based length of the first offending prefix.
    """

    def __init__(self, prefix: int, message: str | None = None):
        self.prefix = prefix
        super().__init__(message or f"path falls below the diagonal at prefix {prefix}")


class NotFuss(SweepkitError):
    """The frame is not of the form m = kn + 1 or m = kn - 1."""


class InconsistentPair(SweepkitError):
    """An (SW, EN) word pair is not realizable by a common preimage."""


class SearchExhausted(SweepkitError):
    """A brute-force search found no witness (signals an upstream bug)."""


class FrameTooLarge(SweepkitError):
    """A frame has too many paths for a brute-force search."""


class PrematureStall(SweepkitError):
    """The column filling ran out of active columns (impossible for valid input)."""


class NotSingleCycle(SweepkitError):
    """The tableau walk failed to visit every label exactly once."""


class RowConstraintViolated(SweepkitError):
    """A first/bottom row candidate violates its defining inequality.

    ``index`` is the 1-based position that failed.
    """

    def __init__(self, index: int, message: str | None = None):
        self.index = index
        super().__init__(message or f"row constraint violated at position {index}")


class TooNarrow(SweepkitError):
    """Column removal requires at least two columns."""


class RankNotPresent(SweepkitError):
    """The requested cut rank is not a vertex rank of the path."""


class RankTooLarge(SweepkitError):
    """The requested cut rank is >= m' and contributes no lifted path."""
