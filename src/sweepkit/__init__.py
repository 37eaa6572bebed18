"""Rational Dyck paths, the sweep map, and its linear-time Fuss-case inversion."""

from .core import (
    DyckPath,
    Frame,
    Fuss,
    RankSequence,
    area,
    coarea,
    dinv,
    enumerate_paths,
    make_frame,
    parse_path,
    path_from_json,
    rank_complement,
    rank_sequence,
    ranks,
)
from .errors import (
    BelowDiagonal,
    FrameTooLarge,
    InconsistentPair,
    NotCoprime,
    NotFuss,
    NotSingleCycle,
    PrematureStall,
    RankNotPresent,
    RankTooLarge,
    RowConstraintViolated,
    SearchExhausted,
    SweepkitError,
    TooNarrow,
    WrongStepCounts,
)
from .fuss import (
    FussTableau,
    WalkPermutation,
    bold_set,
    bounce,
    cobounce,
    en_from_tableau,
    fill_tableau,
    invert_fuss,
    path_tableau,
    psi,
    reduced_walk,
    tableau_from_bottom_row,
    tableau_from_first_row,
    tableau_rank_labels,
    tableau_to_sw,
    walk,
)
from .qtcatalan import (
    QTPolynomial,
    catalan_qt,
    catalan_qt_via_bounce,
    catalan_step,
    path_count,
)
from .reduction import (
    area_from_bottom_row,
    coarea_from_top_row,
    cut_and_lift,
    fiber_by_bottom_rows,
    fiber_by_cutting,
    fiber_count,
    red,
    reduced_path_of,
)
from .render import render_svg
from .sweep import (
    ENWord,
    SWWord,
    bipartite_invert,
    en_word,
    steps_to_sw,
    sw_to_steps,
    sw_word,
    sweep,
)

__version__ = "0.1.0"
