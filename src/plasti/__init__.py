"""plasti: verify and search expand-contract plasticity of subsets of the line.

A space is described symbolically (points, progressions, gap sequences,
interval unions), maps are piecewise descriptions with declared inverses,
and every check on an infinite space is an exact certificate over a
window. The classifier turns structural rules into plastic/not-plastic
verdicts with verifiable witnesses; finite spaces get exact oracles that
answer by theorem.
"""

from .classify import (
    NOT_PLASTIC,
    PLASTIC,
    UNKNOWN,
    Verdict,
    classify,
    run_falsifications,
    verify_witness,
)
from .errors import PlastiError
from .extend import (
    AugmentedSpace,
    DistanceMatrix,
    FiniteSpace,
    check_metric_axioms,
    check_restriction,
    path_infimum_metric,
    railway_extension,
)
from .gallery import GALLERY_IDS, gallery_entry, verify_entry
from .maps import (
    AffinePiece,
    IndexShift,
    MapDescription,
    Table,
    check_between_preservation,
    check_bijection,
    check_endomorphism,
    check_isometry,
    check_nonexpansive,
    derive_inverse,
    eval_map,
    lipschitz_upper,
    orbit,
)
from .oracle import (
    nonexpansive_bijections,
    plastic_bruteforce,
    strongly_plastic_bruteforce,
)
from .parser import parse_map, parse_matrix, parse_space, render_map
from .plot import build_plot, detect_jumps, render_svg
from .scalar import format_scalar, parse_scalar
from .space import (
    ArithmeticProgression,
    BoundDecl,
    Endpoint,
    FinitePoints,
    GapSequence,
    HalfLine,
    Interval,
    IntervalList,
    PeriodicIntervals,
    SubspaceDescription,
    Window,
    ball_census,
    gap_spectrum,
    hull,
    materialize,
    validate_metadata,
)

__version__ = "0.1.0"

__all__ = [
    "AffinePiece",
    "ArithmeticProgression",
    "AugmentedSpace",
    "BoundDecl",
    "DistanceMatrix",
    "Endpoint",
    "FinitePoints",
    "FiniteSpace",
    "GALLERY_IDS",
    "GapSequence",
    "HalfLine",
    "IndexShift",
    "Interval",
    "IntervalList",
    "MapDescription",
    "NOT_PLASTIC",
    "PLASTIC",
    "PeriodicIntervals",
    "PlastiError",
    "SubspaceDescription",
    "Table",
    "UNKNOWN",
    "Verdict",
    "Window",
    "ball_census",
    "build_plot",
    "check_between_preservation",
    "check_bijection",
    "check_endomorphism",
    "check_isometry",
    "check_metric_axioms",
    "check_nonexpansive",
    "check_restriction",
    "classify",
    "derive_inverse",
    "detect_jumps",
    "eval_map",
    "format_scalar",
    "gallery_entry",
    "gap_spectrum",
    "hull",
    "lipschitz_upper",
    "materialize",
    "nonexpansive_bijections",
    "orbit",
    "parse_map",
    "parse_matrix",
    "parse_scalar",
    "parse_space",
    "path_infimum_metric",
    "plastic_bruteforce",
    "railway_extension",
    "render_map",
    "render_svg",
    "run_falsifications",
    "strongly_plastic_bruteforce",
    "validate_metadata",
    "verify_entry",
    "verify_witness",
]
