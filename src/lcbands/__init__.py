"""Finite-sample simultaneous confidence bands for a log-concave density.

The pipeline: order statistics of the sample fix a design grid; dyadic
blocks of design-point pairs carry beta-quantile bounds on the probability
mass between pair members; relaxing the mass of a log-concave density over
each cell by chord and tangent bounds yields a difference-of-convex
feasibility set; a penalty convex-concave procedure over linear programs
minimizes and maximizes the log-density at each design point subject to
that set; the resulting pointwise intervals extend to simultaneous bands
over the whole line by concavity.
"""

from .band import (
    ConfidenceBand,
    TooFewKnots,
    band_from_json,
    band_to_json,
    build_band,
    eval_density_band,
    eval_lower,
    eval_upper,
    eval_upper_interpolated,
)
from .ccp import CcpConfig, PointDiagnostics, PointwiseIntervals, pointwise_intervals
from .design import (
    DuplicateDesignPoint,
    InvalidAlpha,
    TooFewSamples,
    build_interval_system,
    select_design_points,
)
from .simulate import StudyReport, StudySpec, format_table, report_to_json, run_study

__version__ = "0.1.0"

__all__ = [
    # pipeline
    "select_design_points",
    "build_interval_system",
    "pointwise_intervals",
    "build_band",
    "CcpConfig",
    "PointwiseIntervals",
    "PointDiagnostics",
    # band
    "ConfidenceBand",
    "eval_density_band",
    "eval_lower",
    "eval_upper",
    "eval_upper_interpolated",
    "band_to_json",
    "band_from_json",
    # errors
    "TooFewSamples",
    "DuplicateDesignPoint",
    "InvalidAlpha",
    "TooFewKnots",
    # study
    "StudySpec",
    "StudyReport",
    "run_study",
    "report_to_json",
    "format_table",
    "__version__",
]
