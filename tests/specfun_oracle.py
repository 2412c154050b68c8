"""Scalar reference for the vectorized exp_mean kernels in lcbands.specfun.

One argument at a time through math.expm1, with the same Taylor branches
and cutoffs as exp_mean_arr and exp_mean_deriv_arr.  Tests compare the
array kernels and their log variants against these.
"""

import math

from lcbands.specfun import _DERIV_CUTOFF, _EXP_MEAN_CUTOFF


def exp_mean(s: float) -> float:
    """(exp(s) - 1) / s with the removable singularity at 0 filled in."""
    s = float(s)
    if abs(s) > _EXP_MEAN_CUTOFF:
        return math.expm1(s) / s
    return 1.0 + s * (0.5 + s * (1.0 / 6.0 + s * (1.0 / 24.0 + s / 120.0)))


def exp_mean_deriv(s: float) -> float:
    """Derivative of exp_mean: (s*exp(s) - exp(s) + 1) / s**2, 1/2 at 0."""
    s = float(s)
    if abs(s) > _DERIV_CUTOFF:
        return (math.expm1(s) * (s - 1.0) + s) / (s * s)
    return 0.5 + s * (
        1.0 / 3.0 + s * (0.125 + s * (1.0 / 30.0 + s * (1.0 / 144.0 + s / 840.0)))
    )
