"""Function-level confidence bands from the pointwise interval values.

The lower band linearly interpolates the pointwise lower values between
knots and is minus infinity outside: any concave function through the
feasible set lies above its own chords, so the interpolant is a valid
simultaneous lower envelope.

The upper band propagates the interval values through chord-slope
extremes.  At each knot x_k the steepest slope any admissible concave
curve can arrive with is the smallest chord slope from an earlier lower
value to the upper value at x_k (L_k); the shallowest slope it can leave
with is the largest chord slope onward to a later lower value (R_k).  On
an interior segment the curve therefore sits below both the line leaving
(x_i, hi_i) with slope L_i and the line arriving at (x_{i+1}, hi_{i+1})
with slope R_{i+1}; the envelope is their pointwise minimum, switching at
the crossover point xbar_i.  Edge segments use the single available line.

Both envelopes hold simultaneously with the confidence level of the
pointwise intervals, so this one band is the only one lcbands builds; a
serialized band names it as mode "guaranteed".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .ccp import PointwiseIntervals
from .design import DesignGrid, _is_integer

__all__ = [
    "TooFewKnots",
    "ConfidenceBand",
    "build_band",
    "eval_lower",
    "eval_upper",
    "eval_density_band",
    "band_to_json",
    "band_from_json",
]


class TooFewKnots(ValueError):
    """The chord-slope construction needs at least three solved knots."""


@dataclass(frozen=True)
class ConfidenceBand:
    """Piecewise-linear log-scale band with its chord-slope extremes.

    Entry k-2 of L is the slope bound L_k at knot k = 2..m; entry k-1 of R
    is R_k at knot k = 1..m-1 (knots numbered 1..m).  xbar holds the
    tangent-line crossover for interior segments i = 2..m-2, NaN where the
    two lines never cross inside the segment.  alpha is NaN when the level
    is not recorded.
    """

    mode: ClassVar[str] = "guaranteed"

    knots: np.ndarray
    lo_log: np.ndarray
    hi_log: np.ndarray
    L: np.ndarray
    R: np.ndarray
    xbar: np.ndarray
    alpha: float
    n: int

    def __post_init__(self) -> None:
        m = np.size(self.knots)
        if m < 3:
            raise TooFewKnots(f"need at least 3 knots, got {m}")
        sizes = {
            "knots": m, "lo_log": m, "hi_log": m, "L": m - 1, "R": m - 1,
            "xbar": m - 3,
        }
        for name, size in sizes.items():
            if np.shape(getattr(self, name)) != (size,):
                raise ValueError(
                    f"{name} has shape {np.shape(getattr(self, name))}, "
                    f"expected ({size},) for {m} knots"
                )
        for name in ("knots", "lo_log", "hi_log", "L", "R"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")
        if np.any(np.diff(self.knots) <= 0):
            raise ValueError("knots must be strictly increasing")
        # the tolerance pointwise_intervals marks a crossed point by
        crossed = self.lo_log > self.hi_log + 1e-9
        if crossed.any():
            raise ValueError(
                f"lo_log exceeds hi_log at knots {self.knots[crossed].tolist()}"
            )
        if not _is_integer(self.n) or self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
        if not (math.isnan(self.alpha) or 0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must be NaN or lie in (0, 1), got {self.alpha}")


def build_band(
    grid: DesignGrid,
    intervals: PointwiseIntervals,
    alpha: float = math.nan,
) -> ConfidenceBand:
    """Assemble the band from solved pointwise intervals.

    The band lives on the solved subset of design points; alpha is carried
    through for serialization only.
    """
    idx = np.asarray(intervals.indices, dtype=int)
    x = grid.x[idx - 1]
    lo = np.asarray(intervals.lo, dtype=float)
    hi = np.asarray(intervals.hi, dtype=float)
    m = x.size
    if m < 3:
        raise TooFewKnots(f"need at least 3 solved knots, got {m}")

    dx = x[None, :] - x[:, None]  # dx[j, k] = x_k - x_j
    with np.errstate(divide="ignore", invalid="ignore"):
        up_slopes = (hi[None, :] - lo[:, None]) / dx
        dn_slopes = (lo[:, None] - hi[None, :]) / dx.T
    j_lt_k = np.tril(np.ones((m, m), dtype=bool), k=-1).T  # [j, k] with j < k
    L = np.where(j_lt_k, up_slopes, np.inf).min(axis=0)[1:]
    R = np.where(j_lt_k.T, dn_slopes, -np.inf).max(axis=0)[:-1]

    # interior segments i = 2..m-2: intersection of the two tangent lines
    if m >= 4:
        i = np.arange(2, m - 1)
        L_i = L[i - 2]
        R_n = R[i]  # R_{i+1}
        with np.errstate(divide="ignore", invalid="ignore"):
            xbar = (hi[i] - hi[i - 1] + L_i * x[i - 1] - R_n * x[i]) / (L_i - R_n)
        xbar = np.where(L_i > R_n, xbar, np.nan)
    else:
        xbar = np.empty(0)

    return ConfidenceBand(
        knots=x, lo_log=lo, hi_log=hi, L=L, R=R, xbar=xbar,
        alpha=float(alpha), n=grid.n,
    )


def _as_query(x) -> tuple[np.ndarray, bool]:
    xq = np.asarray(x, dtype=float)
    scalar = xq.ndim == 0
    return np.atleast_1d(xq), scalar


def eval_lower(band: ConfidenceBand, x) -> float | np.ndarray:
    """Log-scale lower band: chordal interpolant inside, -inf outside."""
    xq, scalar = _as_query(x)
    out = np.interp(xq, band.knots, band.lo_log, left=-np.inf, right=-np.inf)
    return float(out[0]) if scalar else out


def eval_upper(band: ConfidenceBand, x) -> float | np.ndarray:
    """Log-scale upper band from the chord-slope tangent lines."""
    xq, scalar = _as_query(x)
    knots, hi, L, R = band.knots, band.hi_log, band.L, band.R
    m = knots.size
    seg = np.searchsorted(knots, xq, side="right")  # segment i: x in [x_i, x_{i+1})
    left = hi[1] + R[1] * (xq - knots[1])
    right = hi[m - 2] + L[m - 3] * (xq - knots[m - 2])
    if m >= 4:
        ii = np.clip(seg, 2, m - 2)
        line_l = hi[ii - 1] + L[ii - 2] * (xq - knots[ii - 1])
        line_r = hi[ii] + R[ii] * (xq - knots[ii])
        interior = np.minimum(line_l, line_r)
    else:
        interior = left
    out = np.where(seg <= 1, left, np.where(seg >= m - 1, right, interior))
    return float(out[0]) if scalar else out


def eval_density_band(band: ConfidenceBand, x) -> tuple:
    """Density-scale (lower, upper); lower <= upper."""
    xq, scalar = _as_query(x)
    lower = np.exp(eval_lower(band, xq))
    upper = np.exp(eval_upper(band, xq))
    if scalar:
        return float(lower[0]), float(upper[0])
    return lower, upper


def _float_or_none(v: float):
    return None if math.isnan(v) else float(v)


def band_to_json(band: ConfidenceBand) -> dict:
    """JSON-safe dict (NaN entries encoded as null)."""
    return {
        "knots": [float(v) for v in band.knots],
        "lo_log": [float(v) for v in band.lo_log],
        "hi_log": [float(v) for v in band.hi_log],
        "L": [float(v) for v in band.L],
        "R": [float(v) for v in band.R],
        "xbar": [_float_or_none(v) for v in band.xbar],
        "mode": band.mode,
        "alpha": _float_or_none(band.alpha),
        "n": int(band.n),
    }


def band_from_json(obj: dict) -> ConfidenceBand:
    """Inverse of band_to_json; rejects any band that is not a guaranteed one."""
    if obj["mode"] != ConfidenceBand.mode:
        raise ValueError(f"unknown band mode {obj['mode']!r}")
    xbar = np.array(
        [math.nan if v is None else float(v) for v in obj["xbar"]], dtype=float
    )
    alpha = obj["alpha"]
    return ConfidenceBand(
        knots=np.asarray(obj["knots"], dtype=float),
        lo_log=np.asarray(obj["lo_log"], dtype=float),
        hi_log=np.asarray(obj["hi_log"], dtype=float),
        L=np.asarray(obj["L"], dtype=float),
        R=np.asarray(obj["R"], dtype=float),
        xbar=xbar,
        alpha=math.nan if alpha is None else float(alpha),
        n=obj["n"],
    )
