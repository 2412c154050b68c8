"""Special functions used throughout the package.

The exponential-mean function

    exp_mean(s) = (exp(s) - 1) / s,   exp_mean(0) = 1,

is the mean of exp(s*t) for t uniform on [0, 1].  It is positive, strictly
increasing, log-convex, and appears in every closed-form bound on the
integral of an exponentiated affine function.  Its derivative is

    exp_mean_deriv(s) = (s*exp(s) - exp(s) + 1) / s**2,   exp_mean_deriv(0) = 1/2.

The regularized incomplete beta function and its inverse supply the
order-statistic quantiles that calibrate the confidence set.  Both are
implemented here rather than imported so that the test suite can check them
against independent oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

__all__ = [
    "BetaParams",
    "ConvergenceError",
    "exp_mean_arr",
    "exp_mean_deriv_arr",
    "log_exp_mean_arr",
    "log_exp_mean_deriv_arr",
    "log_exp_mean_gap_arr",
    "reg_inc_beta",
    "qbeta",
]

# Switch to a Taylor expansion near zero where the direct formulas cancel.
_EXP_MEAN_CUTOFF = 1e-4
_DERIV_CUTOFF = 1e-2

_MAX_SHAPE = 1e5
_CF_MAX_ITER = 1000
_CF_EPS = 1e-16
_FPMIN = 1e-300


class ConvergenceError(RuntimeError):
    """An iterative special-function evaluation failed to converge."""


def exp_mean_arr(s: np.ndarray) -> np.ndarray:
    """exp_mean(s), elementwise."""
    s = np.asarray(s, dtype=float)
    near = np.abs(s) <= _EXP_MEAN_CUTOFF
    safe = np.where(near, 1.0, s)
    direct = np.expm1(safe) / safe
    taylor = 1.0 + s * (0.5 + s * (1.0 / 6.0 + s * (1.0 / 24.0 + s / 120.0)))
    return np.where(near, taylor, direct)


def exp_mean_deriv_arr(s: np.ndarray) -> np.ndarray:
    """exp_mean_deriv(s), elementwise."""
    s = np.asarray(s, dtype=float)
    near = np.abs(s) <= _DERIV_CUTOFF
    safe = np.where(near, 1.0, s)
    direct = (np.expm1(safe) * (safe - 1.0) + safe) / (safe * safe)
    taylor = 0.5 + s * (
        1.0 / 3.0 + s * (0.125 + s * (1.0 / 30.0 + s * (1.0 / 144.0 + s / 840.0)))
    )
    return np.where(near, taylor, direct)


# Beyond |s| ~ 700 the direct formulas overflow; switch to asymptotic
# log-scale branches well before that.
_LOG_CUTOFF = 50.0


def _masked(s: np.ndarray, out: np.ndarray, mask: np.ndarray, fn) -> None:
    if mask.all():
        out[...] = fn(s)
    elif mask.any():
        out[mask] = fn(s[mask])


def log_exp_mean_arr(s: np.ndarray) -> np.ndarray:
    """log(exp_mean(s)), safe for arbitrarily large |s|."""
    s = np.asarray(s, dtype=float)
    out = np.empty_like(s)
    hi = s >= _LOG_CUTOFF
    lo = s <= -_LOG_CUTOFF
    mid = ~(hi | lo)
    _masked(s, out, hi, lambda t: t - np.log(t) + np.log1p(-np.exp(-t)))
    _masked(s, out, lo, lambda t: np.log1p(-np.exp(t)) - np.log(-t))
    _masked(s, out, mid, lambda t: np.log(exp_mean_arr(t)))
    return out


def log_exp_mean_deriv_arr(s: np.ndarray) -> np.ndarray:
    """log(exp_mean_deriv(s)), safe for arbitrarily large |s|."""
    s = np.asarray(s, dtype=float)
    out = np.empty_like(s)
    hi = s >= _LOG_CUTOFF
    lo = s <= -_LOG_CUTOFF
    mid = ~(hi | lo)
    # (s e^s - e^s + 1)/s^2 ~ e^s (s-1)/s^2 above, (1 + (s-1)e^s)/s^2 below
    _masked(s, out, hi, lambda t: t + np.log(t - 1.0) - 2.0 * np.log(t))
    _masked(s, out, lo, lambda t: np.log1p((t - 1.0) * np.exp(t)) - 2.0 * np.log(-t))
    _masked(s, out, mid, lambda t: np.log(exp_mean_deriv_arr(t)))
    return out


def log_exp_mean_gap_arr(s: np.ndarray) -> np.ndarray:
    """log(exp_mean(s) - exp_mean_deriv(s)) = log((e^s - 1 - s) / s^2), safe
    for arbitrarily large |s|.  The gap is positive everywhere."""
    s = np.asarray(s, dtype=float)
    out = np.empty_like(s)
    hi = s >= _LOG_CUTOFF
    lo = s <= -_LOG_CUTOFF
    near = np.abs(s) <= 1e-3
    mid = ~(hi | lo | near)
    _masked(s, out, hi, lambda t: t - 2.0 * np.log(t) + np.log1p(-(1.0 + t) * np.exp(-t)))
    _masked(s, out, lo, lambda t: np.log(-t - 1.0 + np.exp(t)) - 2.0 * np.log(-t))
    _masked(
        s, out, near,
        lambda t: np.log(0.5 + t * (1.0 / 6.0 + t * (1.0 / 24.0 + t / 120.0))),
    )
    _masked(s, out, mid, lambda t: np.log((np.expm1(t) - t) / (t * t)))
    return out


@dataclass(frozen=True)
class BetaParams:
    """Shape parameters of a beta distribution, both in (0, 1e5]."""

    a: float
    b: float

    def __post_init__(self) -> None:
        for name, value in (("a", self.a), ("b", self.b)):
            if not (0.0 < value <= _MAX_SHAPE) or not math.isfinite(value):
                raise ValueError(f"shape {name}={value!r} outside (0, {_MAX_SHAPE:g}]")

    @property
    def mean(self) -> float:
        return self.a / (self.a + self.b)

    @property
    def variance(self) -> float:
        t = self.a + self.b
        return self.a * self.b / (t * t * (t + 1.0))


def _log_beta(a: float, b: float) -> float:
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function (modified Lentz)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise ConvergenceError(
        f"incomplete beta continued fraction stalled for a={a}, b={b}, x={x}"
    )


def reg_inc_beta(x: float, params: BetaParams) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    x = float(x)
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x={x!r} outside [0, 1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    a, b = params.a, params.b
    ln_front = (
        a * math.log(x) + b * math.log1p(-x) - _log_beta(a, b)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def _beta_log_pdf(x: float, params: BetaParams) -> float:
    a, b = params.a, params.b
    return (a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x) - _log_beta(a, b)


def qbeta(p: float, params: BetaParams) -> float:
    """Beta quantile: the x in (0, 1) with reg_inc_beta(x, params) = p.

    Safeguarded Newton iteration on the CDF, seeded from a moment-matched
    normal approximation and bracketed by bisection, converging to
    |reg_inc_beta(x) - p| <= 1e-12.
    """
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ValueError(f"p={p!r} outside (0, 1)")

    z = NormalDist().inv_cdf(p)
    x = params.mean + z * math.sqrt(params.variance)
    x = min(max(x, 1e-12), 1.0 - 1e-12)

    lo, hi = 0.0, 1.0
    for _ in range(200):
        f = reg_inc_beta(x, params) - p
        if abs(f) <= 1e-12:
            return x
        if f > 0.0:
            hi = x
        else:
            lo = x
        log_pdf = _beta_log_pdf(x, params)
        step_ok = False
        if log_pdf > -700.0:
            step = f / math.exp(log_pdf)
            cand = x - step
            if lo < cand < hi:
                x = cand
                step_ok = True
        if not step_ok:
            x = 0.5 * (lo + hi)
        if hi - lo < 1e-16:
            return x
    raise ConvergenceError(f"qbeta({p}, a={params.a}, b={params.b}) did not converge")
