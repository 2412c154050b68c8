"""Monte Carlo study harness for the band pipeline.

Samples from four textbook densities, runs the full pipeline once per
repetition, and aggregates empirical coverage, band widths at the sample
quartiles, and runtimes. Each repetition solves every design point and
scores the guaranteed band, the one whose simultaneous coverage the
method certifies, against the true density on GRID_POINTS points spread
over the data range. Every repetition draws from its own counter-based
substream.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .band import build_band, eval_density_band
from .ccp import CcpConfig, pointwise_intervals
from .design import build_interval_system, select_design_points

__all__ = [
    "DISTRIBUTIONS",
    "StudySpec",
    "StudyReport",
    "sample",
    "true_density",
    "run_study",
    "report_to_json",
    "format_table",
]

DISTRIBUTIONS = ("gaussian", "uniform", "chisq", "gamma")

GRID_POINTS = 10000  # points on which each repetition checks coverage

_LABELS = {
    "gaussian": "Gaussian",
    "uniform": "Uniform(-10,10)",
    "chisq": "Chi-squared(3)",
    "gamma": "Gamma(1,1)",
}


@dataclass(frozen=True)
class StudySpec:
    """Parameters of one study cell.

    distribution is one of DISTRIBUTIONS; uniform means Uniform(-10,10),
    chisq has 3 degrees of freedom, and gamma has unit shape and scale.
    Repetition r draws from Philox(key=[seed, r]).
    """

    distribution: str
    n: int
    reps: int
    alpha: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.distribution not in DISTRIBUTIONS:
            raise ValueError(f"unknown distribution {self.distribution!r}")
        if not isinstance(self.n, (int, np.integer)) or self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
        if not isinstance(self.reps, (int, np.integer)) or self.reps < 1:
            raise ValueError(f"reps must be a positive integer, got {self.reps!r}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        # the seed keys a Philox stream, which takes unsigned 64-bit words
        if not isinstance(self.seed, (int, np.integer)) or not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")


@dataclass(frozen=True)
class StudyReport:
    """Aggregated study results.

    Width fields are mean band widths in density units at the three
    sample quartiles, averaged over converged repetitions only; they are
    NaN if every repetition failed. Failed repetitions count as
    non-coverage, which biases the coverage estimate downward.
    """

    coverage: float
    width_q1: float
    width_q2: float
    width_q3: float
    mean_runtime_s: float
    failures: int


def sample(distribution: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n i.i.d. observations from a named study distribution."""
    if distribution == "gaussian":
        return rng.normal(size=n)
    if distribution == "uniform":
        return rng.uniform(-10.0, 10.0, size=n)
    if distribution == "chisq":
        return rng.chisquare(3.0, size=n)
    if distribution == "gamma":
        return rng.gamma(1.0, 1.0, size=n)
    raise ValueError(f"unknown distribution {distribution!r}")


def true_density(distribution: str, x) -> np.ndarray:
    """Exact pdf of a named study distribution, vectorized over x."""
    x = np.asarray(x, dtype=float)
    if distribution == "gaussian":
        return np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    if distribution == "uniform":
        return np.where((x > -10.0) & (x < 10.0), 0.05, 0.0)
    if distribution == "chisq":
        out = np.zeros_like(x)
        pos = x > 0.0
        xp = x[pos]
        out[pos] = np.sqrt(xp) * np.exp(-0.5 * xp) / math.sqrt(2.0 * math.pi)
        return out
    if distribution == "gamma":
        return np.where(x > 0.0, np.exp(-np.maximum(x, 0.0)), 0.0)
    raise ValueError(f"unknown distribution {distribution!r}")


def _run_rep(spec: StudySpec, rep: int) -> tuple[bool, np.ndarray | None, float]:
    """One repetition: sample, fit, then score coverage and widths.

    Returns (covered, quartile widths or None on failure, runtime). The
    runtime covers the pipeline through band construction; scoring
    against the true density is excluded.
    """
    rng = np.random.default_rng(np.random.Philox(key=[spec.seed, rep]))
    data = sample(spec.distribution, spec.n, rng)
    start = time.perf_counter()
    grid = select_design_points(data)
    system = build_interval_system(grid, spec.alpha)
    intervals = pointwise_intervals(
        grid, system, CcpConfig(), np.arange(1, grid.m + 1)
    )
    if not intervals.all_converged:
        return False, None, time.perf_counter() - start
    band = build_band(grid, intervals, alpha=spec.alpha)
    runtime = time.perf_counter() - start

    ts = np.linspace(data.min(), data.max(), GRID_POINTS)
    lo_d, hi_d = eval_density_band(band, ts)
    f = true_density(spec.distribution, ts)
    covered = bool(np.all((lo_d <= f) & (f <= hi_d)))
    q = np.quantile(data, [0.25, 0.5, 0.75])
    lo_q, hi_q = eval_density_band(band, q)
    return covered, hi_q - lo_q, runtime


def run_study(spec: StudySpec) -> StudyReport:
    """Run all repetitions of a study cell and aggregate the report."""
    results = [_run_rep(spec, r) for r in range(spec.reps)]

    covered = np.array([c for c, _, _ in results], dtype=float)
    runtimes = np.array([t for _, _, t in results], dtype=float)
    widths = [w for _, w, _ in results if w is not None]
    failures = sum(1 for _, w, _ in results if w is None)
    wq = np.mean(np.vstack(widths), axis=0) if widths else np.full(3, math.nan)
    return StudyReport(
        coverage=float(covered.mean()),
        width_q1=float(wq[0]),
        width_q2=float(wq[1]),
        width_q3=float(wq[2]),
        mean_runtime_s=float(runtimes.mean()),
        failures=failures,
    )


def _none_if_nan(v: float) -> float | None:
    return None if math.isnan(v) else v


def report_to_json(spec: StudySpec, report: StudyReport) -> dict:
    """JSON-ready dict holding the study cell and its aggregated results."""
    return {
        "spec": {
            "distribution": spec.distribution,
            "n": spec.n,
            "reps": spec.reps,
            "alpha": spec.alpha,
            "seed": spec.seed,
        },
        "coverage": report.coverage,
        "width_q1": _none_if_nan(report.width_q1),
        "width_q2": _none_if_nan(report.width_q2),
        "width_q3": _none_if_nan(report.width_q3),
        "mean_runtime_s": report.mean_runtime_s,
        "failures": report.failures,
    }


def _fmt_width(v: float) -> str:
    return "nan" if math.isnan(v) else f"{v:.3f}"


def format_table(entries: Iterable[tuple[StudySpec, StudyReport]]) -> str:
    """Aligned text table with one row per study cell."""
    header: Sequence[str] = (
        "Density",
        "n",
        "Coverage",
        "Width Q1",
        "Width Q2",
        "Width Q3",
        "Runtime (s)",
    )
    rows = [list(header)]
    for spec, report in entries:
        rows.append(
            [
                _LABELS[spec.distribution],
                str(spec.n),
                f"{report.coverage:.3f}",
                _fmt_width(report.width_q1),
                _fmt_width(report.width_q2),
                _fmt_width(report.width_q3),
                f"{report.mean_runtime_s:.2f}",
            ]
        )
    col = [max(len(r[j]) for r in rows) for j in range(len(header))]
    lines = [
        "  ".join(cell.ljust(w) for cell, w in zip(row, col)).rstrip() for row in rows
    ]
    return "\n".join(lines)
