"""Convex bounds on cell masses of a log-concave density.

A candidate log-density is represented by its values ell_1..ell_m at the
design points and supporting slopes g_2..g_{m-1} at the interior ones
(indices are 1-based throughout, matching the design grid).  Concavity plus
the supporting-slope property give closed-form bounds on the mass of each
cell (x_i, x_{i+1}), with dx_i = x_{i+1} - x_i and E = exp_mean:

    chord lower bound   L_i = dx_i exp(ell_i) E(ell_{i+1} - ell_i)

    tangent upper bounds, anchored at an interior design point whose slope
    exists; the tangent line at the anchor dominates the log-density:

        U_i = exp(ell_{i+1}) dx_i E(-g_{i+1} dx_i)   for i <= m-2
        U_{m-1} = exp(ell_{m-1}) dx_{m-1} E(g_{m-1} dx_{m-1})

        V_i = exp(ell_i) dx_i E(g_i dx_i)            for i >= 2
        V_1 = exp(ell_2) dx_1 E(-g_2 dx_1)

All three bounds are jointly convex in (ell, g) because s -> log E(s) is
convex, so first-order linearizations are global minorants; that is what
the convex-concave procedure exploits.

The feasibility test combines three constraint families against a
calibrated interval system: concavity of ell with supporting slopes (CONC),
pair masses bounded below through U and through V (DOWN1, DOWN2), and pair
masses bounded above through L (UP).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .design import DesignGrid, IntervalSystem
from .specfun import (
    log_exp_mean_arr,
    log_exp_mean_deriv_arr,
    log_exp_mean_gap_arr,
)

__all__ = [
    "FeasiblePoint",
    "ConstraintReport",
    "CellLinearization",
    "linearize_cells",
    "check_feasible",
]


@dataclass(frozen=True)
class FeasiblePoint:
    """Candidate log-density values and interior supporting slopes."""

    ell: np.ndarray  # (m,)
    g: np.ndarray    # (m-2,), slopes at design points 2..m-1

    def __post_init__(self) -> None:
        object.__setattr__(self, "ell", np.asarray(self.ell, dtype=float))
        object.__setattr__(self, "g", np.asarray(self.g, dtype=float))
        if self.ell.ndim != 1 or self.g.ndim != 1:
            raise ValueError("ell and g must be one-dimensional")
        if self.g.size != self.ell.size - 2:
            raise ValueError(
                f"expected {self.ell.size - 2} slopes for {self.ell.size} levels, "
                f"got {self.g.size}"
            )
        if not (np.isfinite(self.ell).all() and np.isfinite(self.g).all()):
            raise ValueError("ell and g must be finite")

    @property
    def m(self) -> int:
        return self.ell.size


def _check_point(grid: DesignGrid, ell: np.ndarray, g: np.ndarray | None) -> None:
    if grid.m < 3:
        raise ValueError("grid must have at least 3 design points")
    if ell.shape != (grid.m,):
        raise ValueError(f"ell has shape {ell.shape}, expected ({grid.m},)")
    if g is not None and g.shape != (grid.m - 2,):
        raise ValueError(f"g has shape {g.shape}, expected ({grid.m - 2},)")


@dataclass(frozen=True)
class CellLinearization:
    """Vectorized values and gradient pieces for all m-1 cells at one point.

    Anchor arrays hold 1-based design indices.  For the tangent bounds the
    ell-partial equals the value, so only the g-partial is stored separately.
    For the chord bound the two ell-partials are stored per cell.
    """

    u_val: np.ndarray
    u_dg: np.ndarray
    u_anchor: np.ndarray
    v_val: np.ndarray
    v_dg: np.ndarray
    v_anchor: np.ndarray
    l_val: np.ndarray
    l_dlo: np.ndarray   # partial wrt ell_i
    l_dhi: np.ndarray   # partial wrt ell_{i+1}


def _anchor_arrays(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    i = np.arange(1, m)
    u_anchor = np.where(i <= m - 2, i + 1, m - 1)
    u_sign = np.where(i <= m - 2, -1.0, 1.0)
    v_anchor = np.where(i >= 2, i, 2)
    v_sign = np.where(i >= 2, 1.0, -1.0)
    return u_anchor, u_sign, v_anchor, v_sign


def linearize_cells(grid: DesignGrid, point: FeasiblePoint) -> CellLinearization:
    """All cell bounds and gradient pieces at once (vectorized).

    Values overflow to inf (never NaN) for astronomically steep candidates,
    which keeps violation comparisons meaningful.
    """
    _check_point(grid, point.ell, point.g)
    m = grid.m
    ell, g = point.ell, point.g
    dx = np.diff(grid.x)
    u_anchor, u_sign, v_anchor, v_sign = _anchor_arrays(m)

    with np.errstate(over="ignore"):
        su = u_sign * g[u_anchor - 2] * dx
        base_u = ell[u_anchor - 1] + np.log(dx)
        u_val = np.exp(base_u + log_exp_mean_arr(su))
        u_dg = u_sign * dx * np.exp(base_u + log_exp_mean_deriv_arr(su))

        sv = v_sign * g[v_anchor - 2] * dx
        base_v = ell[v_anchor - 1] + np.log(dx)
        v_val = np.exp(base_v + log_exp_mean_arr(sv))
        v_dg = v_sign * dx * np.exp(base_v + log_exp_mean_deriv_arr(sv))

        s = np.diff(ell)
        base_l = ell[:-1] + np.log(dx)
        l_val = np.exp(base_l + log_exp_mean_arr(s))
        l_dlo = np.exp(base_l + log_exp_mean_gap_arr(s))
        l_dhi = np.exp(base_l + log_exp_mean_deriv_arr(s))

    return CellLinearization(
        u_val=u_val, u_dg=u_dg, u_anchor=u_anchor,
        v_val=v_val, v_dg=v_dg, v_anchor=v_anchor,
        l_val=l_val, l_dlo=l_dlo, l_dhi=l_dhi,
    )


@dataclass(frozen=True)
class ConstraintReport:
    """Worst positive violation per constraint family (0 when satisfied)."""

    conc: float
    up: float
    down1: float
    down2: float
    eps: float

    @property
    def worst(self) -> float:
        return max(self.conc, self.up, self.down1, self.down2)

    @property
    def feasible(self) -> bool:
        return self.worst <= self.eps


def check_feasible(
    grid: DesignGrid,
    system: IntervalSystem,
    point: FeasiblePoint,
    eps: float = 1e-7,
) -> ConstraintReport:
    """Test all constraint families at once.

    CONC:  ell_j <= ell_i + g_i (x_j - x_i) for interior i, j = i +/- 1
    DOWN1: c_B <= sum of U over the pair's cells
    DOWN2: c_B <= sum of V over the pair's cells
    UP:    sum of L over the pair's cells <= d_B
    """
    _check_point(grid, point.ell, point.g)
    cells = linearize_cells(grid, point)
    x, ell, g = grid.x, point.ell, point.g

    left = ell[:-2] - ell[1:-1] - g * (x[:-2] - x[1:-1])
    right = ell[2:] - ell[1:-1] - g * (x[2:] - x[1:-1])
    conc = max(0.0, float(left.max()), float(right.max()))

    up = float((system.pair_sums(cells.l_val) - system.d).max(initial=0.0))
    down1 = float((system.c - system.pair_sums(cells.u_val)).max(initial=0.0))
    down2 = float((system.c - system.pair_sums(cells.v_val)).max(initial=0.0))
    return ConstraintReport(conc=conc, up=up, down1=down1, down2=down2, eps=eps)
