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


def linearize_cells(grid: DesignGrid, point: FeasiblePoint) -> CellLinearization:
    """All cell bounds and gradient pieces at once (vectorized).

    The U, V and L arguments of the log-exp-mean kernels are evaluated in
    one concatenated array, over the grid's cached CellLayout.  Values
    overflow to inf (never NaN) for astronomically steep candidates, which
    keeps violation comparisons meaningful.
    """
    _check_point(grid, point.ell, point.g)
    layout = grid.cell_layout
    ell = point.ell
    c = grid.m - 1

    with np.errstate(over="ignore"):
        # slope arguments of U, then V, then the chord rises of L
        s = np.concatenate([layout.sign_dx * point.g[layout.g_at], np.diff(ell)])
        base = ell[layout.ell_at] + layout.log_dx
        val = np.exp(base + log_exp_mean_arr(s))
        deriv = np.exp(base + log_exp_mean_deriv_arr(s))
        dg = layout.sign_dx * deriv[: 2 * c]
        l_dlo = np.exp(base[2 * c :] + log_exp_mean_gap_arr(s[2 * c :]))

    return CellLinearization(
        u_val=val[:c], u_dg=dg[:c], u_anchor=layout.u_anchor,
        v_val=val[c : 2 * c], v_dg=dg[c:], v_anchor=layout.v_anchor,
        l_val=val[2 * c :], l_dlo=l_dlo, l_dhi=deriv[2 * c :],
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
    cells: CellLinearization | None = None,
) -> ConstraintReport:
    """Test all constraint families at once.

    CONC:  ell_j <= ell_i + g_i (x_j - x_i) for interior i, j = i +/- 1
    DOWN1: c_B <= sum of U over the pair's cells
    DOWN2: c_B <= sum of V over the pair's cells
    UP:    sum of L over the pair's cells <= d_B

    cells, when given, is linearize_cells at point, already computed.
    """
    _check_point(grid, point.ell, point.g)
    if cells is None:
        cells = linearize_cells(grid, point)
    x, ell, g = grid.x, point.ell, point.g

    left = ell[:-2] - ell[1:-1] - g * (x[:-2] - x[1:-1])
    right = ell[2:] - ell[1:-1] - g * (x[2:] - x[1:-1])
    conc = max(0.0, float(left.max()), float(right.max()))

    up = float((system.pair_sums(cells.l_val) - system.d).max(initial=0.0))
    down1 = float((system.c - system.pair_sums(cells.u_val)).max(initial=0.0))
    down2 = float((system.c - system.pair_sums(cells.v_val)).max(initial=0.0))
    return ConstraintReport(conc=conc, up=up, down1=down1, down2=down2, eps=eps)
