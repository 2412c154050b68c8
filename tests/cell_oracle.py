"""Scalar per-cell reference for the vectorized cell-mass bounds.

One cell at a time, straight from the formulas in lcbands.relax: the chord
lower bound L_i, the tangent upper bounds U_i and V_i, their gradients over
the global (ell, g) ordering, and their first-order expansions.  Tests
compare linearize_cells and the CCP subproblem rows against these.

linearize_cells_unfused is the vectorized form with one kernel call per
bound family, computed from the grid on every call; linearize_cells must
equal it bit for bit.
"""

from dataclasses import dataclass

import numpy as np

from lcbands.design import DesignGrid
from lcbands.relax import CellLinearization, FeasiblePoint, _check_point
from lcbands.specfun import (
    log_exp_mean_arr,
    log_exp_mean_deriv_arr,
    log_exp_mean_gap_arr,
)


def ell_index(i: int, m: int) -> int:
    """Global variable index of ell_i (i in 1..m)."""
    if not 1 <= i <= m:
        raise ValueError(f"ell index {i} outside 1..{m}")
    return i - 1


def g_index(i: int, m: int) -> int:
    """Global variable index of g_i (i in 2..m-1)."""
    if not 2 <= i <= m - 1:
        raise ValueError(f"g index {i} outside 2..{m - 1}")
    return m + i - 2


def num_vars(m: int) -> int:
    """Length of the global (ell, g) variable vector."""
    return 2 * m - 2


def as_vector(point: FeasiblePoint) -> np.ndarray:
    """The point in the global ordering: ell_1..ell_m, then g_2..g_{m-1}."""
    return np.concatenate([point.ell, point.g])


@dataclass(frozen=True)
class AffineFunction:
    """const + sum(coeffs[idx] * z[idx]) over the global variable ordering."""

    const: float
    coeffs: dict[int, float]

    def value(self, point: FeasiblePoint) -> float:
        z = as_vector(point)
        return self.const + sum(c * z[i] for i, c in self.coeffs.items())

    def as_dense(self, nvar: int) -> np.ndarray:
        out = np.zeros(nvar)
        for i, c in self.coeffs.items():
            out[i] = c
        return out


def _check_cell(grid: DesignGrid, i: int) -> None:
    if not 1 <= i <= grid.m - 1:
        raise ValueError(f"cell index {i} outside 1..{grid.m - 1}")


def _u_anchor_sign(i: int, m: int) -> tuple[int, float]:
    """Anchor design point and slope sign for the right-tangent bound U_i."""
    return (i + 1, -1.0) if i <= m - 2 else (m - 1, 1.0)


def _v_anchor_sign(i: int, m: int) -> tuple[int, float]:
    """Anchor design point and slope sign for the left-tangent bound V_i."""
    return (i, 1.0) if i >= 2 else (2, -1.0)


def eval_L(grid: DesignGrid, ell: np.ndarray, i: int) -> float:
    """Chord lower bound on the mass of cell i."""
    ell = np.asarray(ell, dtype=float)
    _check_point(grid, ell, None)
    _check_cell(grid, i)
    dx = grid.x[i] - grid.x[i - 1]
    s = np.asarray(ell[i] - ell[i - 1])
    return float(dx * np.exp(ell[i - 1] + log_exp_mean_arr(s)))


def _tangent_value(grid, ell, g, i, anchor, sign):
    # computed as dx * exp(ell_a + log E(...)) so huge slopes degrade to
    # inf or 0 instead of NaN
    dx = grid.x[i] - grid.x[i - 1]
    ga = g[anchor - 2]
    s = np.asarray(sign * ga * dx)
    return float(dx * np.exp(ell[anchor - 1] + log_exp_mean_arr(s)))


def eval_U(grid: DesignGrid, ell: np.ndarray, g: np.ndarray, i: int) -> float:
    """Tangent upper bound on cell i anchored at its right interior point."""
    ell = np.asarray(ell, dtype=float)
    g = np.asarray(g, dtype=float)
    _check_point(grid, ell, g)
    _check_cell(grid, i)
    anchor, sign = _u_anchor_sign(i, grid.m)
    return _tangent_value(grid, ell, g, i, anchor, sign)


def eval_V(grid: DesignGrid, ell: np.ndarray, g: np.ndarray, i: int) -> float:
    """Tangent upper bound on cell i anchored at its left interior point."""
    ell = np.asarray(ell, dtype=float)
    g = np.asarray(g, dtype=float)
    _check_point(grid, ell, g)
    _check_cell(grid, i)
    anchor, sign = _v_anchor_sign(i, grid.m)
    return _tangent_value(grid, ell, g, i, anchor, sign)


def grad_L(grid: DesignGrid, ell: np.ndarray, i: int) -> dict[int, float]:
    """Gradient of eval_L over the global ordering (two nonzero entries)."""
    ell = np.asarray(ell, dtype=float)
    _check_point(grid, ell, None)
    _check_cell(grid, i)
    m = grid.m
    dx = grid.x[i] - grid.x[i - 1]
    s = np.asarray(ell[i] - ell[i - 1])
    base = ell[i - 1] + np.log(dx)
    return {
        ell_index(i, m): float(np.exp(base + log_exp_mean_gap_arr(s))),
        ell_index(i + 1, m): float(np.exp(base + log_exp_mean_deriv_arr(s))),
    }


def _tangent_grad(grid, ell, g, i, anchor, sign):
    m = grid.m
    dx = grid.x[i] - grid.x[i - 1]
    ga = g[anchor - 2]
    s = np.asarray(sign * ga * dx)
    value = dx * np.exp(ell[anchor - 1] + log_exp_mean_arr(s))
    dval_dg = sign * dx * dx * np.exp(ell[anchor - 1] + log_exp_mean_deriv_arr(s))
    return {ell_index(anchor, m): float(value), g_index(anchor, m): float(dval_dg)}


def grad_U(grid: DesignGrid, ell: np.ndarray, g: np.ndarray, i: int) -> dict[int, float]:
    """Gradient of eval_U; the ell-partial equals the bound itself."""
    ell = np.asarray(ell, dtype=float)
    g = np.asarray(g, dtype=float)
    _check_point(grid, ell, g)
    _check_cell(grid, i)
    anchor, sign = _u_anchor_sign(i, grid.m)
    return _tangent_grad(grid, ell, g, i, anchor, sign)


def grad_V(grid: DesignGrid, ell: np.ndarray, g: np.ndarray, i: int) -> dict[int, float]:
    """Gradient of eval_V; the ell-partial equals the bound itself."""
    ell = np.asarray(ell, dtype=float)
    g = np.asarray(g, dtype=float)
    _check_point(grid, ell, g)
    _check_cell(grid, i)
    anchor, sign = _v_anchor_sign(i, grid.m)
    return _tangent_grad(grid, ell, g, i, anchor, sign)


def _linearize(value: float, grad: dict[int, float], z0: np.ndarray) -> AffineFunction:
    const = value - sum(c * z0[idx] for idx, c in grad.items())
    return AffineFunction(const=float(const), coeffs=grad)


def linearize_L(grid: DesignGrid, point: FeasiblePoint, i: int) -> AffineFunction:
    """First-order expansion of eval_L at point; a global minorant by convexity."""
    value = eval_L(grid, point.ell, i)
    grad = grad_L(grid, point.ell, i)
    return _linearize(value, grad, as_vector(point))


def linearize_U(grid: DesignGrid, point: FeasiblePoint, i: int) -> AffineFunction:
    """First-order expansion of eval_U at point; a global minorant by convexity."""
    value = eval_U(grid, point.ell, point.g, i)
    grad = grad_U(grid, point.ell, point.g, i)
    return _linearize(value, grad, as_vector(point))


def linearize_V(grid: DesignGrid, point: FeasiblePoint, i: int) -> AffineFunction:
    """First-order expansion of eval_V at point; a global minorant by convexity."""
    value = eval_V(grid, point.ell, point.g, i)
    grad = grad_V(grid, point.ell, point.g, i)
    return _linearize(value, grad, as_vector(point))


def linearize_cells_unfused(grid: DesignGrid, point: FeasiblePoint) -> CellLinearization:
    """linearize_cells with each family's kernels run on its own arguments."""
    _check_point(grid, point.ell, point.g)
    m = grid.m
    ell, g = point.ell, point.g
    dx = np.diff(grid.x)
    i = np.arange(1, m)
    u_anchor = np.where(i <= m - 2, i + 1, m - 1)
    u_sign = np.where(i <= m - 2, -1.0, 1.0)
    v_anchor = np.where(i >= 2, i, 2)
    v_sign = np.where(i >= 2, 1.0, -1.0)

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
