"""Tests for the cell-mass bounds, gradients, and linearizations.

The quadrature sandwich uses scipy.integrate.quad as an independent oracle:
for any concave log-density the true cell mass must land between the chord
lower bound and both tangent upper bounds.
"""

import math

import numpy as np
import pytest
from scipy import integrate

from cell_oracle import (
    AffineFunction,
    as_vector,
    ell_index,
    eval_L,
    eval_U,
    eval_V,
    g_index,
    grad_L,
    grad_U,
    grad_V,
    linearize_L,
    linearize_U,
    linearize_V,
    linearize_cells_unfused,
    num_vars,
)
from lcbands.design import Block, DesignGrid, IntervalSystem
from lcbands.relax import FeasiblePoint, check_feasible, linearize_cells


def toy_grid(x) -> DesignGrid:
    x = np.asarray(x, dtype=float)
    return DesignGrid(n=0, s_n=0, spacing=1, m=x.size, b_max=0, x=x)


def toy_system(m, c, d) -> IntervalSystem:
    i = np.arange(1, m)
    pairs = np.column_stack([i, i + 1])
    block = Block(B=0, n_B=m - 1, pairs=pairs, c_B=c, d_B=d)
    return IntervalSystem(alpha=0.1, B_max=0, t_n=0.5, blocks=(block,))


def random_point(grid, rng, scale=1.0) -> FeasiblePoint:
    return FeasiblePoint(
        ell=rng.uniform(-2 * scale, scale, grid.m),
        g=rng.uniform(-2 * scale, 2 * scale, grid.m - 2),
    )


def test_eval_L_frozen_example():
    grid = toy_grid([0.0, 2.0, 3.0])
    ell = np.array([-1.0, -3.0, -3.5])
    expected = math.exp(-1) - math.exp(-3)  # 0.318092...
    assert abs(eval_L(grid, ell, 1) - expected) <= 1e-14


def test_eval_U_first_cell_example():
    grid = toy_grid([0.0, 1.0, 2.0, 3.0])
    ell = np.zeros(4)
    g = np.array([1.0, 0.0])
    # anchored at point 2 with sign flip: E(-1) = 1 - 1/e
    assert abs(eval_U(grid, ell, g, 1) - (1 - math.exp(-1))) <= 1e-14


def test_eval_V_first_cell_example():
    grid = toy_grid([0.0, 0.5, 1.0, 1.5])
    ell = np.array([0.3, math.log(2.0), 0.0, 0.0])
    g = np.array([2.0, 0.0])
    # exp(ell_2) dx E(-g_2 dx) = 2 * 0.5 * E(-1)
    assert abs(eval_V(grid, ell, g, 1) - (1 - math.exp(-1))) <= 1e-14


def test_edge_cells_share_anchors():
    rng = np.random.default_rng(0)
    grid = toy_grid(np.cumsum(rng.uniform(0.2, 1.5, 6)))
    p = random_point(grid, rng)
    m = grid.m
    assert eval_U(grid, p.ell, p.g, 1) == eval_V(grid, p.ell, p.g, 1)
    assert eval_U(grid, p.ell, p.g, m - 1) == eval_V(grid, p.ell, p.g, m - 1)


def test_log_linear_density_collapses_sandwich():
    # For ell affine with matching slopes, chord and tangents all equal the
    # exact integral of exp(a + b x) over each cell.
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = np.sort(rng.uniform(-3, 3, 5))
        a, b = rng.uniform(-1, 1, 2)
        grid = toy_grid(x)
        ell = a + b * x
        g = np.full(3, b)
        for i in range(1, 5):
            if abs(b) > 1e-12:
                exact = (math.exp(a + b * x[i]) - math.exp(a + b * x[i - 1])) / b
            else:
                exact = math.exp(a) * (x[i] - x[i - 1])
            for got in (
                eval_L(grid, ell, i),
                eval_U(grid, ell, g, i),
                eval_V(grid, ell, g, i),
            ):
                assert abs(got - exact) <= 1e-12 * max(1.0, exact)


def test_quadrature_sandwich_concave_quadratics():
    rng = np.random.default_rng(2)
    for _ in range(100):
        x = np.sort(rng.uniform(-3, 3, rng.integers(4, 8)))
        if np.diff(x).min() < 1e-3:
            continue
        q = rng.uniform(0.0, 2.0)
        c = rng.uniform(-2, 2)
        r = rng.uniform(-1, 1)
        phi = lambda t: r - q * (t - c) ** 2
        grid = toy_grid(x)
        ell = phi(x)
        g = -2.0 * q * (x[1:-1] - c)
        for i in range(1, x.size):
            mass, err = integrate.quad(lambda t: math.exp(phi(t)), x[i - 1], x[i])
            lo = eval_L(grid, ell, i)
            hi = min(eval_U(grid, ell, g, i), eval_V(grid, ell, g, i))
            assert lo <= mass + 1e-9 + err
            assert mass <= hi + 1e-9 + err


def test_grad_U_frozen_example():
    # flat zero log-density on a unit grid, last cell: both partials known
    grid = toy_grid([0.0, 1.0, 2.0, 3.0])
    ell = np.zeros(4)
    g = np.zeros(2)
    m = grid.m
    grad = grad_U(grid, ell, g, m - 1)
    assert abs(grad[ell_index(m - 1, m)] - 1.0) <= 1e-14
    assert abs(grad[g_index(m - 1, m)] - 0.5) <= 1e-14


def test_grad_L_frozen_example():
    grid = toy_grid([0.0, 1.0, 2.0])
    ell = np.zeros(3)
    grad = grad_L(grid, ell, 1)
    assert abs(grad[ell_index(1, 3)] - 0.5) <= 1e-14
    assert abs(grad[ell_index(2, 3)] - 0.5) <= 1e-14


def _fd_check(fun, grad, z0, h=1e-6, tol=1e-6):
    for idx, an in grad.items():
        zp, zm = z0.copy(), z0.copy()
        zp[idx] += h
        zm[idx] -= h
        fd = (fun(zp) - fun(zm)) / (2 * h)
        assert abs(fd - an) <= tol * max(1.0, abs(an)), f"idx {idx}: {fd} vs {an}"


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(3)
    for _ in range(30):
        x = np.sort(rng.uniform(-2, 2, 6))
        if np.diff(x).min() < 0.05:
            continue
        grid = toy_grid(x)
        p = random_point(grid, rng)
        m = grid.m
        z0 = as_vector(p)

        def split(z):
            return z[:m], z[m:]

        for i in range(1, m):
            _fd_check(lambda z: eval_L(grid, z[:m], i), grad_L(grid, p.ell, i), z0)
            _fd_check(
                lambda z: eval_U(grid, *split(z), i), grad_U(grid, p.ell, p.g, i), z0
            )
            _fd_check(
                lambda z: eval_V(grid, *split(z), i), grad_V(grid, p.ell, p.g, i), z0
            )


def test_linearizations_touch_at_center_and_minorize():
    rng = np.random.default_rng(4)
    for _ in range(20):
        x = np.sort(rng.uniform(-2, 2, 5))
        if np.diff(x).min() < 0.05:
            continue
        grid = toy_grid(x)
        p0 = random_point(grid, rng)
        for i in range(1, grid.m):
            lin_l = linearize_L(grid, p0, i)
            lin_u = linearize_U(grid, p0, i)
            lin_v = linearize_V(grid, p0, i)
            assert abs(lin_l.value(p0) - eval_L(grid, p0.ell, i)) <= 1e-12
            assert abs(lin_u.value(p0) - eval_U(grid, p0.ell, p0.g, i)) <= 1e-12
            assert abs(lin_v.value(p0) - eval_V(grid, p0.ell, p0.g, i)) <= 1e-12
            for _ in range(10):
                p1 = random_point(grid, rng)
                assert lin_l.value(p1) <= eval_L(grid, p1.ell, i) + 1e-12
                assert lin_u.value(p1) <= eval_U(grid, p1.ell, p1.g, i) + 1e-12
                assert lin_v.value(p1) <= eval_V(grid, p1.ell, p1.g, i) + 1e-12


def test_linearize_L_flat_example():
    grid = toy_grid([0.0, 1.0, 2.0])
    p0 = FeasiblePoint(ell=np.zeros(3), g=np.zeros(1))
    lin = linearize_L(grid, p0, 1)
    assert abs(lin.const - 1.0) <= 1e-14
    assert abs(lin.coeffs[ell_index(1, 3)] - 0.5) <= 1e-14
    assert abs(lin.coeffs[ell_index(2, 3)] - 0.5) <= 1e-14


def test_linearize_cells_matches_per_cell_functions():
    rng = np.random.default_rng(5)
    x = np.sort(rng.uniform(-3, 3, 7))
    grid = toy_grid(x)
    p = random_point(grid, rng)
    cells = linearize_cells(grid, p)
    m = grid.m
    for i in range(1, m):
        assert abs(cells.u_val[i - 1] - eval_U(grid, p.ell, p.g, i)) <= 1e-13
        assert abs(cells.v_val[i - 1] - eval_V(grid, p.ell, p.g, i)) <= 1e-13
        assert abs(cells.l_val[i - 1] - eval_L(grid, p.ell, i)) <= 1e-13
        gu = grad_U(grid, p.ell, p.g, i)
        gv = grad_V(grid, p.ell, p.g, i)
        gl = grad_L(grid, p.ell, i)
        au = int(cells.u_anchor[i - 1])
        av = int(cells.v_anchor[i - 1])
        assert abs(cells.u_dg[i - 1] - gu[g_index(au, m)]) <= 1e-13
        assert abs(cells.v_dg[i - 1] - gv[g_index(av, m)]) <= 1e-13
        assert abs(cells.l_dlo[i - 1] - gl[ell_index(i, m)]) <= 1e-13
        assert abs(cells.l_dhi[i - 1] - gl[ell_index(i + 1, m)]) <= 1e-13


def _kernel_regions(s: np.ndarray) -> set[str]:
    # the branches of the log-exp-mean kernels in lcbands.specfun
    a = np.abs(s)
    regions = {
        "asymptotic": a >= 50.0,
        "taylor": a <= 1e-4,
        "deriv_taylor": (a > 1e-4) & (a <= 1e-2),
        "direct": (a > 1e-2) & (a < 50.0),
    }
    return {name for name, hit in regions.items() if hit.any()}


def test_fused_linearize_cells_equals_unfused():
    # one kernel pass over the concatenated U, V and L arguments must give
    # the bits of one pass per family, on every kernel branch
    x = np.cumsum([0.0, 0.5, 1.0, 1.0, 2.0, 1.0, 1.0, 0.25, 1.0, 1.0, 1.5, 1.0, 1.0, 1.0])
    grid = toy_grid(x)
    m = grid.m
    rise = [52.0, -0.7, 4e-5, -3e-3, -58.0, 2.2, -6e-5, 9e-3, 0.0, -1.1, 5e-4, -2e-3, 0.35]
    g = [75.0, -0.3, 3e-5, -5e-3, 2.5, -60.0, 8e-3, -2e-5, 0.0, 1.7, -55.0, 4e-4]
    extreme = FeasiblePoint(ell=np.concatenate([[-1.0], -1.0 + np.cumsum(rise)]), g=g)
    layout = grid.cell_layout
    slopes = layout.sign_dx * extreme.g[layout.g_at]  # U, then V arguments
    for args in (slopes[: m - 1], slopes[m - 1 :], np.diff(extreme.ell)):
        assert _kernel_regions(args) == {"asymptotic", "taylor", "deriv_taylor", "direct"}
    rng = np.random.default_rng(11)
    points = [extreme] + [random_point(grid, rng, scale) for scale in (1e-3, 1.0, 30.0)]
    for point in points:
        fused = linearize_cells(grid, point)
        unfused = linearize_cells_unfused(grid, point)
        for name in fused.__dataclass_fields__:
            np.testing.assert_array_equal(getattr(fused, name), getattr(unfused, name))
            np.testing.assert_array_equal(
                np.signbit(getattr(fused, name)), np.signbit(getattr(unfused, name))
            )


def test_affine_function_value():
    f = AffineFunction(const=2.0, coeffs={0: 1.0, 3: -2.0})
    p = FeasiblePoint(ell=np.array([1.0, 0.0, 3.0]), g=np.array([4.0]))
    assert f.value(p) == 2.0 + 1.0 - 8.0
    dense = f.as_dense(num_vars(3))
    np.testing.assert_array_equal(dense, [1.0, 0.0, 0.0, -2.0])


def test_check_feasible_flat_truth_on_uniform_data():
    # Data from uniform(0,1) with the true log-density (ell=0, g=0): the
    # relaxed set contains the truth whenever the raw mass bounds hold,
    # which has probability well above 1 - alpha.
    from lcbands.design import build_interval_system, select_design_points

    rng = np.random.default_rng(6)
    hits = 0
    sims = 200
    for _ in range(sims):
        grid = select_design_points(rng.uniform(0.0, 1.0, 100))
        system = build_interval_system(grid, 0.2)
        point = FeasiblePoint(ell=np.zeros(grid.m), g=np.zeros(grid.m - 2))
        hits += check_feasible(grid, system, point).feasible
    assert hits / sims >= 0.8 - 3 * math.sqrt(0.2 * 0.8 / sims)


def test_check_feasible_flags_collapsed_level():
    grid = toy_grid(np.linspace(0.0, 1.0, 6))
    system = toy_system(6, c=0.1, d=0.9)
    ell = np.zeros(6)
    ell[2] = -1e6
    point = FeasiblePoint(ell=ell, g=np.zeros(4))
    report = check_feasible(grid, system, point)
    assert not report.feasible
    assert report.down1 > 0.09  # the pair whose tangent anchor collapsed
    assert report.conc > 0  # spike also breaks concavity
    for v in (report.conc, report.up, report.down1, report.down2):
        assert not math.isnan(v)


def test_extreme_slopes_stay_nan_free():
    grid = toy_grid([0.0, 1e-3, 1.0, 2.0, 2.001])
    system = toy_system(5, c=0.01, d=0.99)
    point = FeasiblePoint(
        ell=np.array([0.0, -20.0, 10.0, -30.0, 0.0]),
        g=np.array([1e5, -1e5, 3e4]),
    )
    cells = linearize_cells(grid, point)
    for arr in (cells.u_val, cells.v_val, cells.l_val, cells.u_dg, cells.v_dg):
        assert not np.isnan(arr).any()
    report = check_feasible(grid, system, point)
    assert not report.feasible
    for v in (report.conc, report.up, report.down1, report.down2):
        assert not math.isnan(v)


def test_check_feasible_concavity_arithmetic():
    grid = toy_grid([0.0, 1.0, 2.0, 3.0])
    system = toy_system(4, c=1e-9, d=10.0)  # mass families trivially satisfied
    ell = np.array([0.0, 0.0, 1.0, 1.0])
    point = FeasiblePoint(ell=ell, g=np.zeros(2))
    report = check_feasible(grid, system, point)
    # at i=2: ell_3 - ell_2 - g_2 (x_3 - x_2) = 1
    assert abs(report.conc - 1.0) <= 1e-15
    assert not report.feasible


def test_index_helpers_and_validation():
    assert ell_index(1, 13) == 0
    assert ell_index(13, 13) == 12
    assert g_index(2, 13) == 13
    assert g_index(12, 13) == 23
    assert num_vars(13) == 24
    with pytest.raises(ValueError):
        ell_index(0, 13)
    with pytest.raises(ValueError):
        g_index(1, 13)
    with pytest.raises(ValueError):
        g_index(13, 13)
    grid = toy_grid([0.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        eval_L(grid, np.zeros(5), 1)
    with pytest.raises(ValueError):
        eval_L(grid, np.zeros(3), 3)
    with pytest.raises(ValueError):
        FeasiblePoint(ell=np.zeros(4), g=np.zeros(3))
    with pytest.raises(ValueError):
        FeasiblePoint(ell=np.array([np.inf, 0.0, 0.0]), g=np.zeros(1))
