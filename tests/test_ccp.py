"""Tests for the penalty iteration over linearized subproblems.

Covers the subproblem assembly (variable and row counts, tangent rows
touching at the expansion point), the penalty schedule, the stopping
behavior, and the interval-level contracts: min <= max, feasibility at
convergence, subset independence, determinism, and agreement across
random initializations.
"""

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from cell_oracle import eval_L, eval_U, eval_V
from lcbands import ccp
from lcbands.ccp import (
    CcpConfig,
    SubproblemTemplate,
    default_log_bounds,
    initial_point,
    pointwise_intervals,
    run_ccp_point,
)
from lcbands.design import (
    Block,
    DesignGrid,
    IntervalSystem,
    build_interval_system,
    select_design_points,
)
from lcbands.lpsolve import solve_lp
from lcbands.relax import FeasiblePoint, check_feasible


def toy_grid(x) -> DesignGrid:
    x = np.asarray(x, dtype=float)
    return DesignGrid(n=60, s_n=2, spacing=10, m=x.size, b_max=0, x=x)


def toy_system(m, c, d) -> IntervalSystem:
    i = np.arange(1, m)
    pairs = np.column_stack([i, i + 1])
    block = Block(B=0, n_B=m - 1, pairs=pairs, c_B=c, d_B=d)
    return IntervalSystem(alpha=0.1, B_max=0, t_n=0.5, blocks=(block,))


def gaussian_instance(n, seed, alpha=0.05):
    rng = np.random.Generator(np.random.Philox(key=[seed, 0]))
    grid = select_design_points(rng.normal(size=n))
    return grid, build_interval_system(grid, alpha)


def test_config_validation():
    with pytest.raises(ValueError):
        CcpConfig(init="warm")
    for bad in (-1, 2**64, 1.5, "0"):
        with pytest.raises(ValueError):
            CcpConfig(init="random", seed=bad)
    CcpConfig(init="random", seed=2**64 - 1)
    CcpConfig(init="random", seed=np.uint64(7))


def test_sanity_cell_lp_traffic(monkeypatch):
    # the benchmark's --selftest cell: any change to the solver traffic,
    # however small, shows here as a different call or pivot count
    calls = []

    def counting_solve_lp(lp, warm=None):
        sol = solve_lp(lp, warm)
        calls.append(sol.iterations)
        return sol

    monkeypatch.setattr(ccp, "solve_lp", counting_solve_lp)
    x = np.random.Generator(np.random.Philox(key=[0, 0])).normal(size=200)
    grid = select_design_points(x)
    system = build_interval_system(grid, 0.1)
    pointwise_intervals(grid, system, CcpConfig(), np.arange(1, grid.m + 1))
    assert len(calls) == 1440
    assert sum(calls) == 13957


def test_subproblem_counts_match_design_n100():
    # m=13 design: 13 levels + 11 slopes + 12 slacks = 36 variables and
    # 22 concavity + 12 chord-cap + 24 tangent rows, slacks bounded below
    grid, system = gaussian_instance(100, seed=0)
    assert grid.m == 13
    assert system.pair_count == 12
    point = initial_point(grid, system, CcpConfig())
    lp = SubproblemTemplate(grid, system).instantiate(point, 3, "min", 1.0)
    assert lp.num_vars == 36
    assert lp.num_rows == 22 + 12 + 24
    assert np.flatnonzero(lp.lower == 0.0).tolist() == list(range(24, 36))
    assert np.all(np.isinf(lp.upper[24:]))


def test_slack_count_equals_pair_count():
    grid = toy_grid(np.linspace(0.0, 2.0, 7))
    system = toy_system(7, c=0.05, d=0.5)
    template = SubproblemTemplate(grid, system)
    assert template.nvar - (2 * grid.m - 2) == system.pair_count


def test_objective_encoding():
    grid = toy_grid(np.linspace(0.0, 2.0, 6))
    system = toy_system(6, c=0.05, d=0.5)
    point = FeasiblePoint(ell=np.zeros(6) - 1.0, g=np.zeros(4))
    template = SubproblemTemplate(grid, system)
    lo = template.instantiate(point, 2, "min", 7.5)
    hi = template.instantiate(point, 2, "max", 7.5)
    base = np.zeros(lo.num_vars)
    base[2 * 6 - 2 :] = 7.5
    want_lo, want_hi = base.copy(), base.copy()
    want_lo[1] = 1.0
    want_hi[1] = -1.0  # max encoded as minimizing the negation
    np.testing.assert_array_equal(lo.objective, want_lo)
    np.testing.assert_array_equal(hi.objective, want_hi)


def test_tangent_rows_touch_at_expansion_point():
    # with zero slacks the Uhat-row residuals equal c_B - sum U_i exactly,
    # the Vhat rows c_B - sum V_i, and the chord rows sum L_i - d_B
    rng = np.random.default_rng(8)
    x = np.sort(rng.uniform(-1.5, 1.5, 6))
    grid = toy_grid(x)
    system = toy_system(6, c=0.07, d=0.6)
    point = FeasiblePoint(
        ell=rng.uniform(-2.0, 0.5, 6), g=rng.uniform(-2.0, 2.0, 4)
    )
    lp = SubproblemTemplate(grid, system).instantiate(point, 3, "min", 1.0)
    z = np.concatenate([point.ell, point.g, np.zeros(system.pair_count)])
    resid = np.asarray(lp.rows @ z).ravel() - lp.rhs
    n_conc, P = 2 * (6 - 2), system.pair_count
    for p in range(P):  # pair p covers the single cell p+1
        u = eval_U(grid, point.ell, point.g, p + 1)
        v = eval_V(grid, point.ell, point.g, p + 1)
        chord = eval_L(grid, point.ell, p + 1)
        assert abs(resid[n_conc + p] - (chord - 0.6)) <= 1e-12
        assert abs(resid[n_conc + P + p] - (0.07 - u)) <= 1e-12
        assert abs(resid[n_conc + 2 * P + p] - (0.07 - v)) <= 1e-12


class _RecordingTemplate(SubproblemTemplate):
    def __init__(self, grid, system):
        super().__init__(grid, system)
        self.taus = []

    def instantiate(self, point, t, sense, tau, **kwargs):
        self.taus.append(tau)
        return super().instantiate(point, t, sense, tau, **kwargs)


def test_penalty_schedule_exact():
    grid, system = gaussian_instance(100, seed=0)
    template = _RecordingTemplate(grid, system)
    _, diag = run_ccp_point(grid, system, 7, "min", CcpConfig(), template=template)
    assert diag.status == "converged"
    assert 1 < diag.iterations <= ccp.K_MAX  # no settle or retry pass
    assert len(template.taus) == diag.iterations
    want = [
        min(ccp.TAU0 * ccp.KAPPA**k, ccp.TAU_MAX) for k in range(diag.iterations)
    ]
    assert template.taus == want


def test_settle_phase_keeps_penalty_schedule(monkeypatch):
    # with K_MAX=2 every run converges only past the ramp, so the settle
    # iterations run and must continue the tau schedule unchanged
    monkeypatch.setattr(ccp, "TAU0", 1e2)
    monkeypatch.setattr(ccp, "K_MAX", 2)
    grid, system = gaussian_instance(100, seed=0)
    for t in (3, 7):
        for sense in ("min", "max"):
            template = _RecordingTemplate(grid, system)
            _, diag = run_ccp_point(
                grid, system, t, sense, CcpConfig(), template=template
            )
            assert diag.status == "converged"
            assert diag.iterations > ccp.K_MAX + 1
            assert len(template.taus) == diag.iterations
            want = [
                min(ccp.TAU0 * ccp.KAPPA**k, ccp.TAU_MAX)
                for k in range(diag.iterations)
            ]
            assert template.taus == want


def test_monotone_criterion_fixed_tau():
    # textbook fixed-penalty iteration on an instance whose chord caps
    # never bind: the penalized objective is nonincreasing in the min sense
    grid = toy_grid(np.linspace(0.0, 1.0, 6))
    system = toy_system(6, c=0.05, d=50.0)
    template = SubproblemTemplate(grid, system)
    cfg = CcpConfig(init="random", seed=5)
    point = initial_point(grid, system, cfg, t=3, sense="min")
    prev = math.inf
    for _ in range(12):
        lp = template.instantiate(point, 3, "min", tau=25.0)
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        assert sol.objective_value <= prev + 1e-9
        prev = sol.objective_value
        point = FeasiblePoint(ell=sol.z[:6], g=sol.z[6:10])


def test_intervals_ordered_feasible_and_complete():
    grid, system = gaussian_instance(100, seed=3)
    res = pointwise_intervals(grid, system, CcpConfig(), range(1, 14))
    assert res.indices == tuple(range(1, 14))
    assert res.lo.shape == res.hi.shape == (13,)
    assert np.all(res.lo <= res.hi + 1e-9)
    assert res.all_converged
    for d in res.diagnostics:
        assert d.final_slack <= 1e-6
        assert d.worst_violation <= 1e-5


def test_subset_runs_are_independent():
    grid, system = gaussian_instance(100, seed=1)
    cfg = CcpConfig()
    full = pointwise_intervals(grid, system, cfg, range(1, 14))
    odd = pointwise_intervals(grid, system, cfg, range(1, 14, 2))
    shared = [full.indices.index(t) for t in odd.indices]
    np.testing.assert_array_equal(full.lo[shared], odd.lo)
    np.testing.assert_array_equal(full.hi[shared], odd.hi)


def test_subset_validation():
    grid, system = gaussian_instance(100, seed=0)
    with pytest.raises(ValueError):
        pointwise_intervals(grid, system, CcpConfig(), [])
    with pytest.raises(ValueError):
        pointwise_intervals(grid, system, CcpConfig(), [0, 3])
    with pytest.raises(ValueError):
        pointwise_intervals(grid, system, CcpConfig(), [14])
    # a fractional index must not be truncated onto a neighbouring knot
    for bad in ([1.9, 5.5, 9.99], [1, 2.5], [3, float("nan")]):
        with pytest.raises(ValueError, match="integers"):
            pointwise_intervals(grid, system, CcpConfig(), bad)


def test_point_validation():
    grid, system = gaussian_instance(100, seed=0)
    with pytest.raises(ValueError):
        run_ccp_point(grid, system, 0, "min", CcpConfig())
    with pytest.raises(ValueError):
        run_ccp_point(grid, system, 14, "min", CcpConfig())
    with pytest.raises(ValueError):
        run_ccp_point(grid, system, 3, "lower", CcpConfig())


def test_endpoint_minimum_is_box_floor():
    # the first and last levels enter no tangent row, so their minimum is
    # the variable box floor and needs no iteration
    grid, system = gaussian_instance(100, seed=2)
    floor = default_log_bounds(grid)[0]
    for t in (1, 13):
        val, diag = run_ccp_point(grid, system, t, "min", CcpConfig())
        assert diag.status == "converged"
        assert diag.iterations == 0
        assert val == floor
    val, diag = run_ccp_point(grid, system, 1, "max", CcpConfig())
    assert diag.status == "converged"
    assert val > floor + 1.0


def test_initial_point_satisfies_hard_rows():
    grid, system = gaussian_instance(100, seed=4)
    for cfg in (CcpConfig(), CcpConfig(init="random", seed=9)):
        point = initial_point(grid, system, cfg, t=5, sense="max")
        report = check_feasible(grid, system, point)
        assert report.conc <= 1e-9
        assert report.up <= 1e-9


def test_deterministic_across_repeats_and_threads():
    grid, system = gaussian_instance(100, seed=6)
    cfg = CcpConfig(init="random", seed=6)
    jobs = [(t, sense) for t in (2, 5, 9) for sense in ("min", "max")]
    template = SubproblemTemplate(grid, system)

    def solve(job):
        t, sense = job
        return run_ccp_point(grid, system, t, sense, cfg, template=template)[0]

    serial = [solve(job) for job in jobs]
    repeat = [solve(job) for job in jobs]
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(solve, jobs))
    assert serial == repeat
    assert serial == threaded


def test_random_initializations_agree():
    grid, system = gaussian_instance(100, seed=7)
    for t, sense in ((7, "min"), (7, "max")):
        vals = []
        for seed in range(10):
            cfg = CcpConfig(init="random", seed=seed)
            val, diag = run_ccp_point(grid, system, t, sense, cfg)
            assert diag.status == "converged"
            vals.append(val)
        assert max(vals) - min(vals) <= 1e-4
