"""Tests for the penalty iteration over linearized subproblems.

Covers the subproblem assembly (variable and row counts, tangent rows
touching at the expansion point), the penalty schedule, the stopping
behavior, and the interval-level contracts: min <= max, feasibility at
convergence, subset independence and determinism.  Every run starts from
the histogram point that initial_point builds.
"""

import dataclasses
import math
import multiprocessing
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from cell_oracle import eval_L, eval_U, eval_V
from lp_oracle import rows_matrix
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
from lcbands.relax import FeasiblePoint, check_feasible, linearize_cells


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


fans_out = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity")
    or len(os.sched_getaffinity(0)) < 2
    or "fork" not in multiprocessing.get_all_start_methods(),
    reason="the endpoint runs fan out only with fork and 2 or more usable CPUs",
)


def intervals_n100():
    grid, system = gaussian_instance(100, seed=0)
    return pointwise_intervals(grid, system, CcpConfig(), range(1, grid.m + 1))


def test_config_validation():
    # CcpConfig has no settings: every run starts from the histogram levels
    assert dataclasses.fields(CcpConfig) == ()
    assert CcpConfig() == CcpConfig()
    for kwargs in ({"init": "data"}, {"init": "random"}, {"seed": 0}):
        with pytest.raises(TypeError):
            CcpConfig(**kwargs)
    with pytest.raises(TypeError):
        CcpConfig("data")


def test_sanity_cell_lp_traffic(monkeypatch):
    # the benchmark's --selftest cell: any change to the solver traffic,
    # however small, shows here as a different call or pivot count
    calls = []
    linearizations = []
    starts = []

    def counting_solve_lp(lp, warm=None):
        sol = solve_lp(lp, warm)
        calls.append(sol.iterations)
        return sol

    def counting_linearize_cells(grid, point):
        linearizations.append(None)
        return linearize_cells(grid, point)

    def counting_initial_point(grid, system):
        starts.append(None)
        return initial_point(grid, system)

    monkeypatch.setattr(ccp, "solve_lp", counting_solve_lp)
    monkeypatch.setattr(ccp, "linearize_cells", counting_linearize_cells)
    monkeypatch.setattr(ccp, "initial_point", counting_initial_point)
    x = np.random.Generator(np.random.Philox(key=[0, 0])).normal(size=200)
    grid = select_design_points(x)
    system = build_interval_system(grid, 0.1)
    pointwise_intervals(grid, system, CcpConfig(), np.arange(1, grid.m + 1))
    assert len(calls) == 1440
    assert sum(calls) == 13957
    # one start serves every run
    assert len(starts) == 1
    # the start and each solved iterate are linearized once for
    # chord_cap_shift; the next program linearizes again only after a shift
    assert len(linearizations) == 2197


def test_subproblem_counts_match_design_n100():
    # m=13 design: 13 levels + 11 slopes + 12 slacks = 36 variables and
    # 22 concavity + 12 chord-cap + 24 tangent rows, slacks bounded below
    grid, system = gaussian_instance(100, seed=0)
    assert grid.m == 13
    assert system.pair_count == 12
    point = initial_point(grid, system)
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
    resid = rows_matrix(lp) @ z - lp.rhs
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
    _, diag = run_ccp_point(template, initial_point(grid, system), 7, "min")
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
    start = initial_point(grid, system)
    for t in (3, 7):
        for sense in ("min", "max"):
            template = _RecordingTemplate(grid, system)
            _, diag = run_ccp_point(template, start, t, sense)
            assert diag.status == "converged"
            assert diag.iterations > ccp.K_MAX + 1
            assert len(template.taus) == diag.iterations
            want = [
                min(ccp.TAU0 * ccp.KAPPA**k, ccp.TAU_MAX)
                for k in range(diag.iterations)
            ]
            assert template.taus == want


def test_non_converging_run_makes_one_pass(monkeypatch):
    # a well-separated bimodal sample is not log-concave: the slack never
    # clears, and the run reports that after one pass of the penalty ramp
    starts = []

    def counting_initial_point(*args, **kwargs):
        starts.append(None)
        return initial_point(*args, **kwargs)

    monkeypatch.setattr(ccp, "initial_point", counting_initial_point)
    rng = np.random.Generator(np.random.Philox(key=[0, 11]))
    x = rng.choice([-2.5, 2.5], size=200) + rng.normal(size=200)
    grid = select_design_points(x)
    system = build_interval_system(grid, 0.1)
    template = _RecordingTemplate(grid, system)
    _, diag = run_ccp_point(template, ccp.initial_point(grid, system), 7, "max")
    assert diag.status == "not_converged"
    assert diag.iterations == 51  # the ramp K = 0..K_MAX, no settle phase
    assert abs(diag.final_slack - 0.0994) <= 1e-4
    assert len(starts) == 1
    assert len(template.taus) == diag.iterations


def test_monotone_criterion_fixed_tau():
    # textbook fixed-penalty iteration on an instance whose chord caps
    # never bind: the penalized objective is nonincreasing in the min sense
    grid = toy_grid(np.linspace(0.0, 1.0, 6))
    system = toy_system(6, c=0.05, d=50.0)
    template = SubproblemTemplate(grid, system)
    point = initial_point(grid, system)
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


@fans_out
def test_fan_out_matches_in_process(monkeypatch):
    # the sanity cell, every run made here one after another, against the
    # same runs on forked workers: not one bit may differ
    x = np.random.Generator(np.random.Philox(key=[0, 0])).normal(size=200)
    grid = select_design_points(x)
    system = build_interval_system(grid, 0.1)
    cfg = CcpConfig()
    subset = np.arange(1, grid.m + 1)
    template = SubproblemTemplate(grid, system)
    start = initial_point(grid, system)
    shared = ccp._warmup_basis(template, start, 1)
    direct = [
        run_ccp_point(template, start, int(t), sense, shared)
        for t in subset
        for sense in ("min", "max")
    ]
    here = []
    run_endpoint = ccp._run_endpoint

    def counting_run_endpoint(args, job):
        here.append(job)  # a worker appends to its own copy
        return run_endpoint(args, job)

    monkeypatch.setattr(ccp, "_run_endpoint", counting_run_endpoint)
    fanned = pointwise_intervals(grid, system, cfg, subset)
    assert here == []  # every run went to a worker
    assert fanned.lo.tolist() == [v for v, _ in direct[0::2]]
    assert fanned.hi.tolist() == [v for v, _ in direct[1::2]]
    assert fanned.diagnostics == tuple(d for _, d in direct)
    # no worker and no pool thread outlives the call
    assert multiprocessing.active_children() == []
    assert threading.active_count() == 1


@fans_out
def test_fan_out_raise_reaches_caller_and_ends_pool(monkeypatch):
    caller = os.getpid()
    run_endpoint = ccp._run_endpoint

    def failing_in_worker(args, job):
        if os.getpid() == caller:
            return run_endpoint(args, job)
        raise RuntimeError(f"run {job} failed")

    monkeypatch.setattr(ccp, "_run_endpoint", failing_in_worker)
    with pytest.raises(RuntimeError, match="failed"):
        intervals_n100()
    assert multiprocessing.active_children() == []
    assert threading.active_count() == 1


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork"
)
def test_daemonic_caller_gets_the_same_intervals():
    # a pool worker may not have children of its own, so its runs stay in it
    with multiprocessing.get_context("fork").Pool(1) as pool:
        inner = pool.apply_async(intervals_n100).get(timeout=300)
    outer = intervals_n100()
    assert inner.indices == outer.indices
    assert inner.lo.tolist() == outer.lo.tolist()
    assert inner.hi.tolist() == outer.hi.tolist()
    assert inner.diagnostics == outer.diagnostics


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
    # a nested or scalar subset must not be flattened onto its entries
    for bad in ([[1, 2]], np.array(3)):
        with pytest.raises(ValueError, match="one-dimensional"):
            pointwise_intervals(grid, system, CcpConfig(), bad)
    # a boolean mask must not be read as the knot indices 0 and 1
    with pytest.raises(ValueError, match="boolean"):
        pointwise_intervals(grid, system, CcpConfig(), np.ones(grid.m, bool))
    for good in (range(5, 6), np.array([5])):
        assert pointwise_intervals(grid, system, CcpConfig(), good).indices == (5,)


def test_point_validation():
    grid, system = gaussian_instance(100, seed=0)
    template = SubproblemTemplate(grid, system)
    start = initial_point(grid, system)
    with pytest.raises(ValueError):
        run_ccp_point(template, start, 0, "min")
    with pytest.raises(ValueError):
        run_ccp_point(template, start, 14, "min")
    with pytest.raises(ValueError):
        run_ccp_point(template, start, 3, "lower")


def test_endpoint_minimum_is_box_floor():
    # the first and last levels enter no tangent row, so their minimum is
    # the variable box floor and needs no iteration
    grid, system = gaussian_instance(100, seed=2)
    floor = default_log_bounds(grid)[0]
    template = SubproblemTemplate(grid, system)
    start = initial_point(grid, system)
    for t in (1, 13):
        val, diag = run_ccp_point(template, start, t, "min")
        assert diag.status == "converged"
        assert diag.iterations == 0
        assert val == floor
    val, diag = run_ccp_point(template, start, 1, "max")
    assert diag.status == "converged"
    assert val > floor + 1.0


def test_initial_point_satisfies_hard_rows():
    grid, system = gaussian_instance(100, seed=4)
    point = initial_point(grid, system)
    report = check_feasible(grid, system, point)
    assert report.conc <= 1e-9
    assert report.up <= 1e-9


def test_deterministic_across_repeats_and_threads():
    grid, system = gaussian_instance(100, seed=6)
    start = initial_point(grid, system)
    jobs = [(t, sense) for t in (2, 5, 9) for sense in ("min", "max")]
    template = SubproblemTemplate(grid, system)

    def solve(job):
        t, sense = job
        return run_ccp_point(template, start, t, sense)[0]

    serial = [solve(job) for job in jobs]
    repeat = [solve(job) for job in jobs]
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(solve, jobs))
    assert serial == repeat
    assert serial == threaded
