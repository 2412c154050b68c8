"""Penalty convex-concave procedure for pointwise log-density intervals.

For a design point t the interval endpoints solve

    min / max  ell_t   over the relaxed log-concave feasibility set.

The set's only nonconvexity is the lower mass bounds (DOWN1, DOWN2), whose
left sides are concave in the decision variables after negation.  Each
outer iteration replaces the tangent-mass functions U and V by their
first-order expansions at the current iterate (global minorants, by
convexity), adds one shared slack per design-point pair covering both
relaxed rows, and solves the resulting linear program

    min  (+/-) ell_t + tau_K * sum(slacks)
    s.t. CONC rows, linearized UP rows, linearized DOWN rows, slacks >= 0,
         ell boxed to a wide data-driven range

with the penalty tau_K = min(TAU0 * KAPPA^K, TAU_MAX) growing each
iteration.  Every run starts from one point, the histogram levels made
hard-feasible, built once per pointwise_intervals call.  Iterates reuse the
previous basis, and all runs share the basis of the very first solve, since
every first iteration sees the same constraints.

The ell box exists because ell_1 and ell_m appear in no mass lower bound,
making the bare minimization unbounded; a range of +-25 around the
empirical histogram level is far wider than any plausible density value
and acts only as a numerical floor.

The (point, sense) runs of one pointwise_intervals call share nothing
mutable, so they run on forked workers (a ProcessPoolExecutor), one per
usable CPU, with the same bits as a serial run; pointwise_intervals says
when they run serially.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .design import DesignGrid, IntervalSystem
from .lpsolve import BasisState, CscLayout, LinearProgram, solve_lp
from .relax import CellLinearization, FeasiblePoint, check_feasible, linearize_cells

__all__ = [
    "CcpConfig",
    "PointDiagnostics",
    "PointwiseIntervals",
    "SubproblemTemplate",
    "default_log_bounds",
    "initial_point",
    "run_ccp_point",
    "pointwise_intervals",
]

# Penalty schedule: tau_K = min(TAU0 * KAPPA**K, TAU_MAX) for K = 0..K_MAX.
TAU0 = 1e-4
KAPPA = 2.0
TAU_MAX = 1e4
K_MAX = 50

# Stopping rule: total slack, objective change, cell-mass feasibility.
SLACK_TOL = 1e-6
OBJ_TOL = 1e-7
FEAS_EPS = 1e-5

# STEP_MAX bounds each iterate's move in every ell coordinate (and, scaled
# by the local knot gap, in every g coordinate).  The penalty schedule
# needs this: while tau is small the subproblem pays almost nothing for
# slack, so an unrestricted step dives far below the true optimum, where
# the tangent coefficients decay like exp(-depth) and can no longer
# transmit the growing penalty back to the iterate.  Bounding the step by R
# keeps the decay rate exp(-R) per iteration below the penalty growth
# KAPPA, so the penalty always catches up; this requires R < ln(KAPPA)
# with some margin.
STEP_MAX = 0.25

# extra fixed-penalty iterations allowed past K_MAX while the iterate is
# slack-clean but the stopping criterion is still drifting
_SETTLE_LIMIT = 100

LOG_BOX_HALFWIDTH = 25.0


@dataclass(frozen=True)
class CcpConfig:
    """No settings: every run starts from the histogram levels.

    The class and pointwise_intervals' cfg parameter stay only because the
    benchmark (bench/run.py: run_band, warm_up, selftest, make_reference)
    calls lc.ccp.CcpConfig().  The schedule and stopping constants are
    module constants of lcbands.ccp.
    """


@dataclass(frozen=True)
class PointDiagnostics:
    t: int
    sense: str
    status: str        # converged | not_converged | lp_<status> | crossed
    iterations: int
    final_slack: float
    worst_violation: float
    value: float


@dataclass(frozen=True)
class PointwiseIntervals:
    """Extremal log-density values at the solved subset of design points."""

    indices: tuple[int, ...]
    lo: np.ndarray
    hi: np.ndarray
    diagnostics: tuple[PointDiagnostics, ...]

    @property
    def all_converged(self) -> bool:
        return all(d.status == "converged" for d in self.diagnostics)


def default_log_bounds(grid: DesignGrid) -> tuple[float, float]:
    """Wide ell box centered on the histogram log-density level."""
    center = float(np.median(_histogram_log_density(grid)))
    return center - LOG_BOX_HALFWIDTH, center + LOG_BOX_HALFWIDTH


def _histogram_log_density(grid: DesignGrid) -> np.ndarray:
    x, n, spacing = grid.x, grid.n, grid.spacing
    width = np.empty(grid.m)
    width[1:-1] = (x[2:] - x[:-2]) / 2.0
    width[0] = x[1] - x[0]
    width[-1] = x[-1] - x[-2]
    return np.log(spacing / (n * width))


def _concave_majorant(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least concave majorant of the points (x_i, y_i), sampled at the x_i."""
    hull = [0]
    for i in range(1, x.size):
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            if (y[b] - y[a]) * (x[i] - x[b]) <= (y[i] - y[b]) * (x[b] - x[a]):
                hull.pop()
            else:
                break
        hull.append(i)
    return np.interp(x, x[hull], y[hull])


def initial_point(grid: DesignGrid, system: IntervalSystem) -> FeasiblePoint:
    """Histogram levels with centered slopes, the start of every run.

    The levels are made to satisfy the hard rows of the first subproblem:
    they are replaced by their least concave majorant, and each knot slope
    is the centered secant, which lies between the adjacent secants of the
    concave levels (the CONC rows say exactly that the tangent at a knot
    lies above both neighbors).  The levels are then shifted down by
    chord_cap_shift, so every pair's chord mass is at most d_B.
    """
    raw = np.clip(_histogram_log_density(grid), -30.0, 30.0)
    x = grid.x
    ell = _concave_majorant(x, raw)
    point = FeasiblePoint(ell=ell, g=(ell[2:] - ell[:-2]) / (x[2:] - x[:-2]))
    delta = chord_cap_shift(system, linearize_cells(grid, point))
    return FeasiblePoint(ell=ell - delta, g=point.g)


def chord_cap_shift(system: IntervalSystem, cells: CellLinearization) -> float:
    """Uniform drop in ell that restores every chord-mass cap exactly.

    cells is the linearization at the point to be shifted.  Chord masses
    scale by exp(-delta) when ell shifts down by delta, so the largest log
    ratio mass/d_B clears every excess and leaves the binding pair tight.
    Zero when no cap is exceeded.
    """
    sums = system.pair_sums(cells.l_val)
    rmax = float((sums / system.d).max(initial=0.0))
    return math.log(rmax) if rmax > 1.0 else 0.0


class SubproblemTemplate:
    """Fixed sparsity pattern of the per-iteration linear program.

    Variables: ell_1..ell_m | g_2..g_{m-1} | one slack per pair.
    Rows: CONC (constant data), then per-pair UP, DOWN1, DOWN2 whose
    coefficients are refilled at each linearization point.  The entries are
    laid out once as COO coordinates (_rows, _cols), and their CSC layout
    is fixed here too, so every program shares it and carries only values.
    """

    def __init__(self, grid: DesignGrid, system: IntervalSystem):
        self.grid = grid
        self.system = system
        m = grid.m
        self.m = m
        self.n_pairs = system.pair_count
        self.nvar = 2 * m - 2 + self.n_pairs
        x = grid.x

        # CONC: for interior i and j = i -/+ 1:
        #   ell_j - ell_i - g_i (x_j - x_i) <= 0
        i = np.arange(2, m)  # 1-based interior indices
        conc_rows = []
        conc_cols = []
        conc_data = []
        base = 0
        for off, j in ((0, i - 1), (1, i + 1)):
            r = base + 2 * (i - 2) + off
            conc_rows += [r, r, r]
            conc_cols += [j - 1, i - 1, m + i - 2]
            conc_data += [
                np.ones(i.size),
                -np.ones(i.size),
                -(x[j - 1] - x[i - 1]),
            ]
        self.n_conc = 2 * (m - 2)

        cells, pair_of_cell = system.cells, system.pair_of_cell
        C = cells.size
        P = self.n_pairs
        up0 = self.n_conc
        dn1_0 = up0 + P
        dn2_0 = dn1_0 + P
        self.n_rows = dn2_0 + P

        # UP rows: sum of linearized chord bounds <= d_B
        up_rows = np.concatenate([up0 + pair_of_cell] * 2)
        up_cols = np.concatenate([cells, cells + 1])

        # DOWN rows: -(linearized tangent sum) - slack <= -c_B + const
        dn1_rows = np.concatenate([dn1_0 + pair_of_cell] * 2)
        dn2_rows = np.concatenate([dn2_0 + pair_of_cell] * 2)
        slack_cols = 2 * m - 2 + np.arange(P)
        # tangent anchor columns (ell, then g) depend only on the grid
        ua = grid.cell_layout.u_anchor[cells]
        va = grid.cell_layout.v_anchor[cells]

        self._rows = np.concatenate(
            [
                np.concatenate([np.asarray(r) for r in conc_rows]),
                up_rows,
                dn1_rows,
                dn1_0 + np.arange(P),
                dn2_rows,
                dn2_0 + np.arange(P),
            ]
        ).astype(np.int32)
        self._cols = np.concatenate(
            [
                np.concatenate([np.asarray(cc) for cc in conc_cols]),
                up_cols,
                ua - 1,
                m + ua - 2,
                slack_cols,
                va - 1,
                m + va - 2,
                slack_cols,
            ]
        ).astype(np.int32)
        self._layout = CscLayout(self._rows, self._cols, (self.n_rows, self.nvar))
        self._conc_values = np.concatenate(conc_data)
        self._n_conc_entries = self._conc_values.size
        self._C = C
        self._s1 = self._n_conc_entries + 2 * C
        self._s2 = self._s1 + 2 * C + P

        lo, hi = default_log_bounds(grid)
        self.lower = np.concatenate(
            [np.full(m, lo), np.full(m - 2, -np.inf), np.zeros(P)]
        )
        self.upper = np.concatenate(
            [np.full(m, hi), np.full(m - 2, np.inf), np.full(P, np.inf)]
        )
        dx = np.diff(x)
        self._g_gap = np.minimum(dx[:-1], dx[1:])  # local scale per g_i

    def instantiate(
        self,
        point: FeasiblePoint,
        t: int,
        sense: str,
        tau: float,
        cells: CellLinearization | None = None,
    ) -> LinearProgram:
        """Linear program linearized at point.

        The variable box is intersected with the STEP_MAX trust region
        around the linearization point (g radii scaled by the local knot
        gap); the point itself always stays feasible.  cells, when given,
        is linearize_cells at point, already computed.
        """
        m = self.m
        if not 1 <= t <= m:
            raise ValueError(f"t={t} outside 1..{m}")
        if sense not in ("min", "max"):
            raise ValueError(f"sense must be 'min' or 'max', got {sense!r}")
        cells_lin = linearize_cells(self.grid, point) if cells is None else cells
        system = self.system
        idx = system.cells
        ell0 = point.ell
        g0 = point.g

        data = np.empty(self._rows.size)
        data[: self._n_conc_entries] = self._conc_values
        s0, s1, s2 = self._n_conc_entries, self._s1, self._s2
        C, P = self._C, self.n_pairs

        l_dlo = cells_lin.l_dlo[idx]
        l_dhi = cells_lin.l_dhi[idx]
        data[s0 : s0 + C] = l_dlo
        data[s0 + C : s0 + 2 * C] = l_dhi

        u_val = cells_lin.u_val[idx]
        u_dg = cells_lin.u_dg[idx]
        data[s1 : s1 + C] = -u_val
        data[s1 + C : s1 + 2 * C] = -u_dg
        data[s1 + 2 * C : s1 + 2 * C + P] = -1.0

        v_val = cells_lin.v_val[idx]
        v_dg = cells_lin.v_dg[idx]
        data[s2 : s2 + C] = -v_val
        data[s2 + C : s2 + 2 * C] = -v_dg
        data[s2 + 2 * C : s2 + 2 * C + P] = -1.0

        # constant terms of the first-order expansions, per cell, then per pair
        up_const = system.pair_sums(
            cells_lin.l_val - cells_lin.l_dlo * ell0[:-1] - cells_lin.l_dhi * ell0[1:]
        )
        ua, va = cells_lin.u_anchor, cells_lin.v_anchor  # 1-based
        u_const = system.pair_sums(
            cells_lin.u_val - cells_lin.u_val * ell0[ua - 1] - cells_lin.u_dg * g0[ua - 2]
        )
        v_const = system.pair_sums(
            cells_lin.v_val - cells_lin.v_val * ell0[va - 1] - cells_lin.v_dg * g0[va - 2]
        )
        rhs = np.zeros(self.n_rows)
        rhs[self.n_conc : self.n_conc + P] = system.d - up_const
        rhs[self.n_conc + P : self.n_conc + 2 * P] = -system.c + u_const
        rhs[self.n_conc + 2 * P :] = -system.c + v_const

        objective = np.zeros(self.nvar)
        objective[t - 1] = 1.0 if sense == "min" else -1.0
        objective[2 * m - 2 :] = tau
        # intersect the box with the trust region, never excluding the center
        lower = self.lower.copy()
        upper = self.upper.copy()
        lower[:m] = np.minimum(np.maximum(lower[:m], ell0 - STEP_MAX), ell0)
        upper[:m] = np.maximum(np.minimum(upper[:m], ell0 + STEP_MAX), ell0)
        g_rad = STEP_MAX / self._g_gap
        lower[m : 2 * m - 2] = g0 - g_rad
        upper[m : 2 * m - 2] = g0 + g_rad
        return LinearProgram(
            objective=objective,
            rows=self._layout.rows(data),
            rhs=rhs,
            lower=lower,
            upper=upper,
        )


def run_ccp_point(
    template: SubproblemTemplate,
    start: FeasiblePoint,
    t: int,
    sense: str,
    shared_basis: BasisState | None = None,
) -> tuple[float, PointDiagnostics]:
    """Drive the penalty CCP from start at one design point and sense.

    Returns the extremal ell_t value of the final iterate plus diagnostics.
    The optional shared_basis seeds the first solve; later iterations warm
    start from their predecessor's basis, and a failed warm-started solve
    is retried cold once.  An LP that still fails ends the run at the
    incoming point with status lp_<status>.
    """
    grid, system = template.grid, template.system
    m = grid.m
    if not 1 <= t <= m:
        raise ValueError(f"t={t} outside 1..{m}")
    if sense == "min" and t in (1, m):
        # ell_1 and ell_m enter no tangent mass, and lowering either only
        # relaxes the chord masses, so the minimum is the box floor: any
        # feasible point stays feasible with that coordinate set to it.
        value = float(template.lower[t - 1])
        diag = PointDiagnostics(
            t=t, sense=sense, status="converged", iterations=0,
            final_slack=0.0, worst_violation=0.0, value=value,
        )
        return value, diag
    point = start
    cells = None  # linearize_cells at point, when at hand
    basis = shared_basis
    prev_obj = None
    converged = False
    slack_total = math.inf
    iterations = 0

    # The ramp runs K = 0..K_MAX inclusive.  An iterate sliding along
    # curved mass constraints contracts geometrically, and a contraction
    # ratio near 1 outlasts K_MAX while the iterate is already slack-clean.
    # Warm-started solves make extra fixed-penalty iterations cheap, so past
    # K_MAX the schedule settles on while the slack stays clean (bounded,
    # so a genuine stall still reports).
    for k in range(K_MAX + 1 + _SETTLE_LIMIT):
        if k > K_MAX and slack_total > SLACK_TOL:
            break
        tau = min(TAU0 * KAPPA**k, TAU_MAX)
        lp = template.instantiate(point, t, sense, tau, cells=cells)
        sol = solve_lp(lp, warm=basis)
        if sol.status != "optimal" and basis is not None:
            sol = solve_lp(lp)
        if sol.status != "optimal":
            value = float(point.ell[t - 1])
            diag = PointDiagnostics(
                t=t, sense=sense, status=f"lp_{sol.status}", iterations=iterations,
                final_slack=math.inf, worst_violation=math.inf, value=value,
            )
            return value, diag
        basis = sol.basis
        point = FeasiblePoint(ell=sol.z[:m], g=sol.z[m : 2 * m - 2])
        cells = linearize_cells(grid, point)
        delta = chord_cap_shift(system, cells)
        if delta > 0.0:
            # a trust step can satisfy the tangent rows yet overshoot a true
            # chord-mass cap; re-linearizing there would put a hard row through
            # an infeasible center.  Dropping the whole curve by the excess
            # restores every cap (concavity is shift-invariant), so each center
            # stays hard-feasible and the program stays solvable.  The shifted
            # point is linearized afresh: exp(a - delta) is not bitwise
            # exp(a) * exp(-delta).
            point = FeasiblePoint(ell=point.ell - delta, g=point.g)
            cells = None
        slack_total = float(sol.z[2 * m - 2 :].sum())
        obj = float(sol.objective_value)
        iterations = k + 1
        if (
            prev_obj is not None
            and slack_total <= SLACK_TOL
            and abs(obj - prev_obj) <= OBJ_TOL
            and (
                report := check_feasible(grid, system, point, FEAS_EPS, cells=cells)
            ).feasible
        ):
            # feasibility (not just a capped penalty) gates convergence, so
            # constraints are never left penalty-bought; iterations past the
            # tau cap polish away residual linearization overshoot
            converged = True
            break
        prev_obj = obj

    if not converged:
        report = check_feasible(grid, system, point, FEAS_EPS, cells=cells)
    value = float(point.ell[t - 1])
    diag = PointDiagnostics(
        t=t, sense=sense, status="converged" if converged else "not_converged",
        iterations=iterations, final_slack=slack_total,
        worst_violation=report.worst, value=value,
    )
    return value, diag


def pointwise_intervals(
    grid: DesignGrid,
    system: IntervalSystem,
    cfg: CcpConfig,
    subset: np.ndarray,
) -> PointwiseIntervals:
    """Extremal log-density values at every subset point, both senses.

    cfg is unused (see CcpConfig).  Every run starts from one initial_point,
    so every run's first program has the same constraints, and the basis
    from one cold solve seeds all the others.
    The (t, sense) runs share no mutable state, so they run on forked
    workers, one per CPU the process may use (at most 8 and at most one per
    run; taskset or os.sched_setaffinity limits them), and come back in
    subset order with the same bits as a serial run; a worker that dies
    raises BrokenProcessPool.  They run here, one after another, when fewer
    than two workers would run, without fork or CPU affinity (non-Linux), in
    a daemonic process, in a process running other threads (fork copies
    only the calling one), and while a name the runs look up at call time
    (run_ccp_point, chord_cap_shift, linearize_cells, check_feasible,
    solve_lp, SubproblemTemplate.instantiate) is rebound, so that the
    wrapper sees every call.
    """
    raw = np.asarray(subset)
    if raw.ndim != 1:
        raise ValueError(f"subset must be one-dimensional, got shape {raw.shape}")
    if raw.size == 0:
        raise ValueError("subset must be nonempty")
    if raw.dtype == bool:  # a mask would pass as the indices 0 and 1
        raise ValueError("subset must hold knot indices, not a boolean mask")
    if not np.all(raw == np.round(raw)):  # NaN fails here too
        raise ValueError(f"subset indices must be integers, got {raw.tolist()}")
    if raw.min() < 1 or raw.max() > grid.m:
        raise ValueError(f"subset indices outside 1..{grid.m}")
    subset = np.unique(raw.astype(int))
    template = SubproblemTemplate(grid, system)
    start = initial_point(grid, system)
    shared = _warmup_basis(template, start, int(subset[0]))

    run = partial(run_ccp_point, template, start, shared_basis=shared)
    jobs = [(int(t), sense) for t in subset for sense in ("min", "max")]
    runs = _run_endpoints(run, jobs)
    lo = np.empty(subset.size)
    hi = np.empty(subset.size)
    diags: list[PointDiagnostics] = []
    for pos in range(subset.size):
        (lo_val, lo_diag), (hi_val, hi_diag) = runs[2 * pos : 2 * pos + 2]
        if lo_val > hi_val + 1e-9:
            lo_diag = replace(lo_diag, status="crossed")
            hi_diag = replace(hi_diag, status="crossed")
        lo[pos] = lo_val
        hi[pos] = hi_val
        diags.extend([lo_diag, hi_diag])
    return PointwiseIntervals(
        indices=tuple(int(t) for t in subset), lo=lo, hi=hi, diagnostics=tuple(diags)
    )


def _run_endpoints(run, jobs: list[tuple[int, str]]) -> list:
    """run(t, sense) for each job, in order, on forked workers when they may.

    Each job pickles run whole, so in the worker the shared basis still holds
    the template's own pattern arrays (pickle's memo) and warm-starts there.
    """
    import multiprocessing
    import threading

    workers = 0
    if (
        hasattr(os, "sched_getaffinity")
        and "fork" in multiprocessing.get_all_start_methods()
        and not multiprocessing.current_process().daemon
        and threading.active_count() == 1
        and all(a is b for a, b in zip(_run_lookups(), _OWN_RUN_LOOKUPS))
    ):
        workers = min(len(os.sched_getaffinity(0)), 8, len(jobs))
    if workers < 2:
        return [run(t, sense) for t, sense in jobs]
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        return list(pool.map(run, *zip(*jobs)))
    finally:
        pool.shutdown(cancel_futures=True)


def _run_lookups() -> tuple:
    """The objects a run looks up at call time, as they are bound now."""
    return (
        run_ccp_point, chord_cap_shift, linearize_cells, check_feasible,
        solve_lp, SubproblemTemplate.instantiate,
    )


def _warmup_basis(
    template: SubproblemTemplate, start: FeasiblePoint, t: int
) -> BasisState | None:
    """Solve the first program once, cold, to harvest a shareable basis."""
    lp = template.instantiate(start, t, "min", TAU0)
    sol = solve_lp(lp)
    return sol.basis if sol.status == "optimal" else None


# _run_lookups as this module binds them
_OWN_RUN_LOOKUPS = _run_lookups()
