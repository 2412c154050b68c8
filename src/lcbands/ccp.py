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
iteration.  Iterates reuse the previous basis, and all candidate starts for
one dataset share the basis of the very first solve, since every first
iteration sees identical constraints under the data-driven initializer.

The ell box exists because ell_1 and ell_m appear in no mass lower bound,
making the bare minimization unbounded; a range of +-25 around the
empirical histogram level is far wider than any plausible density value
and acts only as a numerical floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse

from .design import DesignGrid, IntervalSystem
from .lpsolve import BasisState, LinearProgram, solve_lp
from .relax import FeasiblePoint, check_feasible, linearize_cells

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

# trust-region shrink factor for the retry after a slack-dirty failure
_RETRY_SHRINK = 0.4

LOG_BOX_HALFWIDTH = 25.0


@dataclass(frozen=True)
class CcpConfig:
    """Choice of CCP starting point.

    init="data" (the default) starts every run from the histogram levels,
    so seed plays no part; CcpConfig(init="random", seed=s) starts each
    (point, sense) run from its own seeded draw.  The schedule and stopping
    constants are module constants of lcbands.ccp.
    """

    init: str = "data"      # "data" | "random"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.init not in ("data", "random"):
            raise ValueError(f"unknown init {self.init!r}")
        # the seed keys a Philox stream, which takes unsigned 64-bit words
        if not isinstance(self.seed, (int, np.integer)) or not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")


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


def initial_point(
    grid: DesignGrid,
    system: IntervalSystem,
    cfg: CcpConfig,
    t: int = 0,
    sense: str = "min",
) -> FeasiblePoint:
    """Histogram levels with centered slopes, or seeded standard normals.

    Either draw is post-processed so the point satisfies the hard rows of
    the first subproblem: the log levels are replaced by their least
    concave majorant, and each knot slope is the centered secant, which
    lies between the adjacent secants of the concave levels (the CONC rows
    say exactly that the tangent at a knot lies above both neighbors).  The
    levels are then shifted down by chord_cap_shift, so every pair's chord
    mass is at most d_B.  Random initialization draws an independent
    substream per (t, sense) so results do not depend on solve order.
    """
    if cfg.init == "data":
        raw = np.clip(_histogram_log_density(grid), -30.0, 30.0)
    else:
        stream = np.random.Generator(
            np.random.Philox(
                key=[np.uint64(cfg.seed), np.uint64(2 * t + (sense == "max"))]
            )
        )
        raw = stream.standard_normal(grid.m)
    x = grid.x
    ell = _concave_majorant(x, raw)
    point = FeasiblePoint(ell=ell, g=(ell[2:] - ell[:-2]) / (x[2:] - x[:-2]))
    return FeasiblePoint(ell=ell - chord_cap_shift(grid, system, point), g=point.g)


def chord_cap_shift(
    grid: DesignGrid, system: IntervalSystem, point: FeasiblePoint
) -> float:
    """Uniform drop in ell that restores every chord-mass cap exactly.

    Chord masses scale by exp(-delta) when ell shifts down by delta, so
    the largest log ratio mass/d_B clears every excess and leaves the
    binding pair tight.  Zero when no cap is exceeded.
    """
    sums = system.pair_sums(linearize_cells(grid, point).l_val)
    rmax = float((sums / system.d).max(initial=0.0))
    return math.log(rmax) if rmax > 1.0 else 0.0


class SubproblemTemplate:
    """Fixed sparsity pattern of the per-iteration linear program.

    Variables: ell_1..ell_m | g_2..g_{m-1} | one slack per pair.
    Rows: CONC (constant data), then per-pair UP, DOWN1, DOWN2 whose
    coefficients are refilled at each linearization point.
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
                np.concatenate([np.zeros(C, dtype=np.int64)] * 2),  # refilled below
                slack_cols,
                np.concatenate([np.zeros(C, dtype=np.int64)] * 2),
                slack_cols,
            ]
        ).astype(np.int32)
        self._conc_values = np.concatenate(conc_data)
        self._n_conc_entries = self._conc_values.size
        self._C = C

        # anchor columns for the tangent entries depend only on the grid
        from .relax import _anchor_arrays

        u_anchor, _, v_anchor, _ = _anchor_arrays(m)
        ua = u_anchor[cells]
        va = v_anchor[cells]
        s0 = self._n_conc_entries
        s1 = s0 + 2 * C
        # down1 ell and g columns
        self._cols[s1 : s1 + C] = ua - 1
        self._cols[s1 + C : s1 + 2 * C] = m + ua - 2
        s2 = s1 + 2 * C + P
        self._cols[s2 : s2 + C] = va - 1
        self._cols[s2 + C : s2 + 2 * C] = m + va - 2
        self._s1 = s1
        self._s2 = s2

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
        step_max: float = math.inf,
    ) -> LinearProgram:
        """Linear program linearized at point.

        A finite step_max intersects the variable box with a trust region
        of that radius around the linearization point (g radii scaled by
        the local knot gap); the point itself always stays feasible.
        """
        m = self.m
        if not 1 <= t <= m:
            raise ValueError(f"t={t} outside 1..{m}")
        if sense not in ("min", "max"):
            raise ValueError(f"sense must be 'min' or 'max', got {sense!r}")
        cells_lin = linearize_cells(self.grid, point)
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

        mat = sparse.coo_matrix(
            (data, (self._rows, self._cols)), shape=(self.n_rows, self.nvar)
        )
        objective = np.zeros(self.nvar)
        objective[t - 1] = 1.0 if sense == "min" else -1.0
        objective[2 * m - 2 :] = tau
        lower, upper = self.lower, self.upper
        if math.isfinite(step_max):
            lower = lower.copy()
            upper = upper.copy()
            # intersect with the trust region, never excluding the center
            lower[:m] = np.minimum(np.maximum(lower[:m], ell0 - step_max), ell0)
            upper[:m] = np.maximum(np.minimum(upper[:m], ell0 + step_max), ell0)
            g_rad = step_max / self._g_gap
            lower[m : 2 * m - 2] = g0 - g_rad
            upper[m : 2 * m - 2] = g0 + g_rad
        return LinearProgram(
            objective=objective,
            rows=mat,
            rhs=rhs,
            lower=lower,
            upper=upper,
        )


def run_ccp_point(
    grid: DesignGrid,
    system: IntervalSystem,
    t: int,
    sense: str,
    cfg: CcpConfig,
    *,
    template: SubproblemTemplate | None = None,
    shared_basis: BasisState | None = None,
) -> tuple[float, PointDiagnostics]:
    """Drive the penalty CCP at one design point and sense.

    Returns the extremal ell_t value of the final iterate plus diagnostics.
    The optional shared_basis seeds the first solve; later iterations warm
    start from their predecessor's basis.  A run that ends with dirty slack
    is retried once under a tighter trust region: a slack plateau means the
    iterate outran the penalty ramp into territory where the tangent
    coefficients are too small to transmit the penalty, and a slower
    descent lets the ramp catch up before the gradients collapse.
    """
    if template is None:
        template = SubproblemTemplate(grid, system)
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
    value, diag = _penalty_schedule(template, t, sense, cfg, shared_basis, STEP_MAX)
    if diag.status == "not_converged" and diag.final_slack > SLACK_TOL:
        value2, diag2 = _penalty_schedule(
            template, t, sense, cfg, shared_basis, STEP_MAX * _RETRY_SHRINK
        )
        if diag2.status == "converged":
            return value2, replace(
                diag2, iterations=diag.iterations + diag2.iterations
            )
    return value, diag


def _penalty_schedule(
    template: SubproblemTemplate,
    t: int,
    sense: str,
    cfg: CcpConfig,
    shared_basis: BasisState | None,
    step_max: float,
) -> tuple[float, PointDiagnostics]:
    """One full pass of the penalty ramp, the settle phase, and the report."""
    grid, system = template.grid, template.system
    point = initial_point(grid, system, cfg, t, sense)
    basis = shared_basis
    prev_obj = None
    stopped = False
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
        point, basis, slack_total, obj, status = _ccp_step(
            template, point, basis, t, sense, tau, step_max
        )
        if status != "ok":
            value = float(point.ell[t - 1])
            diag = PointDiagnostics(
                t=t, sense=sense, status=status, iterations=iterations,
                final_slack=slack_total, worst_violation=math.inf, value=value,
            )
            return value, diag
        iterations = k + 1
        if (
            prev_obj is not None
            and slack_total <= SLACK_TOL
            and abs(obj - prev_obj) <= OBJ_TOL
            and check_feasible(grid, system, point, FEAS_EPS).feasible
        ):
            # feasibility (not just a capped penalty) gates convergence, so
            # constraints are never left penalty-bought; iterations past the
            # tau cap polish away residual linearization overshoot
            stopped = True
            break
        prev_obj = obj

    report = check_feasible(grid, system, point, FEAS_EPS)
    value = float(point.ell[t - 1])
    converged = report.feasible and slack_total <= SLACK_TOL and stopped
    diag = PointDiagnostics(
        t=t, sense=sense, status="converged" if converged else "not_converged",
        iterations=iterations, final_slack=slack_total,
        worst_violation=report.worst, value=value,
    )
    return value, diag


def _ccp_step(
    template: SubproblemTemplate,
    point: FeasiblePoint,
    basis: BasisState | None,
    t: int,
    sense: str,
    tau: float,
    step_max: float,
) -> tuple[FeasiblePoint, BasisState | None, float, float, str]:
    """One linearize-and-solve step; returns (point, basis, slack, obj, status).

    On LP failure the incoming point is returned unchanged with the failure
    status; otherwise status is "ok".  A failed warm-started solve is
    retried cold once.
    """
    m = template.m
    lp = template.instantiate(point, t, sense, tau, step_max=step_max)
    sol = solve_lp(lp, warm=basis)
    if sol.status != "optimal" and basis is not None:
        sol = solve_lp(lp)
    if sol.status != "optimal":
        return point, basis, math.inf, math.inf, f"lp_{sol.status}"
    candidate = FeasiblePoint(ell=sol.z[:m], g=sol.z[m : 2 * m - 2])
    basis = sol.basis
    delta = chord_cap_shift(template.grid, template.system, candidate)
    if delta > 0.0:
        # a trust step can satisfy the tangent rows yet overshoot a true
        # chord-mass cap; re-linearizing there would put a hard row through
        # an infeasible center.  Dropping the whole curve by the excess
        # restores every cap (concavity is shift-invariant), so each center
        # stays hard-feasible and the program stays solvable.
        candidate = FeasiblePoint(ell=candidate.ell - delta, g=candidate.g)
    slack_total = float(sol.z[2 * m - 2 :].sum())
    obj = float(sol.objective_value)
    return candidate, basis, slack_total, obj, "ok"


def pointwise_intervals(
    grid: DesignGrid,
    system: IntervalSystem,
    cfg: CcpConfig,
    subset: np.ndarray,
) -> PointwiseIntervals:
    """Extremal log-density values at every subset point, both senses.

    Under the data initializer every run's first program has identical
    constraints, so the basis from one cold solve seeds all the others.
    Per-point runs share no mutable state and are order-independent.
    """
    raw = np.asarray(subset)
    if raw.size == 0:
        raise ValueError("subset must be nonempty")
    if not np.all(raw == np.round(raw)):  # NaN fails here too
        raise ValueError(f"subset indices must be integers, got {raw.tolist()}")
    if raw.min() < 1 or raw.max() > grid.m:
        raise ValueError(f"subset indices outside 1..{grid.m}")
    subset = np.unique(raw.astype(int))
    template = SubproblemTemplate(grid, system)

    shared: BasisState | None = None
    if cfg.init == "data":
        shared = _warmup_basis(grid, system, cfg, template, int(subset[0]))

    lo = np.empty(subset.size)
    hi = np.empty(subset.size)
    diags: list[PointDiagnostics] = []
    for pos, t in enumerate(subset):
        lo_val, lo_diag = run_ccp_point(
            grid, system, int(t), "min", cfg,
            template=template, shared_basis=shared,
        )
        hi_val, hi_diag = run_ccp_point(
            grid, system, int(t), "max", cfg,
            template=template, shared_basis=shared,
        )
        if lo_val > hi_val + 1e-9:
            lo_diag = _mark_crossed(lo_diag)
            hi_diag = _mark_crossed(hi_diag)
        lo[pos] = lo_val
        hi[pos] = hi_val
        diags.extend([lo_diag, hi_diag])
    return PointwiseIntervals(
        indices=tuple(int(t) for t in subset), lo=lo, hi=hi, diagnostics=tuple(diags)
    )


def _warmup_basis(
    grid: DesignGrid,
    system: IntervalSystem,
    cfg: CcpConfig,
    template: SubproblemTemplate,
    t: int,
) -> BasisState | None:
    """Solve the first program once, cold, to harvest a shareable basis."""
    point = initial_point(grid, system, cfg)
    lp = template.instantiate(point, t, "min", TAU0, step_max=STEP_MAX)
    sol = solve_lp(lp)
    return sol.basis if sol.status == "optimal" else None


def _mark_crossed(diag: PointDiagnostics) -> PointDiagnostics:
    return replace(diag, status="crossed")
