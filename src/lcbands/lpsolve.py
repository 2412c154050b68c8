"""Embedded linear-programming solver.

Solves   min c @ z   subject to   rows @ z <= rhs   and   lower <= z <= upper,
where rows is given as CSC arrays (CscRows) and each bound may be infinite.

The algorithm is a bounded-variable two-phase revised simplex.  Slack
variables turn the rows into equalities; rows whose slack would start
negative receive artificial variables that phase 1 drives to zero.  The
basis inverse is never formed: a sparse LU factorization (SuperLU) is
refactorized every few dozen pivots and product-form eta updates cover the
pivots in between.  Pricing is full Dantzig with a switch to Bland's rule
after a run of degenerate pivots, which guarantees termination.

A program's rows are CSC arrays.  Programs that share a sparsity pattern
(the CCP's, one SubproblemTemplate each) share its indices and indptr and
carry only their own values: CscLayout fixes once, for given COO
coordinates, where coo_matrix(...).tocsc() puts each entry, running the
routines tocsc() runs (coo_tocsr, csr_sort_indices) on the entry
positions, so each program's values are one gather, with repeated entries
added left to right as csr_sum_duplicates adds them.  No scipy.sparse
object is built per program.

Each solve keeps its column matrix [rows | I | -I] as raw CSC arrays and
calls on them the compiled SciPy kernels that the scipy.sparse wrappers
call, with the same inputs, so every result has the wrappers' bits.
Products with the columns and with their transpose are csc_matvec and
csr_matvec.  Each refactorization hands SuperLU's gstrf the basis columns
gathered from the arrays, with splu's options; they are canonical
already, so splu's sum_duplicates would change nothing.
Entering columns are scattered into a dense vector (adding into zeros, so
a stored -0.0 reads as +0.0).  A refactorization and recomputation of the
basic values is skipped where it would only reproduce the state in hand:
after a warm basis that needed no repair, and after a phase 2 without a
pivot.

Solutions carry the basis, which warm-starts only a program on the very
pattern arrays it was solved on (where it was regular; SuperLU can crash on
a structurally singular matrix), so a drifting sequence of programs on one
pattern reuses it.  A warm basis whose basic point violates the new bounds
is repaired in place: the violated bounds are relaxed to the current values
and a short phase-1 run with unit costs on the offending variables pushes
them back inside, after which phase 2 proceeds as usual.  Only an
irreparable basis falls back to a cold start.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

__all__ = [
    "CscLayout",
    "CscRows",
    "LinearProgram",
    "LpSolution",
    "BasisState",
    "SparseKernelsMissing",
    "solve_lp",
]


class SparseKernelsMissing(ImportError):
    """SciPy lacks a compiled sparse kernel this module calls, or its call."""


# the options splu(A) passes to gstrf
_SPLU_OPTIONS = dict(DiagPivotThresh=None, ColPerm=None, PanelSize=None, Relax=None)

try:
    from scipy.sparse._sparsetools import (
        coo_tocsr,
        csc_matvec,
        csr_has_canonical_format,
        csr_has_sorted_indices,
        csr_matvec,
        csr_sort_indices,
    )
    from scipy.sparse.linalg._dsolve._superlu import gstrf

    # factor [[1]] as _Simplex._refactor does: a changed call fails here
    gstrf(
        1, 1, np.ones(1), np.zeros(1, dtype=np.intc), np.array([0, 1], dtype=np.intc),
        csc_construct_func=sparse.csc_array, options=_SPLU_OPTIONS, ilu=False,
    )
except (ImportError, TypeError) as exc:
    raise SparseKernelsMissing(
        f"lcbands.lpsolve calls SciPy's private sparse kernels directly: {exc}"
    ) from exc

_DUAL_TOL = 1e-9       # reduced-cost threshold for entering candidates
_PIVOT_TOL = 1e-9      # minimum pivot magnitude in the ratio test
_FEAS_TOL = 1e-8       # bound/row violation accepted as feasible
_PHASE1_TOL = 1e-7     # residual infeasibility treated as infeasible
_DEGEN_STEP = 1e-12    # step below this counts toward the stall counter
_STALL_LIMIT = 50      # consecutive degenerate pivots before Bland's rule
_REFACTOR_EVERY = 60   # pivots between LU refactorizations
_REPAIR_ROUNDS = 4     # warm-start bound-repair passes before cold fallback

_AT_LOWER, _AT_UPPER, _FREE = 0, 1, 2


@dataclass(frozen=True)
class CscRows:
    """An (r, n) matrix as canonical CSC arrays, as scipy's tocsc() gives
    them; indices and indptr are intc and may be shared by many programs."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple[int, int]

    @property
    def nnz(self) -> int:
        return self.data.size


class CscLayout:
    """Where coo_matrix((data, (row, col)), shape).tocsc() puts each entry.

    Built once for fixed coordinates; rows(data) then returns that matrix's
    CSC arrays for any data, bit for bit, without building a matrix.
    coo_tocsr is a stable counting sort by column, and csr_sort_indices
    compares indices only, so running them on the entry positions gives the
    permutation they apply to any data.  Entries sharing a slot end up next
    to each other, and csr_sum_duplicates adds them left to right.
    """

    def __init__(self, row: np.ndarray, col: np.ndarray, shape: tuple[int, int]):
        r, n = shape
        nnz = row.size
        indptr = np.empty(n + 1, dtype=np.intc)
        indices = np.empty(nnz, dtype=np.intc)
        pos = np.empty(nnz)
        coo_tocsr(
            n, r, nnz, col.astype(np.intc), row.astype(np.intc),
            np.arange(nnz, dtype=float), indptr, indices, pos,
        )
        if not csr_has_canonical_format(n, indptr, indices):
            if not csr_has_sorted_indices(n, indptr, indices):
                csr_sort_indices(n, indptr, indices, pos)
        pos = pos.astype(np.intp)
        col_of = np.repeat(np.arange(n), np.diff(indptr))
        first = np.ones(nnz, dtype=bool)  # entry opens a new slot
        first[1:] = (indices[1:] != indices[:-1]) | (col_of[1:] != col_of[:-1])
        slot = np.cumsum(first) - 1
        rank = np.arange(nnz) - np.flatnonzero(first)[slot]
        self.shape = (r, n)
        self.indices = indices[first]
        self.indptr = np.zeros(n + 1, dtype=np.intc)
        np.cumsum(np.bincount(col_of[first], minlength=n), out=self.indptr[1:])
        self._first = pos[first]
        # (slots, entries) for the second, third, ... entry of each slot
        self._repeats = [
            (slot[rank == k], pos[rank == k]) for k in range(1, rank.max(initial=0) + 1)
        ]

    def rows(self, data: np.ndarray) -> CscRows:
        values = data[self._first]
        for slots, entries in self._repeats:
            values[slots] += data[entries]
        return CscRows(values, self.indices, self.indptr, self.shape)


@dataclass(frozen=True)
class LinearProgram:
    """Inequality-form program: minimize objective @ z with rows @ z <= rhs
    and lower <= z <= upper (bound entries may be +-inf)."""

    objective: np.ndarray
    rows: CscRows   # (r, n)
    rhs: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self) -> None:
        for name in ("objective", "rhs", "lower", "upper"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        n = self.objective.size
        r = self.rhs.size
        rows = self.rows
        if not isinstance(rows, CscRows):
            raise TypeError(f"rows must be CscRows, got {type(rows).__name__}")
        if rows.shape != (r, n):
            raise ValueError(f"rows shape {rows.shape}, expected ({r}, {n})")
        if rows.indptr.size != n + 1 or not rows.indptr[-1] == rows.indices.size == rows.nnz:
            raise ValueError("rows indptr, indices and data do not fit together")
        if not np.isfinite(self.objective).all() or not np.isfinite(self.rhs).all():
            raise ValueError("objective and rhs must be finite")
        if not np.isfinite(rows.data).all():
            raise ValueError("row coefficients must be finite")
        for name in ("lower", "upper"):
            arr = getattr(self, name)
            if arr.shape != (n,):
                raise ValueError(f"{name} bound length mismatch")
            if np.isnan(arr).any():
                raise ValueError(f"{name} bounds must not be NaN")
        if (self.lower > self.upper).any():
            raise ValueError("lower bound exceeds upper bound")

    @property
    def num_vars(self) -> int:
        return self.objective.size

    @property
    def num_rows(self) -> int:
        return self.rhs.size


@dataclass(frozen=True)
class BasisState:
    """Opaque warm-start token: basis columns, nonbasic bound sides, and the
    pattern it was solved on (the rows' indices and indptr arrays, and shape)."""

    basis: np.ndarray
    nb_state: np.ndarray
    pattern: tuple[np.ndarray, np.ndarray, tuple[int, int]]


@dataclass(frozen=True)
class LpSolution:
    status: str  # optimal | infeasible | unbounded | iteration_limit
    z: np.ndarray | None
    objective_value: float | None
    iterations: int
    basis: BasisState | None


class _Simplex:
    """One solve's worth of state for the bounded-variable revised simplex."""

    def __init__(self, lp: LinearProgram, safe: bool = False):
        self.lp = lp
        n, r = lp.num_vars, lp.num_rows
        self.n, self.r = n, r
        # safe mode: exact ratio-test ties and an early switch to Bland's
        # rule; used to retry a solve whose final point failed the audit
        self.harris_delta = 0.0 if safe else 1e-10
        self.stall_limit = 20 if safe else _STALL_LIMIT
        # set when the final point fails the feasibility audit
        self.audit_failed = False

        # columns: structural | slack identity | artificial slots (-identity,
        # activated per negative-residual row during phase 1)
        self.ncols = n + 2 * r
        rows = lp.rows
        nnz = rows.indptr[-1]
        idx = np.arange(r, dtype=np.intc)
        self.data = np.concatenate([rows.data, np.ones(r), -np.ones(r)])
        self.indices = np.concatenate([rows.indices, idx, idx])
        self.indptr = np.concatenate([rows.indptr, nnz + 1 + np.arange(2 * r, dtype=np.intc)])
        self.lower = np.concatenate([lp.lower, np.zeros(r), np.zeros(r)])
        self.upper = np.concatenate([lp.upper, np.full(r, np.inf), np.zeros(r)])
        self.cost = np.zeros(self.ncols)
        self.cost[:n] = lp.objective
        self.b = lp.rhs

        self.basis = np.empty(r, dtype=np.int64)
        self.nb_state = np.full(self.ncols, _AT_LOWER, dtype=np.int8)
        self.in_basis = np.zeros(self.ncols, dtype=bool)
        self.x_basic = np.zeros(r)

        self.lu = None
        self.etas: list[tuple[int, np.ndarray]] = []
        self.iterations = 0
        self.degenerate_run = 0
        self.max_iter = 50 * (r + n)

    # -- factorization ---------------------------------------------------

    def _column(self, q: int) -> np.ndarray:
        """cols[:, q] as a dense vector."""
        lo, hi = self.indptr[q], self.indptr[q + 1]
        col = np.zeros(self.r)
        col[self.indices[lo:hi]] += self.data[lo:hi]
        return col

    def _basis_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """data, indices, indptr of cols[:, basis], entry for entry."""
        start = self.indptr[self.basis]
        counts = self.indptr[self.basis + 1] - start
        ptr = np.zeros(self.r + 1, dtype=np.intc)
        np.cumsum(counts, out=ptr[1:])
        pos = np.repeat(start - ptr[:-1], counts) + np.arange(ptr[-1])
        return self.data[pos], self.indices[pos], ptr

    def _refactor(self) -> bool:
        data, indices, ptr = self._basis_arrays()
        try:
            self.lu = gstrf(
                self.r, data.size, data, indices, ptr,
                csc_construct_func=sparse.csc_array, options=_SPLU_OPTIONS, ilu=False,
            )
        except RuntimeError:
            return False
        self.etas = []
        return True

    def _cols_at(self, v: np.ndarray, ncols: int | None = None) -> np.ndarray:
        """cols[:, :ncols] @ v[:ncols] (all columns by default)."""
        ncols = self.ncols if ncols is None else ncols
        nnz = self.indptr[ncols]
        out = np.zeros(self.r)
        csc_matvec(
            self.r, ncols, self.indptr[: ncols + 1], self.indices[:nnz],
            self.data[:nnz], v, out,
        )
        return out

    def _cols_t_at(self, y: np.ndarray) -> np.ndarray:
        """cols.T @ y."""
        out = np.zeros(self.ncols)
        csr_matvec(self.ncols, self.r, self.indptr, self.indices, self.data, y, out)
        return out

    def _ftran(self, v: np.ndarray) -> np.ndarray:
        x = self.lu.solve(v)
        for rpos, d in self.etas:
            alpha = x[rpos] / d[rpos]
            if alpha != 0.0:
                x -= alpha * d
            x[rpos] = alpha
        return x

    def _btran(self, v: np.ndarray) -> np.ndarray:
        y = v.copy()
        for rpos, d in reversed(self.etas):
            beta = (d @ y - y[rpos]) / d[rpos]
            y[rpos] -= beta
        return self.lu.solve(y, trans="T")

    def _nonbasic_values(self) -> np.ndarray:
        v = np.where(self.nb_state == _AT_UPPER, self.upper, self.lower)
        v[self.nb_state == _FREE] = 0.0
        v[~np.isfinite(v)] = 0.0
        v[self.in_basis] = 0.0
        return v

    def _recompute_basics(self) -> None:
        xn = self._nonbasic_values()
        residual = self.b - self._cols_at(xn)
        self.x_basic = self._ftran(residual)

    # -- setup -----------------------------------------------------------

    def start_cold(self) -> None:
        n, r = self.n, self.r
        self.nb_state[:] = _AT_LOWER
        free = ~np.isfinite(self.lower) & ~np.isfinite(self.upper)
        self.nb_state[free] = _FREE
        at_upper = ~np.isfinite(self.lower) & np.isfinite(self.upper)
        self.nb_state[at_upper] = _AT_UPPER

        xn = np.where(self.nb_state[:n] == _AT_UPPER, self.upper[:n], self.lower[:n])
        xn[self.nb_state[:n] == _FREE] = 0.0
        xn[~np.isfinite(xn)] = 0.0
        residual = self.b - self._cols_at(xn, n)

        self.in_basis[:] = False
        self.artificial_rows = residual < 0
        for row in range(r):
            col = n + r + row if self.artificial_rows[row] else n + row
            self.basis[row] = col
            self.in_basis[col] = True
        # artificial columns are -e_row, so their basic value is -residual
        self.x_basic = np.where(self.artificial_rows, -residual, residual)
        # unused artificials stay fixed at zero; used ones are free to leave
        self.upper[n + r :] = 0.0
        self.upper[n + r + np.flatnonzero(self.artificial_rows)] = np.inf
        self._refactor()

    def try_warm(self, state: BasisState) -> bool:
        if not self._load_warm(state):
            return False
        return self._repair_warm()

    def _load_warm(self, state: BasisState) -> bool:
        n, r = self.n, self.r
        rows = self.lp.rows
        # regular on its own pattern; on any other it could be singular
        indices, indptr, shape = state.pattern
        if indices is not rows.indices or indptr is not rows.indptr or shape != rows.shape:
            return False
        basis = np.asarray(state.basis, dtype=np.int64)
        if basis.size != r or (basis < 0).any() or (basis >= n + r).any():
            return False
        self.in_basis[:] = False
        self.in_basis[basis] = True
        if np.count_nonzero(self.in_basis) != r:  # a column listed twice
            return False
        self.basis = basis.copy()
        self.nb_state = state.nb_state.copy()
        # a variable can sit at a bound only if that bound is finite
        nb = ~self.in_basis
        bad_lo = nb & (self.nb_state == _AT_LOWER) & ~np.isfinite(self.lower)
        bad_up = nb & (self.nb_state == _AT_UPPER) & ~np.isfinite(self.upper)
        self.nb_state[bad_lo | bad_up] = _FREE
        self.upper[n + r :] = 0.0
        if not self._refactor():
            return False
        self._recompute_basics()
        return True

    def _full_point(self) -> np.ndarray:
        x = self._nonbasic_values()
        x[self.basis] = self.x_basic
        return x

    def _repair_warm(self) -> bool:
        """Restore primal feasibility of a loaded warm basis.

        Changed bounds or row data can leave the reloaded basic point a
        little outside its bounds.  Each round confines every violated
        variable to the interval between its current value and the bound it
        violates (so the point is feasible for the modified program and the
        variable cannot overshoot or run off along a ray), then minimizes
        the total excursion with unit costs on the offenders.  At the
        optimum each offender sits on its original bound, so restoring the
        bounds moves nothing.
        """
        lo0 = self.lower.copy()
        up0 = self.upper.copy()
        best = np.inf
        repaired = False
        for _ in range(_REPAIR_ROUNDS):
            x = self._full_point()
            over = x - up0
            under = lo0 - x
            total = float(np.maximum(over, 0.0).sum() + np.maximum(under, 0.0).sum())
            if total <= _FEAS_TOL:
                break
            if total >= best:
                self._restore_bounds(lo0, up0)
                return False
            best = total
            cost1 = np.zeros(self.ncols)
            bad_up = over > _FEAS_TOL
            bad_lo = under > _FEAS_TOL
            self._restore_bounds(lo0, up0)
            self.upper[bad_up] = x[bad_up]
            self.lower[bad_up] = up0[bad_up]
            cost1[bad_up] = 1.0
            self.lower[bad_lo] = x[bad_lo]
            self.upper[bad_lo] = lo0[bad_lo]
            cost1[bad_lo] = -1.0
            status = self.run_phase(cost1)
            if status != "optimal":
                self._restore_bounds(lo0, up0)
                return False
            self._refactor()
            self._recompute_basics()
            repaired = True
        else:
            x = self._full_point()
            total = float(
                np.maximum(x - up0, 0.0).sum() + np.maximum(lo0 - x, 0.0).sum()
            )
            if total > _FEAS_TOL:
                self._restore_bounds(lo0, up0)
                return False
        self._restore_bounds(lo0, up0)
        if repaired:
            # with no round run the restore moves no nonbasic value, so
            # _load_warm's basic values stand
            self._recompute_basics()
        lo_b = self.lower[self.basis]
        up_b = self.upper[self.basis]
        ok = (self.x_basic >= lo_b - 1e-7) & (self.x_basic <= up_b + 1e-7)
        return bool(ok.all())

    def _restore_bounds(self, lo0: np.ndarray, up0: np.ndarray) -> None:
        """Put original bounds back and relabel nonbasic variables.

        A variable that left the basis while its bounds were modified is
        parked at a modified-bound value; its lower/upper label may point
        at the other original bound.  Matching parked values against the
        original bounds keeps every nonbasic value unchanged by the
        restore (offenders parked strictly outside both bounds stay
        mislabeled, but every such path returns False and discards the
        basis anyway).
        """
        x = self._full_point()
        self.lower[:] = lo0
        self.upper[:] = up0
        nb = ~self.in_basis
        at_lo = nb & np.isfinite(lo0) & (x == lo0)
        at_up = nb & np.isfinite(up0) & (x == up0)
        self.nb_state[at_lo] = _AT_LOWER
        self.nb_state[at_up] = _AT_UPPER

    # -- pivoting --------------------------------------------------------

    def _reduced_costs(self, cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        y = self._btran(cost[self.basis])
        rc = cost - self._cols_t_at(y)
        return rc, y

    def _choose_entering(self, rc: np.ndarray, bland: bool) -> tuple[int, float] | None:
        state = self.nb_state
        can_up = self.movable & (rc < -_DUAL_TOL) & (state != _AT_UPPER)
        can_dn = self.movable & (rc > _DUAL_TOL) & (state != _AT_LOWER)
        any_candidates = can_up | can_dn
        if not any_candidates.any():
            return None
        if bland:
            j = int(np.flatnonzero(any_candidates)[0])
            return j, 1.0 if can_up[j] else -1.0
        score = np.where(any_candidates, np.abs(rc), -1.0)
        j = int(np.argmax(score))
        return j, 1.0 if can_up[j] else -1.0

    def _ratio_test(
        self, q: int, sigma: float, d: np.ndarray, bland: bool
    ) -> tuple[float, int | None]:
        """Return (step, leaving row) with leaving None for a bound flip or
        unbounded step.

        Two-pass Harris test: pass one computes the largest step that keeps
        every basic variable within harris_delta of its bound (a tolerance
        in primal units, so large direction entries cannot amplify it);
        pass two picks the best-conditioned pivot among rows whose exact
        ratio fits under that allowance.
        """
        # a basic variable falls toward its lower bound where sigma * d > 0
        # and rises toward its upper bound where it is < 0
        sd = sigma * d
        step = np.abs(sd)
        moves = step > _PIVOT_TOL
        gap = np.where(sd > 0.0, self.x_basic - self.lo_b, self.up_b - self.x_basic)
        np.maximum(gap, 0.0, out=gap)
        theta = np.full(self.r, np.inf)
        allow = np.full(self.r, np.inf)
        np.divide(gap, step, out=theta, where=moves)
        np.divide(gap + self.harris_delta, step, out=allow, where=moves)
        theta = np.where(np.isnan(theta), np.inf, theta)
        allow = np.where(np.isnan(allow), np.inf, allow)

        best = theta.min(initial=np.inf)
        flip = self.upper[q] - self.lower[q]
        if flip <= best:
            return flip, None
        if not np.isfinite(best):
            return np.inf, None
        cand = theta <= allow.min(initial=np.inf)
        if bland:
            rows = np.flatnonzero(cand)
            r_leave = int(rows[np.argmin(self.basis[rows])])
        else:
            r_leave = int(np.argmax(np.where(cand, step, -1.0)))  # sigma is +-1
        return float(theta[r_leave]), r_leave

    def _apply_pivot(
        self, q: int, sigma: float, theta: float, r_leave: int | None, d: np.ndarray
    ) -> None:
        if r_leave is None:
            # entering variable runs to its other bound
            if theta > 0.0:
                self.x_basic -= sigma * theta * d
            self.nb_state[q] = _AT_UPPER if sigma > 0 else _AT_LOWER
            return
        leaving = int(self.basis[r_leave])
        enter_from = self._entry_value(q)
        self.x_basic -= sigma * theta * d
        self.x_basic[r_leave] = enter_from + sigma * theta
        leave_down = sigma * d[r_leave] > 0
        self.nb_state[leaving] = _AT_LOWER if leave_down else _AT_UPPER
        if not np.isfinite(self.lower[leaving]) and not np.isfinite(self.upper[leaving]):
            self.nb_state[leaving] = _FREE
        self.in_basis[leaving] = False
        self.in_basis[q] = True
        self.basis[r_leave] = q
        self.movable[leaving] = self.wide[leaving]
        self.movable[q] = False
        self.lo_b[r_leave] = self.lower[q]
        self.up_b[r_leave] = self.upper[q]
        self.etas.append((r_leave, d))

    def _entry_value(self, q: int) -> float:
        if self.nb_state[q] == _AT_UPPER:
            return float(self.upper[q])
        if self.nb_state[q] == _FREE:
            return 0.0
        v = self.lower[q]
        return float(v) if np.isfinite(v) else 0.0

    def run_phase(self, cost: np.ndarray) -> str:
        bland = False
        # the bounds hold still within a phase, so the movable mask and the
        # basic bounds follow the basis pivot by pivot (_apply_pivot)
        self.wide = self.upper - self.lower > _PIVOT_TOL
        self.movable = self.wide & ~self.in_basis
        self.lo_b = self.lower[self.basis]
        self.up_b = self.upper[self.basis]
        while True:
            if self.iterations >= self.max_iter:
                return "iteration_limit"
            if len(self.etas) >= _REFACTOR_EVERY:
                if not self._refactor():
                    return "numerical"
                self._recompute_basics()
            rc, _ = self._reduced_costs(cost)
            choice = self._choose_entering(rc, bland)
            if choice is None:
                return "optimal"
            q, sigma = choice
            d = self._ftran(self._column(q))
            theta, r_leave = self._ratio_test(q, sigma, d, bland)
            if not np.isfinite(theta):
                return "unbounded"
            self._apply_pivot(q, sigma, theta, r_leave, d)
            self.iterations += 1
            if theta <= _DEGEN_STEP:
                self.degenerate_run += 1
                if self.degenerate_run >= self.stall_limit:
                    bland = True
            else:
                self.degenerate_run = 0
                bland = False

    # -- phases ----------------------------------------------------------

    def phase1(self) -> str:
        n, r = self.n, self.r
        cost1 = np.zeros(self.ncols)
        cost1[n + r :] = 1.0
        status = self.run_phase(cost1)
        if status != "optimal":
            return status
        infeas = float(self.x_basic[self.basis >= n + r].sum())
        if infeas > _PHASE1_TOL:
            return "infeasible"
        self._evict_artificials()
        return "optimal"

    def _evict_artificials(self) -> None:
        n, r = self.n, self.r
        for rpos in range(r):
            if self.basis[rpos] < n + r:
                continue
            # degenerate pivot: swap the zero-valued artificial for any
            # nonbasic real column with a usable pivot element
            ei = np.zeros(r)
            ei[rpos] = 1.0
            wr = self._btran(ei)
            alpha = self._cols_t_at(wr)
            candidates = ~self.in_basis & (np.abs(alpha) > 1e-7)
            candidates[n + r :] = False
            idx = np.flatnonzero(candidates)
            if idx.size == 0:
                continue  # redundant row; artificial stays pinned at zero
            q = int(idx[0])
            d = self._ftran(self._column(q))
            art = int(self.basis[rpos])
            self.in_basis[art] = False
            self.nb_state[art] = _AT_LOWER
            self.in_basis[q] = True
            self.basis[rpos] = q
            self.x_basic[rpos] = self._entry_value(q)
            self.etas.append((rpos, d))
        # pin all artificials for phase 2
        self.upper[n + r :] = 0.0

    def solve(self, warm: BasisState | None) -> LpSolution:
        warm_ok = False
        if warm is not None:
            try:
                warm_ok = self.try_warm(warm)
            except (ValueError, IndexError):
                warm_ok = False
        if not warm_ok:
            self.start_cold()
            status = self.phase1()
            if status != "optimal":
                return self._finish(status)
            self._refactor()
            self._recompute_basics()
        # either path leaves the basic values freshly refactorized and
        # recomputed here, so only pivots in phase 2 call for doing it again
        before_phase2 = self.iterations
        status = self.run_phase(self.cost)
        if status == "numerical":  # basis factorization failed
            return self._finish("iteration_limit")
        if status == "optimal" and self.iterations > before_phase2:
            self._refactor()
            self._recompute_basics()
        return self._finish(status)

    def _finish(self, status: str) -> LpSolution:
        n = self.n
        if status != "optimal":
            return LpSolution(
                status=status, z=None, objective_value=None,
                iterations=self.iterations, basis=None,
            )
        x = self._nonbasic_values()
        x[self.basis] = self.x_basic
        z = x[:n]
        row_resid = self._cols_at(z, n) - self.lp.rhs
        scale = max(1.0, float(np.abs(self.lp.rhs).max(initial=0.0)))
        if (
            row_resid.max(initial=-np.inf) > _FEAS_TOL * scale
            or (z - self.lp.upper).max(initial=-np.inf) > _FEAS_TOL
            or (self.lp.lower - z).max(initial=-np.inf) > _FEAS_TOL
        ):
            self.audit_failed = True
            return self._finish("iteration_limit")
        rows = self.lp.rows
        state = BasisState(
            basis=self.basis.copy(),
            nb_state=self.nb_state.copy(),
            pattern=(rows.indices, rows.indptr, rows.shape),
        )
        return LpSolution(
            status="optimal",
            z=z,
            objective_value=float(self.lp.objective @ z),
            iterations=self.iterations,
            basis=state,
        )


def solve_lp(lp: LinearProgram, warm: BasisState | None = None) -> LpSolution:
    """Solve the program, optionally warm-starting from a previous basis.

    The returned basis (when optimal) can seed the next solve on the same
    pattern arrays; a basis from another pattern, or an unusable one, falls
    back to a cold two-phase start, and a final point that fails the
    feasibility audit is solved again cold in safe mode.
    """
    if lp.num_rows == 0:
        raise ValueError("program must have at least one row")
    simplex = _Simplex(lp)
    sol = simplex.solve(warm)
    if simplex.audit_failed:
        sol = _Simplex(lp, safe=True).solve(None)
    return sol
