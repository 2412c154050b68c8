"""Tests for the embedded simplex solver.

The random battery compares against brute-force vertex enumeration on
instances constructed to be feasible and bounded; status classification is
checked on hand-built programs.
"""

import dataclasses
import importlib.util
import sys
import types

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse._compressed import _cs_matrix
from scipy.sparse._coo import _coo_base
from scipy.sparse.linalg import splu

from lcbands import ccp, lpsolve
from lcbands.design import build_interval_system, select_design_points
from lcbands.lpsolve import (
    BasisState,
    LinearProgram,
    LpSolution,
    _Simplex,
    solve_lp,
)
from lcbands.relax import FeasiblePoint
from lp_oracle import brute_force_min, rows_matrix


def simple_lp(objective, rows, rhs, nonneg=None, lower=None, upper=None):
    """Program from dense row data; z >= 0 where nonneg (default all), else free.

    Explicit lower/upper arrays override the nonneg flags.
    """
    objective = np.asarray(objective, dtype=float)
    n = objective.size
    if nonneg is None:
        nonneg = np.ones(n, dtype=bool)
    if lower is None:
        lower = np.where(np.asarray(nonneg, dtype=bool), 0.0, -np.inf)
    if upper is None:
        upper = np.full(n, np.inf)
    return LinearProgram(
        objective=objective,
        rows=sparse.csc_matrix(np.asarray(rows, dtype=float).reshape(-1, n)),
        rhs=np.asarray(rhs, dtype=float),
        lower=lower,
        upper=upper,
    )


def solver_multipliers(lp, sol):
    """Row multipliers y of an optimal basis: B^T y = c_B over the solver's
    columns [rows | I | -I] with costs [objective | 0 | 0]."""
    r = lp.num_rows
    eye = np.eye(r)
    cols = np.hstack([rows_matrix(lp).toarray(), eye, -eye])
    cost = np.concatenate([lp.objective, np.zeros(2 * r)])
    basis = sol.basis.basis
    return np.linalg.solve(cols[:, basis].T, cost[basis])


def test_one_var_nonneg():
    sol = solve_lp(simple_lp([1.0], [[-1.0]], [-1.0]))
    assert sol.status == "optimal"
    assert abs(sol.z[0] - 1.0) <= 1e-9
    assert abs(sol.objective_value - 1.0) <= 1e-9


def test_one_var_free():
    sol = solve_lp(simple_lp([1.0], [[-1.0]], [-1.0], nonneg=[False]))
    assert sol.status == "optimal"
    assert abs(sol.z[0] - 1.0) <= 1e-9


def test_infeasible_pair_of_rows():
    # x <= -1 and -x <= -1 cannot both hold
    sol = solve_lp(simple_lp([0.0], [[1.0], [-1.0]], [-1.0, -1.0], nonneg=[False]))
    assert sol.status == "infeasible"
    assert sol.z is None


def test_unbounded():
    sol = solve_lp(simple_lp([-1.0], [[-1.0]], [0.0]))
    assert sol.status == "unbounded"


def test_two_var_simplex_face():
    sol = solve_lp(simple_lp([-1.0, -1.0], [[1.0, 1.0]], [1.0]))
    assert sol.status == "optimal"
    assert abs(sol.objective_value + 1.0) <= 1e-9
    assert abs(sol.z.sum() - 1.0) <= 1e-9


def test_equality_via_row_pair():
    lp = simple_lp(
        [2.0, 3.0],
        [[1.0, 1.0], [-1.0, -1.0], [1.0, 0.0]],
        [1.0, -1.0, 0.7],
    )
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert abs(sol.z.sum() - 1.0) <= 1e-9
    # cheap variable loaded to its cap: 2(0.7) + 3(0.3)
    assert abs(sol.objective_value - 2.3) <= 1e-9


def test_upper_bounds_and_negative_lower():
    lp = simple_lp(
        [-1.0, 1.0],
        [[1.0, 1.0]],
        [10.0],
        nonneg=[False, False],
        lower=np.array([-1.0, -2.5]),
        upper=np.array([2.5, np.inf]),
    )
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert abs(sol.z[0] - 2.5) <= 1e-9
    assert abs(sol.z[1] + 2.5) <= 1e-9


def test_fixed_variable():
    lp = simple_lp(
        [1.0, 1.0],
        [[-1.0, -1.0]],
        [-2.0],
        lower=np.array([0.7, 0.0]),
        upper=np.array([0.7, np.inf]),
    )
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert abs(sol.z[0] - 0.7) <= 1e-9
    assert abs(sol.z[1] - 1.3) <= 1e-9


def _random_bounded_lp(rng, n=6, extra_rows=5):
    # z >= 0 plus a simplex cap keeps the feasible set bounded; rhs chosen
    # so an interior point exists
    a = rng.normal(size=(extra_rows, n))
    z0 = rng.uniform(0.2, 1.0, n)
    b = a @ z0 + rng.uniform(0.1, 1.0, extra_rows)
    cap = np.ones((1, n))
    bcap = np.array([z0.sum() + rng.uniform(1.0, 3.0)])
    c = rng.normal(size=n)
    return simple_lp(c, np.vstack([a, cap]), np.concatenate([b, bcap]))


def test_random_battery_matches_vertex_enumeration():
    rng = np.random.default_rng(42)
    for trial in range(40):
        lp = _random_bounded_lp(rng)
        sol = solve_lp(lp)
        assert sol.status == "optimal", f"trial {trial}: {sol.status}"
        ref = brute_force_min(lp)
        assert abs(sol.objective_value - ref) <= 1e-6, f"trial {trial}"


def test_duality_certificate():
    rng = np.random.default_rng(43)
    for _ in range(20):
        lp = _random_bounded_lp(rng)
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        y = solver_multipliers(lp, sol)
        rows = rows_matrix(lp).toarray()
        # multipliers of <= rows in a minimization are nonpositive
        assert (y <= 1e-9).all()
        resid = rows @ sol.z - lp.rhs
        assert np.abs(y * resid).max() <= 1e-6  # complementary slackness
        rc = lp.objective - rows.T @ y
        assert (rc >= -1e-8).all()  # dual feasibility for z >= 0
        assert np.abs(rc * sol.z).max() <= 1e-6
        # objective reproduced through the certificate
        assert abs(sol.objective_value - (y @ lp.rhs + rc @ sol.z)) <= 1e-6


def test_warm_start_agrees_with_cold():
    rng = np.random.default_rng(44)
    lp = _random_bounded_lp(rng, n=8, extra_rows=7)
    cold = solve_lp(lp)
    assert cold.status == "optimal"
    # drift the rhs and objective slightly, as successive CCP iterations do
    lp2 = LinearProgram(
        objective=lp.objective + 1e-3 * rng.normal(size=8),
        rows=lp.rows,
        rhs=lp.rhs + 1e-3 * rng.normal(size=lp.rhs.size),
        lower=lp.lower,
        upper=lp.upper,
    )
    warm = solve_lp(lp2, warm=cold.basis)
    cold2 = solve_lp(lp2)
    assert warm.status == cold2.status == "optimal"
    assert abs(warm.objective_value - cold2.objective_value) <= 1e-8
    assert warm.iterations <= cold2.iterations + 2


def test_warm_start_shape_mismatch_falls_back():
    rng = np.random.default_rng(45)
    lp_small = _random_bounded_lp(rng, n=4, extra_rows=3)
    lp_big = _random_bounded_lp(rng, n=6, extra_rows=5)
    cold = solve_lp(lp_small)
    sol = solve_lp(lp_big, warm=cold.basis)
    assert sol.status == "optimal"
    assert abs(sol.objective_value - brute_force_min(lp_big)) <= 1e-6


def test_determinism():
    rng = np.random.default_rng(46)
    lp = _random_bounded_lp(rng, n=7, extra_rows=6)
    a = solve_lp(lp)
    b = solve_lp(lp)
    np.testing.assert_array_equal(a.z, b.z)
    assert a.iterations == b.iterations
    assert a.objective_value == b.objective_value


def test_row_scaling_invariance():
    rng = np.random.default_rng(47)
    lp = _random_bounded_lp(rng)
    scale = 1000.0
    lp_scaled = LinearProgram(
        objective=lp.objective,
        rows=rows_matrix(lp) * scale,
        rhs=lp.rhs * scale,
        lower=lp.lower,
        upper=lp.upper,
    )
    a, b = solve_lp(lp), solve_lp(lp_scaled)
    assert a.status == b.status == "optimal"
    assert abs(a.objective_value - b.objective_value) <= 1e-6


def test_degenerate_overdetermined_vertex_terminates():
    # many redundant rows through the same optimal vertex
    n = 5
    rows = [np.ones(n)]
    rhs = [1.0]
    for i in range(n):
        for j in range(i + 1, n):
            r = np.zeros(n)
            r[i] = r[j] = 1.0
            rows.append(r)
            rhs.append(1.0)
    lp = simple_lp(-np.ones(n), np.array(rows), np.array(rhs))
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert abs(sol.objective_value + 1.0) <= 1e-8


def test_sparse_rows_accepted():
    rows = sparse.csr_matrix(np.array([[1.0, 1.0], [-1.0, 0.0]]))
    lp = LinearProgram(
        objective=np.array([-1.0, -2.0]),
        rows=rows,
        rhs=np.array([1.0, 0.0]),
        lower=np.zeros(2),
        upper=np.full(2, np.inf),
    )
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert abs(sol.objective_value + 2.0) <= 1e-9


def test_redundant_equality_rows_phase1():
    # duplicated equality pair leaves a redundant row in phase 1
    lp = simple_lp(
        [1.0, 1.0],
        [[1.0, 1.0], [-1.0, -1.0], [1.0, 1.0], [-1.0, -1.0]],
        [1.0, -1.0, 1.0, -1.0],
    )
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert abs(sol.objective_value - 1.0) <= 1e-9


def test_validation_errors():
    with pytest.raises(ValueError):
        simple_lp([1.0, np.nan], [[1.0, 1.0]], [1.0])
    with pytest.raises(ValueError):
        simple_lp([1.0], [[1.0, 2.0]], [1.0])
    with pytest.raises(ValueError):  # bound length mismatch
        simple_lp([1.0], [[1.0]], [1.0], lower=np.zeros(2))
    with pytest.raises(ValueError):  # rejected at construction, not at solve
        simple_lp([1.0], [[1.0]], [1.0], lower=np.array([2.0]), upper=np.array([1.0]))
    good = simple_lp([1.0, 1.0], [[1.0, 2.0]], [1.0]).rows
    for indptr in (good.indptr[:-1], good.indptr - 1):  # too short, nnz off
        with pytest.raises(ValueError):
            LinearProgram(
                objective=np.ones(2),
                rows=lpsolve.CscRows(good.data, good.indices, indptr, good.shape),
                rhs=np.ones(1),
                lower=np.zeros(2),
                upper=np.full(2, np.inf),
            )
    with pytest.raises(TypeError):
        LinearProgram(
            objective=np.array([1.0]),
            rows=np.array([[1.0]]),
            rhs=np.array([1.0]),
            lower=np.zeros(1),
            upper=np.full(1, np.inf),
        )
    with pytest.raises(ValueError):
        solve_lp(
            LinearProgram(
                objective=np.array([1.0]),
                rows=sparse.csc_matrix((0, 1)),
                rhs=np.empty(0),
                lower=np.zeros(1),
                upper=np.full(1, np.inf),
            )
        )


def _template(n):
    """The CCP template of a Gaussian sample of size n, and its start point."""
    x = np.random.Generator(np.random.Philox(key=[0, 0])).normal(size=n)
    grid = select_design_points(x)
    system = build_interval_system(grid, 0.1)
    return ccp.SubproblemTemplate(grid, system), ccp.initial_point(grid, system)


def _template_program(n):
    template, start = _template(n)
    return template.instantiate(start, 3, "min", 1.0)


# stores a -0.0
_HAND_ROWS = sparse.coo_matrix(
    ([1.0, -0.0, 2.0, -1.5], ([0, 0, 1, 1], [0, 1, 1, 2])), shape=(2, 3)
)


def _template_and_hand_programs():
    """CCP template programs at n=100 and at n=200, where depth-1 pairs make
    DOWN rows repeat anchor columns, then a hand-built program that stores a
    -0.0, given as CSR rows and, last, as COO rows."""
    hand = [
        LinearProgram(
            objective=np.ones(3), rows=rows, rhs=np.ones(2),
            lower=np.zeros(3), upper=np.full(3, np.inf),
        )
        for rows in (_HAND_ROWS.tocsr(), _HAND_ROWS)
    ]
    return _template_program(100), _template_program(200), *hand


def _stacked(lp):
    eye = sparse.identity(lp.num_rows, format="csc")
    return sparse.hstack([rows_matrix(lp), eye, -eye], format="csc")


def _bases(simplex, rng):
    simplex.start_cold()
    return [simplex.basis.copy()] + [
        rng.choice(simplex.ncols, size=simplex.r, replace=False) for _ in range(20)
    ]


def _assert_same_bits(got, want):
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


def test_column_and_basis_match_scipy_slicing():
    # the simplex reads columns and basis matrices straight from its raw CSC
    # arrays; both must equal what scipy.sparse slicing of the stacked
    # [rows | I | -I] matrix gives, down to the sign of a stored zero
    rng = np.random.default_rng(47)
    for lp in _template_and_hand_programs():
        simplex = _Simplex(lp)
        stacked = _stacked(lp)
        for name in ("data", "indices", "indptr"):
            _assert_same_bits(getattr(simplex, name), getattr(stacked, name))
        for q in range(simplex.ncols):
            _assert_same_bits(simplex._column(q), stacked[:, q].toarray().ravel())
        for basis in _bases(simplex, rng):
            simplex.basis = basis
            got = simplex._basis_arrays()
            want = stacked[:, basis].tocsc()
            assert want.shape == (lp.num_rows, lp.num_rows)
            assert got[2].size == lp.num_rows + 1
            for arr, name in zip(got, ("data", "indices", "indptr")):
                _assert_same_bits(arr, getattr(want, name))
    # the hand program really stores a negative zero, and reads it as +0.0
    hand = _Simplex(_template_and_hand_programs()[-1])
    stored_zero = hand.data[hand.data == 0.0]
    assert stored_zero.size == 1 and np.signbit(stored_zero[0])
    assert not np.signbit(hand._column(1)).any()


def test_coo_conversion_matches_tocsc(monkeypatch):
    # every template program's CSC arrays are those coo_matrix(...).tocsc()
    # gives for its entries, repeated anchor entries summed in the same
    # order, at the start point and at random points; rows handed in as a
    # scipy matrix are kept as their tocsc()
    entries = []
    layout_rows = lpsolve.CscLayout.rows

    def keeping_rows(self, data):
        entries.append(data.copy())
        return layout_rows(self, data)

    monkeypatch.setattr(lpsolve.CscLayout, "rows", keeping_rows)
    rng = np.random.default_rng(50)
    for n in (100, 200, 400):
        template, start = _template(n)
        points = [start] + [
            FeasiblePoint(
                ell=start.ell + rng.normal(scale=0.2, size=start.ell.size),
                g=start.g + rng.normal(scale=0.2, size=start.g.size),
            )
            for _ in range(4)
        ]
        for point in points:
            rows = template.instantiate(point, 3, "min", 1.0).rows
            coo = sparse.coo_matrix(
                (entries[-1], (template._rows, template._cols)), shape=rows.shape
            )
            want = coo.tocsc()
            for name in ("data", "indices", "indptr"):
                _assert_same_bits(getattr(rows, name), getattr(want, name))
        # depth-1 pairs at n=200 and 400: repeated entries were summed
        assert (coo.nnz > rows.nnz) == (n > 100)
    for given in (_HAND_ROWS.tocsr(), _HAND_ROWS):
        rows = LinearProgram(
            objective=np.ones(3), rows=given, rhs=np.ones(2),
            lower=np.zeros(3), upper=np.full(3, np.inf),
        ).rows
        want = _HAND_ROWS.tocsc()
        for name in ("data", "indices", "indptr"):
            _assert_same_bits(getattr(rows, name), getattr(want, name))


def test_matvecs_match_scipy_products():
    rng = np.random.default_rng(48)
    for lp in _template_and_hand_programs():
        simplex = _Simplex(lp)
        stacked = _stacked(lp)
        for _ in range(5):
            v = rng.normal(size=simplex.ncols) * (rng.uniform(size=simplex.ncols) < 0.7)
            y = rng.normal(size=simplex.r)
            _assert_same_bits(simplex._cols_at(v), stacked @ v)
            _assert_same_bits(simplex._cols_at(v[: lp.num_vars], lp.num_vars),
                              stacked[:, : lp.num_vars] @ v[: lp.num_vars])
            _assert_same_bits(simplex._cols_t_at(y), stacked.T @ y)


def _regular_bases(simplex, stacked, rng, count=20):
    """The cold start basis, then count bases along a random walk of pivots
    that each keep the basis matrix regular.  (Random column subsets of a
    template program are structurally singular, and SuperLU can crash on
    those, inside splu too.)"""
    simplex.start_cold()
    basis = simplex.basis.copy()
    dense = stacked.toarray()
    bases = [basis.copy()]
    while len(bases) <= count:
        q = rng.choice(np.setdiff1d(np.arange(simplex.ncols), basis))
        d = np.linalg.solve(dense[:, basis], dense[:, q])
        rows = np.flatnonzero(np.abs(d) > 0.1)
        if rows.size:
            basis[rng.choice(rows)] = q
            bases.append(basis.copy())
    return bases


def test_lu_solves_match_splu():
    # gstrf on the gathered basis arrays is splu on the sliced basis matrix
    rng = np.random.default_rng(49)
    for lp in _template_and_hand_programs():
        simplex = _Simplex(lp)
        stacked = _stacked(lp)
        for basis in _regular_bases(simplex, stacked, rng):
            simplex.basis = basis
            want = splu(stacked[:, basis].tocsc())
            assert simplex._refactor()
            for _ in range(3):
                v = rng.normal(size=simplex.r)
                _assert_same_bits(simplex.lu.solve(v), want.solve(v))
                _assert_same_bits(
                    simplex.lu.solve(v, trans="T"), want.solve(v, trans="T")
                )


def test_solve_builds_no_compressed_matrix(monkeypatch):
    # programs carry CSC arrays and the solver runs SciPy's kernels on raw
    # arrays: no coo, csc or csr object is built per program or per solve,
    # cold or warm, nor anywhere in a whole CCP run
    built = []
    for cls in (_coo_base, _cs_matrix):
        def counting_init(self, *args, _init=cls.__init__, **kwargs):
            built.append(type(self).__name__)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting_init)
    sparse.coo_matrix(np.eye(2)).tocsc()
    assert built == ["coo_matrix", "csc_matrix"]  # the counters count
    built.clear()
    template, start = _template(200)
    template_lp = template.instantiate(start, 3, "min", 1.0)
    cold = solve_lp(template_lp)
    warm = solve_lp(template_lp, warm=cold.basis)
    assert cold.status == warm.status == "optimal"
    assert cold.iterations > 0
    _, diag = ccp.run_ccp_point(template, start, 7, "max", cold.basis)
    assert diag.status == "converged" and diag.iterations > 1
    assert built == []


def test_structurally_singular_warm_basis_starts_cold(monkeypatch):
    # columns 0 and 1 meet row 0 only, so no basis holding both is regular;
    # a warm basis from another pattern is checked before gstrf sees it
    # (SuperLU can crash on a structurally singular matrix)
    def program():
        return simple_lp(
            [-1.0, -1.0, -1.0], [[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]], [1.0, 1.0]
        )

    factored = []
    gstrf = lpsolve.gstrf

    def recording_gstrf(n, nnz, data, indices, indptr, **kwargs):
        factored.append(np.unique(indices[:nnz]).size == n)  # every row met
        return gstrf(n, nnz, data, indices, indptr, **kwargs)

    monkeypatch.setattr(lpsolve, "gstrf", recording_gstrf)
    lp = program()
    cold = solve_lp(lp)
    other = solve_lp(program()).basis  # same numbers, another pattern
    assert other.pattern[0] is not lp.rows.indices
    singular = dataclasses.replace(other, basis=np.array([0, 1]))
    factored.clear()
    sol = solve_lp(lp, warm=singular)
    assert all(factored) and factored
    assert sol.status == "optimal" and sol.iterations == cold.iterations
    np.testing.assert_array_equal(sol.z, cold.z)
    assert sol.objective_value == cold.objective_value == -2.0
    # a regular basis from another pattern passes the check and warm-starts
    warm = solve_lp(lp, warm=other)
    assert warm.status == "optimal" and warm.iterations == 0
    np.testing.assert_array_equal(warm.z, cold.z)


def _gstrf_without_construct_func(n, nnz, data, indices, indptr, options=None, ilu=False):
    raise AssertionError("not reached: the keyword is refused first")


@pytest.mark.parametrize(
    "module, attrs",
    [
        ("scipy.sparse._sparsetools", {}),
        (
            "scipy.sparse.linalg._dsolve._superlu",
            {"gstrf": _gstrf_without_construct_func},
        ),
    ],
    ids=["kernels_missing", "gstrf_call_changed"],
)
def test_missing_or_changed_kernel_fails_at_import(monkeypatch, module, attrs):
    fake = types.ModuleType(module)
    fake.__dict__.update(attrs)
    monkeypatch.setitem(sys.modules, module, fake)
    spec = importlib.util.spec_from_file_location("_lpsolve_copy", lpsolve.__file__)
    copy = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "_lpsolve_copy", copy)
    with pytest.raises(ImportError) as info:
        spec.loader.exec_module(copy)
    assert type(info.value).__name__ == "SparseKernelsMissing"
