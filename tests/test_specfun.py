"""Tests for the special-function kernel.

Expected values below were frozen from independent oracles before the
implementation existed: quadrature of the beta density (scipy.integrate.quad),
bisection on that quadrature CDF, closed forms, and 80-bit long-double
evaluation of the direct formulas.
"""

import math

import numpy as np
import pytest
from scipy import special

from lcbands.specfun import (
    BetaParams,
    ConvergenceError,
    exp_mean_arr,
    exp_mean_deriv_arr,
    qbeta,
    reg_inc_beta,
)
from specfun_oracle import exp_mean, exp_mean_deriv

# Frozen oracle values.
I_03_2_3 = 0.3483                     # quadrature, abs err < 4e-15
C0_N100 = 0.025501207106399228        # bisection on quadrature CDF, qbeta(0.1/24, 8, 93)
D0_N100 = 0.16532974949693935         # scipy.special.betaincinv(8, 93, 1 - 0.1/24)
DERIV_M1 = 0.26424111765711533        # closed form 1 - 2/e


def test_exp_mean_values():
    got = exp_mean_arr(np.array([0.0, 1.0, math.log(2.0)]))
    assert got[0] == 1.0
    assert math.isclose(got[1], math.e - 1.0, rel_tol=1e-15)
    assert math.isclose(got[2], 1.0 / math.log(2.0), rel_tol=1e-14)


def test_exp_mean_precision_long_double():
    s = np.concatenate(
        [
            np.linspace(-50.0, 50.0, 401),
            np.geomspace(1e-12, 1.0, 60),
            -np.geomspace(1e-12, 1.0, 60),
        ]
    )
    s = s[s != 0.0]
    ref = np.expm1(s.astype(np.longdouble)) / s.astype(np.longdouble)
    got = exp_mean_arr(s)
    rel = np.abs(got - ref.astype(float)) / np.abs(ref.astype(float))
    assert rel.max() <= 1e-12, f"max rel err {rel.max():.3e}"


def test_exp_mean_scalar_matches_array():
    # math.expm1 and np.expm1 may disagree by one ulp
    s = np.linspace(-40.0, 40.0, 97)
    arr = exp_mean_arr(s)
    for si, vi in zip(s, arr):
        assert math.isclose(exp_mean(si), vi, rel_tol=1e-15)


def test_exp_mean_deriv_values():
    got = exp_mean_deriv_arr(np.array([0.0, 1.0, -1.0]))
    assert got[0] == 0.5
    assert math.isclose(got[1], 1.0, rel_tol=1e-14)
    assert math.isclose(got[2], DERIV_M1, rel_tol=1e-13)


def test_exp_mean_deriv_matches_central_differences():
    rng = np.random.default_rng(7)
    s = np.concatenate([rng.uniform(-30, 30, 300), rng.uniform(-0.5, 0.5, 300)])
    h = 1e-6
    fd = (exp_mean_arr(s + h) - exp_mean_arr(s - h)) / (2.0 * h)
    an = exp_mean_deriv_arr(s)
    rel = np.abs(fd - an) / np.maximum(np.abs(an), 1e-12)
    assert rel.max() <= 1e-6, f"max rel err {rel.max():.3e}"


def test_no_accuracy_cliff_at_taylor_seams():
    # Both branches must agree with a long-double reference on either side
    # of their switchover points, in the array kernels and the scalar oracle.
    for s in (1e-4 * (1 - 1e-9), 1e-4 * (1 + 1e-9), -1e-4 * (1 + 1e-9)):
        sl = np.longdouble(s)
        ref = float(np.expm1(sl) / sl)
        assert abs(exp_mean_arr(np.array([s]))[0] - ref) <= 1e-15
        assert abs(exp_mean(s) - ref) <= 1e-15
    for s in (1e-2 * (1 - 1e-9), 1e-2 * (1 + 1e-9), -1e-2 * (1 + 1e-9)):
        sl = np.longdouble(s)
        ref = float((np.expm1(sl) * (sl - 1.0) + sl) / (sl * sl))
        assert abs(exp_mean_deriv_arr(np.array([s]))[0] - ref) <= 5e-14
        assert abs(exp_mean_deriv(s) - ref) <= 5e-14


def test_exp_mean_positive_increasing_log_convex():
    rng = np.random.default_rng(11)
    s = np.sort(rng.uniform(-40, 40, (500, 2)), axis=1)
    e_lo = exp_mean_arr(s[:, 0])
    e_hi = exp_mean_arr(s[:, 1])
    assert (e_lo > 0).all() and (e_hi > 0).all()
    assert (e_hi >= e_lo).all()
    mid = exp_mean_arr(s.mean(axis=1))
    assert (mid * mid <= e_lo * e_hi * (1 + 1e-12)).all()


def test_exp_mean_dominates_deriv():
    # E(s) - E'(s) = (exp(s) - 1 - s) / s**2 > 0 everywhere
    rng = np.random.default_rng(13)
    s = rng.uniform(-40, 40, 1000)
    assert (exp_mean_arr(s) > exp_mean_deriv_arr(s)).all()


def test_shifted_tangent_monotone_and_bounded():
    # (s, t) -> exp(t) * E(s - t) is nondecreasing in both coordinates, and
    # for s <= t, C > 0: exp(t+C) E(s-t-C) >= (1 + C/2) exp(t) E(s-t).
    rng = np.random.default_rng(17)
    for _ in range(300):
        s, t = rng.uniform(-10, 10, 2)
        d = rng.uniform(1e-6, 2.0)
        base = math.exp(t) * exp_mean(s - t)
        up_s = math.exp(t) * exp_mean(s + d - t)
        up_t = math.exp(t + d) * exp_mean(s - t - d)
        assert up_s >= base * (1 - 1e-12)
        assert up_t >= base * (1 - 1e-12)
        lo, hi = sorted((s, t))
        c = rng.uniform(1e-6, 3.0)
        lhs = math.exp(hi + c) * exp_mean(lo - hi - c)
        rhs = (1.0 + c / 2.0) * math.exp(hi) * exp_mean(lo - hi)
        assert lhs >= rhs * (1 - 1e-12)


def test_log_variants_match_direct_formulas_in_safe_range():
    from lcbands.specfun import (
        log_exp_mean_arr,
        log_exp_mean_deriv_arr,
        log_exp_mean_gap_arr,
    )

    rng = np.random.default_rng(19)
    s = np.concatenate([rng.uniform(-45, 45, 400), rng.uniform(-0.1, 0.1, 100)])
    np.testing.assert_allclose(np.exp(log_exp_mean_arr(s)), exp_mean_arr(s), rtol=1e-12)
    np.testing.assert_allclose(
        np.exp(log_exp_mean_deriv_arr(s)), exp_mean_deriv_arr(s), rtol=1e-12
    )
    np.testing.assert_allclose(
        np.exp(log_exp_mean_gap_arr(s)),
        exp_mean_arr(s) - exp_mean_deriv_arr(s),
        rtol=1e-10,
    )


def test_log_variants_extreme_arguments():
    from lcbands.specfun import (
        log_exp_mean_arr,
        log_exp_mean_deriv_arr,
        log_exp_mean_gap_arr,
    )

    s = np.array([-1e300, -1e6, -55.0, 55.0, 1e6, 700.0])
    for fn in (log_exp_mean_arr, log_exp_mean_deriv_arr, log_exp_mean_gap_arr):
        vals = fn(s)
        assert np.isfinite(vals).all(), f"{fn.__name__}: {vals}"
    # E(s) ~ e^s / s above, -1/s below; E'(s) ~ e^s/s above, 1/s^2 below
    assert abs(log_exp_mean_arr(np.array([1e6]))[0] - (1e6 - math.log(1e6))) <= 1e-9
    assert abs(log_exp_mean_arr(np.array([-1e6]))[0] - (-math.log(1e6))) <= 1e-9
    assert (
        abs(log_exp_mean_deriv_arr(np.array([-1e6]))[0] - (-2 * math.log(1e6))) <= 1e-9
    )
    # asymptotic and direct branches agree where both are evaluable
    assert abs(
        log_exp_mean_arr(np.array([50.0]))[0] - math.log(exp_mean(50.0))
    ) <= 1e-12
    assert abs(
        log_exp_mean_arr(np.array([-50.0]))[0] - math.log(exp_mean(-50.0))
    ) <= 1e-12
    assert abs(
        log_exp_mean_deriv_arr(np.array([50.0]))[0] - math.log(exp_mean_deriv(50.0))
    ) <= 1e-12
    assert abs(
        log_exp_mean_deriv_arr(np.array([-50.0]))[0] - math.log(exp_mean_deriv(-50.0))
    ) <= 1e-12
    gap = lambda t: exp_mean(t) - exp_mean_deriv(t)
    assert abs(log_exp_mean_gap_arr(np.array([50.0]))[0] - math.log(gap(50.0))) <= 1e-12
    assert abs(
        log_exp_mean_gap_arr(np.array([-50.0]))[0] - math.log(gap(-50.0))
    ) <= 1e-12


def test_reg_inc_beta_frozen_value():
    assert abs(reg_inc_beta(0.3, BetaParams(2.0, 3.0)) - I_03_2_3) <= 1e-12


def test_reg_inc_beta_endpoints_and_uniform():
    p = BetaParams(1.0, 1.0)
    assert reg_inc_beta(0.0, p) == 0.0
    assert reg_inc_beta(1.0, p) == 1.0
    for x in (0.1, 0.25, 0.5, 0.9):
        assert math.isclose(reg_inc_beta(x, p), x, rel_tol=1e-14)


def test_reg_inc_beta_symmetry_and_monotone():
    params = BetaParams(3.5, 7.25)
    swapped = BetaParams(7.25, 3.5)
    xs = np.linspace(1e-6, 1 - 1e-6, 301)
    vals = np.array([reg_inc_beta(x, params) for x in xs])
    assert (np.diff(vals) >= -1e-13).all()
    for x in (0.05, 0.3, 0.62, 0.97):
        lhs = reg_inc_beta(x, params)
        rhs = 1.0 - reg_inc_beta(1.0 - x, swapped)
        assert abs(lhs - rhs) <= 1e-13


def test_reg_inc_beta_matches_reference_large_shapes():
    rng = np.random.default_rng(23)
    for _ in range(200):
        a = math.exp(rng.uniform(math.log(0.5), math.log(1e5)))
        b = math.exp(rng.uniform(math.log(0.5), math.log(1e5)))
        x = rng.uniform(0.0, 1.0)
        mine = reg_inc_beta(x, BetaParams(a, b))
        ref = float(special.betainc(a, b, x))
        assert abs(mine - ref) <= 1e-10, f"a={a} b={b} x={x}: {mine} vs {ref}"


def test_qbeta_frozen_design_quantiles():
    params = BetaParams(8.0, 93.0)
    assert abs(qbeta(0.1 / 24.0, params) - C0_N100) <= 1e-10
    assert abs(qbeta(1.0 - 0.1 / 24.0, params) - D0_N100) <= 1e-10


def test_qbeta_known_medians():
    assert abs(qbeta(0.5, BetaParams(2.0, 2.0)) - 0.5) <= 1e-12
    assert abs(qbeta(0.5, BetaParams(5.0, 1.0)) - 0.5 ** 0.2) <= 1e-12


def test_qbeta_roundtrip_and_monotone():
    rng = np.random.default_rng(29)
    for _ in range(200):
        a = math.exp(rng.uniform(math.log(0.5), math.log(1e4)))
        b = math.exp(rng.uniform(math.log(0.5), math.log(1e4)))
        params = BetaParams(a, b)
        ps = np.sort(rng.uniform(1e-6, 1 - 1e-6, 3))
        xs = [qbeta(p, params) for p in ps]
        assert xs[0] < xs[1] < xs[2] or max(np.diff(xs)) > 0  # strictly increasing
        assert all(x2 >= x1 for x1, x2 in zip(xs, xs[1:]))
        for p, x in zip(ps, xs):
            assert abs(reg_inc_beta(x, params) - p) <= 1e-10


def test_order_statistic_quantile_concentration():
    # qbeta(1-a, k, n+1-k) - k/(n+1) <= sqrt(p(1-p)/(n+1)) sqrt(2 log(1/a))
    #                                    + log(1/a)/(n+1), and symmetrically below.
    rng = np.random.default_rng(31)
    for _ in range(100):
        n = int(rng.integers(10, 100000))
        k = rng.uniform(0.5, n + 0.5)
        a = rng.uniform(0.001, 0.5)
        params = BetaParams(k, n + 1.0 - k)
        p = k / (n + 1.0)
        bound = math.sqrt(p * (1 - p) / (n + 1)) * math.sqrt(2 * math.log(1 / a)) + math.log(
            1 / a
        ) / (n + 1)
        assert qbeta(1.0 - a, params) - p <= bound + 1e-12
        assert p - qbeta(a, params) <= bound + 1e-12


def test_domain_errors():
    params = BetaParams(2.0, 3.0)
    with pytest.raises(ValueError):
        reg_inc_beta(-0.1, params)
    with pytest.raises(ValueError):
        reg_inc_beta(1.1, params)
    with pytest.raises(ValueError):
        qbeta(0.0, params)
    with pytest.raises(ValueError):
        qbeta(1.0, params)
    with pytest.raises(ValueError):
        BetaParams(0.0, 1.0)
    with pytest.raises(ValueError):
        BetaParams(1.0, 2e5)
