"""Tests for the function-level band construction and evaluation.

The containment oracle is the core check: for bands built around a known
concave curve with slack at the knots, the curve must stay inside the band
on the central knot range, which is exactly the chord-slope derivation.
"""

import json
import math

import numpy as np
import pytest

from lcbands.band import (
    ConfidenceBand,
    TooFewKnots,
    band_from_json,
    band_to_json,
    build_band,
    eval_density_band,
    eval_lower,
    eval_upper,
)
from lcbands.ccp import CcpConfig, PointwiseIntervals, pointwise_intervals
from lcbands.design import DesignGrid, build_interval_system, select_design_points


def toy_band(x, lo, hi):
    x = np.asarray(x, dtype=float)
    grid = DesignGrid(n=60, s_n=2, spacing=10, m=x.size, b_max=0, x=x)
    iv = PointwiseIntervals(
        indices=tuple(range(1, x.size + 1)),
        lo=np.asarray(lo, dtype=float),
        hi=np.asarray(hi, dtype=float),
        diagnostics=(),
    )
    return build_band(grid, iv)


@pytest.fixture(scope="module")
def pipeline_band():
    rng = np.random.Generator(np.random.Philox(key=[3, 0]))
    grid = select_design_points(rng.normal(size=100))
    system = build_interval_system(grid, 0.05)
    res = pointwise_intervals(grid, system, CcpConfig(), range(1, 14))
    return build_band(grid, res, alpha=0.05)


def test_chord_slopes_three_knot_example():
    band = toy_band([0.0, 1.0, 2.0], [-1.0, -1.0, -1.0], [0.0, 0.0, 0.0])
    np.testing.assert_allclose(band.L, [1.0, 0.5], atol=1e-15)
    np.testing.assert_allclose(band.R, [-0.5, -1.0], atol=1e-15)
    assert band.xbar.size == 0


def test_linear_function_chords_collapse_to_slope():
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = np.sort(rng.uniform(-3, 3, 6))
        if np.diff(x).min() < 0.05:
            continue
        a, b = rng.uniform(-1.0, 1.0, 2)
        vals = a + b * x
        band = toy_band(x, vals, vals)
        np.testing.assert_allclose(band.L, b, atol=1e-12)
        np.testing.assert_allclose(band.R, b, atol=1e-12)


def test_too_few_knots():
    with pytest.raises(TooFewKnots):
        toy_band([0.0, 1.0], [0.0, 0.0], [1.0, 1.0])


def test_eval_lower_interpolates_and_vanishes_outside():
    band = toy_band([0.0, 1.0, 2.0], [0.0, -1.0, -2.0], [1.0, 0.0, -1.0])
    assert eval_lower(band, 0.5) == -0.5
    assert eval_lower(band, -0.01) == -math.inf
    assert eval_lower(band, 2.01) == -math.inf
    for i, xi in enumerate(band.knots):
        assert eval_lower(band, xi) == band.lo_log[i]


def test_eval_upper_three_knot_example():
    band = toy_band([0.0, 1.0, 2.0], [-1.0] * 3, [0.0] * 3)
    # x=0.5 lies left of x_2: the line through (x_2, hi_2) with slope R_2
    assert abs(eval_upper(band, 0.5) - 0.5) <= 1e-15
    # knots covered by a tangent anchored there stay below their hi value;
    # the outermost knots sit under extrapolated lines and are not covered
    for i in range(1, band.knots.size - 1):
        assert eval_upper(band, band.knots[i]) <= band.hi_log[i] + 1e-12


def test_eval_upper_tails_fall_to_minus_infinity():
    x = np.arange(5.0)
    hi = -2.0 * (x - 2.0) ** 2
    band = toy_band(x, hi - 0.5, hi)
    assert band.R[1] > 0.0 > band.L[x.size - 3]  # the two tail slopes
    assert eval_upper(band, -1e6) < -1e5
    assert eval_upper(band, 1e6) < -1e5
    lo_d, hi_d = eval_density_band(band, np.array([-1e6, 1e6]))
    np.testing.assert_allclose(hi_d, 0.0, atol=1e-300)
    np.testing.assert_array_equal(lo_d, 0.0)


def test_pipeline_band_shape_and_crossovers(pipeline_band):
    band = pipeline_band
    assert band.knots.size == 13
    assert band.xbar.size == 10
    assert np.all(band.lo_log <= band.hi_log + 1e-9)
    for pos, v in enumerate(band.xbar):
        if not math.isnan(v):
            i = pos + 2  # segment [x_i, x_{i+1}], knots numbered from 1
            assert band.knots[i - 1] - 1e-9 <= v <= band.knots[i] + 1e-9


def test_band_ordering_on_dense_grid(pipeline_band):
    band = pipeline_band
    span = band.knots[-1] - band.knots[0]
    xs = np.linspace(band.knots[0] - 0.3 * span, band.knots[-1] + 0.3 * span, 2001)
    lo = eval_lower(band, xs)
    hi = eval_upper(band, xs)
    assert np.all(lo <= hi + 1e-9)
    lo_d, hi_d = eval_density_band(band, xs)
    assert np.all(lo_d <= hi_d + 1e-12)


def test_lower_band_concavity(pipeline_band):
    # knot values from independent numerical minimizations are concave up
    # to solver precision (OBJ_TOL), not to machine precision
    band = pipeline_band
    slopes = np.diff(band.lo_log) / np.diff(band.knots)
    assert np.max(np.diff(slopes)) <= 1e-7


def test_containment_oracle():
    # any concave curve running between the knot values stays inside the
    # band on the central knot range
    rng = np.random.default_rng(7)
    for _ in range(50):
        x = np.sort(rng.uniform(-3.0, 3.0, rng.integers(5, 10)))
        if np.diff(x).min() < 0.05:
            continue
        q = rng.uniform(0.05, 1.5)
        c = rng.uniform(-1.0, 1.0)
        r = rng.uniform(-1.0, 1.0)
        phi = lambda t: r - q * (t - c) ** 2
        gaps_lo = rng.uniform(0.0, 1.0, x.size)
        gaps_hi = rng.uniform(0.0, 1.0, x.size)
        band = toy_band(x, phi(x) - gaps_lo, phi(x) + gaps_hi)
        xs = np.linspace(x[1], x[-2], 400)
        assert np.all(eval_lower(band, xs) <= phi(xs) + 1e-9)
        assert np.all(phi(xs) <= eval_upper(band, xs) + 1e-9)


def test_mode_and_knot_validation(pipeline_band):
    # a band of another mode carries no guarantee and must not load as one
    assert pipeline_band.mode == "guaranteed"
    good = band_to_json(pipeline_band)
    assert good["mode"] == "guaranteed"
    for mode in ("interpolated-upper", "smooth"):
        with pytest.raises(ValueError, match="mode"):
            band_from_json({**good, "mode": mode})
    with pytest.raises(ValueError):
        ConfidenceBand(
            knots=np.array([0.0, 0.0, 1.0]), lo_log=np.zeros(3),
            hi_log=np.ones(3), L=np.zeros(2), R=np.zeros(2),
            xbar=np.empty(0), alpha=0.1, n=10,
        )


def test_json_rejects_malformed_band(pipeline_band):
    # a band read from outside must fail loudly, not evaluate to wrong values
    good = band_to_json(pipeline_band)
    for field in ("lo_log", "hi_log", "L", "R", "xbar"):
        for bad in (good[field][:-1], good[field] + good[field][-1:]):
            with pytest.raises(ValueError, match=field):
                band_from_json({**good, field: bad})
    two_knots = {
        **good, "knots": good["knots"][:2], "lo_log": good["lo_log"][:2],
        "hi_log": good["hi_log"][:2], "L": good["L"][:1], "R": good["R"][:1],
        "xbar": [],
    }
    with pytest.raises(TooFewKnots):
        band_from_json(two_knots)
    for field in ("knots", "lo_log", "hi_log", "L", "R"):
        for v in (math.nan, math.inf, -math.inf):
            values = list(good[field])
            values[1] = v
            with pytest.raises(ValueError, match=field):
                band_from_json({**good, field: values})
    for n in (-5, 0, 100.5, "100"):
        with pytest.raises(ValueError, match="n must"):
            band_from_json({**good, "n": n})
    for alpha in (7.0, 1.0, 0.0, -0.1, math.inf):
        with pytest.raises(ValueError, match="alpha"):
            band_from_json({**good, "alpha": alpha})
    # an unrecorded level and never-crossing tangents are legal
    band_from_json({**good, "alpha": None, "xbar": [None] * len(good["xbar"])})


def test_json_round_trip(pipeline_band):
    payload = json.dumps(band_to_json(pipeline_band))
    back = band_from_json(json.loads(payload))
    for field in ("knots", "lo_log", "hi_log", "L", "R", "xbar"):
        np.testing.assert_array_equal(
            getattr(back, field), getattr(pipeline_band, field)
        )
    assert back.mode == pipeline_band.mode
    assert back.alpha == pipeline_band.alpha
    assert back.n == pipeline_band.n
    xs = np.linspace(back.knots[0] - 1.0, back.knots[-1] + 1.0, 777)
    np.testing.assert_array_equal(
        eval_upper(back, xs), eval_upper(pipeline_band, xs)
    )
    np.testing.assert_array_equal(
        eval_lower(back, xs), eval_lower(pipeline_band, xs)
    )
