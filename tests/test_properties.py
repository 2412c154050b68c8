"""Property-based tests (Hypothesis) of contracts that must hold for every
input in a range, not only for the hand-picked cases of the other files.

Skipped when Hypothesis is not installed; it comes with the `test` extra.
"""

import json
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from lcbands.band import ConfidenceBand, band_from_json, band_to_json  # noqa: E402

finite = st.floats(-1e3, 1e3, allow_nan=False)


def nan_or(values):
    return st.one_of(st.just(math.nan), values)


@st.composite
def bands(draw) -> ConfidenceBand:
    """Bands with strictly increasing knots, lo <= hi, NaN where allowed."""
    knots = sorted(draw(st.lists(
        st.floats(-1e6, 1e6, allow_nan=False), min_size=3, max_size=30, unique=True
    )))
    m = len(knots)
    lo = draw(st.lists(st.floats(-60.0, 10.0), min_size=m, max_size=m))
    width = draw(st.lists(st.floats(0.0, 30.0), min_size=m, max_size=m))
    return ConfidenceBand(
        knots=np.array(knots),
        lo_log=np.array(lo),
        hi_log=np.array(lo) + np.array(width),
        L=np.array(draw(st.lists(finite, min_size=m - 1, max_size=m - 1))),
        R=np.array(draw(st.lists(finite, min_size=m - 1, max_size=m - 1))),
        xbar=np.array(
            draw(st.lists(nan_or(finite), min_size=m - 3, max_size=m - 3)), dtype=float
        ),
        alpha=draw(nan_or(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))),
        n=draw(st.integers(1, 10**9)),
    )


@settings(database=None, deadline=None)
@given(bands())
def test_json_round_trip_is_exact(band):
    back = band_from_json(json.loads(json.dumps(band_to_json(band))))
    for field in ("knots", "lo_log", "hi_log", "L", "R", "xbar"):
        want, got = getattr(band, field), getattr(back, field)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want, equal_nan=True), field
        # bit for bit where not NaN: -0.0 stays -0.0
        assert np.array_equal(np.signbit(got), np.signbit(want)), field
    assert back.alpha == band.alpha or (math.isnan(back.alpha) and math.isnan(band.alpha))
    assert back.n == band.n
