"""Tests for the Monte Carlo study harness."""

import json
import math

import numpy as np
import pytest
from scipy.integrate import quad

from lcbands.ccp import PointDiagnostics, PointwiseIntervals
from lcbands.simulate import (
    DISTRIBUTIONS,
    StudyReport,
    StudySpec,
    format_table,
    report_to_json,
    run_study,
    sample,
    true_density,
)


def small_spec(**overrides):
    base = dict(
        distribution="gaussian",
        n=100,
        reps=2,
        alpha=0.1,
        seed=11,
    )
    base.update(overrides)
    return StudySpec(**base)


def test_spec_validation():
    with pytest.raises(ValueError):
        small_spec(distribution="cauchy")
    with pytest.raises(ValueError):
        small_spec(alpha=1.0)
    for bad in (0, -3, 2.0, 100.5, "100"):
        with pytest.raises(ValueError, match="n must"):
            small_spec(n=bad)
    for bad in (0, 1.0, 2.5, "2"):
        with pytest.raises(ValueError, match="reps must"):
            small_spec(reps=bad)
    # the seed keys a Philox stream: 1.5 would alias seed 1, -1 would wrap
    # to a platform-defined key, 2**64 would overflow at the first rep
    for bad in (1.5, -1, 2**64, "0"):
        with pytest.raises(ValueError, match="seed must"):
            small_spec(seed=bad)
    small_spec(seed=2**64 - 1, n=np.int64(100), reps=np.uint8(2))
    small_spec(seed=np.uint64(7))


def test_sample_moments():
    rng = np.random.default_rng(np.random.Philox(key=[99, 0]))
    big = 10**6
    assert abs(np.mean(sample("uniform", big, rng))) <= 0.02
    assert abs(np.mean(sample("chisq", big, rng)) - 3.0) <= 0.01
    assert abs(np.mean(sample("gamma", big, rng)) - 1.0) <= 0.01
    assert abs(np.mean(sample("gaussian", big, rng))) <= 0.01
    with pytest.raises(ValueError):
        sample("cauchy", 10, rng)


def test_true_density_values():
    assert float(true_density("gaussian", 0.0)) == pytest.approx(
        0.3989422804014327, abs=1e-12
    )
    assert float(true_density("chisq", 1.0)) == pytest.approx(0.241971, abs=1e-6)
    assert float(true_density("uniform", 0.0)) == 0.05
    assert float(true_density("uniform", 10.5)) == 0.0
    assert float(true_density("gamma", 2.0)) == pytest.approx(math.exp(-2.0))
    assert float(true_density("gamma", -1.0)) == 0.0
    assert float(true_density("chisq", -1.0)) == 0.0


def test_true_density_normalizes():
    ranges = {
        "gaussian": (-12.0, 12.0),
        "uniform": (-11.0, 11.0),
        "chisq": (0.0, 80.0),
        "gamma": (0.0, 60.0),
    }
    for dist in DISTRIBUTIONS:
        total, _ = quad(lambda x: float(true_density(dist, x)), *ranges[dist], limit=200)
        assert abs(total - 1.0) <= 1e-6, dist


def test_run_study_fixed_seed_reproducible():
    spec = small_spec(reps=1)
    r1 = run_study(spec)
    r2 = run_study(spec)
    assert (r1.coverage, r1.width_q1, r1.width_q2, r1.width_q3, r1.failures) == (
        r2.coverage,
        r2.width_q1,
        r2.width_q2,
        r2.width_q3,
        r2.failures,
    )
    assert r1.mean_runtime_s > 0.0
    assert r1.failures == 0


def test_failed_reps_counted_conservatively(monkeypatch):
    bad = PointwiseIntervals(
        indices=(1,),
        lo=(0.0,),
        hi=(0.0,),
        diagnostics=(
            PointDiagnostics(
                t=1,
                sense="min",
                status="not_converged",
                iterations=51,
                final_slack=1.0,
                worst_violation=1.0,
                value=0.0,
            ),
        ),
    )
    monkeypatch.setattr(
        "lcbands.simulate.pointwise_intervals", lambda *a, **k: bad
    )
    report = run_study(small_spec(reps=3))
    assert report.failures == 3
    assert report.coverage == 0.0
    assert math.isnan(report.width_q2)


def test_coverage_and_subset_robustness_smoke():
    # Ten repetitions of the guaranteed band on every knot keep this
    # affordable; the acceptance suite runs the full 200-repetition cells.
    report = run_study(small_spec(reps=10, seed=3))
    assert report.failures == 0
    assert report.coverage >= 0.8
    assert 0.3 <= report.width_q2 <= 1.2


def test_report_json_and_table():
    spec = small_spec()
    good = StudyReport(
        coverage=0.95,
        width_q1=0.7,
        width_q2=0.65,
        width_q3=0.71,
        mean_runtime_s=1.5,
        failures=0,
    )
    blob = json.dumps(report_to_json(spec, good))
    back = json.loads(blob)
    assert back["coverage"] == 0.95
    assert back["spec"] == {
        "distribution": "gaussian", "n": 100, "reps": 2, "alpha": 0.1, "seed": 11,
    }
    assert back["width_q2"] == 0.65

    empty = StudyReport(
        coverage=0.0,
        width_q1=math.nan,
        width_q2=math.nan,
        width_q3=math.nan,
        mean_runtime_s=0.1,
        failures=2,
    )
    back = json.loads(json.dumps(report_to_json(spec, empty)))
    assert back["width_q1"] is None and back["failures"] == 2

    table = format_table(
        [(spec, good), (small_spec(distribution="uniform", n=1000), good)]
    )
    lines = table.splitlines()
    assert lines[0].startswith("Density")
    for col in ("Coverage", "Width Q1", "Width Q2", "Width Q3", "Runtime (s)"):
        assert col in lines[0]
    assert "Uniform(-10,10)" in table and "Gaussian" in table
    assert "0.950" in table and "0.650" in table
    # rows share the header's column grid
    assert lines[1].index("0.950") == lines[0].index("Coverage")
    assert lines[2].index("0.950") == lines[0].index("Coverage")
