"""Tests for the design grid and calibrated interval system.

Block quantiles for n=1000 were frozen from scipy.special.betaincinv before
implementation; the coverage simulation checks the union-bound calibration
end to end on known-F samples.
"""

import numpy as np
import pytest

from lcbands.design import (
    DuplicateDesignPoint,
    InvalidAlpha,
    TooFewSamples,
    build_interval_system,
    select_design_points,
)

# Frozen from scipy.special.betaincinv(r, n+1-r, tail) for n=1000, alpha=0.1.
N1000_BOUNDS = {
    0: (0.00148710654289, 0.0221537801276),
    1: (0.00554924600847, 0.0337013663102),
    2: (0.0162447312004, 0.0543080590121),
    3: (0.0414253683827, 0.0920904886309),
}


def test_grid_n100():
    rng = np.random.default_rng(0)
    grid = select_design_points(rng.standard_normal(100))
    assert grid.n == 100
    assert grid.s_n == 3
    assert grid.spacing == 8
    assert grid.m == 13
    assert grid.b_max == 0
    assert grid.x.shape == (13,)
    assert (np.diff(grid.x) > 0).all()


def test_grid_n1000_and_n10000():
    rng = np.random.default_rng(1)
    grid = select_design_points(rng.standard_normal(1000))
    assert (grid.s_n, grid.spacing, grid.m, grid.b_max) == (3, 8, 125, 4 - 1)
    grid = select_design_points(rng.standard_normal(10000))
    assert (grid.s_n, grid.spacing, grid.m, grid.b_max) == (4, 16, 625, 6)


def test_grid_takes_every_spacing_th_order_statistic():
    rng = np.random.default_rng(2)
    samples = rng.uniform(-5, 5, 200)
    grid = select_design_points(samples)
    srt = np.sort(samples)
    np.testing.assert_array_equal(grid.x, srt[:: grid.spacing][: grid.m])


def test_too_few_samples():
    rng = np.random.default_rng(3)
    with pytest.raises(TooFewSamples):
        select_design_points(rng.standard_normal(20))
    with pytest.raises(TooFewSamples):
        select_design_points(np.array([1.0, 2.0]))
    # n=32 is the smallest size with a valid depth
    grid = select_design_points(rng.standard_normal(32))
    assert grid.b_max == 0
    # refused exactly when floor(log2(n/8)) - s_n < 0: n = 3..31, and
    # n = 55..63, where s_n steps up to 3 before log2(n/8) reaches 3
    refused = []
    for n in range(3, 201):
        try:
            select_design_points(rng.standard_normal(n))
        except TooFewSamples:
            refused.append(n)
    assert refused == [*range(3, 32), *range(55, 64)]


def test_duplicate_design_point():
    samples = np.concatenate([np.zeros(5), np.arange(1.0, 28.0)])
    assert samples.size == 32
    with pytest.raises(DuplicateDesignPoint):
        select_design_points(samples)


def test_non_finite_samples_rejected():
    with pytest.raises(ValueError):
        select_design_points(np.array([1.0, np.nan, 2.0] * 20))
    # a cast to float would silently drop the imaginary parts
    x = np.random.default_rng(3).standard_normal(100)
    with pytest.raises(ValueError, match="real"):
        select_design_points(x + 1e-3j)


def test_system_n100():
    rng = np.random.default_rng(4)
    grid = select_design_points(rng.standard_normal(100))
    system = build_interval_system(grid, 0.1)
    assert system.B_max == 0
    assert system.t_n == 0.5
    assert len(system.blocks) == 1
    block = system.blocks[0]
    assert block.n_B == 12
    expected_pairs = np.column_stack([np.arange(1, 13), np.arange(2, 14)])
    np.testing.assert_array_equal(block.pairs, expected_pairs)
    assert abs(block.c_B - 0.025501207106399228) <= 1e-10
    assert abs(block.d_B - 0.16532974949693935) <= 1e-10
    # bounds straddle the Beta(8, 93) mean 8/101
    assert block.c_B < 8.0 / 101.0 < block.d_B


def test_system_n1000_frozen_quantiles():
    rng = np.random.default_rng(5)
    grid = select_design_points(rng.standard_normal(1000))
    system = build_interval_system(grid, 0.1)
    assert system.B_max == 3
    assert abs(system.t_n - (0.5 + 1 / 3 + 0.25 + 0.2)) <= 1e-15
    assert [b.n_B for b in system.blocks] == [124, 62, 31, 15]
    for block in system.blocks:
        c_ref, d_ref = N1000_BOUNDS[block.B]
        assert abs(block.c_B - c_ref) <= 1e-9
        assert abs(block.d_B - d_ref) <= 1e-9
        assert block.pairs[0, 0] == 1
        assert (block.pairs[:, 1] - block.pairs[:, 0] == 2 ** block.B).all()
        assert block.pairs[-1, 1] <= grid.m


def test_pair_iteration_order_and_count():
    rng = np.random.default_rng(6)
    grid = select_design_points(rng.standard_normal(1000))
    system = build_interval_system(grid, 0.1)
    assert system.pair_count == 124 + 62 + 31 + 15 == 232
    width = np.bincount(system.pair_of_cell)
    assert width.size == 232
    assert (np.diff(width) >= 0).all()  # pairs run in depth order
    assert set(width.tolist()) == {1, 2, 4, 8}
    assert (np.diff(system.pair_of_cell) >= 0).all()
    assert system.cells.min() == 0 and system.cells.max() <= grid.m - 2

    pairs = [(j, k) for block in system.blocks for j, k in block.pairs]
    assert system.c.tolist() == [b.c_B for b in system.blocks for _ in b.pairs]
    assert system.d.tolist() == [b.d_B for b in system.blocks for _ in b.pairs]
    v = rng.uniform(0.0, 1.0, grid.m - 1)
    want = [sum(v[j - 1 : k - 1]) for j, k in pairs]
    assert system.pair_sums(v).tolist() == want  # exact, the LP rows' order

    v[[5, 100]] = np.inf
    got = system.pair_sums(v)
    assert not np.isnan(got).any()
    hit = [j - 1 <= 5 < k - 1 or j - 1 <= 100 < k - 1 for j, k in pairs]
    assert (np.isinf(got) == np.array(hit)).all()


def test_invalid_alpha():
    rng = np.random.default_rng(7)
    grid = select_design_points(rng.standard_normal(100))
    for bad in (0.0, 1.0, -0.2, 1.5, float("nan")):
        with pytest.raises(InvalidAlpha):
            build_interval_system(grid, bad)


def _coverage_indicators(n, alpha, n_sims, seed):
    """For uniform(0,1) samples F is the identity, so the mass between design
    points j and k is exactly U_(idx_k) - U_(idx_j)."""
    rng = np.random.default_rng(seed)
    probe = select_design_points(np.linspace(0.01, 0.99, n))
    system = build_interval_system(probe, alpha)
    design_idx = np.arange(probe.m) * probe.spacing
    hits = np.empty(n_sims, dtype=bool)
    for s in range(n_sims):
        u = np.sort(rng.uniform(0.0, 1.0, n))
        f_at_design = u[design_idx]
        ok = True
        for block in system.blocks:
            mass = f_at_design[block.pairs[:, 1] - 1] - f_at_design[block.pairs[:, 0] - 1]
            if not ((mass >= block.c_B) & (mass <= block.d_B)).all():
                ok = False
                break
        hits[s] = ok
    return hits


def test_simultaneous_coverage_of_mass_bounds():
    for n, alpha in ((100, 0.1), (1000, 0.2)):
        hits = _coverage_indicators(n, alpha, n_sims=2000, seed=8)
        cover = hits.mean()
        mc_slack = 3.0 * np.sqrt(alpha * (1 - alpha) / 2000)
        assert cover >= 1.0 - alpha - mc_slack, f"n={n}: coverage {cover:.3f}"


def test_coverage_event_is_distribution_free():
    # The event depends on the sample only through F(X), so uniforms and
    # their exponential transforms give identical indicators.
    rng = np.random.default_rng(9)
    probe = select_design_points(np.linspace(0.01, 0.99, 300))
    system = build_interval_system(probe, 0.15)
    design_idx = np.arange(probe.m) * probe.spacing
    for _ in range(50):
        u = np.sort(rng.uniform(0.0, 1.0, 300))
        x = -np.log1p(-u)  # exponential(1) via inverse CDF, F(x) = u
        f_unif = u[design_idx]
        f_expo = 1.0 - np.exp(-np.sort(x)[design_idx])
        for block in system.blocks:
            m_u = f_unif[block.pairs[:, 1] - 1] - f_unif[block.pairs[:, 0] - 1]
            m_e = f_expo[block.pairs[:, 1] - 1] - f_expo[block.pairs[:, 0] - 1]
            in_u = (m_u >= block.c_B) & (m_u <= block.d_B)
            in_e = (m_e >= block.c_B) & (m_e <= block.d_B)
            np.testing.assert_allclose(m_u, m_e, atol=1e-12)
            assert (in_u == in_e).all()
