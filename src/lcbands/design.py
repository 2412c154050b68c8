"""Design grid and calibrated interval system.

A sample of size n fixes a thinned grid of order statistics

    x_i = X_(1 + (i-1) * 2^{s_n}),   i = 1..m,

with s_n = ceil(log2(ln n)) and m = floor((n-1) / 2^{s_n}) + 1.  Pairs of
design points at dyadic separations carry two-sided beta-quantile bounds on
the probability mass between them: for depth B the pairs

    (j, k) = (1 + (i-1) 2^B, 1 + i 2^B),   i = 1..n_B,

span r = 2^{B + s_n} sample gaps, and F(x_k) - F(x_j) is distributed
Beta(r, n + 1 - r) under the true F.  Splitting an overall budget alpha as
alpha / (2 (B+2) n_B t_n) per pair tail, with t_n the normalizing sum of
1/(B+2), gives simultaneous coverage at least 1 - alpha for the whole system
by the union bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .specfun import BetaParams, qbeta

__all__ = [
    "DesignGrid",
    "CellLayout",
    "Block",
    "IntervalSystem",
    "TooFewSamples",
    "DuplicateDesignPoint",
    "InvalidAlpha",
    "select_design_points",
    "build_interval_system",
]


class TooFewSamples(ValueError):
    """Sample too small for even one interval depth: n < 3, or
    floor(log2(n/8)) - s_n < 0 with s_n = ceil(log2(ln n)).  That is every
    n <= 31, and n = 55..63, where s_n steps up to 3 before log2(n/8) does."""


class DuplicateDesignPoint(ValueError):
    """Tied order statistics landed on two design positions."""


class InvalidAlpha(ValueError):
    """Coverage level outside (0, 1)."""


def _is_integer(value) -> bool:
    """A Python or NumPy integer; bool is refused, since True would pass as 1."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class DesignGrid:
    """Thinned order-statistic grid underlying all bounds.

    x holds the m design points in strictly increasing order; spacing is
    2^{s_n}, the number of sample gaps between adjacent design points.
    """

    n: int
    s_n: int
    spacing: int
    m: int
    b_max: int
    x: np.ndarray

    @cached_property
    def cell_layout(self) -> CellLayout:
        """The grid-only constants of the cell-mass bounds, built on first use."""
        m = self.m
        i = np.arange(1, m)
        u_anchor = np.where(i <= m - 2, i + 1, m - 1)
        v_anchor = np.where(i >= 2, i, 2)
        dx = np.diff(self.x)
        u_sign_dx = np.where(i <= m - 2, -1.0, 1.0) * dx
        v_sign_dx = np.where(i >= 2, 1.0, -1.0) * dx
        return CellLayout(
            u_anchor=u_anchor,
            v_anchor=v_anchor,
            ell_at=np.concatenate([u_anchor - 1, v_anchor - 1, i - 1]),
            g_at=np.concatenate([u_anchor - 2, v_anchor - 2]),
            sign_dx=np.concatenate([u_sign_dx, v_sign_dx]),
            log_dx=np.tile(np.log(dx), 3),
        )


@dataclass(frozen=True)
class CellLayout:
    """Per-cell constants of the mass bounds in lcbands.relax.

    Cell i = 1..m-1 is (x_i, x_{i+1}), with width dx_i.  u_anchor and
    v_anchor hold the 1-based design point whose tangent line bounds the
    cell from the right (U_i) and from the left (V_i).  The other arrays
    run over every cell's U bound, then its V bound, then its chord bound
    L: ell_at indexes each bound's base level (the anchor, or the cell's
    left end for L), g_at the anchor slope of U and V (0-based into g),
    sign_dx is that slope's sign in the bound times dx_i, and log_dx is
    log(dx_i).
    """

    u_anchor: np.ndarray
    v_anchor: np.ndarray
    ell_at: np.ndarray
    g_at: np.ndarray
    sign_dx: np.ndarray
    log_dx: np.ndarray


@dataclass(frozen=True)
class Block:
    """All design-point pairs at one dyadic depth with their mass bounds."""

    B: int
    n_B: int
    pairs: np.ndarray  # (n_B, 2) int, 1-based design indices (j, k)
    c_B: float
    d_B: float


@dataclass(frozen=True)
class IntervalSystem:
    """Pair blocks in depth order, with the flat pair-to-cell layout.

    Pairs are numbered 0..P-1 in depth order.  cells[s] is the 0-based
    index i-1 of a cell (x_i, x_{i+1}) that pair pair_of_cell[s] spans;
    each pair's cells are contiguous and ascending.  c and d hold each
    pair's mass bounds c_B and d_B.
    """

    alpha: float
    B_max: int
    t_n: float
    blocks: tuple[Block, ...]
    cells: np.ndarray = field(init=False, repr=False, compare=False)
    pair_of_cell: np.ndarray = field(init=False, repr=False, compare=False)
    c: np.ndarray = field(init=False, repr=False, compare=False)
    d: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        pairs = np.concatenate([b.pairs for b in self.blocks])
        width = pairs[:, 1] - pairs[:, 0]
        pair_of_cell = np.repeat(np.arange(len(pairs)), width)
        first_slot = np.cumsum(width) - width
        offset = np.arange(pair_of_cell.size) - first_slot[pair_of_cell]
        n_B = [b.n_B for b in self.blocks]
        layout = {
            "cells": pairs[pair_of_cell, 0] - 1 + offset,
            "pair_of_cell": pair_of_cell,
            "c": np.repeat([b.c_B for b in self.blocks], n_B),
            "d": np.repeat([b.d_B for b in self.blocks], n_B),
        }
        for name, value in layout.items():
            object.__setattr__(self, name, value)

    @property
    def pair_count(self) -> int:
        return self.c.size

    def pair_sums(self, cell_values: np.ndarray) -> np.ndarray:
        """Per-pair sums of per-cell values (one value per cell, m-1 in all).

        Each pair adds its cells in ascending order starting from 0.0, the
        order the LP rows use.  No differences are formed, so an inf cell
        mass gives an inf sum, never NaN.
        """
        out = np.zeros(self.c.size)
        np.add.at(out, self.pair_of_cell, cell_values[self.cells])
        return out


def _depth_cap(n: int, s_n: int) -> int:
    return math.floor(math.log2(n / 8.0)) - s_n


def select_design_points(samples: np.ndarray) -> DesignGrid:
    """Sort the sample and pick every 2^{s_n}-th order statistic.

    Raises TooFewSamples when no dyadic depth fits (n <= 31 or 55..63),
    and DuplicateDesignPoint when ties collapse two design positions.
    """
    if np.iscomplexobj(samples):  # a float cast would drop the imaginary part
        raise ValueError("samples must be real")
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 1:
        raise ValueError(f"samples must be one-dimensional, got shape {samples.shape}")
    if not np.isfinite(samples).all():
        raise ValueError("samples must be finite")
    n = samples.size
    if n < 3:
        raise TooFewSamples(f"n={n} is too small for any design grid")
    s_n = math.ceil(math.log2(math.log(n)))
    b_max = _depth_cap(n, s_n)
    if b_max < 0:
        raise TooFewSamples(
            f"n={n} gives spacing 2^{s_n} and no valid interval depth"
        )
    spacing = 2 ** s_n
    m = (n - 1) // spacing + 1
    x = np.sort(samples)[:: spacing][:m].copy()
    if not (np.diff(x) > 0).all():
        raise DuplicateDesignPoint(
            "tied order statistics on design positions; jitter the sample"
        )
    return DesignGrid(n=n, s_n=s_n, spacing=spacing, m=m, b_max=b_max, x=x)


def build_interval_system(grid: DesignGrid, alpha: float) -> IntervalSystem:
    """Beta-quantile mass bounds for every dyadic pair depth.

    Each pair (j, k) at depth B receives bounds c_B < d_B, the
    alpha/(2 (B+2) n_B t_n) and complementary quantiles of
    Beta(2^{B+s_n}, n + 1 - 2^{B+s_n}).
    """
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0 or not math.isfinite(alpha):
        raise InvalidAlpha(f"alpha={alpha!r} outside (0, 1)")
    n, s_n, b_max = grid.n, grid.s_n, grid.b_max
    t_n = sum(1.0 / (B + 2.0) for B in range(b_max + 1))
    blocks = []
    for B in range(b_max + 1):
        step = 2 ** B
        n_B = (n - 1) // (2 ** (B + s_n))
        i = np.arange(1, n_B + 1)
        pairs = np.column_stack([1 + (i - 1) * step, 1 + i * step])
        assert pairs[-1, 1] <= grid.m
        r = float(2 ** (B + s_n))
        params = BetaParams(r, n + 1.0 - r)
        tail = alpha / (2.0 * (B + 2.0) * n_B * t_n)
        c_b = qbeta(tail, params)
        d_b = qbeta(1.0 - tail, params)
        if not 0.0 < c_b < d_b < 1.0:
            raise ArithmeticError(
                f"degenerate mass bounds at depth {B}: c={c_b}, d={d_b}"
            )
        blocks.append(Block(B=B, n_B=n_B, pairs=pairs, c_B=c_b, d_B=d_b))
    return IntervalSystem(alpha=alpha, B_max=b_max, t_n=t_n, blocks=tuple(blocks))
