"""Empirical characteristic functions and the sum-vs-product gap.

For nearly independent variables the characteristic function of the sum
stays close to the product of the marginal characteristic functions; with an
independence certificate epsilon from the rectangle-family machinery the gap
is tested against 2 epsilon. Both sides of the gap are estimated on the same
replicate set, which removes most of the shared sampling noise.

The piecewise-constant approximation built here replaces x -> exp(i t x) by
a step function on [-M, M] whose cells are narrower than eta / (|t| + 1), so
its uniform error is below eta; the truncation radius for a model is chosen
by a Chebyshev tail bound so the mass outside [-M, M] is below eta as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import ConfigInvalid
from .process import ModelSpec, iter_path_chunks, mixture_mean, mixture_variance
from .seeds import SeedSpec

STEP_CHECK_POINTS = 10_000
# Batches behind a sampled cf gap's standard error; each takes at least one replicate.
CF_GAP_BATCHES = 20
# Cells in 2^30 bytes at 48 bytes per cell (breakpoints, midpoints and two
# complex arrays): the largest step approximation that is built.
_MAX_STEP_CELLS = 2**30 // 48


@dataclass(frozen=True)
class EcfEstimate:
    """Empirical characteristic function on a t grid.

    values[j] is the sample mean of exp(i t_j X); std_errors[j] combines the
    per-component (real and imaginary) sample variances.
    """

    t_grid: NDArray[np.float64]
    values: NDArray[np.complex128]
    std_errors: NDArray[np.float64]
    n_samples: int

    def __post_init__(self) -> None:
        t = np.asarray(self.t_grid, dtype=np.float64)
        v = np.asarray(self.values, dtype=np.complex128)
        se = np.asarray(self.std_errors, dtype=np.float64)
        if not (t.shape == v.shape == se.shape) or t.ndim != 1:
            raise ValueError("t_grid, values and std_errors must be 1-d and congruent")
        for arr in (t, v, se):
            arr.setflags(write=False)
        object.__setattr__(self, "t_grid", t)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "std_errors", se)


def ecf(samples, t_grid) -> EcfEstimate:
    """Empirical characteristic function of a 1-d sample."""
    x = np.asarray(samples, dtype=np.float64)
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=np.float64))
    if x.ndim != 1 or x.size < 2:
        raise ValueError("samples must be a 1-d array with at least two entries")
    values = np.empty(t_grid.shape, dtype=np.complex128)
    std_errors = np.empty(t_grid.shape)
    for j, t in enumerate(t_grid):
        c = np.cos(t * x)
        s = np.sin(t * x)
        values[j] = complex(c.mean(), s.mean())
        std_errors[j] = math.sqrt((c.var() + s.var()) / x.size)
    return EcfEstimate(t_grid=t_grid, values=values, std_errors=std_errors, n_samples=x.size)


# ---------------------------------------------------------------------------
# piecewise-constant approximation of exp(itx)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StepApproximation:
    """Step-function approximation of x -> exp(i t x) on [-M, M].

    Cells are half-open (b_j, b_{j+1}] except the first, which includes its
    left endpoint; outside the truncation interval the function is 0. Every
    coefficient has modulus <= 1 and the verified sup error over a dense
    grid is at most eta.
    """

    t: float
    eta: float
    breakpoints: NDArray[np.float64]
    coefficients: NDArray[np.complex128]
    sup_error: float

    def __post_init__(self) -> None:
        bp = np.asarray(self.breakpoints, dtype=np.float64)
        co = np.asarray(self.coefficients, dtype=np.complex128)
        if bp.ndim != 1 or bp.size < 2 or co.shape != (bp.size - 1,):
            raise ValueError("need m+1 breakpoints and m coefficients")
        if np.any(np.diff(bp) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        if np.any(np.abs(co) > 1.0 + 1e-12):
            raise ValueError("coefficients must have modulus <= 1")
        if not 0.0 <= self.sup_error <= self.eta:
            raise ValueError("verified sup error must not exceed eta")
        bp.setflags(write=False)
        co.setflags(write=False)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "coefficients", co)

    @property
    def n_cells(self) -> int:
        return self.coefficients.size

    def __call__(self, x) -> NDArray[np.complex128]:
        x = np.asarray(x, dtype=np.float64)
        idx = np.clip(np.searchsorted(self.breakpoints, x, side="left") - 1, 0, self.n_cells - 1)
        out = self.coefficients[idx]
        inside = (x >= self.breakpoints[0]) & (x <= self.breakpoints[-1])
        return np.where(inside, out, 0.0 + 0.0j)


def build_step_approximation(t: float, eta: float, radius: float) -> StepApproximation:
    """Step approximation of exp(itx) on [-radius, radius] with sup error < eta.

    Cell width is at most eta / (|t| + 1) and each coefficient is the value
    of exp(itx) at the cell midpoint. For t = 0 a single cell with
    coefficient 1 is exact.

    Raises
    ------
    ConfigInvalid
        If the cells would take more than 2^30 bytes; nothing is allocated.
    """
    if eta <= 0.0:
        raise ValueError("eta must be positive")
    if not (radius > 0.0 and math.isfinite(radius)):
        raise ValueError("truncation radius must be positive and finite")
    if t == 0.0:
        breakpoints = np.array([-radius, radius])
        coefficients = np.array([1.0 + 0.0j])
    else:
        width_max = eta / (abs(t) + 1.0)
        cells = 2.0 * radius / width_max  # may be inf; checked before int()
        if cells > _MAX_STEP_CELLS:
            raise ConfigInvalid(f"step approximation at t={t!r}, eta={eta!r}, radius "
                                f"{radius!r} needs {cells:.3g} cells, over 2^30 bytes")
        n_cells = max(1, int(math.ceil(cells)))
        breakpoints = np.linspace(-radius, radius, n_cells + 1)
        mids = 0.5 * (breakpoints[:-1] + breakpoints[1:])
        coefficients = np.exp(1j * t * mids)

    grid = np.linspace(-radius, radius, STEP_CHECK_POINTS)
    idx = np.clip(np.searchsorted(breakpoints, grid, side="left") - 1, 0, coefficients.size - 1)
    sup_error = float(np.max(np.abs(coefficients[idx] - np.exp(1j * t * grid))))
    if sup_error > eta:
        raise ValueError(f"constructed approximation misses target accuracy: {sup_error} > {eta}")
    return StepApproximation(
        t=float(t), eta=float(eta), breakpoints=breakpoints,
        coefficients=coefficients, sup_error=sup_error,
    )


def truncation_radius(model: ModelSpec, eta: float) -> float:
    """Radius M with P(|X| > M) <= eta under the stationary mixture (Chebyshev)."""
    if eta <= 0.0:
        raise ValueError("eta must be positive")
    mu = mixture_mean(model)
    sigma = math.sqrt(mixture_variance(model))
    return abs(mu) + sigma / math.sqrt(eta)


# ---------------------------------------------------------------------------
# sum-vs-product characteristic function gap
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CfGapReport:
    """Per-t gap between the cf of a sum and the product of marginal cfs."""

    t_grid: NDArray[np.float64]
    gaps: NDArray[np.float64]
    std_errors: NDArray[np.float64]
    n_vars: int
    replicates: int

    def __post_init__(self) -> None:
        for name in ("t_grid", "gaps", "std_errors"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if not (self.t_grid.shape == self.gaps.shape == self.std_errors.shape):
            raise ValueError("grids must be congruent")

    @property
    def max_gap(self) -> float:
        return float(np.max(self.gaps))


def cf_factorization_gap_from_samples(samples, t_grid, n_batches: int = CF_GAP_BATCHES) -> CfGapReport:
    """Gap |ecf(sum) - prod ecf(X_r)| per t, from joint replicates.

    samples has one row per replicate and one column per variable. Both
    sides are computed from the same rows; the standard error is the spread
    of per-batch gap estimates across a fixed split into n_batches batches.
    """
    # C order at entry: the reductions' last bits depend on the layout.
    x = np.ascontiguousarray(samples, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < n_batches or x.shape[1] < 2:
        raise ValueError("samples must be (replicates, n_vars) with enough rows to batch")
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=np.float64))
    n_rep, n_vars = x.shape
    sums = x.sum(axis=1)

    gaps = np.empty(t_grid.shape)
    std_errors = np.empty(t_grid.shape)
    bounds = np.array_split(np.arange(n_rep), n_batches)
    for j, t in enumerate(t_grid):
        e_sum = np.exp(1j * t * sums)
        e_vars = np.exp(1j * t * x)
        gaps[j] = abs(e_sum.mean() - np.prod(e_vars.mean(axis=0)))
        batch_gaps = np.array(
            [abs(e_sum[b].mean() - np.prod(e_vars[b].mean(axis=0))) for b in bounds]
        )
        std_errors[j] = float(batch_gaps.std(ddof=1) / math.sqrt(n_batches))
    return CfGapReport(
        t_grid=t_grid, gaps=gaps, std_errors=std_errors, n_vars=n_vars, replicates=n_rep
    )


def cf_factorization_gap(
    model: ModelSpec,
    lags,
    t_grid,
    replicates: int = 100_000,
    seed: SeedSpec | None = None,
    n_batches: int = CF_GAP_BATCHES,
) -> CfGapReport:
    """Sample (X_1, ..., X_k) at the given spacings and measure the cf gap.

    Variables are the observations of one stationary path at time points
    separated by the lags; replicates are independent paths drawn from the
    block streams of iter_path_chunks, so replicate r is the same path for
    every replicates > r.
    """
    if seed is None:
        raise ValueError("a seed is required")
    lags = tuple(int(t) for t in lags)
    if not lags or any(t < 1 for t in lags):
        raise ValueError("lags must be positive integers")
    t_idx = np.concatenate([[0], np.cumsum(lags)])
    n = int(t_idx[-1]) + 1
    stationary_model = model.stationary_start()
    rows = np.empty((replicates, len(t_idx)))
    for start, _states, obs in iter_path_chunks(stationary_model, n, replicates, seed, times=t_idx):
        rows[start : start + obs.shape[0]] = obs
    return cf_factorization_gap_from_samples(rows, t_grid, n_batches=n_batches)
