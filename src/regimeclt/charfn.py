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
from .independence import _transfer
from .process import ModelSpec, iter_path_chunks, mixture_mean, mixture_variance
from .seeds import SeedSpec

# Batches behind a sampled cf gap's standard error; each takes at least one replicate.
CF_GAP_BATCHES = 20


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
    """Step-function approximation of x -> exp(i t x) on [-radius, radius].

    The interval is cut into n_cells cells of width w = 2 radius / n_cells,
    half-open (b_j, b_{j+1}] except the first, which includes its left
    endpoint; each cell takes the value of exp(itx) at its midpoint, and
    outside the interval the function is 0. The error on the interval is
    |1 - exp(i t w / 2)| = 2 sin(min(|t| w / 4, pi / 2)), reached at the
    cell ends. Breakpoints are derived on demand.
    """

    t: float
    eta: float
    radius: float
    n_cells: int

    def __post_init__(self) -> None:
        if not (self.radius > 0.0 and math.isfinite(self.radius)):
            raise ValueError("truncation radius must be positive and finite")
        if self.n_cells < 1:
            raise ValueError("need at least one cell")

    @property
    def width(self) -> float:
        return 2.0 * self.radius / self.n_cells

    @property
    def sup_error(self) -> float:
        return 2.0 * math.sin(min(abs(self.t) * self.width / 4.0, math.pi / 2.0))

    @property
    def breakpoints(self) -> NDArray[np.float64]:
        return np.linspace(-self.radius, self.radius, self.n_cells + 1)

    def __call__(self, x) -> NDArray[np.complex128]:
        x = np.asarray(x, dtype=np.float64)
        cells = np.clip(np.ceil((x + self.radius) / self.width) - 1, 0, self.n_cells - 1)
        mids = (cells + 0.5) * self.width - self.radius
        inside = (x >= -self.radius) & (x <= self.radius)
        return np.where(inside, np.exp(1j * self.t * mids), 0.0 + 0.0j)


def build_step_approximation(t: float, eta: float, radius: float) -> StepApproximation:
    """Step approximation of exp(itx) on [-radius, radius] with sup error < eta.

    It has max(1, ceil(2 radius / (eta / (|t| + 1)))) equal cells of width
    w, so its error is at most |t| w / 2 < eta / 2, and 0 at t = 0.

    Raises
    ------
    ConfigInvalid
        If the cell count is not finite (eta far below the radius's scale).
    """
    if eta <= 0.0:
        raise ValueError("eta must be positive")
    if not (radius > 0.0 and math.isfinite(radius)):
        raise ValueError("truncation radius must be positive and finite")
    cells = 2.0 * radius / (eta / (abs(t) + 1.0))
    if not math.isfinite(cells):
        raise ConfigInvalid(f"step approximation at t={t!r}, eta={eta!r}, radius "
                            f"{radius!r} needs {cells} cells")
    return StepApproximation(t=float(t), eta=float(eta), radius=float(radius),
                             n_cells=max(1, math.ceil(cells)))


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


def cf_gap_exact(model: ModelSpec, lags, t_grid) -> NDArray[np.float64]:
    """Exact |E e^{it(X_1 + ... + X_k)} - phi(t)^k| per t at cf_factorization_gap's times.

    With D(t) = diag(phi_j(t)), the sum's cf is pi D P^lag_1 D ... D 1, one
    `_transfer` product over the t grid, and phi(t) = pi D(t) 1.
    """
    lags = tuple(int(t) for t in lags)
    if not lags or any(t < 1 for t in lags):
        raise ValueError("lags must be positive integers")
    d = model.emissions.cf_matrix(np.atleast_1d(np.asarray(t_grid, dtype=np.float64)))
    joint = _transfer(model.stationary(), [d] * (len(lags) + 1), [(model.chain.p, t) for t in lags])
    return np.abs(joint - (d @ model.stationary()) ** (len(lags) + 1))
