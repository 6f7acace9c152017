"""The sum-vs-product characteristic-function gap, sampled and exact.

For nearly independent variables the characteristic function of the sum
stays close to the product of the marginal characteristic functions; with an
independence certificate epsilon from the rectangle-family machinery the gap
is tested against 2 epsilon. The sampled gap estimates both sides on the same
replicate set, which removes most of the shared sampling noise; the exact gap
is one `exact.product_gap` over the t grid.

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

from . import exact
from .errors import ConfigInvalid
from .process import ModelSpec, iter_path_chunks, mixture_mean, mixture_variance
from .seeds import SeedSpec

# Batches behind a sampled cf gap's standard error; each takes at least two replicates.
CF_GAP_BATCHES = 20


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


def cf_factorization_gap_from_samples(samples, t_grid) -> CfGapReport:
    """Gap |mean e^{it sum X_r} - prod mean e^{it X_r}| per t, from joint replicates.

    samples has one row per replicate and one column per variable. Both
    sides are computed from the same rows; the standard error is the spread
    of per-batch gap estimates across a fixed split into CF_GAP_BATCHES
    batches of contiguous rows, each of at least two rows (a one-row batch
    has gap 0).
    Per t, exp(itX) is taken once, as cos and sin of the real phase tX
    (what complex exp does at a zero real part), exp(it sum X) is the
    product of its columns, and one add.reduceat per side gives the batch
    sums, from which the full-sample means follow.
    """
    # C order at entry: the reductions' last bits depend on the layout.
    x = np.ascontiguousarray(samples, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2 * CF_GAP_BATCHES or x.shape[1] < 2:
        raise ValueError(f"samples must be (replicates, n_vars), {CF_GAP_BATCHES} batches of two rows "
                         "per batch")
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=np.float64))
    n_rep, n_vars = x.shape
    # The array_split of the rows: the first n_rep % CF_GAP_BATCHES batches take one more.
    sizes = np.full(CF_GAP_BATCHES, n_rep // CF_GAP_BATCHES)
    sizes[: n_rep % CF_GAP_BATCHES] += 1
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))

    gaps = np.empty(t_grid.shape)
    std_errors = np.empty(t_grid.shape)
    theta = np.empty(x.shape)
    e_vars = np.empty(x.shape, dtype=np.complex128)
    for j, t in enumerate(t_grid):
        np.multiply(t, x, out=theta)
        np.cos(theta, out=e_vars.real)
        np.sin(theta, out=e_vars.imag)
        e_sum = e_vars[:, 0] * e_vars[:, 1]
        for r in range(2, n_vars):
            e_sum *= e_vars[:, r]
        var_sums = np.add.reduceat(e_vars, starts, axis=0)
        sum_sums = np.add.reduceat(e_sum, starts)
        gaps[j] = abs(sum_sums.sum() / n_rep - np.prod(var_sums.sum(axis=0) / n_rep))
        batch_gaps = np.abs(sum_sums / sizes - np.prod(var_sums / sizes[:, None], axis=1))
        std_errors[j] = float(batch_gaps.std(ddof=1) / math.sqrt(CF_GAP_BATCHES))
    return CfGapReport(
        t_grid=t_grid, gaps=gaps, std_errors=std_errors, n_vars=n_vars, replicates=n_rep
    )


def cf_factorization_gap(
    model: ModelSpec,
    lags,
    t_grid,
    replicates: int = 100_000,
    seed: SeedSpec | None = None,
) -> CfGapReport:
    """Sample (X_1, ..., X_k) at the given spacings and measure the cf gap.

    Variables are the observations of one stationary path at time points
    separated by the lags; replicates are independent paths drawn at those
    times only from the block streams of iter_path_chunks, so replicate r is
    the same path for every replicates > r. Fewer than two replicates per
    batch raise ValueError, and a (replicates, k) complex phase matrix past
    exact.MAX_EXACT_BYTES raises ConfigInvalid, before anything is drawn.
    """
    if seed is None:
        raise ValueError("a seed is required")
    lags = exact.validate_lags(lags)
    if replicates < 2 * CF_GAP_BATCHES:
        raise ValueError(f"need two replicates per batch; got {replicates} in {CF_GAP_BATCHES}")
    exact.require_bytes(replicates * (len(lags) + 1) * 16,
                        f"cf gap over {replicates} replicates: a complex phase matrix")
    t_idx = np.concatenate([[0], np.cumsum(lags)])
    n = int(t_idx[-1]) + 1
    stationary_model = model.stationary_start()
    rows = np.empty((replicates, len(t_idx)))
    for start, _states, obs in iter_path_chunks(stationary_model, n, replicates, seed, times=t_idx):
        rows[start : start + obs.shape[0]] = obs
    return cf_factorization_gap_from_samples(rows, t_grid)


def cf_gap_exact(model: ModelSpec, lags, t_grid) -> NDArray[np.float64]:
    """Exact |E e^{it(X_1 + ... + X_k)} - phi(t)^k| per t at cf_factorization_gap's times.

    With D(t) = diag(phi_j(t)), the sum's cf is pi D P^lag_1 D ... D 1 and
    phi(t) = pi D(t) 1: one `exact.product_gap` over the t grid.
    """
    lags = exact.validate_lags(lags)
    d = model.emissions.cf_matrix(np.atleast_1d(np.asarray(t_grid, dtype=np.float64)))
    return exact.product_gap(model.stationary(), model.chain.p, [d] * (len(lags) + 1), lags)
