"""Blocking decomposition and normal-convergence measurements.

The sum of n centered observations is split into nu = floor(n/k) blocks of
k - m indices separated by gaps of m indices (k = floor(n^a) for a blocking
exponent a), plus a remainder collecting the gap indices and the final
stub. Blocks are far enough apart to be nearly independent, the remainder
is second-moment small, and the normalized sum is tested against the
standard normal law by Kolmogorov-Smirnov distance and characteristic
function distance.

Emissions depend on the past only through the regime, so every second
moment of a stationary sum is a finite sum of the autocovariances
gamma(0) = Var(X) and gamma(s) = (pi * c)^T P^s c for s >= 1, with c the
centered regime means. The remainder's second moment, the finite-n variance
of the sum and the long-run variance are computed exactly from them.

Normalization uses the long-run standard deviation of the process (variance
of the observation plus twice the summed autocovariances), estimated by
batch means with batch length at least 50 / (1 - alpha); the exact spectral
value is exported alongside for cross-checking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .chain import mixing_rate
from .errors import GapExceedsBlock, LengthMismatch
from .process import (
    ModelSpec,
    PathSample,
    _ndtr,
    iter_path_chunks,
    mixture_abs_third_moment,
    mixture_mean,
    mixture_variance,
)
from .seeds import SeedSpec

BLOCK_EXPONENT_MAX = 0.25
RECONSTRUCTION_RTOL = 1e-9


# ---------------------------------------------------------------------------
# block decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockDecomposition:
    """Partition of 1..n into nu blocks of k - m indices plus a remainder.

    block_ranges holds 1-based inclusive intervals ((i-1)k + 1, ik - m);
    remainder_indices holds the m trailing indices of every block window and
    the final n - k nu indices.
    """

    n: int
    alpha_exp: float
    m: int
    k: int
    nu: int
    block_ranges: tuple[tuple[int, int], ...]
    remainder_indices: NDArray[np.int64]

    def __post_init__(self) -> None:
        idx = np.asarray(self.remainder_indices, dtype=np.int64)
        idx.setflags(write=False)
        object.__setattr__(self, "remainder_indices", idx)
        if self.nu != len(self.block_ranges):
            raise ValueError("nu must equal the number of blocks")
        covered = self.nu * (self.k - self.m) + idx.size
        if covered != self.n:
            raise ValueError("blocks and remainder must partition 1..n")

    @property
    def p(self) -> int:
        """Number of remainder indices, m nu + (n - k nu)."""
        return int(self.remainder_indices.size)

    @property
    def block_length(self) -> int:
        return self.k - self.m


def _guarded_power_floor(n: int, exponent: float) -> int:
    value = n**exponent
    k = int(math.floor(value))
    # pow can land a hair under an exact integer; snap within 1e-9.
    if (k + 1) - value < 1e-9:
        k += 1
    return k


def decompose(n: int, alpha_exp: float, m: int) -> BlockDecomposition:
    """Block decomposition with k = floor(n^alpha_exp) and gap m.

    alpha_exp must lie in (0, 1/4]; the upper endpoint is allowed so the
    quarter-power blocking is expressible. Raises GapExceedsBlock when the
    gap m does not leave room inside a block (m >= k).
    """
    if n < 4:
        raise ValueError("n must be at least 4")
    if not 0.0 < alpha_exp <= BLOCK_EXPONENT_MAX:
        raise ValueError(f"blocking exponent must lie in (0, {BLOCK_EXPONENT_MAX}]")
    if m < 1:
        raise ValueError("gap m must be a positive integer")
    k = _guarded_power_floor(n, alpha_exp)
    if m >= k:
        raise GapExceedsBlock(f"gap m={m} does not fit in blocks of k={k} indices")
    nu = n // k
    ends = np.arange(1, nu + 1, dtype=np.int64) * k  # last index of each window
    remainder = np.concatenate([(ends[:, None] + np.arange(1 - m, 1)).ravel(),
                                np.arange(nu * k + 1, n + 1)])
    return BlockDecomposition(
        n=n, alpha_exp=alpha_exp, m=m, k=k, nu=nu,
        block_ranges=tuple(zip((ends - k + 1).tolist(), (ends - m).tolist())),
        remainder_indices=remainder,
    )


def block_sums(values, decomposition: BlockDecomposition) -> tuple[NDArray[np.float64], float]:
    """Per-block sums and the remainder sum of a centered sequence.

    values may be a 1-d array or a PathSample (its observations are used as
    given; centering is the caller's responsibility). The block sums and the
    remainder sum are accumulated independently, so comparing their total
    against the direct sum is a meaningful reconstruction check.
    """
    if isinstance(values, PathSample):
        values = values.observations
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 1 or x.size != decomposition.n:
        raise LengthMismatch(
            f"sequence of length {x.size} does not match decomposition over n={decomposition.n}"
        )
    k, m, nu = decomposition.k, decomposition.m, decomposition.nu
    windows = x[: nu * k].reshape(nu, k)
    block = windows[:, : k - m].sum(axis=1)
    remainder = float(windows[:, k - m :].sum()) + float(x[nu * k :].sum())
    return block, remainder


# ---------------------------------------------------------------------------
# remainder diagnostic
# ---------------------------------------------------------------------------


def _autocovariance_terms(model: ModelSpec):
    """gamma(0), a = pi * c, Q = P - 1 pi and the centered regime means c.

    For s >= 1, gamma(s) = a P^s c = a Q^s c, because a sums to zero.
    """
    pi = model.stationary()
    means = model.emissions.means()
    c = means - float(pi @ means)
    q = model.chain.p - pi[None, :]
    return mixture_variance(model), pi * c, q, c


@dataclass(frozen=True)
class RemainderReport:
    """Exact second moment of the normalized remainder against its envelope."""

    n: int
    p: int
    second_moment: float
    bound: float
    abs_third_moment: float


def remainder_diagnostic(model: ModelSpec, decomposition: BlockDecomposition) -> RemainderReport:
    """Exact E[(Z/sqrt(n))^2] for the stationary remainder Z, against p^2 R^2 / n.

    E[Z^2] = p gamma(0) + 2 sum_{i<j in R} gamma(j - i) over the remainder
    indices R. Walking R in order, w_j = sum_{i<j} a Q^(r_j - r_i) obeys
    w_{j+1} = (w_j + a) Q^(r_{j+1} - r_j), so the pair sum is sum_j w_j c with
    one matrix power per distinct gap (the gaps are 1 and k - m + 1).

    R is the stationary-mixture third absolute moment about its mean. The
    envelope is meaningful when R >= 1 (third-moment domination); for R < 1
    it can undercut the true second moment, which the report makes visible
    rather than hiding.
    """
    gamma0, a, q, c = _autocovariance_terms(model)
    gaps = np.diff(decomposition.remainder_indices)
    powers = {g: np.linalg.matrix_power(q, g) for g in set(gaps.tolist())}
    w = np.zeros_like(a)
    cross = 0.0
    for g in gaps.tolist():
        w = (w + a) @ powers[g]
        cross += float(w @ c)
    n, p = decomposition.n, decomposition.p
    r_moment = mixture_abs_third_moment(model)
    return RemainderReport(
        n=n,
        p=p,
        second_moment=(p * gamma0 + 2.0 * cross) / n,
        bound=p * p * r_moment * r_moment / n,
        abs_third_moment=r_moment,
    )


# ---------------------------------------------------------------------------
# Lindeberg check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LindebergReport:
    """Triangular-array tail sums over an (n, eta) grid.

    values[i, j] estimates sum_k E[X_kn^2 1{|X_kn| > eta_j}] for n = n_grid[i],
    where X_kn = (X_k - mu) / (sigma sqrt(n)) under the stationary mixture.
    """

    n_grid: tuple[int, ...]
    eta_grid: tuple[float, ...]
    values: NDArray[np.float64]
    std_errors: NDArray[np.float64]
    normalizer: float
    replicates: int


def lindeberg_check(
    model: ModelSpec,
    n_grid,
    eta_grid,
    replicates: int = 1_000_000,
    seed: SeedSpec | None = None,
) -> LindebergReport:
    """Monte Carlo Lindeberg sums on a grid, one common draw for all cells.

    Under stationarity every array entry has the same marginal law, so the
    sum collapses to E[(X - mu)^2 1{|X - mu| > eta sigma sqrt(n)}] / sigma^2
    with mu, sigma the exact stationary-mixture mean and standard deviation.
    Reusing one draw across the grid makes the sample values monotone in n
    cell by cell, matching the monotonicity of the estimated quantity.
    """
    if seed is None:
        raise ValueError("a seed is required")
    n_grid = tuple(int(v) for v in n_grid)
    eta_grid = tuple(float(v) for v in eta_grid)
    if any(v < 1 for v in n_grid) or any(v < 0.0 for v in eta_grid):
        raise ValueError("n_grid entries must be >= 1 and eta_grid entries >= 0")
    mu = mixture_mean(model)
    var = mixture_variance(model)
    sigma = math.sqrt(var)
    # One step from the stationary law is still stationary.
    centered = np.empty(replicates)
    for start, _states, obs in iter_path_chunks(model.stationary_start(), 1, replicates, seed):
        centered[start : start + obs.shape[0]] = obs[:, 0]
    centered -= mu
    sq = centered * centered
    absc = np.abs(centered)
    values = np.empty((len(n_grid), len(eta_grid)))
    std_errors = np.empty_like(values)
    for i, n in enumerate(n_grid):
        for j, eta in enumerate(eta_grid):
            threshold = eta * sigma * math.sqrt(n)
            tail = np.where(absc > threshold, sq, 0.0) / var
            values[i, j] = float(tail.mean())
            std_errors[i, j] = float(tail.std() / math.sqrt(replicates))
    return LindebergReport(
        n_grid=n_grid, eta_grid=eta_grid, values=values, std_errors=std_errors,
        normalizer=sigma, replicates=replicates,
    )


# ---------------------------------------------------------------------------
# long-run variance
# ---------------------------------------------------------------------------


def long_run_variance_exact(model: ModelSpec) -> float:
    """Spectral long-run variance of the centered observation sequence.

    Var(X) + 2 sum_{s>=1} gamma(s); the autocovariances involve only the
    regime means because emissions are conditionally independent given the
    regimes, and the geometric series sums to a Q (I - Q)^-1 c.
    """
    gamma0, a, q, c = _autocovariance_terms(model)
    return gamma0 + 2.0 * float(a @ q @ np.linalg.solve(np.eye(len(c)) - q, c))


def sum_variance_exact(model: ModelSpec, n: int) -> float:
    """Var(S_n) of a stationary sum of n observations, in closed form.

    Var(S_n) = n gamma(0) + 2 sum_{s=1}^{n-1} (n - s) gamma(s), and
    sum_{s=1}^{n-1} (n - s) Q^s = n Q (I - Q)^-1 - Q (I - Q^n) (I - Q)^-2,
    so one matrix power replaces the loop over s.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    gamma0, a, q, c = _autocovariance_terms(model)
    eye = np.eye(len(c))
    y = np.linalg.solve(eye - q, c)
    qz = q @ np.linalg.solve(eye - q, y)
    pairs = n * float(a @ q @ y) - float(a @ qz) + float(a @ np.linalg.matrix_power(q, n) @ qz)
    return n * gamma0 + 2.0 * pairs


def batch_length_for(model: ModelSpec) -> int:
    """Batch length 50 / (1 - alpha), at least 50, from the chain's SLEM."""
    alpha = mixing_rate(model.chain, s_max=2).alpha
    return max(50, int(math.ceil(50.0 / max(1.0 - alpha, 1e-6))))


def long_run_std_batch_means(
    model: ModelSpec,
    seed: SeedSpec,
    batches: int = 4000,
    batch_len: int | None = None,
) -> float:
    """Batch-means estimate of the long-run standard deviation.

    Batches are independent stationary paths of batch_len observations; the
    estimator is batch_len times the variance of the batch means.
    """
    if batches < 2:
        raise ValueError("need at least two batches")
    if batch_len is None:
        batch_len = batch_length_for(model)
    mu = mixture_mean(model)
    stationary_model = model.stationary_start()
    batch_means = np.empty(batches)
    for start, _states, obs in iter_path_chunks(stationary_model, batch_len, batches, seed):
        batch_means[start : start + obs.shape[0]] = obs.mean(axis=1) - mu
    return float(math.sqrt(batch_len * batch_means.var(ddof=1)))


# ---------------------------------------------------------------------------
# convergence measurement
# ---------------------------------------------------------------------------


def ks_distance_to_std_normal(values) -> float:
    """One-sample Kolmogorov-Smirnov distance to the standard normal law."""
    y = np.sort(np.asarray(values, dtype=np.float64))
    r = y.size
    if r < 1:
        raise ValueError("need at least one value")
    cdf = _ndtr(y)
    i = np.arange(1, r + 1)
    return float(np.max(np.maximum(i / r - cdf, cdf - (i - 1) / r)))


@dataclass(frozen=True)
class ConvergenceReport:
    """Distance-to-normal measurements over a grid of sequence lengths.

    variance_ratio is the sample variance of the normalized sums;
    variance_ratio_exact is Var(S_n) / (n normalizer^2) for the same
    normalizer, so their difference is sampling noise and the distance of
    variance_ratio_exact from long_run_variance / normalizer^2 is finite-n
    bias.
    """

    n_grid: tuple[int, ...]
    ks_distance: tuple[float, ...]
    cf_distance: tuple[float, ...]
    lindeberg_values: NDArray[np.float64]
    variance_ratio: tuple[float, ...]
    replicates: int
    normalizer: float
    eta_grid: tuple[float, ...]
    variance_ratio_exact: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if any(not 0.0 <= v <= 1.0 for v in self.ks_distance):
            raise ValueError("KS distances must lie in [0, 1]")
        if any(v <= 0.0 for v in self.variance_ratio):
            raise ValueError("variance ratios must be positive")

    def to_json_dict(self) -> dict:
        return {
            "n_grid": list(self.n_grid),
            "ks_distance": list(self.ks_distance),
            "cf_distance": list(self.cf_distance),
            "lindeberg_values": [list(row) for row in np.asarray(self.lindeberg_values)],
            "variance_ratio": list(self.variance_ratio),
            "variance_ratio_exact": list(self.variance_ratio_exact),
            "replicates": self.replicates,
            "normalizer": self.normalizer,
            "eta_grid": list(self.eta_grid),
        }


def clt_convergence(
    model: ModelSpec,
    n_grid,
    replicates: int = 2000,
    t_grid=(0.5, 1.0, 2.0),
    seed: SeedSpec | None = None,
    eta_grid=(0.1, 0.5, 1.0),
    batches: int = 4000,
    lindeberg_replicates: int = 500_000,
) -> ConvergenceReport:
    """Measure how fast normalized sums approach the standard normal law.

    replicates stationary paths of max(n_grid) steps are drawn once; for
    each n, the sum of a path's first n observations is reduced to
    Y = sum(X_t - mu) / (normalizer sqrt(n)) and compared to the normal law
    through the KS distance, the worst characteristic-function distance over
    t_grid, and the variance ratio Var(Y) (which approaches 1 when the
    normalizer is right), reported beside its exact value for the same
    normalizer. Stream layout: the pilot normalizer uses stream offset 1,
    the paths offset 2, and the Lindeberg grid offset 64.
    """
    if seed is None:
        raise ValueError("a seed is required")
    n_grid = tuple(int(v) for v in n_grid)
    if any(v < 1 for v in n_grid):
        raise ValueError("n_grid entries must be >= 1")
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=np.float64))
    mu = mixture_mean(model)
    normalizer = long_run_std_batch_means(model, seed.child(1), batches=batches)
    # Each n reads column n - 1 of the paths' running sums.
    cols = np.asarray(n_grid) - 1
    sums = np.empty((replicates, len(n_grid)))
    for start, _states, obs in iter_path_chunks(model.stationary_start(), max(n_grid), replicates,
                                                seed.child(2)):
        np.cumsum(obs, axis=1, out=obs)
        sums[start : start + obs.shape[0]] = obs[:, cols]

    ks_list, cf_list, var_list = [], [], []
    for i, n in enumerate(n_grid):
        y = (sums[:, i] - mu * n) / (normalizer * math.sqrt(n))
        ks_list.append(ks_distance_to_std_normal(y))
        cf_dist = 0.0
        for t in t_grid:
            emp = np.exp(1j * t * y).mean()
            cf_dist = max(cf_dist, abs(emp - math.exp(-0.5 * t * t)))
        cf_list.append(float(cf_dist))
        var_list.append(float(y.var(ddof=1)))

    lindeberg = lindeberg_check(
        model, n_grid, eta_grid, replicates=lindeberg_replicates, seed=seed.child(64)
    )
    return ConvergenceReport(
        n_grid=n_grid,
        ks_distance=tuple(ks_list),
        cf_distance=tuple(cf_list),
        lindeberg_values=lindeberg.values,
        variance_ratio=tuple(var_list),
        replicates=replicates,
        normalizer=normalizer,
        eta_grid=tuple(float(v) for v in eta_grid),
        variance_ratio_exact=tuple(
            sum_variance_exact(model, n) / (n * normalizer * normalizer) for n in n_grid
        ),
    )
