"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive: dense enumeration, power iteration,
quadrature, term-by-term sums, Monte Carlo estimators the package replaced
with exact values, and closed forms derived separately from the library
code. The point is that agreement between these and the package is
meaningful.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy import integrate, stats

from regimeclt.process import (
    iter_path_chunks,
    mixture_abs_third_moment,
    mixture_mean,
    mixture_variance,
)
from regimeclt.seeds import REPLICATE_BLOCK


# ---------------------------------------------------------------------------
# chains
# ---------------------------------------------------------------------------


def stationary_power_iteration(p: np.ndarray, iterations: int = 20_000) -> np.ndarray:
    """Stationary law as the limit row of repeated squaring of P."""
    q = np.asarray(p, dtype=np.float64)
    for _ in range(60):
        q2 = q @ q
        if np.max(np.abs(q2 - q)) < 1e-15:
            q = q2
            break
        q = q2
    pi = q.mean(axis=0)
    return pi / pi.sum()


def stationary_exact(p: np.ndarray) -> np.ndarray:
    """Stationary law of the jumps of P in exact rational arithmetic.

    Solves pi Q = 0, sum(pi) = 1 for Q = P off the diagonal and minus each
    row's off-diagonal sum on it, by Gauss-Jordan elimination over the
    Fractions of the float entries, and rounds each entry once. This is
    pi P = pi whenever the rows sum to exactly 1.
    """
    n = len(p)
    rows = [[Fraction(float(v)) for v in row] for row in p]
    # Row i of the system is column i of Q; the last is replaced by sum = 1.
    a = [[rows[j][i] if i != j else -(sum(rows[i]) - rows[i][i]) for j in range(n)]
         for i in range(n - 1)]
    a.append([Fraction(1)] * n)
    b = [Fraction(0)] * (n - 1) + [Fraction(1)]
    for c in range(n):
        pivot = next(r for r in range(c, n) if a[r][c] != 0)
        a[c], a[pivot], b[c], b[pivot] = a[pivot], a[c], b[pivot], b[c]
        for r in range(n):
            if r != c and a[r][c] != 0:
                f = a[r][c] / a[c][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
                b[r] -= f * b[c]
    return np.array([float(b[i] / a[i][i]) for i in range(n)])


def is_ergodic_brute(p: np.ndarray) -> bool:
    """Primitivity test: some power of P is entrywise positive.

    For an N-state primitive matrix the power (N-1)^2 + 1 is positive
    (Wielandt), so checking up to that exponent is exhaustive.
    """
    support = (np.asarray(p) > 0.0).astype(np.float64)
    n = support.shape[0]
    limit = (n - 1) ** 2 + 1
    q = np.eye(n)
    for _ in range(limit):
        q = np.minimum(q @ support, 1.0)
        if np.all(q > 0.0):
            return True
    return False


def sup_gap_brute(p: np.ndarray, pi: np.ndarray, s: int) -> float:
    """max_ij |(P^s)_ij - pi_j| by direct matrix power."""
    ps = np.linalg.matrix_power(np.asarray(p, dtype=np.float64), s)
    return float(np.max(np.abs(ps - pi[None, :])))


def enumerate_joint_probability(
    pi: np.ndarray, p: np.ndarray, times: list, weights: list
) -> float:
    """P(event_1 at t_1, ..., event_k at t_k) by full path enumeration.

    times are 0-based offsets from the first event (times[0] == 0); weights
    holds, per event, the per-state probability of the event given the
    state. The walk runs over every state path of length times[-1] + 1, so
    keep the horizon tiny.
    """
    n_states = len(pi)
    horizon = times[-1] + 1
    total = 0.0
    time_to_event = {t: r for r, t in enumerate(times)}

    def recurse(t: int, state: int, prob: float) -> None:
        nonlocal total
        if t in time_to_event:
            prob = prob * weights[time_to_event[t]][state]
            if prob == 0.0:
                return
        if t == horizon - 1:
            total += prob
            return
        for nxt in range(n_states):
            step = prob * p[state, nxt]
            if step > 0.0:
                recurse(t + 1, nxt, step)

    for s0 in range(n_states):
        if pi[s0] > 0.0:
            recurse(0, s0, float(pi[s0]))
    return total


def filter_by_enumeration(
    init: np.ndarray, p: np.ndarray, densities: np.ndarray
) -> np.ndarray:
    """Predictive law of the next regime given observed densities.

    init is the law of the regime one step before the first observation;
    densities is (n_obs, n_states) with g_state(x_t). Enumeration walks all
    state sequences of length n_obs + 1.
    """
    n_obs, n_states = densities.shape
    probs = np.zeros(n_states)
    total = 0.0

    def recurse(t: int, state: int, weight: float) -> None:
        nonlocal total
        if t == n_obs:
            for nxt in range(n_states):
                probs[nxt] += weight * p[state, nxt]
            total += weight
            return
        for nxt in range(n_states):
            w = weight * p[state, nxt] * densities[t, nxt]
            if w > 0.0:
                recurse(t + 1, nxt, w)

    for s0 in range(n_states):
        if init[s0] > 0.0:
            recurse(0, s0, float(init[s0]))
    if total <= 0.0:
        raise ZeroDivisionError("zero likelihood in oracle filter")
    return probs / total


# ---------------------------------------------------------------------------
# path sampling
# ---------------------------------------------------------------------------


def _cumulative_rows(p: np.ndarray) -> np.ndarray:
    cum = np.cumsum(p, axis=1)
    cum[:, -1] = 1.0
    return cum


def _initial_states(model, u0: np.ndarray) -> np.ndarray:
    if isinstance(model.initial, int):
        return np.full(u0.shape, model.initial - 1, dtype=np.int64)
    cum_init = np.cumsum(model.initial_distribution())
    cum_init[-1] = 1.0
    return np.searchsorted(cum_init, u0, side="right")


def _observations(model, states0: np.ndarray, u_obs: np.ndarray) -> np.ndarray:
    """Inverse-CDF emissions, each regime's uniforms transformed together."""
    obs = np.empty(states0.shape)
    for j, comp in enumerate(model.emissions.components):
        mask = states0 == j
        obs[mask] = comp.ppf(u_obs[mask])
    return obs


def walk_loop(cum: np.ndarray, s0: np.ndarray, u_steps: np.ndarray) -> np.ndarray:
    """0-based regime paths, one step at a time: the next regime from j under
    u is the number of entries of cum[j] at or below u."""
    s = np.asarray(s0, dtype=np.int64)
    states = np.empty(u_steps.shape, dtype=np.int16)
    for t in range(u_steps.shape[1]):
        s = (cum[s] <= u_steps[:, t][:, None]).sum(axis=1)
        states[:, t] = s
    return states


def path_chunks_loop(model, n: int, n_paths: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """All n_paths replicates of iter_path_chunks as (1-based states, obs).

    Each block's uniforms are drawn in one call, one row of 2n + 1 per
    replicate (initial regime, n transitions, n observations), and walked
    with walk_loop.
    """
    u = np.concatenate([
        seed.block_rng(b).random((min(REPLICATE_BLOCK, n_paths - b * REPLICATE_BLOCK), 2 * n + 1))
        for b in range(-(-n_paths // REPLICATE_BLOCK))
    ])
    states = walk_loop(_cumulative_rows(model.chain.p), _initial_states(model, u[:, 0]), u[:, 1 : n + 1])
    return states + 1, _observations(model, states, u[:, n + 1 :])


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------


def abs_third_moment_quad(pdf, lo: float, hi: float, center: float) -> float:
    """E|X - center|^3 by adaptive quadrature, split at the center."""
    points = sorted(v for v in (lo, center, hi) if lo <= v <= hi)
    val, _err = integrate.quad(
        lambda x: abs(x - center) ** 3 * pdf(x), lo, hi, points=points[1:-1] or None,
        limit=200,
    )
    return float(val)


def noncentral_truncated_second_moment(mu: float, sd: float, lo_cut: float) -> float:
    """E[Y^2 1{Y > a}] for Y ~ N(mu, sd^2) in closed form."""
    beta = (lo_cut - mu) / sd
    phi = math.exp(-0.5 * beta * beta) / math.sqrt(2.0 * math.pi)
    tail = stats.norm.sf(beta)
    return (mu * mu + sd * sd) * tail + (mu + lo_cut) * sd * phi


def mixture_lindeberg_sum_gaussian(
    pi: np.ndarray, means: np.ndarray, sds: np.ndarray, threshold: float
) -> float:
    """E[(X - mu_mix)^2 1{|X - mu_mix| > threshold}] / var_mix for a Gaussian mixture.

    Both tails come from the noncentral closed form applied to Y and -Y.
    """
    mu_mix = float(pi @ means)
    var_mix = float(pi @ (sds**2 + (means - mu_mix) ** 2))
    acc = 0.0
    for w, m, s in zip(pi, means, sds):
        shifted = m - mu_mix
        upper = noncentral_truncated_second_moment(shifted, s, threshold)
        lower = noncentral_truncated_second_moment(-shifted, s, threshold)
        acc += w * (upper + lower)
    return acc / var_mix


def long_run_variance_series(
    pi: np.ndarray, p: np.ndarray, means: np.ndarray, variances: np.ndarray,
    terms: int = 4000,
) -> float:
    """Long-run variance by truncated autocovariance summation."""
    mu = float(pi @ means)
    c = means - mu
    var0 = float(pi @ (variances + c * c))
    acc = var0
    ps = np.eye(len(pi))
    for _s in range(1, terms):
        ps = ps @ p
        gamma = float((pi * c) @ (ps - pi[None, :]) @ c)
        acc += 2.0 * gamma
    return acc


def autocovariances(model, n: int) -> np.ndarray:
    """gamma(0..n-1) of the stationary observations by repeated multiplication."""
    pi = model.stationary()
    means = model.emissions.means()
    c = means - float(pi @ means)
    gammas = np.empty(n)
    gammas[0] = float(pi @ (model.emissions.variances() + c * c))
    v = pi * c
    for s in range(1, n):
        v = v @ model.chain.p
        gammas[s] = float(v @ c)
    return gammas


def block_partition_loop(n: int, k: int, m: int) -> tuple[tuple, list]:
    """Block ranges and remainder indices of 1..n, one window at a time.

    Window i covers (i-1)k + 1 .. ik; its first k - m indices form block i
    and its last m join the remainder, followed by the indices past the
    last full window.
    """
    nu = n // k
    block_ranges = tuple(((i - 1) * k + 1, i * k - m) for i in range(1, nu + 1))
    remainder: list[int] = []
    for i in range(1, nu + 1):
        remainder.extend(range(i * k - m + 1, i * k + 1))
    remainder.extend(range(nu * k + 1, n + 1))
    return block_ranges, remainder


def remainder_second_moment_pairs(model, remainder_indices, n: int) -> float:
    """(1/n) sum_{i,j in R} gamma(|i - j|) over every ordered pair."""
    idx = np.asarray(remainder_indices)
    gammas = autocovariances(model, n)
    return float(gammas[np.abs(idx[:, None] - idx[None, :])].sum()) / n


def sum_variance_loop(model, n: int) -> float:
    """Var(S_n) = n gamma(0) + 2 sum_{s=1}^{n-1} (n - s) gamma(s), term by term."""
    gammas = autocovariances(model, n)
    total = n * gammas[0]
    for s in range(1, n):
        total += 2.0 * (n - s) * gammas[s]
    return total


@dataclass(frozen=True)
class RemainderEstimate:
    """Monte Carlo second moment of the remainder term against its envelope."""

    n: int
    p: int
    estimate: float
    std_error: float
    bound: float
    abs_third_moment: float
    replicates: int


def remainder_diagnostic_mc(model, decomposition, replicates: int = 400, seed=None) -> RemainderEstimate:
    """Estimate E[(Z/sqrt(n))^2] for the remainder Z and compare to p^2 R^2 / n.

    Simulates replicates stationary paths of length n and averages the
    squared normalized remainder sums.
    """
    if seed is None:
        raise ValueError("a seed is required")
    if replicates < 2:
        raise ValueError("need at least two replicates")
    n = decomposition.n
    mu = mixture_mean(model)
    mask = np.zeros(n, dtype=bool)
    mask[decomposition.remainder_indices - 1] = True
    stationary_model = model.stationary_start()
    vals = np.empty(replicates)
    p = decomposition.p
    for start, _states, obs in iter_path_chunks(stationary_model, n, replicates, seed):
        z = obs[:, mask].sum(axis=1) - mu * p
        vals[start : start + obs.shape[0]] = (z / math.sqrt(n)) ** 2
    r_moment = mixture_abs_third_moment(model)
    return RemainderEstimate(
        n=n,
        p=p,
        estimate=float(vals.mean()),
        std_error=float(vals.std(ddof=1) / math.sqrt(replicates)),
        bound=p * p * r_moment * r_moment / n,
        abs_third_moment=r_moment,
        replicates=replicates,
    )


@dataclass(frozen=True)
class LindebergEstimate:
    """Monte Carlo Lindeberg sums over an (n, eta) grid with their standard errors."""

    n_grid: tuple[int, ...]
    eta_grid: tuple[float, ...]
    values: np.ndarray
    std_errors: np.ndarray
    normalizer: float
    replicates: int


def lindeberg_mc(
    model,
    n_grid,
    eta_grid,
    replicates: int = 1_000_000,
    seed=None,
) -> LindebergEstimate:
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
    return LindebergEstimate(
        n_grid=n_grid, eta_grid=eta_grid, values=values, std_errors=std_errors,
        normalizer=sigma, replicates=replicates,
    )


def joint_product_gap_mc_loop(model, events, lags, replicates: int, seed) -> tuple[float, float]:
    """Monte Carlo |joint - product| gap and its standard error, one tuple.

    Hit counts come from the stationary paths of iter_path_chunks; the error
    adds the joint rate's binomial variance to the delta-method variance of
    the product, one marginal at a time.
    """
    t_idx = np.concatenate([[0], np.cumsum(lags)])
    joint_hits = 0
    marg_hits = np.zeros(len(events), dtype=np.int64)
    for _start, states, obs in iter_path_chunks(
        model.stationary_start(), int(t_idx[-1]) + 1, replicates, seed
    ):
        ind = np.stack(
            [ev.indicator(states[:, t], obs[:, t]) for ev, t in zip(events, t_idx)], axis=1
        )
        marg_hits += ind.sum(axis=0)
        joint_hits += int(ind.all(axis=1).sum())
    joint = joint_hits / replicates
    margs = marg_hits / replicates
    product = float(np.prod(margs))
    var = joint * (1.0 - joint) / replicates
    for m in margs:
        partial = product / m if m > 0 else 0.0
        var += partial * partial * m * (1.0 - m) / replicates
    return abs(joint - product), math.sqrt(var)


def ks_distance_sorted(values: np.ndarray, cdf) -> float:
    """One-sample KS statistic against a supplied cdf, textbook formula."""
    y = np.sort(np.asarray(values, dtype=np.float64))
    n = y.size
    f = cdf(y)
    dplus = np.max(np.arange(1, n + 1) / n - f)
    dminus = np.max(f - np.arange(0, n) / n)
    return float(max(dplus, dminus))
