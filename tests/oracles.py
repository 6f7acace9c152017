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

from regimeclt.chain import mixing_rate
from regimeclt.clt import lindeberg_check, sum_variance_exact
from regimeclt.errors import RegimecltError
from regimeclt.process import (
    ModelSpec,
    PathSample,
    _ndtr,
    iter_path_chunks,
    mixture_abs_third_moment,
    mixture_cdf,
    mixture_mean,
    mixture_variance,
)
from regimeclt.seeds import REPLICATE_BLOCK, SeedSpec


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
    state, or any real or complex per-state weight (the sum is multilinear
    in them). The walk runs over every state path of length times[-1] + 1,
    so keep the horizon tiny.
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
            if p[state, nxt] > 0.0:
                recurse(t + 1, nxt, prob * p[state, nxt])

    for s0 in range(n_states):
        if pi[s0] > 0.0:
            recurse(0, s0, float(pi[s0]))
    return total


def transfer_by_matrix_power(start: np.ndarray, weights: list, steps: list) -> np.ndarray:
    """start W_0 M_1 W_1 ... M_last W_last 1 with every M^power formed first.

    The same broadcast contract as `exact.transfer`, by the plain route: each
    step, single or stacked, is raised with np.linalg.matrix_power and the
    row vector multiplied in after.
    """
    v = start * weights[0]
    for w, (m, power) in zip(weights[1:], steps):
        m = np.linalg.matrix_power(m, power)
        v = (v @ m if m.ndim == 2 else (v[..., None, :] @ m)[..., 0, :]) * w
    return v.sum(axis=-1)


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


def event_chunks_loop(model, times, n_paths: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """All n_paths replicates of iter_path_chunks(..., times=times) as (1-based states, obs).

    Each block's uniforms are drawn in one call, one row of 2k + 1 per
    replicate for k event times (initial regime, k moves, k observations).
    Move j is walked with walk_loop on the cumulative rows of P^move, move
    0 from the initial regime over tau_0 + 1 steps.
    """
    k = len(times)
    u = np.concatenate([
        seed.block_rng(b).random((min(REPLICATE_BLOCK, n_paths - b * REPLICATE_BLOCK), 2 * k + 1))
        for b in range(-(-n_paths // REPLICATE_BLOCK))
    ])
    states = np.empty((n_paths, k), dtype=np.int16)
    s, prev = _initial_states(model, u[:, 0]), -1
    for j, t in enumerate(times):
        cum = _cumulative_rows(np.linalg.matrix_power(model.chain.p, int(t) - prev))
        s = states[:, j] = walk_loop(cum, s, u[:, 1 + j : 2 + j])[:, 0]
        prev = int(t)
    return states + 1, _observations(model, states, u[:, k + 1 :])


# ---------------------------------------------------------------------------
# characteristic functions
# ---------------------------------------------------------------------------


def step_breakpoints(approx) -> np.ndarray:
    """Cell ends -radius = b_0 < ... < b_n_cells = radius of a StepApproximation."""
    return np.linspace(-approx.radius, approx.radius, approx.n_cells + 1)


def step_function(approx, x) -> np.ndarray:
    """A StepApproximation evaluated at x.

    Cell j is (b_j, b_{j+1}], the first closed on the left, and takes
    exp(i t m_j) at its midpoint m_j; outside [-radius, radius] the value is 0.
    Cells are found by arithmetic, so any cell count is evaluated in memory
    linear in x.
    """
    x = np.asarray(x, dtype=np.float64)
    cells = np.clip(np.ceil((x + approx.radius) / approx.width) - 1, 0, approx.n_cells - 1)
    mids = (cells + 0.5) * approx.width - approx.radius
    inside = (x >= -approx.radius) & (x <= approx.radius)
    return np.where(inside, np.exp(1j * approx.t * mids), 0.0 + 0.0j)


def cf_gap_batches_loop(samples, t_grid, n_batches: int = 20) -> tuple[np.ndarray, np.ndarray]:
    """Gap |ecf(sum) - prod ecf(X_r)| and its batch standard error per t.

    Direct formula: exp(it sum X) from the row sums, full-sample means, and
    each of the n_batches np.array_split batches copied out and averaged on
    its own; the error is the sample sd of the batch gaps over sqrt(batches).
    """
    x = np.asarray(samples, dtype=np.float64)
    sums = x.sum(axis=1)
    gaps, std_errors = [], []
    for t in np.atleast_1d(t_grid):
        e_sum = np.exp(1j * t * sums)
        e_vars = np.exp(1j * t * x)
        gaps.append(abs(e_sum.mean() - np.prod(e_vars.mean(axis=0))))
        batch_gaps = [abs(e_sum[b].mean() - np.prod(e_vars[b].mean(axis=0)))
                      for b in np.array_split(np.arange(len(x)), n_batches)]
        std_errors.append(np.std(batch_gaps, ddof=1) / math.sqrt(n_batches))
    return np.array(gaps), np.array(std_errors)


def cf_gap_from_samples_cexp(samples, t_grid, n_batches: int = 20) -> tuple[np.ndarray, np.ndarray]:
    """cf_factorization_gap_from_samples' reductions with exp(itX) = np.exp(1j * t * x).

    The same column product, reduceat batch sums and full-sample means, with
    the complex exponential taken by complex exp instead of cos and sin of
    the real phase, so the two routes can be compared bit for bit.
    """
    x = np.ascontiguousarray(samples, dtype=np.float64)
    n_rep, n_vars = x.shape
    sizes = np.full(n_batches, n_rep // n_batches)
    sizes[: n_rep % n_batches] += 1
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    gaps, std_errors = [], []
    for t in np.atleast_1d(np.asarray(t_grid, dtype=np.float64)):
        e_vars = np.exp(1j * t * x)
        e_sum = e_vars[:, 0] * e_vars[:, 1]
        for r in range(2, n_vars):
            e_sum *= e_vars[:, r]
        var_sums = np.add.reduceat(e_vars, starts, axis=0)
        sum_sums = np.add.reduceat(e_sum, starts)
        gaps.append(abs(sum_sums.sum() / n_rep - np.prod(var_sums.sum(axis=0) / n_rep)))
        batch_gaps = np.abs(sum_sums / sizes - np.prod(var_sums / sizes[:, None], axis=1))
        std_errors.append(float(batch_gaps.std(ddof=1) / math.sqrt(n_batches)))
    return np.array(gaps), np.array(std_errors)


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------


def mixture_quantile_halvings(model: ModelSpec, q, halvings: int = 100) -> np.ndarray:
    """Stationary-mixture quantiles by a fixed number of bracket halvings,
    with no early stop."""
    levels = np.asarray(q, dtype=np.float64)
    lows, highs = zip(*(c.effective_support() for c in model.emissions.components))
    lo = np.full(levels.shape, min(lows) - 1.0)
    hi = np.full(levels.shape, max(highs) + 1.0)
    for _ in range(halvings):
        mid = 0.5 * (lo + hi)
        below = mixture_cdf(model, mid) < levels
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


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


class LengthMismatch(RegimecltError):
    """Sequence length does not match the block decomposition it is paired with."""


def block_sums(values, decomposition) -> tuple[np.ndarray, float]:
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


def remainder_indices(decomposition) -> np.ndarray:
    """The remainder's 1-based indices: the last m of every window, then those past nu k."""
    d = decomposition
    ends = np.arange(1, d.nu + 1, dtype=np.int64) * d.k
    return np.concatenate([(ends[:, None] + np.arange(1 - d.m, 1)).ravel(),
                           np.arange(d.nu * d.k + 1, d.n + 1)])


def block_ranges(decomposition) -> tuple[tuple[int, int], ...]:
    """The blocks' 1-based inclusive intervals ((i-1)k + 1, ik - m), i = 1..nu."""
    d = decomposition
    ends = np.arange(1, d.nu + 1, dtype=np.int64) * d.k  # last index of each window
    return tuple(zip((ends - d.k + 1).tolist(), (ends - d.m).tolist()))


def remainder_second_moment_walk(model, decomposition) -> float:
    """E[(Z/sqrt(n))^2] of the remainder Z by walking its indices one at a time.

    With a = pi * c and Q = P - 1 pi, w_{j+1} = (w_j + a) Q^(r_{j+1} - r_j)
    is the sum of a Q^(r_{j+1} - r_i) over i <= j, and the pair sum
    sum_{i<j} gamma(r_j - r_i) is sum_j w_j c.
    """
    pi = model.stationary()
    means = model.emissions.means()
    c = means - float(pi @ means)
    a, q = pi * c, model.chain.p - pi[None, :]
    gaps = np.diff(remainder_indices(decomposition))
    powers = {g: np.linalg.matrix_power(q, g) for g in set(gaps.tolist())}
    w = np.zeros_like(a)
    cross = 0.0
    for g in gaps.tolist():
        w = (w + a) @ powers[g]
        cross += float(w @ c)
    return (decomposition.p * mixture_variance(model) + 2.0 * cross) / decomposition.n


def remainder_second_moment_pairs(model, indices, n: int) -> float:
    """(1/n) sum_{i,j in R} gamma(|i - j|) over every ordered pair of indices R."""
    idx = np.asarray(indices)
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
    mask[remainder_indices(decomposition) - 1] = True
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


def rect_indicator(event, states: np.ndarray, obs: np.ndarray) -> np.ndarray:
    """Elementwise indicator of a RectEvent: 1-based regime in its set, value in (lo, hi]."""
    return np.isin(states, list(event.state_set)) & (obs > event.lo) & (obs <= event.hi)


def tuple_gaps_mc(model, family, lags, replicates: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo |joint - product| gap and its standard error, per event tuple.

    Every tuple is scored on one set of stationary replicates, drawn by the
    production sampler at the event times (iter_path_chunks(times=...)). The
    error adds the joint rate's binomial variance to the delta-method
    variance of the product of the marginal rates.
    """
    times = np.concatenate([[0], np.cumsum(lags)])
    joint_hits = np.zeros(len(family), dtype=np.int64)
    marg_hits = np.zeros((len(family), len(times)), dtype=np.int64)
    for _start, states, obs in iter_path_chunks(model.stationary_start(), int(times[-1]) + 1, replicates,
                                                seed, times=times):
        for i, events in enumerate(family):
            ind = np.stack([rect_indicator(ev, states[:, r], obs[:, r])
                            for r, ev in enumerate(events)], axis=1)
            joint_hits[i] += ind.all(axis=1).sum()
            marg_hits[i] += ind.sum(axis=0)
    joint, margs = joint_hits / replicates, marg_hits / replicates
    product = margs.prod(axis=1)
    # d product / d m_r = product / m_r; a rate of 0 adds no error.
    partial = np.divide(product[:, None], margs, out=np.zeros_like(margs), where=margs > 0.0)
    variance = joint * (1.0 - joint) + (partial * partial * margs * (1.0 - margs)).sum(axis=1)
    return np.abs(joint - product), np.sqrt(variance / replicates)


def ks_distance_sorted(values: np.ndarray, cdf) -> float:
    """One-sample KS statistic against a supplied cdf, textbook formula."""
    y = np.sort(np.asarray(values, dtype=np.float64))
    n = y.size
    f = cdf(y)
    dplus = np.max(np.arange(1, n + 1) / n - f)
    dminus = np.max(f - np.arange(0, n) / n)
    return float(max(dplus, dminus))


def ks_distance_to_std_normal(values) -> float:
    """One-sample Kolmogorov-Smirnov distance to the standard normal law."""
    y = np.sort(np.asarray(values, dtype=np.float64))
    r = y.size
    if r < 1:
        raise ValueError("need at least one value")
    cdf = _ndtr(y)
    i = np.arange(1, r + 1)
    return float(np.max(np.maximum(i / r - cdf, cdf - (i - 1) / r)))


def batch_length_for(model: ModelSpec) -> int:
    """Batch length 50 / (1 - alpha), at least 50, from the chain's SLEM."""
    alpha = mixing_rate(model.chain, s_max=2).alpha
    return max(50, int(math.ceil(50.0 / max(1.0 - alpha, 1e-6))))


def long_run_std_batch_means(
    model: ModelSpec,
    seed: SeedSpec,
    batches: int = 4000,
) -> float:
    """Batch-means estimate of the long-run standard deviation.

    Batches are independent stationary paths of batch_length_for(model)
    observations; the estimator is the batch length times the variance of
    the batch means.
    """
    if batches < 2:
        raise ValueError("need at least two batches")
    batch_len = batch_length_for(model)
    mu = mixture_mean(model)
    stationary_model = model.stationary_start()
    batch_means = np.empty(batches)
    for start, _states, obs in iter_path_chunks(stationary_model, batch_len, batches, seed):
        batch_means[start : start + obs.shape[0]] = obs.mean(axis=1) - mu
    return float(math.sqrt(batch_len * batch_means.var(ddof=1)))


@dataclass(frozen=True)
class ConvergenceEstimate:
    """Sampled distance-to-normal measurements over a grid of sequence lengths.

    variance_ratio is the sample variance of the normalized sums;
    variance_ratio_exact is Var(S_n) / (n normalizer^2) for the same
    normalizer, so their difference is sampling noise and the distance of
    variance_ratio_exact from long_run_variance / normalizer^2 is finite-n
    bias.
    """

    n_grid: tuple[int, ...]
    ks_distance: tuple[float, ...]
    cf_distance: tuple[float, ...]
    lindeberg_values: np.ndarray
    variance_ratio: tuple[float, ...]
    replicates: int
    normalizer: float
    eta_grid: tuple[float, ...]
    variance_ratio_exact: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if any(not 0.0 <= v <= 1.0 for v in self.ks_distance):
            raise ValueError("KS distances must lie in [0, 1]")
        if any(not v > 0.0 for v in self.variance_ratio):
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


def clt_convergence_mc(
    model,
    n_grid,
    replicates: int = 2000,
    t_grid=(0.5, 1.0, 2.0),
    seed=None,
    eta_grid=(0.1, 0.5, 1.0),
    batches: int = 4000,
    normalizer: float | None = None,
) -> ConvergenceEstimate:
    """Measure how fast normalized sums approach the standard normal law.

    replicates stationary paths of max(n_grid) steps are drawn once; for
    each n, the sum of a path's first n observations is reduced to
    Y = sum(X_t - mu) / (normalizer sqrt(n)) and compared to the normal law
    through the KS distance, the worst characteristic-function distance over
    t_grid, and the variance ratio Var(Y) (which approaches 1 when the
    normalizer is right), reported beside its exact value for the same
    normalizer. The Lindeberg grid is exact (lindeberg_check). Stream
    layout: the pilot normalizer uses stream offset 1 and the paths offset 2.
    A given normalizer replaces the pilot, which is then not drawn.
    """
    if seed is None:
        raise ValueError("a seed is required")
    if replicates < 2:
        raise ValueError("need at least two replicates")
    lindeberg = lindeberg_check(model, n_grid, eta_grid)
    n_grid = lindeberg.n_grid
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=np.float64))
    mu = mixture_mean(model)
    if normalizer is None:
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
    return ConvergenceEstimate(
        n_grid=n_grid,
        ks_distance=tuple(ks_list),
        cf_distance=tuple(cf_list),
        lindeberg_values=lindeberg.values,
        variance_ratio=tuple(var_list),
        replicates=replicates,
        normalizer=normalizer,
        eta_grid=lindeberg.eta_grid,
        variance_ratio_exact=tuple(
            sum_variance_exact(model, n) / (n * normalizer * normalizer) for n in n_grid
        ),
    )
