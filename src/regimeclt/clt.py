"""Blocking decomposition and normal-convergence measurements.

The sum of n centered observations is split into nu = floor(n/k) blocks of
k - m indices separated by gaps of m indices (k = floor(n^a) for a blocking
exponent a), plus a remainder collecting the gap indices and the final
stub. Blocks are far enough apart to be nearly independent, and the
remainder is second-moment small.

Emissions depend on the past only through the regime, so every second
moment of a stationary sum is a finite sum of the autocovariances
gamma(0) = Var(X) and gamma(s) = (pi * c)^T P^s c for s >= 1, with c the
centered regime means. The remainder's second moment, the finite-n variance
of the sum and the long-run variance are computed exactly from them. So is
the law of the sum: E exp(i s S_n) = pi D(s) (P D(s))^(n-1) 1 with D(s) =
diag(phi_j(s)), which Gil-Pelaez inversion (Biometrika 1951) turns into the
exact Kolmogorov-Smirnov distance to the normal law. Normalization uses the
exact long-run standard deviation, so nothing here draws a random number.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from . import exact
from .errors import ConfigInvalid
from .process import ModelSpec, mixture_abs_third_moment, mixture_mean, mixture_variance

BLOCK_EXPONENT_MAX = 0.25


# ---------------------------------------------------------------------------
# block decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockDecomposition:
    """Partition of 1..n into nu = n // k blocks of k - m indices plus a remainder.

    Block i is the 1-based inclusive interval ((i-1)k + 1, ik - m); the
    remainder is the m trailing indices of every block window and the final
    n - k nu indices. Both are derived from (n, k, m, nu).
    """

    n: int
    alpha_exp: float
    m: int
    k: int
    nu: int

    def __post_init__(self) -> None:
        if not 1 <= self.m < self.k:
            raise ValueError("gap m must lie in [1, k)")
        if self.nu != self.n // self.k:
            raise ValueError("nu must equal n // k")

    @property
    def p(self) -> int:
        """Number of remainder indices, m nu + (n - k nu)."""
        return self.m * self.nu + self.n - self.k * self.nu

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
    quarter-power blocking is expressible. Raises ValueError for a bad
    input, including a gap m that leaves no room inside a block (m >= k).
    """
    if n < 4:
        raise ValueError("n must be at least 4")
    if not 0.0 < alpha_exp <= BLOCK_EXPONENT_MAX:
        raise ValueError(f"blocking exponent must lie in (0, {BLOCK_EXPONENT_MAX}]")
    if m < 1:
        raise ValueError("gap m must be a positive integer")
    k = _guarded_power_floor(n, alpha_exp)
    if m >= k:
        raise ValueError(f"gap m={m} does not fit in blocks of k={k} indices")
    return BlockDecomposition(n=n, alpha_exp=alpha_exp, m=m, k=k, nu=n // k)


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
    w_{j+1} = (w_j + a) Q^(r_{j+1} - r_j), and the pair sum is sum_j w_j c.
    A step over a gap g is the affine map S(g) on the row (w, 1, cross):
    [[G, 0, G c], [a G, 1, a G c], [0, 0, 1]] with G = Q^g. The gaps repeat
    with period m, m - 1 ones and then k - m + 1, and the last window is
    followed by n - nu k ones, so the pair sum is the last entry of
    (0, 1, 0) S(1)^(m-1) (S(k-m+1) S(1)^(m-1))^(nu-1) S(1)^(n - nu k):
    O(log n) matrix products, and no index is built.

    R is the stationary-mixture third absolute moment about its mean. The
    envelope is meaningful when R >= 1 (third-moment domination); for R < 1
    it can undercut the true second moment, which the report makes visible
    rather than hiding.
    """
    gamma0, a, q, c = _autocovariance_terms(model)
    n_states = len(c)
    n, k, m, nu = decomposition.n, decomposition.k, decomposition.m, decomposition.nu

    power = np.linalg.matrix_power

    def step(g: int) -> NDArray[np.float64]:
        s = np.eye(n_states + 2)
        s[:n_states, :n_states] = power(q, g)
        s[n_states, :n_states] = a @ s[:n_states, :n_states]
        s[: n_states + 1, -1] = s[: n_states + 1, :n_states] @ c
        return s

    unit = step(1)
    window = power(unit, m - 1)
    row = np.zeros(n_states + 2)
    row[n_states] = 1.0
    row = row @ window @ power(step(k - m + 1) @ window, nu - 1) @ power(unit, n - nu * k)
    cross = float(row[-1])
    p = decomposition.p
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

    values[i, j] is sum_k E[X_kn^2 1{|X_kn| > eta_j}] for n = n_grid[i],
    where X_kn = (X_k - mu) / (sigma sqrt(n)) under the stationary mixture.
    """

    n_grid: tuple[int, ...]
    eta_grid: tuple[float, ...]
    values: NDArray[np.float64]
    normalizer: float


def lindeberg_check(model: ModelSpec, n_grid, eta_grid) -> LindebergReport:
    """Exact Lindeberg sums on a grid, from the emissions' tail moments.

    Under stationarity every array entry has the same marginal law, so the
    sum collapses to E[(X - mu)^2 1{|X - mu| > eta sigma sqrt(n)}] / sigma^2
    with mu, sigma the stationary-mixture mean and standard deviation: the
    pi-weighted tail second moments of the emissions over sigma^2. It tends
    to 0 in n for every stationary finite-variance model, and is exactly 0
    once the threshold passes a bounded support.
    """
    n_grid = tuple(int(v) for v in n_grid)
    eta_grid = tuple(float(v) for v in eta_grid)
    if any(v < 1 for v in n_grid) or any(not 0.0 <= v < math.inf for v in eta_grid):
        raise ValueError("n_grid entries must be >= 1 and eta_grid entries finite and >= 0")
    pi = model.stationary()
    mu = mixture_mean(model)
    var = mixture_variance(model)
    sigma = math.sqrt(var)
    values = np.empty((len(n_grid), len(eta_grid)))
    for i, n in enumerate(n_grid):
        for j, eta in enumerate(eta_grid):
            threshold = eta * sigma * math.sqrt(n)
            tails = [c.tail_second_moment(mu, threshold) for c in model.emissions.components]
            values[i, j] = float(pi @ tails) / var
    return LindebergReport(n_grid=n_grid, eta_grid=eta_grid, values=values, normalizer=sigma)


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


# ---------------------------------------------------------------------------
# exact distance to the normal law
# ---------------------------------------------------------------------------

# The Gil-Pelaez rule: Gauss-Legendre panels of _PANEL_NODES nodes and width
# _PANEL_WIDTH (width 4 misread F near |x| = 10 by 1e-6) on (0, T], T doubling
# from _T_MIN until the tail bound is <= _TAIL_TOL, refused past _MAX_NODES.
# sup |F - Phi| is read on _X_POINTS points over [-_X_END, _X_END], and
# KS_EXACT_ATOL is the quadrature error allowed when it is read as monotone.
_PANEL_NODES, _PANEL_WIDTH, _T_MIN, _TAIL_TOL, _MAX_NODES = 16, 2.0, 40.0, 1e-10, 4096
_X_END, _X_POINTS, KS_EXACT_ATOL = 10.0, 481, 1e-9
_ExactDistances = namedtuple("_ExactDistances", "ks cf_distance cdf_gap t_max tail")


def _gauss_legendre(n: int) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """n-node Gauss-Legendre nodes and weights on [-1, 1].

    The nodes start as the eigenvalues of the Jacobi matrix with off-diagonal
    k / sqrt(4k^2 - 1) (Golub-Welsch), and one Newton step on P_n takes them
    to round-off; the weights are 2 / ((1 - x^2) P_n'(x)^2). Weights from
    the eigenvectors instead are 1e-15 off, which moves a KS distance near
    1e-4 by 1e-12 relative.
    """

    def legendre(x):  # P_n(x) and P_n'(x) by the three-term recurrence
        p0, p1 = np.ones_like(x), x
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        return p1, n * (x * p1 - p0) / (x * x - 1.0)

    k = np.arange(1.0, n)
    x = np.linalg.eigvalsh(np.diag(k / np.sqrt(4.0 * k * k - 1.0), -1))
    p, dp = legendre(x)
    x = x - p / dp
    dp = legendre(x)[1]
    return x, 2.0 / ((1.0 - x * x) * dp * dp)


_PANEL_RULE = _gauss_legendre(_PANEL_NODES)


def _tail_bound(model: ModelSpec, n: int, scale: float, t0: float) -> float:
    """Bound on (1/pi) int_t0^inf |phi_n(t) - e^{-t^2/2}| dt / t, phi_n the cf of S_n / scale.

    |phi_n(t)| <= m(t)^n for the nonincreasing m(t) = max_j cf_bound(t / scale),
    as P is stochastic. Each [t, 2^(1/4) t] of a geometric grid adds m(t)^n ln
    2^(1/4); past its end t_e, |phi_j(s)| <= 1 / (s sd_j) adds (scale / (t_e
    min sd_j))^n / n, and the normal part adds at most e^{-t0^2/2} / t0^2.
    """
    ratio = 2.0**0.25
    t = t0 * ratio ** np.arange(161)
    bound = np.max([c.cf_bound(t / scale) for c in model.emissions.components], axis=0)
    c = scale / math.sqrt(float(model.emissions.variances().min()))
    body = math.log(ratio) * float(np.sum(bound[:-1] ** n)) + (c / t[-1]) ** n / n
    return (body + math.exp(-0.5 * t0 * t0) / (t0 * t0)) / math.pi


def _exact_distances(model: ModelSpec, n: int, t_grid) -> _ExactDistances:
    """Exact KS and cf distances to N(0, 1) of Y = (S_n - n mu) / (sigma sqrt(n)).

    sigma is the exact long-run sd. With D(s) = diag(phi_j(s) e^{-i s mu}),
    E e^{itY} = pi D (P D)^(n-1) 1 at s = t / (sigma sqrt(n)), one
    `exact.transfer` product over the stack of t. By Gil-Pelaez, F(x) - Phi(x)
    = -(1/pi) int_0^inf Im(e^{-itx} g(t)) / t dt for g(t) = E e^{itY} - e^{-t^2/2};
    its sup is refined twice around the four largest local maxima on the x grid. Also
    returned: cdf_gap(x), F - Phi by the rule on (0, t_max], and the tail bound
    past t_max. Raises ConfigInvalid, allocating nothing, if no t_max within
    _MAX_NODES nodes meets _TAIL_TOL or the stack of P D passes the byte cap.
    """
    scale = math.sqrt(long_run_variance_exact(model) * n)
    t_max = _T_MIN
    while (tail := _tail_bound(model, n, scale, t_max)) > _TAIL_TOL:
        t_max *= 2.0
        if t_max / _PANEL_WIDTH * _PANEL_NODES > _MAX_NODES:
            raise ConfigInvalid(f"exact clt at n={n}: the Gil-Pelaez tail bound {tail:.3g} stays "
                                f"above {_TAIL_TOL:g} within {_MAX_NODES} quadrature nodes")
    x, w = _PANEL_RULE
    left = np.arange(0.0, t_max, _PANEL_WIDTH)[:, None]
    nodes = (left + 0.5 * _PANEL_WIDTH * (x + 1.0)).ravel()
    t = np.concatenate([nodes, np.asarray(t_grid, dtype=np.float64)])
    exact.require_bytes(len(t) * model.n_states**2 * 16, f"exact clt at n={n}: a complex stack")
    s = t / scale
    d = model.emissions.cf_matrix(s) * np.exp(-1j * mixture_mean(model) * s)[:, None]
    g = exact.transfer(model.stationary(), [d, np.ones(model.n_states)],
                       [(model.chain.p * d[:, None, :], n - 1)]) - np.exp(-0.5 * t * t)
    cf_distance = float(np.max(np.abs(g[len(nodes):])))
    a = np.tile(0.5 * _PANEL_WIDTH * w, len(left)) * g[: len(nodes)] / (math.pi * nodes)
    # Node k moves F - Phi by at most |a_k|: drop last nodes moving it 1e-15 in all.
    keep = np.count_nonzero(np.cumsum(np.abs(a[::-1]))[::-1] > 1e-15)
    nodes, a = nodes[:keep], a[:keep]

    def cdf_gap(xs):
        xt = np.multiply.outer(xs, nodes)
        return np.sin(xt) @ a.real - np.cos(xt) @ a.imag

    xs = np.linspace(-_X_END, _X_END, _X_POINTS)
    ys = np.abs(cdf_gap(xs))
    for _ in range(2):
        peaks = np.flatnonzero((ys[1:-1] >= ys[:-2]) & (ys[1:-1] >= ys[2:])) + 1
        top = peaks[np.argsort(ys[peaks], kind="stable")[-4:]]
        fine = np.concatenate([np.empty(0)] + [np.linspace(xs[i - 1], xs[i + 1], 21) for i in top])
        order = np.argsort(np.concatenate([xs, fine]), kind="stable")
        xs = np.concatenate([xs, fine])[order]
        ys = np.concatenate([ys, np.abs(cdf_gap(fine))])[order]
    return _ExactDistances(float(ys.max()), cf_distance, cdf_gap, t_max, tail)


@dataclass(frozen=True)
class ConvergenceReport:
    """Exact distances to the normal law over a grid of sequence lengths.

    ks_distance and cf_distance are for (S_n - n mu) / (normalizer sqrt(n)),
    normalizer the exact long-run sd sigma, and variance_ratio_exact is
    Var(S_n) / (n sigma^2), which tends to 1; its distance from 1 is
    finite-n bias.
    """

    n_grid: tuple[int, ...]
    ks_distance: tuple[float, ...]
    cf_distance: tuple[float, ...]
    lindeberg_values: NDArray[np.float64]
    normalizer: float
    eta_grid: tuple[float, ...]
    variance_ratio_exact: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if any(not 0.0 <= v <= 1.0 for v in self.ks_distance):
            raise ValueError("KS distances must lie in [0, 1]")
        if any(not v > 0.0 for v in self.variance_ratio_exact):
            raise ValueError("variance ratios must be positive")

    def to_json_dict(self) -> dict:
        out = {k: list(v) if isinstance(v, tuple) else v for k, v in vars(self).items()}
        out["lindeberg_values"] = np.asarray(self.lindeberg_values).tolist()
        return out


def clt_convergence(
    model: ModelSpec,
    n_grid,
    t_grid=(0.5, 1.0, 2.0),
    eta_grid=(0.1, 0.5, 1.0),
) -> ConvergenceReport:
    """Exact distance of normalized stationary sums to the standard normal law.

    Per n, the KS distance and the worst cf distance over t_grid of
    (S_n - n mu) / (sigma sqrt(n)), sigma the exact long-run sd (see
    _exact_distances), and the exact Lindeberg grid. Nothing is sampled.
    """
    lindeberg = lindeberg_check(model, n_grid, eta_grid)
    n_grid = lindeberg.n_grid
    distances = [_exact_distances(model, n, t_grid) for n in n_grid]
    variance = long_run_variance_exact(model)
    return ConvergenceReport(
        n_grid=n_grid,
        ks_distance=tuple(d.ks for d in distances),
        cf_distance=tuple(d.cf_distance for d in distances),
        lindeberg_values=lindeberg.values,
        normalizer=math.sqrt(variance),
        eta_grid=lindeberg.eta_grid,
        variance_ratio_exact=tuple(sum_variance_exact(model, n) / (n * variance) for n in n_grid),
    )
