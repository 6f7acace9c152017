"""Correctness oracles for the benchmark, computed apart from the program.

Everything here is written with numpy and scipy from the scenario document
alone; nothing imports regimeclt. Each `check_*` function takes the scenario
the benchmark generated, the run's report.json and tables.csv rows, and
returns a list of human-readable mismatches (empty when the outputs are
correct). Exact quantities are compared to round-off; Monte Carlo quantities
to a stated number of their standard errors.
"""

from __future__ import annotations

import csv
import io
import math
import re

import numpy as np
from scipy import optimize, stats

# Exact values are compared to this absolute tolerance. The program and the
# oracle solve for quantile thresholds separately (brentq to 1e-12 in the
# program), so agreement is to round-off of the thresholds, not to the ulp.
EXACT_ATOL = 1e-9
# Monte Carlo cf gaps must lie within this many reported standard errors of
# the exact value. The band is wide because the cf gap at t = 2 is about 3e-4
# exactly, so its estimate is mostly the |.| of noise: over 40 seeds its mean
# distance was 1.7 SE and the largest 4.2 SE (the other rows stayed within
# 3.1 SE).
MC_SE_MULTIPLE = 7.0
# The squared normalizer must lie within this many of its sampling SEs of the
# batch-means estimator's exact mean; over 20 seeds of the long-paths
# workload it stayed within 1.8 SE.
NORMALIZER_SE_MULTIPLE = 5.0
# Mixing-profile gaps at or below this level are round-off and are not fitted.
GAP_NOISE_FLOOR = 1e-13
DECILES = tuple(round(0.1 * i, 1) for i in range(1, 10))


# ---------------------------------------------------------------------------
# the model: chain, emissions, stationary law
# ---------------------------------------------------------------------------


def transition(model: dict) -> np.ndarray:
    return np.asarray(model["chain"]["rows"], dtype=np.float64)


def stationary(p: np.ndarray) -> np.ndarray:
    """pi from pi (I - P + 1 1^T) = 1^T, the fundamental-matrix identity."""
    n = p.shape[0]
    pi = np.linalg.solve((np.eye(n) - p + np.ones((n, n))).T, np.ones(n))
    return pi / pi.sum()


def fundamental_matrix(p: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """Z = (I - P + 1 pi)^-1 = sum_{s>=0} (P - 1 pi)^s."""
    n = p.shape[0]
    return np.linalg.inv(np.eye(n) - p + np.outer(np.ones(n), pi))


def mixing_profile(p: np.ndarray, s_max: int) -> tuple[float, float]:
    """(alpha, c): second eigenvalue modulus and the smallest c with
    max_ij |(P^s)_ij - pi_j| <= c alpha^s on s = 1..s_max."""
    pi = stationary(p)
    moduli = np.sort(np.abs(np.linalg.eigvals(p)))[::-1]
    alpha = float(moduli[1]) if p.shape[0] > 1 else 0.0
    c = 0.0
    power = np.eye(p.shape[0])
    for s in range(1, s_max + 1):
        power = power @ p
        gap = float(np.max(np.abs(power - pi)))
        if gap > GAP_NOISE_FLOOR:
            c = max(c, gap / alpha**s)
    return alpha, c


def _law(emission: dict):
    family = emission["family"]
    if family == "gaussian":
        return stats.norm(loc=emission["mu"], scale=emission["sigma"])
    if family == "uniform":
        return stats.uniform(loc=emission["a"], scale=emission["b"] - emission["a"])
    if family == "shifted_exponential":
        return stats.expon(loc=emission.get("shift", 0.0), scale=1.0 / emission["rate"])
    raise ValueError(f"unknown emission family {family!r}")


def component_cf(emission: dict, t: float) -> complex:
    """Closed-form characteristic function of one emission at t."""
    family = emission["family"]
    if family == "gaussian":
        mu, sigma = emission["mu"], emission["sigma"]
        return complex(np.exp(1j * mu * t - 0.5 * (sigma * t) ** 2))
    if family == "uniform":
        a, b = emission["a"], emission["b"]
        if t == 0.0:
            return 1.0 + 0.0j
        return complex((np.exp(1j * t * b) - np.exp(1j * t * a)) / (1j * t * (b - a)))
    if family == "shifted_exponential":
        rate, shift = emission["rate"], emission.get("shift", 0.0)
        return complex(np.exp(1j * t * shift) * rate / (rate - 1j * t))
    raise ValueError(f"unknown emission family {family!r}")


def regime_moments(model: dict) -> tuple[np.ndarray, np.ndarray]:
    laws = [_law(e) for e in model["emissions"]]
    return np.array([law.mean() for law in laws]), np.array([law.var() for law in laws])


def mixture_mean_var(model: dict) -> tuple[float, float]:
    pi = stationary(transition(model))
    means, variances = regime_moments(model)
    mu = float(pi @ means)
    return mu, float(pi @ (variances + (means - mu) ** 2))


def mixture_quantile(model: dict, q: float) -> float:
    pi = stationary(transition(model))
    laws = [_law(e) for e in model["emissions"]]
    lo = min(law.ppf(1e-12) for law in laws) - 1.0
    hi = max(law.ppf(1.0 - 1e-12) for law in laws) + 1.0
    return float(optimize.brentq(
        lambda x: sum(w * law.cdf(x) for w, law in zip(pi, laws)) - q, lo, hi, xtol=1e-14
    ))


# ---------------------------------------------------------------------------
# rectangle events: (regime set, lo, hi) with the interval (lo, hi]
# ---------------------------------------------------------------------------


def event_family(model: dict, levels) -> list[tuple[frozenset, float, float]]:
    """The documented reference family: per-regime half-lines at the
    stationary-mixture quantiles, a full line per regime, the full space."""
    n = len(model["emissions"])
    thresholds = [mixture_quantile(model, q) for q in levels]
    events = []
    for j in range(1, n + 1):
        events += [(frozenset({j}), -math.inf, thr) for thr in thresholds]
        events.append((frozenset({j}), -math.inf, math.inf))
    events.append((frozenset(range(1, n + 1)), -math.inf, math.inf))
    return events


def event_weights(model: dict, event) -> np.ndarray:
    """P(regime in set and X in (lo, hi] | regime = j) for every j."""
    states, lo, hi = event
    out = np.zeros(len(model["emissions"]))
    for j, emission in enumerate(model["emissions"], start=1):
        if j in states:
            law = _law(emission)
            out[j - 1] = max(float(law.cdf(hi)) - float(law.cdf(lo)), 0.0)
    return out


_EVENT_RE = re.compile(r"^states\(([\d,]+)\)x\(([^,]+),([^\]]+)\]$")


def parse_event(text: str) -> tuple[frozenset, float, float]:
    match = _EVENT_RE.match(text)
    if not match:
        raise ValueError(f"cannot parse event {text!r}")
    states = frozenset(int(s) for s in match.group(1).split(","))
    return states, float(match.group(2)), float(match.group(3))


def same_event(a, b) -> bool:
    return a[0] == b[0] and all(
        x == y or abs(x - y) <= 1e-9 * (1.0 + abs(x)) for x, y in ((a[1], b[1]), (a[2], b[2]))
    )


def conditional_gap(pi, p, w_target, w_given, tau: int) -> float:
    """|P(A at T+tau | B at T) - P(A)| under the stationary law."""
    pt = np.eye(len(pi))
    for _ in range(tau):
        pt = pt @ p
    p_b = float(pi @ w_given)
    return abs(float((pi * w_given) @ pt @ w_target) / p_b - float(pi @ w_target))


def max_family_gap(pi, p, weights: np.ndarray, lags) -> float:
    """max over all tuples of |P(joint) - product of marginals|.

    Evaluated backwards: suffix[rest, s] is the probability of the trailing
    events given the regime s at the current event, so the tuples sharing a
    leading event are scored in one matrix-vector product.
    """
    b = weights.shape[0]
    marg = weights @ pi
    powers = [np.linalg.matrix_power(p, int(t)) for t in lags]
    suffix = weights.copy()  # (B, N): last event
    suffix_marg = marg.copy()
    for pt in reversed(powers[1:]):
        # (B_prev, N) x (B^r, N) -> (B_prev * B^r, N)
        ahead = suffix @ pt.T  # (B^r, N): E[trailing | regime at previous event]
        suffix = (weights[:, None, :] * ahead[None, :, :]).reshape(-1, weights.shape[1])
        suffix_marg = np.multiply.outer(marg, suffix_marg).reshape(-1)
    ahead = suffix @ powers[0].T
    best = 0.0
    for b0 in range(b):
        joint = ahead @ (pi * weights[b0])
        best = max(best, float(np.max(np.abs(joint - marg[b0] * suffix_marg))))
    return best


def joint_cf_gap(model: dict, lags, t: float) -> float:
    """|E exp(it(X_1+...+X_k)) - prod E exp(it X_r)| by transfer matrices:
    pi D(t) P^l1 D(t) ... D(t) 1 with D(t) = diag(phi_j(t))."""
    p = transition(model)
    pi = stationary(p)
    d = np.array([component_cf(e, t) for e in model["emissions"]])
    v = pi * d
    for lag in lags:
        v = (v @ np.linalg.matrix_power(p, int(lag))) * d
    marginal = complex(pi @ d)
    return abs(complex(v.sum()) - marginal ** (len(lags) + 1))


# ---------------------------------------------------------------------------
# long-run variance
# ---------------------------------------------------------------------------


def long_run_variance(model: dict) -> float:
    """Var(X) + 2 sum_{s>=1} Cov(X_0, X_s) = Var(X) + 2 (pi c)^T (Z - I) c,
    with c the centered regime means and Z the fundamental matrix."""
    p = transition(model)
    pi = stationary(p)
    means, _ = regime_moments(model)
    mu, var = mixture_mean_var(model)
    c = means - mu
    z = fundamental_matrix(p, pi)
    return var + 2.0 * float((pi * c) @ (z - np.eye(len(pi))) @ c)


def batch_means_expectation(model: dict, batch_len: int) -> float:
    """E[b Var(batch mean)] for independent stationary batches of length b:
    gamma_0 + 2 sum_{s=1}^{b-1} (1 - s/b) gamma_s."""
    p = transition(model)
    pi = stationary(p)
    means, _ = regime_moments(model)
    mu, var = mixture_mean_var(model)
    c = means - mu
    total = var
    ahead = c.copy()
    for s in range(1, batch_len):
        ahead = p @ ahead
        total += 2.0 * (1.0 - s / batch_len) * float((pi * c) @ ahead)
    return total


# ---------------------------------------------------------------------------
# per-workload checks
# ---------------------------------------------------------------------------


def _rows(rows, section):
    return [r for r in rows if r["section"] == section]


def _close(a: float, b: float, atol: float = EXACT_ATOL) -> bool:
    return abs(a - b) <= atol


def check_short_paths(scenario: dict, report: dict, rows: list[dict]) -> list[str]:
    """cf_gap: certificate by brute force, MC cf gaps against transfer
    matrices, step approximations within eta."""
    errors: list[str] = []
    model, params = scenario["model"], scenario["params"]
    results = report["results"]
    p = transition(model)
    pi = stationary(p)
    lags = params["lags"]
    weights = np.stack([event_weights(model, ev) for ev in event_family(model, params["quantile_levels"])])
    eps = max_family_gap(pi, p, weights, lags)
    if not _close(results["epsilon_hat"], eps):
        errors.append(f"epsilon_hat {results['epsilon_hat']!r} != brute force {eps!r}")

    cf_rows = _rows(rows, "cf_gap")
    if len(cf_rows) != len(params["t_grid"]):
        errors.append(f"{len(cf_rows)} cf_gap rows for {len(params['t_grid'])} t values")
    for row, t in zip(cf_rows, params["t_grid"]):
        exact = joint_cf_gap(model, lags, t)
        if abs(row["value"] - exact) > MC_SE_MULTIPLE * row["std_error"]:
            errors.append(f"cf_gap t={t}: MC {row['value']!r} vs exact {exact!r} "
                          f"(SE {row['std_error']!r})")

    mu, var = mixture_mean_var(model)
    eta = params["eta"]
    radius = abs(mu) + math.sqrt(var) / math.sqrt(eta)
    if not _close(results["truncation_radius"], radius, 1e-9 * radius):
        errors.append(f"truncation radius {results['truncation_radius']!r} != {radius!r}")
    step_rows = _rows(rows, "step")
    if len(step_rows) != len(params["t_grid"]):
        errors.append(f"{len(step_rows)} step rows for {len(params['t_grid'])} t values")
    for row, t in zip(step_rows, params["t_grid"]):
        cells = max(1, math.ceil(2.0 * radius / (eta / (abs(t) + 1.0))))
        midpoint_error = abs(t) * radius / cells  # |t| * half a cell width
        if row["label"] != f"t={t!r} cells={cells}":
            errors.append(f"step row {row['label']!r}, expected {cells} cells at t={t}")
        if not row["value"] <= min(eta, midpoint_error + 1e-12):
            errors.append(f"step t={t}: sup error {row['value']!r} exceeds eta {eta}")
    return errors


def check_long_paths(scenario: dict, report: dict, rows: list[dict]) -> list[str]:
    """clt: normalizer against the exact long-run variance, Lindeberg grid
    monotone, blocks plus remainder partition 1..n."""
    errors: list[str] = []
    model, params = scenario["model"], scenario["params"]
    results = report["results"]
    conv = results["convergence"]

    # The normalizer is a batch-means estimate from `batches` independent
    # stationary batches of length b = max(50, ceil(50 / (1 - alpha))). Its
    # square is b times a sample variance of near-normal batch means: mean
    # batch_means_expectation(b), which differs from the long-run variance
    # only by the finite-batch bias, and relative SD sqrt(2 / (batches - 1)).
    alpha, _ = mixing_profile(transition(model), 2)
    batch_len = max(50, math.ceil(50.0 / max(1.0 - alpha, 1e-6)))
    expected = batch_means_expectation(model, batch_len)
    sampling = NORMALIZER_SE_MULTIPLE * math.sqrt(2.0 / (params["batches"] - 1)) * expected
    got = results["normalizer"] ** 2
    if abs(got - expected) > sampling:
        errors.append(f"normalizer^2 {got!r} vs batch-means mean {expected!r} "
                      f"(long-run variance {long_run_variance(model)!r}, allowance {sampling!r})")

    values = np.asarray(conv["lindeberg_values"])
    if list(conv["n_grid"]) != sorted(conv["n_grid"]) or list(conv["eta_grid"]) != sorted(conv["eta_grid"]):
        errors.append("n_grid and eta_grid must be ascending for the monotonicity check")
    if np.any(np.diff(values, axis=0) > 0.0) or np.any(np.diff(values, axis=1) > 0.0):
        errors.append(f"Lindeberg grid is not nonincreasing in n and eta: {values.tolist()}")

    block = results["block"]
    n, m = max(params["n_grid"]), params["m"]
    k = 1
    while (k + 1) ** 4 <= n:  # floor(n^(1/4)) in integer arithmetic
        k += 1
    if params["alpha_exp"] != 0.25:
        errors.append("the partition check assumes quarter-power blocks")
    # nu blocks of k - m indices, each followed by a gap of m, and a final
    # stub of n - nu k in the remainder: with p = m nu + (n - nu k), the
    # reported record satisfies p + nu (k - m) = n, so blocks plus remainder
    # partition 1..n.
    nu = n // k
    p_count = m * nu + (n - nu * k)
    if block != {"n": n, "k": k, "nu": nu, "m": m, "p": p_count}:
        errors.append(f"block {block} != expected n={n} k={k} nu={nu} m={m} p={p_count}")
    return errors


def check_exact_gaps(scenario: dict, report: dict, rows: list[dict]) -> list[str]:
    """independence: every conditional and joint row and the certificate
    against independent recomputation."""
    errors: list[str] = []
    model, params = scenario["model"], scenario["params"]
    results = report["results"]
    p = transition(model)
    pi = stationary(p)
    lags = params["lags"]
    tau_grid = params["tau_grid"]
    alpha, c = mixing_profile(p, max(max(tau_grid), sum(lags), 2))

    family = event_family(model, params["quantile_levels"])
    weights = {ev: event_weights(model, ev) for ev in family}
    conds = [ev for ev in family if float(pi @ weights[ev]) > 0.0]
    targets = [ev for ev in family if len(ev[0]) == 1]
    expected = [(tau, a, b) for tau in tau_grid for a in targets for b in conds]
    cond_rows = _rows(rows, "conditional")
    if len(cond_rows) != len(expected):
        errors.append(f"{len(cond_rows)} conditional rows, expected {len(expected)}")
    row_re = re.compile(r"^tau=(\d+) target=(\S+) given=(\S+)$")
    for row, (tau, target, given) in zip(cond_rows, expected):
        match = row_re.match(row["label"])
        if not (match and int(match.group(1)) == tau
                and same_event(parse_event(match.group(2)), target)
                and same_event(parse_event(match.group(3)), given)):
            errors.append(f"conditional row {row['label']!r} is not (tau={tau}, {target}, {given})")
            continue
        gap = conditional_gap(pi, p, weights[target], weights[given], tau)
        if not _close(row["value"], gap):
            errors.append(f"conditional {row['label']}: {row['value']!r} != {gap!r}")
        bound = 2.0 * c * alpha**tau
        if not _close(row["bound"], bound, 1e-9 * bound):
            errors.append(f"conditional {row['label']}: bound {row['bound']!r} != {bound!r}")

    joint_rows = _rows(rows, "joint")
    if len(joint_rows) != len(targets):
        errors.append(f"{len(joint_rows)} joint rows, expected {len(targets)}")
    for row, target in zip(joint_rows, targets):
        w = weights[target]
        v = pi * w
        for lag in lags:
            v = (v @ np.linalg.matrix_power(p, lag)) * w
        gap = abs(float(v.sum()) - float(pi @ w) ** (len(lags) + 1))
        if not _close(row["value"], gap):
            errors.append(f"joint {row['label']}: {row['value']!r} != {gap!r}")

    deciles = np.stack([event_weights(model, ev) for ev in event_family(model, DECILES)])
    eps = max_family_gap(pi, p, deciles, lags)
    if not _close(results["epsilon_hat"], eps):
        errors.append(f"epsilon_hat {results['epsilon_hat']!r} != independent max {eps!r}")
    return errors


CHECKS = {
    "short-paths": check_short_paths,
    "long-paths": check_long_paths,
    "exact-gaps": check_exact_gaps,
}


def read_rows(text: str) -> list[dict]:
    """tables.csv rows with numeric value, std_error and bound (None if blank)."""
    out = []
    for rec in csv.DictReader(io.StringIO(text)):
        out.append({
            "section": rec["section"],
            "label": rec["label"],
            "value": float(rec["value"]),
            "std_error": float(rec["std_error"]) if rec["std_error"] else None,
            "bound": float(rec["bound"]) if rec["bound"] else None,
        })
    return out
