"""Tests of the benchmark's oracles against closed forms.

Run with `python -m pytest bench/test_oracle.py`. The two-state gaussian
model P = [[0.9, 0.1], [0.2, 0.8]], emissions N(-1, 1) and N(1, 1), has
pi = (2/3, 1/3), second eigenvalue alpha = 0.7, mixing prefactor c = 2/3
(P^s - 1 pi = 0.7^s (I - 1 pi)), autocovariances gamma_s = (8/9) 0.7^s for
s >= 1, Var(X) = 17/9 and long-run variance 17/9 + 2 (8/9)(7/3) = 163/27.
"""

import itertools
import math

import numpy as np
import pytest

import oracle
import workloads

MODEL = workloads.TWO_STATE_MODEL
P = oracle.transition(MODEL)
PI = oracle.stationary(P)


def test_stationary_law():
    np.testing.assert_allclose(PI, [2.0 / 3.0, 1.0 / 3.0], rtol=0, atol=1e-15)


def test_mixing_profile():
    # Beyond s ~ 20 the fitted ratio gap / alpha^s carries the round-off of a
    # gap near 1e-8; s <= 10 keeps it at the 1e-14 level.
    alpha, c = oracle.mixing_profile(P, 10)
    assert alpha == pytest.approx(0.7, abs=1e-14)
    assert c == pytest.approx(2.0 / 3.0, rel=1e-12)


def test_long_run_variance():
    assert oracle.mixture_mean_var(MODEL) == pytest.approx((-1.0 / 3.0, 17.0 / 9.0), rel=1e-14)
    assert oracle.long_run_variance(MODEL) == pytest.approx(163.0 / 27.0, rel=1e-13)


@pytest.mark.parametrize("b", [1, 2, 10, 500])
def test_batch_means_expectation(b):
    closed = 17.0 / 9.0 + 2.0 * sum((1.0 - s / b) * (8.0 / 9.0) * 0.7**s for s in range(1, b))
    assert oracle.batch_means_expectation(MODEL, b) == pytest.approx(closed, rel=1e-13)
    assert oracle.batch_means_expectation(MODEL, 10**4) == pytest.approx(163.0 / 27.0, rel=1e-3)


def test_joint_cf_gap_matches_path_enumeration():
    lags = [5, 5]
    p5 = np.linalg.matrix_power(P, 5)
    for t in (0.5, 1.0, 2.0):
        phi = np.exp(1j * np.array([-1.0, 1.0]) * t - 0.5 * t * t)
        joint = sum(
            PI[a] * phi[a] * p5[a, b] * phi[b] * p5[b, c] * phi[c]
            for a, b, c in itertools.product(range(2), repeat=3)
        )
        expected = abs(joint - (PI @ phi) ** 3)
        assert oracle.joint_cf_gap(MODEL, lags, t) == pytest.approx(expected, rel=1e-12)


def test_conditional_gap_closed_form():
    # A = B = {regime 1}: P(S_tau = 1 | S_0 = 1) - pi_1 = (1 - pi_1) 0.7^tau.
    w = oracle.event_weights(MODEL, (frozenset({1}), -math.inf, math.inf))
    for tau in (1, 3, 10):
        gap = oracle.conditional_gap(PI, P, w, w, tau)
        assert gap == pytest.approx(0.7**tau / 3.0, rel=1e-12)


def test_mixture_quantile_inverts_the_cdf():
    for q in (0.1, 0.5, 0.9):
        x = oracle.mixture_quantile(MODEL, q)
        cdf = sum(w * oracle._law(e).cdf(x) for w, e in zip(PI, MODEL["emissions"]))
        assert cdf == pytest.approx(q, abs=1e-13)


def test_max_family_gap_matches_enumeration():
    family = oracle.event_family(MODEL, [0.3, 0.7])
    weights = np.stack([oracle.event_weights(MODEL, ev) for ev in family])
    marg = weights @ PI
    lags = [1, 2, 1]
    powers = [np.linalg.matrix_power(P, t) for t in lags]
    best = 0.0
    for tup in itertools.product(range(len(family)), repeat=len(lags) + 1):
        v = PI * weights[tup[0]]
        for pt, b in zip(powers, tup[1:]):
            v = (v @ pt) * weights[b]
        best = max(best, abs(v.sum() - np.prod(marg[list(tup)])))
    assert oracle.max_family_gap(PI, P, weights, lags) == pytest.approx(best, rel=1e-12)


def test_short_paths_check_flags_a_cf_gap_outside_its_error():
    scenario = workloads.short_paths(1)
    params = scenario["params"]
    family = oracle.event_family(MODEL, params["quantile_levels"])
    weights = np.stack([oracle.event_weights(MODEL, ev) for ev in family])
    mu, var = oracle.mixture_mean_var(MODEL)
    radius = abs(mu) + math.sqrt(var / params["eta"])
    rows = [{"section": "cf_gap", "label": f"t={t!r}", "value": oracle.joint_cf_gap(MODEL, [5, 5], t),
             "std_error": 1e-3, "bound": 1.0} for t in params["t_grid"]]
    for t in params["t_grid"]:
        cells = math.ceil(2.0 * radius / (params["eta"] / (abs(t) + 1.0)))
        rows.append({"section": "step", "label": f"t={t!r} cells={cells}",
                     "value": 0.5 * abs(t) * radius / cells, "std_error": None, "bound": params["eta"]})
    report = {"results": {"epsilon_hat": oracle.max_family_gap(PI, P, weights, [5, 5]),
                          "truncation_radius": radius}}
    assert oracle.check_short_paths(scenario, report, rows) == []
    # The band is 7 SE = 7e-3: 6e-3 off stays inside it, 8e-3 off does not.
    rows[1]["value"] += 6e-3
    assert oracle.check_short_paths(scenario, report, rows) == []
    rows[1]["value"] += 2e-3
    assert len(oracle.check_short_paths(scenario, report, rows)) == 1
    report["results"]["epsilon_hat"] *= 1.0 + 1e-6
    assert len(oracle.check_short_paths(scenario, report, rows)) == 2


def test_long_paths_check_flags_a_bad_normalizer_and_partition():
    scenario = workloads.long_paths(1)
    model = scenario["model"]
    report = {"results": {
        "normalizer": math.sqrt(oracle.long_run_variance(model)),
        "convergence": {"n_grid": [1000, 4000, 16000], "eta_grid": [0.1, 0.5, 1.0],
                        "lindeberg_values": [[0.05, 0.0, 0.0], [0.001, 0.0, 0.0], [0.0, 0.0, 0.0]]},
        "block": {"n": 16000, "k": 11, "nu": 1454, "m": 2, "p": 2914},
    }}
    assert oracle.check_long_paths(scenario, report, []) == []
    # A squared normalizer 20% off is outside 5 sampling SEs (15.8%).
    expected = oracle.batch_means_expectation(model, 533)
    report["results"]["normalizer"] = math.sqrt(1.2 * expected)
    assert len(oracle.check_long_paths(scenario, report, [])) == 1
    report["results"]["normalizer"] = math.sqrt(1.1 * expected)
    assert oracle.check_long_paths(scenario, report, []) == []
    report["results"]["normalizer"] *= 1.5
    report["results"]["block"]["p"] += 1
    report["results"]["convergence"]["lindeberg_values"][2][0] = 0.01
    assert len(oracle.check_long_paths(scenario, report, [])) == 3
