"""Acceptance gate: eight end-to-end criteria, one verdict line each.

Run with `pytest -v -s tests/test_acceptance.py` to see every verdict line.
Criterion 2 is expected to fail: the multiplicative joint-gap envelope
k c alpha^(sum lags) is measurably violated by exact gaps at wide spacings
(the chained envelope 2 c sum alpha^tau_r holds everywhere and is what the
runner certifies). The test states the counterexample rather than hiding it.
"""

import json
import math
import time

import numpy as np
import pytest

import oracles
from oracles import block_sums
from regimeclt.charfn import build_step_approximation, cf_factorization_gap, truncation_radius
from regimeclt.chain import TransitionMatrix, mixing_rate
from regimeclt.clt import (
    clt_convergence,
    decompose,
    lindeberg_check,
    remainder_diagnostic,
)
from regimeclt.independence import (
    RectEvent,
    chained_gap_bound,
    conditional_gap_matrix,
    default_event_family,
    epsilon_certificate,
)
from regimeclt.process import EmissionSpec, Gaussian, ModelSpec
from regimeclt.runner import Scenario, load_scenario, run_scenario
from regimeclt.seeds import SeedSpec
from tests_support import random_chain_pool

SEED_BASE = 20260817


def _verdict(num: int, description: str, ok: bool, detail: str = "") -> str:
    state = "PASS" if ok else "FAIL"
    line = f"[criterion {num}] {description}: {state}"
    if detail:
        line += f" -- {detail}"
    print(line)
    return line


def _gaussian_model(rows: np.ndarray) -> ModelSpec:
    n = rows.shape[0]
    comps = tuple(Gaussian(1.5 * j - 0.75 * (n - 1), 0.7 + 0.15 * j) for j in range(n))
    return ModelSpec(TransitionMatrix(rows), EmissionSpec(comps))


def test_criterion_1_mixing_envelope():
    """Certified geometric envelopes cover every recorded lag on 50 chains.

    The two-state reference chain additionally satisfies the envelope with
    equality at every lag: gap(s) = (2/3) 0.7^s exactly.
    """
    start = time.monotonic()
    violations = 0
    for rows in random_chain_pool(50, seed=SEED_BASE + 1, n_min=2, n_max=8):
        prof = mixing_rate(TransitionMatrix(rows), s_max=50)
        assert 0.0 <= prof.alpha < 1.0
        for s, gap in prof.gaps:
            if gap > prof.bound(s) + 1e-12:
                violations += 1

    bench = mixing_rate(TransitionMatrix(np.array([[0.9, 0.1], [0.2, 0.8]])), s_max=50)
    exact = (abs(bench.alpha - 0.7) < 1e-12
             and abs(bench.c - 2.0 / 3.0) < 1e-6
             and all(abs(gap - (2.0 / 3.0) * 0.7**s) < 1e-12 for s, gap in bench.gaps))
    elapsed = time.monotonic() - start
    ok = violations == 0 and exact and elapsed < 10.0
    _verdict(1, "mixing envelope on 50 random ergodic chains, lags 1..50",
             ok, f"{violations} violation(s), benchmark exact: {exact}, {elapsed:.2f}s")
    assert violations == 0
    assert exact
    assert elapsed < 10.0


def test_criterion_2_multiplicative_joint_envelope():
    """Exact joint-product gaps against k c alpha^(sum lags); known to fail.

    The tightest counterexample on the benchmark model: three pure-regime
    events spaced (10, 10) have an exact gap about 2.7 times the envelope.
    Every measured gap still sits below the chained envelope, which the
    library certifies instead.
    """
    models = [
        ModelSpec(
            TransitionMatrix(np.array([[0.9, 0.1], [0.2, 0.8]])),
            EmissionSpec((Gaussian(-1.0, 1.0), Gaussian(1.0, 1.0))),
        )
    ]
    models += [_gaussian_model(rows) for rows in
               random_chain_pool(9, seed=SEED_BASE + 2, n_min=2, n_max=4)]
    lag_sets = [(5, 5), (6, 6), (9, 1), (10, 10), (3, 3, 3)]
    violations = []
    chained_violations = 0
    for mi, model in enumerate(models):
        prof = mixing_rate(model.chain, s_max=40)
        for lags in lag_sets:
            k = len(lags) + 1
            eps = epsilon_certificate(model, lags)
            envelope = k * prof.c * prof.alpha ** sum(lags)
            if eps > envelope + 1e-12:
                violations.append((mi, lags, eps, envelope))
            if eps > chained_gap_bound(prof, lags) + 1e-12:
                chained_violations += 1
    assert chained_violations == 0  # sanity: the certified envelope held
    ok = not violations
    detail = f"{len(violations)} violation(s) across {len(models) * len(lag_sets)} configs"
    if violations:
        # Quote the worst case whose gap is far above round-off scale.
        solid = [v for v in violations if v[2] > 1e-9] or violations
        mi, lags, eps, envelope = max(solid, key=lambda v: v[2] / v[3])
        detail += (f"; e.g. model {mi}, lags {lags}: gap {eps:.3e} > "
                   f"envelope {envelope:.3e} (chained envelope holds everywhere)")
    _verdict(2, "multiplicative joint-gap envelope, exact gaps, k <= 4, lags <= 10",
             ok, detail)
    assert ok, detail


def test_criterion_3_conditional_gap_envelope(bench_model, uniform_model):
    """Conditional gaps of single-regime targets never exceed 2 c alpha^tau."""
    models = [bench_model, uniform_model]
    models += [_gaussian_model(rows) for rows in
               random_chain_pool(4, seed=SEED_BASE + 3, n_min=2, n_max=5)]
    checked = 0
    violations = 0
    for model in models:
        prof = mixing_rate(model.chain, s_max=30)
        family = default_event_family(model, (0.2, 0.5, 0.8))
        pi = model.stationary()
        # Conditioning on a null event is undefined; bounded emissions can
        # empty a low-quantile event for the upper regime.
        conds = [ev for ev in family if float(pi @ ev.weights(model)) > 0.0]
        targets = [ev for ev in family if len(ev.state_set) == 1]
        w_c = np.stack([ev.weights(model) for ev in conds])
        w_t = np.stack([ev.weights(model) for ev in targets])
        for tau in range(1, 31):
            gaps = conditional_gap_matrix(model, w_t, w_c, tau)
            checked += gaps.size
            violations += int(np.count_nonzero(gaps > 2.0 * prof.bound(tau) + 1e-12))
    ok = violations == 0
    _verdict(3, "conditional-gap envelope, tau = 1..30",
             ok, f"{violations} violation(s) in {checked} checks")
    assert violations == 0


def test_criterion_4_cf_factorization_bound(bench_model):
    """Characteristic-function gap within 2 eps + 4 SE; step error within eta."""
    lags = (5, 5)
    eps = epsilon_certificate(bench_model, lags)
    rep = cf_factorization_gap(
        bench_model, lags, [0.5, 1.0, 2.0], replicates=100_000,
        seed=SeedSpec(SEED_BASE, 40),
    )
    worst_margin = math.inf
    cf_ok = True
    for gap, se in zip(rep.gaps, rep.std_errors):
        margin = (2.0 * eps + 4.0 * se) - gap
        worst_margin = min(worst_margin, margin / se if se > 0 else math.inf)
        if margin < 0:
            cf_ok = False

    eta = 0.05
    radius = truncation_radius(bench_model, eta)
    rng = np.random.default_rng(SEED_BASE + 4)
    step_ok = True
    for t in (0.5, 1.0, 2.0):
        approx = build_step_approximation(t, eta, radius)
        x = rng.uniform(-radius, radius, 10_000)
        if float(np.max(np.abs(oracles.step_function(approx, x) - np.exp(1j * t * x)))) > eta:
            step_ok = False

    ok = cf_ok and step_ok
    _verdict(4, "cf factorization gap <= 2 eps + 4 SE at 100000 replicates",
             ok, f"eps={eps:.6f}, worst margin {worst_margin:.1f} SE, step check "
                 f"{'ok' if step_ok else 'failed'}")
    assert cf_ok
    assert step_ok


def test_criterion_5_normal_convergence(bench_model):
    """KS distance to the normal law shrinks along n = 100, 1000, 10000.

    The distances are exact (Gil-Pelaez inversion of the exact cf), so the
    sequence must decrease strictly, with no noise allowance.
    """
    start = time.monotonic()
    report = clt_convergence(bench_model, (100, 1000, 10_000))
    elapsed = time.monotonic() - start
    ks = report.ks_distance
    monotone = all(ks[i + 1] < ks[i] for i in range(len(ks) - 1))
    final_ok = ks[-1] < 0.02
    ok = monotone and final_ok and elapsed < 300.0
    _verdict(5, "KS distance decreasing and < 0.02 at n = 10000",
             ok, "ks = " + ", ".join(f"{v:.3e}" for v in ks) + f"; {elapsed:.1f}s")
    assert monotone, f"KS sequence {ks} is not strictly decreasing"
    assert final_ok
    assert elapsed < 300.0


def test_criterion_6_block_partition_and_remainder(iid_model):
    """1000 random decompositions partition exactly and reconstruct sums;
    the remainder share shrinks with n and stays inside its envelope."""
    rng = np.random.default_rng(SEED_BASE + 6)
    failures = 0
    for _ in range(1000):
        alpha_exp = float(rng.uniform(0.08, 0.25))
        # Keep n large enough that at least two indices fit in a block.
        n_min = int(math.ceil(2.0 ** (1.0 / alpha_exp))) + 1
        n = int(rng.integers(n_min, 60_000))
        k = int(math.floor(n**alpha_exp + 1e-9))
        m = int(rng.integers(1, k))
        d = decompose(n, alpha_exp, m)
        covered = np.zeros(n + 1, dtype=bool)
        for lo, hi in oracles.block_ranges(d):
            covered[lo : hi + 1] = True
        covered[oracles.remainder_indices(d)] = True
        if not covered[1:].all() or d.p != d.m * d.nu + d.n - d.k * d.nu:
            failures += 1
            continue
        x = rng.normal(size=n)
        blocks, remainder = block_sums(x, d)
        total = blocks.sum() + remainder
        if abs(total - x.sum()) > 1e-9 * max(1.0, abs(x.sum())):
            failures += 1

    decompositions = [decompose(n, 0.25, 1) for n in (256, 1024, 4096)]
    reports = [remainder_diagnostic(iid_model, d) for d in decompositions]
    shrinking = all(a.second_moment > b.second_moment for a, b in zip(reports, reports[1:]))
    inside = all(r.abs_third_moment >= 1.0 and r.second_moment <= r.bound for r in reports)
    estimates = [
        oracles.remainder_diagnostic_mc(iid_model, d, replicates=600,
                                        seed=SeedSpec(SEED_BASE, 60 + i))
        for i, d in enumerate(decompositions)
    ]
    agree = all(abs(e.estimate - r.second_moment) <= 4 * e.std_error
                for e, r in zip(estimates, reports))
    ok = failures == 0 and shrinking and inside and agree
    _verdict(6, "block partition/reconstruction on 1000 random cases",
             ok, f"{failures} failure(s); remainder second moments "
                 + ", ".join(f"{r.second_moment:.4f}" for r in reports)
                 + "; Monte Carlo " + ", ".join(f"{e.estimate:.4f}" for e in estimates))
    assert failures == 0
    assert shrinking
    assert inside
    assert agree


def test_criterion_7_lindeberg_behavior(bench_model, uniform_model):
    """Tail sums vanish exactly for bounded emissions and shrink with n."""
    bounded = lindeberg_check(uniform_model, (4, 100, 400), (0.1, 0.5, 1.0))
    # Observations live in [-1, 1]; beyond that radius the tail sum is 0 by
    # construction, not approximately.
    sigma = bounded.normalizer
    exact_zero = True
    positive_below = bounded.values[0, 0] > 0.0
    for i, n in enumerate(bounded.n_grid):
        for j, eta in enumerate(bounded.eta_grid):
            if eta * sigma * math.sqrt(n) > 2.0 and bounded.values[i, j] != 0.0:
                exact_zero = False

    # Gaussian tails never vanish, so every cell keeps positive mass and the
    # decrease is strict.
    gaussian = lindeberg_check(bench_model, (10, 100, 1000), (0.02, 0.05, 0.1))
    decreasing = all(
        gaussian.values[i + 1, j] < gaussian.values[i, j]
        for j in range(3) for i in range(2)
    )
    ok = exact_zero and positive_below and decreasing
    _verdict(7, "Lindeberg tail sums: exact zero when bounded, decreasing in n",
             ok, f"bounded max {bounded.values.max():.4f}, "
                 f"gaussian eta=0.02 column {gaussian.values[:, 0].round(4).tolist()}")
    assert exact_zero
    assert positive_below
    assert decreasing


def test_criterion_8_deterministic_artifacts(tmp_path):
    """Reports and tables are byte-identical across reruns and thread counts."""
    scenario = load_scenario("scenarios/benchmark_mixing.json")
    fast_cf = Scenario.from_json_dict({
        "name": "accept-cf",
        "experiment": "cf_gap",
        "model": scenario.model.to_json_dict(),
        "seed": {"base": SEED_BASE, "stream": 80},
        "params": {"lags": [3, 3], "t_grid": [0.5, 1.0], "replicates": 4000,
                   "quantile_levels": [0.25, 0.5, 0.75]},
    })
    identical = True
    for s in (scenario, fast_cf):
        runs = [
            run_scenario(s, tmp_path / f"{s.name}-{i}", threads=threads)
            for i, threads in enumerate((1, 1, 8))
        ]
        blobs = [(r.report_path.read_bytes(), r.csv_path.read_bytes()) for r in runs]
        if not all(b == blobs[0] for b in blobs[1:]):
            identical = False
        hashes = {json.loads(r.manifest_path.read_text())["scenario_hash"] for r in runs}
        if len(hashes) != 1:
            identical = False
    _verdict(8, "byte-identical report.json and tables.csv across reruns and threads",
             identical)
    assert identical
