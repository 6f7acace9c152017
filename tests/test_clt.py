"""Tests for block decomposition, remainder and Lindeberg diagnostics,
long-run variance, and the convergence report."""

import json
import math
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import LengthMismatch, block_sums
from regimeclt import clt as clt_mod
from regimeclt import process
from regimeclt.chain import TransitionMatrix
from regimeclt.clt import (
    _TAIL_TOL,
    _X_END,
    BlockDecomposition,
    ConvergenceReport,
    clt_convergence,
    decompose,
    lindeberg_check,
    long_run_variance_exact,
    remainder_diagnostic,
    sum_variance_exact,
    _exact_distances,
)
from regimeclt.errors import ConfigInvalid
from regimeclt.process import (
    EmissionSpec,
    Gaussian,
    ModelSpec,
    ShiftedExponential,
    Uniform,
    iter_path_chunks,
    mixture_mean,
    sample_path,
)
from regimeclt.seeds import SeedSpec
from tests_support import random_chain_pool


class TestDecompose:
    def test_reference_example(self):
        d = decompose(1000, 0.25, 2)
        assert (d.k, d.nu, d.block_length, d.p) == (5, 200, 3, 400)
        assert d.block_ranges[0] == (1, 3)
        assert d.block_ranges[1] == (6, 8)
        assert d.block_ranges[-1] == (996, 998)
        np.testing.assert_array_equal(oracles.remainder_indices(d)[:4], [4, 5, 9, 10])

    def test_handmade_small_case(self):
        d = decompose(100, 0.25, 1)
        assert (d.k, d.nu, d.block_length) == (3, 33, 2)
        assert d.p == 33 + 1  # one trailing index beyond the last window
        assert oracles.remainder_indices(d)[-1] == 100

    @pytest.mark.parametrize("n,expected_k", [(4096, 8), (81, 3), (16, 2), (10_000, 10)])
    def test_power_floor_snaps_exact_roots(self, n, expected_k):
        # n**0.25 can land a hair under the exact integer root.
        assert decompose(n, 0.25, 1).k == expected_k

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(min_value=20, max_value=1_000_000),
        alpha_exp=st.floats(min_value=0.08, max_value=0.25),
        m_frac=st.floats(min_value=0.0, max_value=0.999),
    )
    def test_partition_property(self, n, alpha_exp, m_frac):
        k = int(math.floor(n**alpha_exp + 1e-9))
        if k < 2:
            return
        m = max(1, min(k - 1, int(1 + m_frac * (k - 1))))
        d = decompose(n, alpha_exp, m)
        lo, hi = np.array(d.block_ranges, dtype=np.int64).reshape(-1, 2).T
        assert (hi - lo + 1 == d.k - d.m).all()
        # Blocks covering each index: +1 at every lo, -1 past every hi.
        steps = np.zeros(n + 2, dtype=np.int64)
        np.add.at(steps, lo, 1)
        np.add.at(steps, hi + 1, -1)
        covers = np.cumsum(steps)[: n + 1]
        assert covers.max() <= 1
        remainder = oracles.remainder_indices(d)
        assert not covers[remainder].any()
        seen = covers > 0
        seen[remainder] = True
        assert seen[1:].all()
        assert d.p == d.m * d.nu + (d.n - d.k * d.nu) == len(remainder)

    @pytest.mark.parametrize("n", [16, 20, 97, 100, 1000, 4096, 10_007, 65_536])
    @pytest.mark.parametrize("alpha_exp", [0.08, 0.125, 0.2, 0.25])
    def test_matches_window_loop(self, n, alpha_exp):
        k = int(math.floor(n**alpha_exp + 1e-9))
        for m in range(1, k):
            d = decompose(n, alpha_exp, m)
            ranges, remainder = oracles.block_partition_loop(n, d.k, m)
            assert d.k == k and d.block_ranges == ranges
            assert all(type(v) is int for pair in d.block_ranges for v in pair)
            assert oracles.remainder_indices(d).dtype == np.int64
            np.testing.assert_array_equal(oracles.remainder_indices(d), remainder)
            assert d.p == len(remainder)

    def test_argument_errors(self):
        with pytest.raises(ValueError):
            decompose(3, 0.25, 1)
        with pytest.raises(ValueError):
            decompose(100, 0.0, 1)
        with pytest.raises(ValueError):
            decompose(100, 0.3, 1)
        with pytest.raises(ValueError):
            decompose(100, 0.25, 0)
        with pytest.raises(ValueError, match="does not fit"):
            decompose(100, 0.25, 3)

    def test_record_rejects_bad_partition(self):
        # The record holds (n, alpha_exp, m, k, nu) and derives the rest, so
        # it refuses a block count other than n // k and a gap outside [1, k).
        assert BlockDecomposition(n=10, alpha_exp=0.25, m=1, k=2, nu=5).p == 5
        for fields in (dict(m=1, k=2, nu=4), dict(m=1, k=2, nu=6), dict(m=0, k=2, nu=5),
                       dict(m=2, k=2, nu=5), dict(m=3, k=3, nu=3)):
            with pytest.raises(ValueError):
                BlockDecomposition(n=10, alpha_exp=0.25, **fields)


class TestBlockSums:
    def test_reconstruction(self):
        rng = np.random.default_rng(44)
        for n in (100, 1000, 35_000):
            x = rng.normal(size=n)
            d = decompose(n, 0.25, 1)
            blocks, remainder = block_sums(x, d)
            assert blocks.shape == (d.nu,)
            total = blocks.sum() + remainder
            assert abs(total - x.sum()) <= 1e-9 * max(1.0, abs(x.sum()))

    def test_values_by_hand(self):
        d = decompose(100, 0.25, 1)
        x = np.arange(1.0, 101.0)
        blocks, remainder = block_sums(x, d)
        assert blocks[0] == 1.0 + 2.0
        assert blocks[1] == 4.0 + 5.0
        assert remainder == float(sum(range(3, 101, 3)) + 100)

    def test_single_index_blocks(self):
        d = decompose(100, 0.25, 2)
        assert d.block_length == 1
        x = np.arange(1.0, 101.0)
        blocks, _ = block_sums(x, d)
        # Blocks keep only the first index of each window: 1, 4, 7, ...
        np.testing.assert_array_equal(blocks, np.arange(1.0, 98.5, 3.0))

    def test_path_sample_input(self, bench_model):
        path = sample_path(bench_model, 256, SeedSpec(9))
        d = decompose(256, 0.25, 1)
        blocks, remainder = block_sums(path, d)
        expected = block_sums(path.observations, d)
        np.testing.assert_array_equal(blocks, expected[0])
        assert remainder == expected[1]

    def test_length_mismatch(self):
        d = decompose(100, 0.25, 1)
        with pytest.raises(LengthMismatch):
            block_sums(np.ones(99), d)


class TestRemainderDiagnostic:
    def test_iid_second_moment_oracle(self, iid_model):
        # For iid standard normal values the remainder is a sum of p
        # independent terms, so E[(Z / sqrt(n))^2] = p / n.
        d = decompose(4096, 0.25, 2)
        rep = oracles.remainder_diagnostic_mc(iid_model, d, replicates=600, seed=SeedSpec(15, 1))
        assert rep.p == d.p
        assert abs(rep.estimate - d.p / d.n) <= 4 * rep.std_error
        assert rep.abs_third_moment == pytest.approx(2.0 * math.sqrt(2.0 / math.pi), rel=1e-12)
        assert rep.bound == pytest.approx(d.p**2 * rep.abs_third_moment**2 / d.n, rel=1e-12)
        assert rep.estimate < rep.bound

    def test_share_shrinks_with_n(self, iid_model):
        small = oracles.remainder_diagnostic_mc(
            iid_model, decompose(256, 0.25, 1), replicates=400, seed=SeedSpec(15, 2)
        )
        large = oracles.remainder_diagnostic_mc(
            iid_model, decompose(4096, 0.25, 1), replicates=400, seed=SeedSpec(15, 3)
        )
        assert large.estimate < small.estimate

    def test_argument_errors(self, iid_model):
        d = decompose(64, 0.25, 1)
        with pytest.raises(ValueError):
            oracles.remainder_diagnostic_mc(iid_model, d)
        with pytest.raises(ValueError):
            oracles.remainder_diagnostic_mc(iid_model, d, replicates=1, seed=SeedSpec(1))

    def test_exact_iid_is_p_var_over_n(self):
        model = ModelSpec(TransitionMatrix(np.array([[1.0]])), EmissionSpec((Gaussian(0.5, 1.7),)))
        for n, m in ((256, 1), (4096, 2), (60_000, 3)):
            d = decompose(n, 0.25, m)
            rep = remainder_diagnostic(model, d)
            assert (rep.n, rep.p) == (n, d.p)
            assert rep.second_moment == pytest.approx(d.p * 1.7**2 / n, rel=1e-14)
            assert rep.bound == pytest.approx(d.p**2 * rep.abs_third_moment**2 / n, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        chain_index=st.integers(min_value=0, max_value=19),
        n=st.integers(min_value=16, max_value=400),
        alpha_exp=st.floats(min_value=0.15, max_value=0.25),
        m_frac=st.floats(min_value=0.0, max_value=0.999),
    )
    def test_exact_matches_pair_sum(self, chain_index, n, alpha_exp, m_frac):
        k = int(math.floor(n**alpha_exp + 1e-9))
        if k < 2:
            return
        m = max(1, min(k - 1, int(1 + m_frac * (k - 1))))
        rows = _REMAINDER_CHAINS[chain_index]
        size = rows.shape[0]
        comps = tuple(Gaussian(1.3 * j - size / 2.0, 0.4 + 0.2 * j) for j in range(size))
        model = ModelSpec(TransitionMatrix(rows), EmissionSpec(comps))
        d = decompose(n, alpha_exp, m)
        expected = oracles.remainder_second_moment_pairs(model, oracles.remainder_indices(d), n)
        got = remainder_diagnostic(model, d).second_moment
        assert got == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("n,m", [(16, 1), (100, 2), (1_601, 3), (16_000, 2), (1_000_003, 4)])
    def test_closed_form_matches_the_walk(self, bench_model, workload_model, n, m):
        # The affine-map power against the index-by-index walk it replaced.
        d = decompose(n, 0.25, m)
        for model in (bench_model, workload_model):
            expected = oracles.remainder_second_moment_walk(model, d)
            assert remainder_diagnostic(model, d).second_moment == pytest.approx(expected, rel=1e-12)

    def test_builds_no_index_array(self, workload_model):
        # At n = 10^9 the remainder has 1.1e7 indices (89 MB as int64); the
        # closed form holds a few (N + 2)-square matrices.
        d = decompose(10**9, 0.25, 2)
        assert d.p > 10**7
        tracemalloc.start()
        try:
            rep = remainder_diagnostic(workload_model, d)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000
        smaller = remainder_diagnostic(workload_model, decompose(10**6, 0.25, 2))
        assert 0.0 < rep.second_moment < smaller.second_moment

    def test_monte_carlo_oracle_agrees_on_slow_chain(self):
        # The three-state chain of the long-paths benchmark (second eigenvalue
        # modulus about 0.906), one emission of each family.
        rows = np.array([[0.93, 0.05, 0.02], [0.04, 0.93, 0.03], [0.03, 0.04, 0.93]])
        comps = (Gaussian(-1.5, 1.0), Uniform(-0.5, 1.5), ShiftedExponential(1.0, 1.0))
        model = ModelSpec(TransitionMatrix(rows), EmissionSpec(comps))
        d = decompose(16_000, 0.25, 2)
        exact = remainder_diagnostic(model, d)
        assert (d.k, d.p) == (11, 2914)
        assert exact.second_moment == pytest.approx(1.4623753134535, abs=1e-9)
        mc = oracles.remainder_diagnostic_mc(model, d, replicates=400, seed=SeedSpec(15, 4))
        assert exact.bound == mc.bound
        assert abs(mc.estimate - exact.second_moment) <= 4 * mc.std_error


_REMAINDER_CHAINS = random_chain_pool(20, seed=707, n_max=6)


@pytest.fixture(scope="module")
def workload_model() -> ModelSpec:
    # The three-state model of bench/workloads.py: one emission of each family.
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    import workloads

    return ModelSpec.from_json_dict(workloads.THREE_STATE_MODEL)


def _tail_quad(component, lo: float, hi: float, center: float, a: float) -> float:
    """int (x - center)^2 pdf(x) over {|x - center| > a} within [lo, hi], by quad.

    The integral is split at the support ends, the two thresholds and the
    component mean, so every piece is smooth and wholly in or out of the tail.
    """
    from scipy import integrate

    cuts = sorted({lo, hi, center - a, center + a, component.mean})
    cuts = [lo] + [c for c in cuts if lo < c < hi] + [hi]
    total = 0.0
    for x1, x2 in zip(cuts, cuts[1:]):
        if x2 <= center - a or x1 >= center + a:
            total += integrate.quad(lambda x: (x - center) ** 2 * float(component.pdf(x)), x1, x2,
                                    epsabs=0.0, epsrel=1e-13, limit=200)[0]
    return total


_TAIL_CASES = [
    (Gaussian(0.5, 1.3), -math.inf, math.inf, (-3.0, 0.5, 2.0), (0.0, 0.4, 3.0, 8.0)),
    (Uniform(-1.0, 2.0), -1.0, 2.0, (-3.0, -1.0, 0.3, 2.0, 4.0), (0.0, 0.5, 1.7, 3.5, 10.0)),
    (ShiftedExponential(0.7, 1.0), 1.0, math.inf, (-1.0, 1.0, 1.5, 4.0), (0.0, 0.3, 2.0, 6.0)),
]


class TestLindeberg:
    @pytest.mark.parametrize("component,lo,hi,centers,thresholds", _TAIL_CASES)
    def test_tail_second_moment_matches_quadrature(self, component, lo, hi, centers, thresholds):
        for center in centers:
            for a in thresholds:
                expected = _tail_quad(component, lo, hi, center, a)
                got = component.tail_second_moment(center, a)
                assert got == pytest.approx(expected, rel=1e-12, abs=0.0), (center, a)

    def test_gaussian_far_tail_matches_norm_sf(self):
        from scipy import stats

        comp = Gaussian(0.5, 1.3)
        for center, a in ((0.2, 14.0), (-2.0, 30.0), (3.0, 60.0)):
            expected = 0.0
            for d in (comp.mu - center, center - comp.mu):
                z = (a - d) / comp.sigma
                assert z > 10.0
                expected += ((comp.sigma**2 + d * d) * stats.norm.sf(z)
                             + comp.sigma * (a + d) * stats.norm.pdf(z))
            assert comp.tail_second_moment(center, a) == pytest.approx(expected, rel=1e-12)

    def test_zero_threshold_is_variance_ratio(self, bench_model, uniform_model, workload_model):
        for model in (bench_model, uniform_model, workload_model):
            rep = lindeberg_check(model, (1, 10), (0.0,))
            np.testing.assert_allclose(rep.values, 1.0, rtol=1e-12, atol=0.0)

    def test_bounded_emissions_vanish_exactly(self, uniform_model):
        rep = lindeberg_check(uniform_model, (100, 400), (0.5, 1.0))
        np.testing.assert_array_equal(rep.values, np.zeros((2, 2)))

    def test_strictly_decreasing_in_n_for_gaussian(self, bench_model):
        rep = lindeberg_check(bench_model, (10, 100, 1000), (0.1,))
        col = rep.values[:, 0]
        assert col[0] > col[1] > col[2] > 0.0

    def test_matches_gaussian_mixture_closed_form(self, bench_model):
        pi = bench_model.stationary()
        means = bench_model.emissions.means()
        sds = np.sqrt(bench_model.emissions.variances())
        # (100, 1.5) puts both tails of both components past z = 10.
        rep = lindeberg_check(bench_model, (25, 100), (0.3, 1.5))
        for i, n in enumerate(rep.n_grid):
            for j, eta in enumerate(rep.eta_grid):
                threshold = eta * rep.normalizer * math.sqrt(n)
                expected = oracles.mixture_lindeberg_sum_gaussian(pi, means, sds, threshold)
                assert rep.values[i, j] == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("name", ["bench_model", "uniform_model", "workload_model"])
    def test_agrees_with_monte_carlo_oracle(self, name, request):
        # Thresholds reach 3 sigma, so every cell but the uniform model's
        # beyond-support ones has sampled tail mass; those are 0 both ways.
        model = request.getfixturevalue(name)
        n_grid, eta_grid = (1, 4, 9), (0.0, 0.5, 1.0)
        exact = lindeberg_check(model, n_grid, eta_grid)
        mc = oracles.lindeberg_mc(model, n_grid, eta_grid, replicates=1_500_000,
                                  seed=SeedSpec(21, 5))
        assert exact.normalizer == mc.normalizer
        assert np.all((mc.values > 0.0) | (exact.values == 0.0))
        assert np.all(np.abs(exact.values - mc.values) <= 4.0 * mc.std_errors)

    def test_workload_grid_nonincreasing_in_n_and_eta(self, workload_model):
        rep = lindeberg_check(workload_model, (1000, 4000, 16000), (0.1, 0.5, 1.0))
        assert np.all(np.diff(rep.values, axis=0) <= 0.0)
        assert np.all(np.diff(rep.values, axis=1) <= 0.0)
        assert rep.values[0, 0] == pytest.approx(0.0525015, rel=1e-6)
        assert rep.values[2, 0] == pytest.approx(1.338e-7, rel=1e-3)

    def test_draws_nothing(self, bench_model, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("lindeberg_check drew a sample")

        monkeypatch.setattr(SeedSpec, "block_rng", refuse)
        lindeberg_check(bench_model, (10, 100), (0.1, 0.5))

    def test_argument_errors(self, bench_model):
        with pytest.raises(ValueError):
            lindeberg_check(bench_model, (0,), (0.1,))
        for eta in (-0.1, math.inf, math.nan):
            with pytest.raises(ValueError):
                lindeberg_check(bench_model, (10,), (eta,))
        with pytest.raises(TypeError):
            lindeberg_check(bench_model, (10,), (0.1,), seed=SeedSpec(1))


class TestLongRunVariance:
    def test_benchmark_closed_form(self, bench_model):
        assert long_run_variance_exact(bench_model) == pytest.approx(163.0 / 27.0, abs=1e-12)

    def test_iid_is_marginal_variance(self, iid_model):
        assert long_run_variance_exact(iid_model) == pytest.approx(1.0, abs=1e-14)

    def test_matches_series_oracle(self, bench_model, uniform_model):
        for model in (bench_model, uniform_model):
            expected = oracles.long_run_variance_series(
                model.stationary(),
                model.chain.p,
                model.emissions.means(),
                model.emissions.variances(),
            )
            assert long_run_variance_exact(model) == pytest.approx(expected, rel=1e-10)

    def test_matches_series_on_random_chains(self):
        for rows in random_chain_pool(10, seed=606, n_max=6):
            n = rows.shape[0]
            comps = tuple(Gaussian(float(j) - n / 2.0, 0.5 + 0.1 * j) for j in range(n))
            model = ModelSpec(TransitionMatrix(rows), EmissionSpec(comps))
            expected = oracles.long_run_variance_series(
                model.stationary(), rows, model.emissions.means(), model.emissions.variances()
            )
            assert long_run_variance_exact(model) == pytest.approx(expected, rel=1e-9)


class TestSumVarianceExact:
    @pytest.mark.parametrize("n", [1, 10, 100, 1000])
    def test_matches_autocovariance_loop(self, n, bench_model, uniform_model):
        models = [bench_model, uniform_model]
        for rows in random_chain_pool(5, seed=808, n_max=6):
            size = rows.shape[0]
            comps = tuple(Gaussian(float(j) - size / 2.0, 0.5 + 0.1 * j) for j in range(size))
            models.append(ModelSpec(TransitionMatrix(rows), EmissionSpec(comps)))
        for model in models:
            expected = oracles.sum_variance_loop(model, n)
            assert sum_variance_exact(model, n) == pytest.approx(expected, rel=1e-12)

    def test_iid_is_n_times_variance(self, iid_model):
        assert sum_variance_exact(iid_model, 777) == pytest.approx(777.0, rel=1e-15)

    def test_per_step_variance_tends_to_long_run_variance(self, bench_model):
        lrv = long_run_variance_exact(bench_model)
        errors = [abs(sum_variance_exact(bench_model, n) / n - lrv) for n in (100, 1000, 10_000)]
        # The finite-n bias is -2 sum_{s<n} s gamma(s) / n - 2 sum_{s>=n} gamma(s),
        # and gamma(s) decays like 0.7^s: past n = 100 it falls tenfold per
        # tenfold n.
        for a, b in zip(errors, errors[1:]):
            assert b == pytest.approx(a / 10.0, rel=1e-9)
        assert errors[-1] < 1e-3 * lrv

    def test_argument_errors(self, bench_model):
        with pytest.raises(ValueError):
            sum_variance_exact(bench_model, 0)


class TestBatchMeans:
    # The batch-means estimator the exact normalizer replaced, kept as the
    # Monte Carlo oracle tests/oracles.py::long_run_std_batch_means.
    def test_batch_length(self, bench_model, iid_model):
        assert oracles.batch_length_for(bench_model) == 167
        assert oracles.batch_length_for(iid_model) == 50

    def test_estimates_long_run_std(self, bench_model):
        sigma = math.sqrt(long_run_variance_exact(bench_model))
        est = oracles.long_run_std_batch_means(bench_model, SeedSpec(30, 1), batches=400)
        # Finite batches bias the variance down a percent or two; the
        # sampling error dominates at 400 batches.
        assert abs(est - sigma) / sigma < 0.15

    def test_iid_unit_variance(self, iid_model):
        est = oracles.long_run_std_batch_means(iid_model, SeedSpec(30, 2), batches=400)
        assert abs(est - 1.0) < 0.15

    def test_deterministic_in_seed(self, bench_model):
        a = oracles.long_run_std_batch_means(bench_model, SeedSpec(30, 3), batches=50)
        b = oracles.long_run_std_batch_means(bench_model, SeedSpec(30, 3), batches=50)
        assert a == b

    def test_batches_validation(self, bench_model):
        with pytest.raises(ValueError):
            oracles.long_run_std_batch_means(bench_model, SeedSpec(1), batches=1)


class TestKsDistance:
    # The sample KS distance is the Monte Carlo oracle's, in tests/oracles.py.
    def test_matches_textbook_oracle(self):
        from scipy import special

        values = np.random.default_rng(50).normal(0.2, 1.3, size=3_000)
        got = oracles.ks_distance_to_std_normal(values)
        expected = oracles.ks_distance_sorted(values, special.ndtr)
        assert got == pytest.approx(expected, abs=1e-15)

    def test_matches_scipy_kstest(self):
        from scipy import stats

        values = np.random.default_rng(51).normal(size=2_500)
        got = oracles.ks_distance_to_std_normal(values)
        assert got == pytest.approx(stats.kstest(values, "norm").statistic, rel=1e-12)

    def test_standard_normal_sample_is_close(self):
        values = np.random.default_rng(52).standard_normal(10_000)
        assert oracles.ks_distance_to_std_normal(values) < 0.02

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            oracles.ks_distance_to_std_normal([])


class TestConvergenceReport:
    def test_validation(self):
        with pytest.raises(ValueError):
            ConvergenceReport(
                n_grid=(10,), ks_distance=(1.5,), cf_distance=(0.1,),
                lindeberg_values=np.zeros((1, 1)), normalizer=1.0,
                eta_grid=(0.1,), variance_ratio_exact=(1.0,),
            )
        for ratio in (0.0, math.nan):
            with pytest.raises(ValueError):
                ConvergenceReport(
                    n_grid=(10,), ks_distance=(0.5,), cf_distance=(0.1,),
                    lindeberg_values=np.zeros((1, 1)), normalizer=1.0,
                    eta_grid=(0.1,), variance_ratio_exact=(ratio,),
                )

    def test_json_dict_is_serializable(self, iid_model):
        rep = clt_convergence(iid_model, (16, 64))
        text = json.dumps(rep.to_json_dict())
        again = json.loads(text)
        assert again["n_grid"] == [16, 64]
        assert len(again["ks_distance"]) == 2
        assert len(again["lindeberg_values"]) == 2

    def test_exact_variance_ratio_uses_the_report_normalizer(self, bench_model):
        rep = clt_convergence(bench_model, (16, 256, 4096))
        lrv = long_run_variance_exact(bench_model)
        assert rep.normalizer == math.sqrt(lrv)
        expected = [sum_variance_exact(bench_model, n) / (n * lrv) for n in rep.n_grid]
        assert rep.to_json_dict()["variance_ratio_exact"] == expected
        # Var(S_n) / (n sigma^2) -> 1; the distance is finite-n bias.
        gaps = [abs(r - 1.0) for r in rep.variance_ratio_exact]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-3


class TestCltConvergence:
    # The sampled estimator that the exact route replaced, kept as the Monte
    # Carlo oracle tests/oracles.py::clt_convergence_mc.
    def test_iid_sums_are_already_normal(self, iid_model):
        rep = oracles.clt_convergence_mc(
            iid_model, (8, 64), replicates=2_000, seed=SeedSpec(61, 1), batches=400,
        )
        # Normalized iid Gaussian sums are exactly standard normal up to the
        # estimated normalizer, so only sampling noise remains.
        assert max(rep.ks_distance) < 0.06
        for ratio in rep.variance_ratio:
            assert abs(ratio - 1.0) < 0.2
        assert max(rep.cf_distance) < 0.1

    def test_deterministic_in_seed(self, bench_model):
        kwargs = dict(n_grid=(16,), replicates=200, seed=SeedSpec(61, 2), batches=60)
        a = oracles.clt_convergence_mc(bench_model, **kwargs)
        b = oracles.clt_convergence_mc(bench_model, **kwargs)
        assert a.to_json_dict() == b.to_json_dict()

    def test_matches_prefix_sums_of_one_path_set(self, bench_model):
        # Every n is the prefix of one set of max(n_grid)-step stationary
        # paths on stream offset 2; the pilot normalizer is on offset 1.
        from scipy import stats

        n_grid, replicates, seed, t_grid = (5, 40, 17, 40), 300, SeedSpec(61, 3), (0.5, 1.0, 2.0)
        rep = oracles.clt_convergence_mc(bench_model, n_grid, replicates=replicates,
                                         t_grid=t_grid, seed=seed, batches=60)
        assert rep.normalizer == oracles.long_run_std_batch_means(bench_model, seed.child(1),
                                                                  batches=60)
        chunks = iter_path_chunks(bench_model.stationary_start(), max(n_grid), replicates,
                                  seed.child(2))
        prefix = np.cumsum(np.concatenate([obs for _start, _states, obs in chunks]), axis=1)
        mu = mixture_mean(bench_model)
        for i, n in enumerate(n_grid):
            y = (prefix[:, n - 1] - mu * n) / (rep.normalizer * math.sqrt(n))
            cf = max(abs(np.mean(np.exp(1j * t * y)) - math.exp(-0.5 * t * t)) for t in t_grid)
            assert rep.ks_distance[i] == pytest.approx(stats.kstest(y, "norm").statistic, rel=1e-12)
            assert rep.cf_distance[i] == pytest.approx(cf, rel=1e-12)
            assert rep.variance_ratio[i] == pytest.approx(np.var(y, ddof=1), rel=1e-12)

    def test_cells_do_not_depend_on_grid_order_or_repeats(self, bench_model):
        kwargs = dict(replicates=200, seed=SeedSpec(61, 4), batches=60)
        base = oracles.clt_convergence_mc(bench_model, (8, 32, 128), **kwargs)
        other = oracles.clt_convergence_mc(bench_model, (128, 8, 32, 8, 128), **kwargs)

        def cells(rep):
            return [(n, rep.ks_distance[i], rep.cf_distance[i], rep.variance_ratio[i],
                     rep.variance_ratio_exact[i], rep.lindeberg_values[i].tolist())
                    for i, n in enumerate(rep.n_grid)]

        at_n = {cell[0]: cell for cell in cells(base)}
        assert cells(other) == [at_n[n] for n in other.n_grid]

    def test_argument_errors(self, bench_model, monkeypatch):
        # The sampled oracle needs a seed; the exact route takes none.
        with pytest.raises(ValueError):
            oracles.clt_convergence_mc(bench_model, (16,))

        def refuse(*args, **kwargs):
            raise AssertionError("clt_convergence drew before refusing its arguments")

        # Each refusal comes before any draw; one replicate has no sample variance.
        monkeypatch.setattr(SeedSpec, "block_rng", refuse)
        for kwargs in (dict(n_grid=(0,)), dict(n_grid=(16,), eta_grid=(-0.1,))):
            with pytest.raises(ValueError):
                clt_convergence(bench_model, **kwargs)
            with pytest.raises(ValueError):
                oracles.clt_convergence_mc(bench_model, seed=SeedSpec(1), **kwargs)
        for kwargs in (dict(n_grid=(16, 64), replicates=1), dict(n_grid=(16,), replicates=0)):
            with pytest.raises(ValueError):
                oracles.clt_convergence_mc(bench_model, seed=SeedSpec(1), **kwargs)
        # The exact route samples nothing, so it takes no seed and no count.
        for kwargs in (dict(seed=SeedSpec(1)), dict(batches=2_000), dict(replicates=2_000),
                       dict(lindeberg_replicates=1_000)):
            with pytest.raises(TypeError):
                clt_convergence(bench_model, (16,), **kwargs)


def _benchmark_clt_model() -> ModelSpec:
    path = Path(__file__).resolve().parents[1] / "scenarios" / "benchmark_clt.json"
    return ModelSpec.from_json_dict(json.loads(path.read_text())["model"])


def _cf_by_recursion(model, n: int, t) -> np.ndarray:
    """cf of (S_n - n mu) / (sigma sqrt(n)) by n single transfer steps."""
    t = np.asarray(t, dtype=np.float64)
    s = t / math.sqrt(long_run_variance_exact(model) * n)
    shift = np.exp(-1j * s * mixture_mean(model))
    d = np.stack([np.array([complex(c.cf(v)) for v in s]) * shift
                  for c in model.emissions.components], axis=1)
    v = model.stationary() * d
    for _ in range(n - 1):
        v = (v @ model.chain.p) * d
    return v.sum(axis=1)


def _finer_rule(monkeypatch, model, n, t_grid, width_factor: float, t_min: float):
    """_exact_distances with panels width_factor times as wide and T from t_min."""
    with monkeypatch.context() as patch:
        patch.setattr(clt_mod, "_PANEL_WIDTH", clt_mod._PANEL_WIDTH * width_factor)
        patch.setattr(clt_mod, "_T_MIN", t_min)
        return _exact_distances(model, n, t_grid)


class TestCltExact:
    T_GRID = (0.5, 1.0, 2.0)

    def test_long_paths_values(self, workload_model, monkeypatch):
        # The long-paths workload's n; values by Gil-Pelaez on the exact cf.
        from scipy import optimize

        expected_ks = (9.434e-4, 2.777e-4, 9.880e-5)
        expected_cf = (2.38e-3, 6.43e-4, 2.61e-4)
        for n, ks, cf in zip((1000, 4000, 16000), expected_ks, expected_cf):
            got = _exact_distances(workload_model, n, self.T_GRID)
            assert f"{got.ks:.3e}" == f"{ks:.3e}"
            assert f"{got.cf_distance:.2e}" == f"{cf:.2e}"
            # An independent sup: a bounded scalar search of |F - Phi| on a
            # finer rule, started from a dense scan.
            fine = _finer_rule(monkeypatch, workload_model, n, self.T_GRID, 0.25, 160.0)
            xs = np.linspace(-6.0, 6.0, 6001)
            i = int(np.argmax(np.abs(fine.cdf_gap(xs))))
            best = optimize.minimize_scalar(lambda x: -abs(float(fine.cdf_gap(np.array([x]))[0])),
                                            bounds=(xs[i - 1], xs[i + 1]), method="bounded",
                                            options={"xatol": 1e-10})
            assert got.ks == pytest.approx(-best.fun, rel=1e-6)

    def test_cf_matches_step_by_step_recursion(self, workload_model, uniform_model):
        for model, n in ((workload_model, 1000), (uniform_model, 300)):
            expected = _cf_by_recursion(model, n, self.T_GRID)
            got = _exact_distances(model, n, self.T_GRID).cf_distance
            assert got == pytest.approx(np.max(np.abs(expected - np.exp(-0.5 * np.square(self.T_GRID)))),
                                        rel=1e-9)

    @pytest.mark.parametrize("name,n_grid", [("bench_model", (4, 100, 1600)),
                                             ("uniform_model", (10, 1000)),
                                             ("workload_model", (1000, 4000, 16000))])
    def test_doubling_panels_and_range_keeps_the_values(self, name, n_grid, request, monkeypatch):
        model = request.getfixturevalue(name)
        for n in n_grid:
            base = _exact_distances(model, n, self.T_GRID)
            double = _finer_rule(monkeypatch, model, n, self.T_GRID, 0.5, 2 * base.t_max)
            assert abs(base.ks - double.ks) <= 1e-9
            assert abs(base.cf_distance - double.cf_distance) <= 1e-12

    def test_uniform_cf_stays_stable_at_a_million(self, uniform_model, monkeypatch):
        def shift(model):
            base = _exact_distances(model, 10**6, self.T_GRID)
            double = _finer_rule(monkeypatch, model, 10**6, self.T_GRID, 0.5, 2 * base.t_max)
            return abs(base.ks - double.ks)

        assert shift(uniform_model) <= 1e-9

        def difference_quotient(self, t):
            t = np.asarray(t, dtype=np.float64)
            return (np.exp(1j * t * self.b) - np.exp(1j * t * self.a)) / (1j * t * (self.b - self.a))

        # The quotient loses about eps / t per factor near t = 0, and the
        # millionth power multiplies that loss: the same check fails.
        monkeypatch.setattr(Uniform, "cf", difference_quotient)
        assert shift(uniform_model) > 1e-9

    @pytest.mark.parametrize("name,n_grid", [("bench_model", (4, 100, 1600)),
                                             ("uniform_model", (1000, 10**6)),
                                             ("workload_model", (20, 1000, 16000))])
    def test_tail_beyond_the_rule_is_bounded(self, name, n_grid, request):
        from scipy import integrate

        model = request.getfixturevalue(name)
        for n in n_grid:
            got = _exact_distances(model, n, self.T_GRID)
            scale = math.sqrt(long_run_variance_exact(model) * n)

            def integrand(t):
                moduli = [abs(complex(c.cf(t / scale))) for c in model.emissions.components]
                return max(moduli) ** n / t

            edges = got.t_max * 2.0 ** np.arange(0, 41)
            tail = sum(integrate.quad(integrand, a, b, limit=200, epsabs=0.0, epsrel=1e-8)[0]
                       for a, b in zip(edges[:-1], edges[1:])) / math.pi
            assert tail <= got.tail <= _TAIL_TOL

    @pytest.mark.parametrize("name,n_grid", [("bench_model", (4, 100, 1600)),
                                             ("uniform_model", (10, 1000)),
                                             ("workload_model", (1000, 4000, 16000))])
    def test_grid_ends_bound_the_distance_outside_the_grid(self, name, n_grid, request):
        # For x < -x0, |F - Phi| <= max(F(-x0), Phi(-x0)), and for x > x0,
        # |F - Phi| <= max(1 - F(x0), Phi(-x0)).
        model = request.getfixturevalue(name)
        x0 = _X_END
        phi = float(process._ndtr(-x0))
        for n in n_grid:
            got = _exact_distances(model, n, self.T_GRID)
            gap_lo, gap_hi = got.cdf_gap(np.array([-x0, x0]))
            assert max(phi + gap_lo, phi - gap_hi, phi) <= got.ks

    def test_report_and_draws(self, workload_model, monkeypatch):
        # No stream is drawn: the normalizer is the exact long-run sd.
        streams = []
        real = SeedSpec.block_rng

        def recording(self, *args, **kwargs):
            streams.append((self, args))
            return real(self, *args, **kwargs)

        monkeypatch.setattr(SeedSpec, "block_rng", recording)
        rep = clt_convergence(workload_model, (1000, 4000, 16000))
        assert streams == []
        assert rep.normalizer == math.sqrt(long_run_variance_exact(workload_model))
        assert rep.normalizer == 6.161818117921668
        assert rep.ks_distance == tuple(_exact_distances(workload_model, n, (0.5, 1.0, 2.0)).ks
                                        for n in (1000, 4000, 16000))
        assert all(b < a for a, b in zip(rep.ks_distance, rep.ks_distance[1:]))

    def test_runs_with_the_sampler_refusing(self, workload_model, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("clt_convergence sampled")

        expected = clt_convergence(workload_model, (1000, 4000))
        monkeypatch.setattr(process, "iter_path_chunks", refuse)
        monkeypatch.setattr(SeedSpec, "block_rng", refuse)
        assert not hasattr(clt_mod, "iter_path_chunks")
        got = clt_convergence(workload_model, (1000, 4000))
        assert got.to_json_dict() == expected.to_json_dict()

    def test_three_long_paths_n_take_under_50ms_warm(self, workload_model):
        def run():
            start = time.perf_counter()
            for n in (1000, 4000, 16000):
                _exact_distances(workload_model, n, self.T_GRID)
            return time.perf_counter() - start

        run()
        assert min(run() for _ in range(5)) <= 0.05

    def test_stack_over_the_byte_cap_is_refused_before_allocation(self, monkeypatch):
        # 460 states: 320 nodes of 460 x 460 complex entries pass 2^30 bytes.
        rng = np.random.default_rng(64)
        rows = rng.dirichlet(np.ones(460), size=460)
        model = ModelSpec(TransitionMatrix(rows / rows.sum(axis=1, keepdims=True)),
                          EmissionSpec(tuple(Gaussian(float(m), 1.0) for m in rng.normal(size=460))))
        model.stationary()

        def refuse(*args, **kwargs):
            raise AssertionError("drew before refusing the exact clt")

        monkeypatch.setattr(SeedSpec, "block_rng", refuse)
        tracemalloc.start()
        try:
            with pytest.raises(ConfigInvalid, match="byte cap"):
                clt_convergence(model, (100,))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_unmet_tail_bound_is_refused_before_drawing(self, monkeypatch):
        # One exponential observation: |phi(s)| ~ 1 / s, so the tail bound
        # falls only as 1 / T and no node budget meets it.
        model = ModelSpec(TransitionMatrix(np.array([[1.0]])),
                          EmissionSpec((ShiftedExponential(1.0),)))

        def refuse(*args, **kwargs):
            raise AssertionError("drew before refusing the exact clt")

        monkeypatch.setattr(SeedSpec, "block_rng", refuse)
        with pytest.raises(ConfigInvalid, match="tail bound"):
            clt_convergence(model, (1,))
        # Twenty observations meet it.
        assert _exact_distances(model, 20, self.T_GRID).tail <= _TAIL_TOL

    def test_monte_carlo_oracle_agrees(self):
        # The sampled estimator, normalized by the exact sigma, against the
        # exact values: KS within the DKW bound at level 1e-6, cf within 4 SE.
        model = _benchmark_clt_model()
        n_grid, replicates = (100, 400, 1600), 10_000
        sigma = math.sqrt(long_run_variance_exact(model))
        mc = oracles.clt_convergence_mc(model, n_grid, replicates=replicates,
                                        seed=SeedSpec(20260817, 4), normalizer=sigma)
        dkw = math.sqrt(math.log(2.0 / 1e-6) / (2.0 * replicates))
        se = 1.0 / math.sqrt(replicates)
        for i, n in enumerate(n_grid):
            exact = _exact_distances(model, n, (0.5, 1.0, 2.0))
            assert abs(mc.ks_distance[i] - exact.ks) <= dkw
            assert abs(mc.cf_distance[i] - exact.cf_distance) <= 4.0 * se
