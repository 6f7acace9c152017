"""Tests for block decomposition, remainder and Lindeberg diagnostics,
long-run variance, and the convergence report."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from regimeclt.chain import TransitionMatrix
from regimeclt.clt import (
    BlockDecomposition,
    ConvergenceReport,
    batch_length_for,
    block_sums,
    clt_convergence,
    decompose,
    ks_distance_to_std_normal,
    lindeberg_check,
    long_run_std_batch_means,
    long_run_variance_exact,
    remainder_diagnostic,
    sum_variance_exact,
)
from regimeclt.errors import GapExceedsBlock, LengthMismatch
from regimeclt.process import (
    EmissionSpec,
    Gaussian,
    ModelSpec,
    ShiftedExponential,
    Uniform,
    iter_path_chunks,
    mixture_mean,
    mixture_variance,
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
        np.testing.assert_array_equal(d.remainder_indices[:4], [4, 5, 9, 10])

    def test_handmade_small_case(self):
        d = decompose(100, 0.25, 1)
        assert (d.k, d.nu, d.block_length) == (3, 33, 2)
        assert d.p == 33 + 1  # one trailing index beyond the last window
        assert d.remainder_indices[-1] == 100

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
        assert not covers[d.remainder_indices].any()
        seen = covers > 0
        seen[d.remainder_indices] = True
        assert seen[1:].all()
        assert d.p == d.m * d.nu + (d.n - d.k * d.nu)

    @pytest.mark.parametrize("n", [16, 20, 97, 100, 1000, 4096, 10_007, 65_536])
    @pytest.mark.parametrize("alpha_exp", [0.08, 0.125, 0.2, 0.25])
    def test_matches_window_loop(self, n, alpha_exp):
        k = int(math.floor(n**alpha_exp + 1e-9))
        for m in range(1, k):
            d = decompose(n, alpha_exp, m)
            ranges, remainder = oracles.block_partition_loop(n, d.k, m)
            assert d.k == k and d.block_ranges == ranges
            assert all(type(v) is int for pair in d.block_ranges for v in pair)
            assert d.remainder_indices.dtype == np.int64
            np.testing.assert_array_equal(d.remainder_indices, remainder)

    def test_argument_errors(self):
        with pytest.raises(ValueError):
            decompose(3, 0.25, 1)
        with pytest.raises(ValueError):
            decompose(100, 0.0, 1)
        with pytest.raises(ValueError):
            decompose(100, 0.3, 1)
        with pytest.raises(ValueError):
            decompose(100, 0.25, 0)
        with pytest.raises(GapExceedsBlock):
            decompose(100, 0.25, 3)

    def test_record_rejects_bad_partition(self):
        with pytest.raises(ValueError):
            BlockDecomposition(
                n=10, alpha_exp=0.25, m=1, k=2, nu=5,
                block_ranges=tuple((i * 2 + 1, i * 2 + 1) for i in range(5)),
                remainder_indices=np.array([2, 4]),
            )


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
        expected = oracles.remainder_second_moment_pairs(model, d.remainder_indices, n)
        got = remainder_diagnostic(model, d).second_moment
        assert got == pytest.approx(expected, rel=1e-12)

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


class TestLindeberg:
    def test_zero_threshold_is_variance_ratio(self, bench_model):
        rep = lindeberg_check(
            bench_model, (10,), (0.0, 0.5), replicates=100_000, seed=SeedSpec(21, 1)
        )
        assert abs(rep.values[0, 0] - 1.0) <= 4 * rep.std_errors[0, 0]

    def test_bounded_emissions_vanish_exactly(self, uniform_model):
        rep = lindeberg_check(
            uniform_model, (100, 400), (0.5, 1.0), replicates=50_000, seed=SeedSpec(21, 2)
        )
        np.testing.assert_array_equal(rep.values, np.zeros((2, 2)))

    def test_strictly_decreasing_in_n_for_gaussian(self, bench_model):
        rep = lindeberg_check(
            bench_model, (10, 100, 1000), (0.1,), replicates=200_000, seed=SeedSpec(21, 3)
        )
        col = rep.values[:, 0]
        assert col[0] > col[1] > col[2] > 0.0

    def test_matches_gaussian_mixture_closed_form(self, bench_model):
        pi = bench_model.stationary()
        means = bench_model.emissions.means()
        sds = np.sqrt(bench_model.emissions.variances())
        rep = lindeberg_check(
            bench_model, (25,), (0.3,), replicates=400_000, seed=SeedSpec(21, 4)
        )
        threshold = 0.3 * rep.normalizer * math.sqrt(25)
        expected = oracles.mixture_lindeberg_sum_gaussian(pi, means, sds, threshold)
        assert abs(rep.values[0, 0] - expected) <= 4 * rep.std_errors[0, 0]

    def test_matches_sums_over_path_chunk_draws(self, bench_model):
        # The sample is obs[:, 0] of one-step replicates started from the
        # stationary law, whatever the model's own initial law.
        model = ModelSpec(bench_model.chain, bench_model.emissions, initial=2)
        n_grid, eta_grid, reps, seed = (1, 4, 9), (0.0, 0.3, 0.8), 3_000, SeedSpec(21, 5)
        rep = lindeberg_check(model, n_grid, eta_grid, replicates=reps, seed=seed)
        x = np.concatenate([obs[:, 0] for _start, _states, obs in iter_path_chunks(
            model.stationary_start(), 1, reps, seed)])
        dev = x - mixture_mean(model)
        var = mixture_variance(model)
        for i, n in enumerate(n_grid):
            for j, eta in enumerate(eta_grid):
                tail = np.where(np.abs(dev) > eta * math.sqrt(var * n), dev**2 / var, 0.0)
                assert rep.values[i, j] == pytest.approx(tail.mean(), rel=1e-12, abs=1e-300)
                assert rep.std_errors[i, j] == pytest.approx(tail.std() / math.sqrt(reps),
                                                             rel=1e-12, abs=1e-300)
        assert rep.values[0, 0] > rep.values[0, 1] > rep.values[2, 1] > rep.values[2, 2] > 0.0

    def test_argument_errors(self, bench_model):
        with pytest.raises(ValueError):
            lindeberg_check(bench_model, (10,), (0.1,))
        with pytest.raises(ValueError):
            lindeberg_check(bench_model, (0,), (0.1,), seed=SeedSpec(1))
        with pytest.raises(ValueError):
            lindeberg_check(bench_model, (10,), (-0.1,), seed=SeedSpec(1))


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
    def test_batch_length(self, bench_model, iid_model):
        assert batch_length_for(bench_model) == 167
        assert batch_length_for(iid_model) == 50

    def test_estimates_long_run_std(self, bench_model):
        sigma = math.sqrt(long_run_variance_exact(bench_model))
        est = long_run_std_batch_means(bench_model, SeedSpec(30, 1), batches=400)
        # Finite batches bias the variance down a percent or two; the
        # sampling error dominates at 400 batches.
        assert abs(est - sigma) / sigma < 0.15

    def test_iid_unit_variance(self, iid_model):
        est = long_run_std_batch_means(iid_model, SeedSpec(30, 2), batches=400)
        assert abs(est - 1.0) < 0.15

    def test_deterministic_in_seed(self, bench_model):
        a = long_run_std_batch_means(bench_model, SeedSpec(30, 3), batches=50)
        b = long_run_std_batch_means(bench_model, SeedSpec(30, 3), batches=50)
        assert a == b

    def test_batches_validation(self, bench_model):
        with pytest.raises(ValueError):
            long_run_std_batch_means(bench_model, SeedSpec(1), batches=1)


class TestKsDistance:
    def test_matches_textbook_oracle(self):
        from scipy import special

        values = np.random.default_rng(50).normal(0.2, 1.3, size=3_000)
        got = ks_distance_to_std_normal(values)
        expected = oracles.ks_distance_sorted(values, special.ndtr)
        assert got == pytest.approx(expected, abs=1e-15)

    def test_matches_scipy_kstest(self):
        from scipy import stats

        values = np.random.default_rng(51).normal(size=2_500)
        got = ks_distance_to_std_normal(values)
        assert got == pytest.approx(stats.kstest(values, "norm").statistic, rel=1e-12)

    def test_standard_normal_sample_is_close(self):
        values = np.random.default_rng(52).standard_normal(10_000)
        assert ks_distance_to_std_normal(values) < 0.02

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            ks_distance_to_std_normal([])


class TestConvergenceReport:
    def test_validation(self):
        with pytest.raises(ValueError):
            ConvergenceReport(
                n_grid=(10,), ks_distance=(1.5,), cf_distance=(0.1,),
                lindeberg_values=np.zeros((1, 1)), variance_ratio=(1.0,),
                replicates=10, normalizer=1.0, eta_grid=(0.1,),
            )
        with pytest.raises(ValueError):
            ConvergenceReport(
                n_grid=(10,), ks_distance=(0.5,), cf_distance=(0.1,),
                lindeberg_values=np.zeros((1, 1)), variance_ratio=(0.0,),
                replicates=10, normalizer=1.0, eta_grid=(0.1,),
            )

    def test_json_dict_is_serializable(self, iid_model):
        rep = clt_convergence(
            iid_model, (16, 64), replicates=300, seed=SeedSpec(60, 1),
            batches=100, lindeberg_replicates=10_000,
        )
        text = json.dumps(rep.to_json_dict())
        again = json.loads(text)
        assert again["n_grid"] == [16, 64]
        assert len(again["ks_distance"]) == 2
        assert len(again["lindeberg_values"]) == 2

    def test_exact_variance_ratio_uses_the_report_normalizer(self, bench_model):
        rep = clt_convergence(
            bench_model, (16, 256, 4096), replicates=50, seed=SeedSpec(60, 2),
            batches=100, lindeberg_replicates=1_000,
        )
        norm2 = rep.normalizer**2
        expected = [sum_variance_exact(bench_model, n) / (n * norm2) for n in rep.n_grid]
        assert rep.to_json_dict()["variance_ratio_exact"] == expected
        # Toward the long-run variance over the same squared normalizer.
        limit = long_run_variance_exact(bench_model) / norm2
        gaps = [abs(r - limit) for r in rep.variance_ratio_exact]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-3 * limit


class TestCltConvergence:
    def test_iid_sums_are_already_normal(self, iid_model):
        rep = clt_convergence(
            iid_model, (8, 64), replicates=2_000, seed=SeedSpec(61, 1),
            batches=400, lindeberg_replicates=50_000,
        )
        # Normalized iid Gaussian sums are exactly standard normal up to the
        # estimated normalizer, so only sampling noise remains.
        assert max(rep.ks_distance) < 0.06
        for ratio in rep.variance_ratio:
            assert abs(ratio - 1.0) < 0.2
        assert max(rep.cf_distance) < 0.1

    def test_deterministic_in_seed(self, bench_model):
        kwargs = dict(
            n_grid=(16,), replicates=200, seed=SeedSpec(61, 2),
            batches=60, lindeberg_replicates=5_000,
        )
        a = clt_convergence(bench_model, **kwargs)
        b = clt_convergence(bench_model, **kwargs)
        assert a.to_json_dict() == b.to_json_dict()

    def test_matches_prefix_sums_of_one_path_set(self, bench_model):
        # Every n is the prefix of one set of max(n_grid)-step stationary
        # paths on stream offset 2; the pilot normalizer is on offset 1.
        from scipy import stats

        n_grid, replicates, seed, t_grid = (5, 40, 17, 40), 300, SeedSpec(61, 3), (0.5, 1.0, 2.0)
        rep = clt_convergence(bench_model, n_grid, replicates=replicates, t_grid=t_grid,
                              seed=seed, batches=60, lindeberg_replicates=1_000)
        assert rep.normalizer == long_run_std_batch_means(bench_model, seed.child(1), batches=60)
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
        kwargs = dict(replicates=200, seed=SeedSpec(61, 4), batches=60, lindeberg_replicates=1_000)
        base = clt_convergence(bench_model, (8, 32, 128), **kwargs)
        other = clt_convergence(bench_model, (128, 8, 32, 8, 128), **kwargs)

        def cells(rep):
            return [(n, rep.ks_distance[i], rep.cf_distance[i], rep.variance_ratio[i],
                     rep.variance_ratio_exact[i], rep.lindeberg_values[i].tolist())
                    for i, n in enumerate(rep.n_grid)]

        at_n = {cell[0]: cell for cell in cells(base)}
        assert cells(other) == [at_n[n] for n in other.n_grid]

    def test_argument_errors(self, bench_model):
        with pytest.raises(ValueError):
            clt_convergence(bench_model, (16,))
        with pytest.raises(ValueError):
            clt_convergence(bench_model, (0,), seed=SeedSpec(1))
