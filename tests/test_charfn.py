"""Tests for the step approximation of exp(itx), the truncation radius and the
sampled and exact characteristic-function factorization gaps."""

import math
import tracemalloc

import numpy as np
import pytest

import oracles
from regimeclt.charfn import (
    CfGapReport,
    StepApproximation,
    build_step_approximation,
    cf_factorization_gap,
    cf_factorization_gap_from_samples,
    cf_gap_exact,
    truncation_radius,
)
from regimeclt.errors import ConfigInvalid
from regimeclt.independence import epsilon_certificate
from regimeclt.process import mixture_cdf, mixture_mean, mixture_variance
from regimeclt.seeds import SeedSpec


class TestStepApproximation:
    @pytest.mark.parametrize("t,eta", [(0.5, 0.1), (1.0, 0.05), (3.0, 0.02), (-2.0, 0.05)])
    def test_sup_error_below_eta(self, t, eta):
        sa = build_step_approximation(t, eta, radius=8.0)
        x = np.random.default_rng(11).uniform(-8.0, 8.0, 100_000)
        err = np.max(np.abs(sa(x) - np.exp(1j * t * x)))
        assert err <= eta
        assert sa.sup_error <= eta

    @pytest.mark.parametrize("t", [0.5, 1.0, -2.0, 3.0])
    def test_sup_error_is_the_error_at_the_cell_ends(self, t):
        # Every cell's worst point is an end, half a width from its midpoint.
        sa = build_step_approximation(t, 0.05, radius=1.0)
        ends = sa.breakpoints
        err = np.abs(sa(ends) - np.exp(1j * t * ends))
        np.testing.assert_allclose(err, sa.sup_error, rtol=0.0, atol=1e-15)
        x = np.random.default_rng(12).uniform(-1.0, 1.0, 100_000)
        assert np.max(np.abs(sa(x) - np.exp(1j * t * x))) <= sa.sup_error

    def test_cell_count_and_width(self):
        t, eta, radius = 1.5, 0.05, 6.0
        sa = build_step_approximation(t, eta, radius)
        width_max = eta / (abs(t) + 1.0)
        assert sa.n_cells == math.ceil(2.0 * radius / width_max)
        assert np.max(np.diff(sa.breakpoints)) <= width_max * (1.0 + 1e-12)

    def test_zero_frequency_is_exact(self):
        sa = build_step_approximation(0.0, 0.01, radius=5.0)
        assert sa.sup_error == 0.0
        x = np.concatenate([[-5.0, 5.0], np.random.default_rng(13).uniform(-5.0, 5.0, 1_000)])
        np.testing.assert_array_equal(sa(x), np.ones(x.size))

    def test_zero_outside_truncation(self):
        sa = build_step_approximation(1.0, 0.1, radius=3.0)
        np.testing.assert_array_equal(sa(np.array([-3.1, 3.1, 50.0])), np.zeros(3))

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            build_step_approximation(1.0, 0.0, 5.0)
        with pytest.raises(ValueError):
            build_step_approximation(1.0, 0.1, -1.0)
        with pytest.raises(ValueError):
            build_step_approximation(1.0, 0.1, math.inf)

    def test_memory_preflight(self, bench_model):
        # eta = 1e-12 asks for about 4e18 cells on the benchmark radius; the
        # record holds their count, and evaluating it finds cells by arithmetic.
        eta = 1e-12
        radius = truncation_radius(bench_model, eta)
        tracemalloc.start()
        try:
            sa = build_step_approximation(0.5, eta, radius)
            values = sa(np.linspace(-radius, radius, 1001))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert sa.n_cells == max(1, math.ceil(2.0 * radius / (eta / 1.5))) > 10**18
        assert 0.0 < sa.sup_error < eta
        np.testing.assert_allclose(np.abs(values), 1.0, rtol=1e-15)
        assert build_step_approximation(1.0, 1e-3, 10.0).n_cells == 40_000
        # A cell count that overflows to inf is refused.
        with pytest.raises(ConfigInvalid, match="cells"):
            build_step_approximation(0.5, 1e-300, truncation_radius(bench_model, 1e-300))

    def test_record_validation(self):
        assert StepApproximation(1.0, 0.1, 2.0, 3).width == 4.0 / 3
        for radius, n_cells in [(0.0, 3), (-1.0, 3), (math.inf, 3), (math.nan, 3),
                                (2.0, 0), (2.0, -1)]:
            with pytest.raises(ValueError):
                StepApproximation(1.0, 0.1, radius, n_cells)


class TestTruncationRadius:
    def test_formula(self, bench_model):
        eta = 0.05
        mu = mixture_mean(bench_model)
        sigma = math.sqrt(mixture_variance(bench_model))
        assert truncation_radius(bench_model, eta) == pytest.approx(
            abs(mu) + sigma / math.sqrt(eta), rel=1e-12
        )

    def test_tail_mass_guarantee(self, bench_model, uniform_model):
        for model in (bench_model, uniform_model):
            for eta in (0.2, 0.05, 0.01):
                m = truncation_radius(model, eta)
                tail = mixture_cdf(model, -m) + (1.0 - mixture_cdf(model, m))
                assert tail <= eta

    def test_eta_validation(self, bench_model):
        with pytest.raises(ValueError):
            truncation_radius(bench_model, 0.0)


class TestCfGapFromSamples:
    def test_independent_columns_gap_near_zero(self):
        x = np.random.default_rng(13).standard_normal((10_000, 3))
        rep = cf_factorization_gap_from_samples(x, [0.5, 1.0, 2.0])
        assert rep.n_vars == 3 and rep.replicates == 10_000
        assert rep.max_gap < 0.05

    def test_duplicated_column_gap_matches_theory(self):
        # For X ~ N(0,1) repeated twice, the gap at t is
        # |exp(-2 t^2) - exp(-t^2)|.
        x = np.random.default_rng(14).standard_normal(20_000)
        rep = cf_factorization_gap_from_samples(np.column_stack([x, x]), [1.0])
        expected = abs(math.exp(-2.0) - math.exp(-1.0))
        assert rep.gaps[0] == pytest.approx(expected, abs=0.03)
        assert rep.std_errors[0] > 0.0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            cf_factorization_gap_from_samples(np.ones(50), [1.0])
        with pytest.raises(ValueError):
            cf_factorization_gap_from_samples(np.ones((10, 2)), [1.0])
        with pytest.raises(ValueError):
            cf_factorization_gap_from_samples(np.ones((50, 1)), [1.0])
        # One row per batch would make every batch gap 0: two rows each are needed.
        with pytest.raises(ValueError, match="two rows per batch"):
            cf_factorization_gap_from_samples(np.ones((39, 2)), [1.0])
        assert cf_factorization_gap_from_samples(np.ones((40, 2)), [1.0]).replicates == 40

    @pytest.mark.parametrize("n_rep,n_vars,n_batches", [(40, 2, 20), (1_003, 3, 20), (20_017, 4, 20),
                                                        (5_000, 5, 20)])
    def test_one_pass_matches_the_batch_loop(self, n_rep, n_vars, n_batches):
        # n_rep not divisible by the batch count gives batches of two sizes.
        rng = np.random.default_rng(n_rep)
        x = np.cumsum(rng.standard_normal((n_rep, n_vars)), axis=1) * rng.uniform(0.5, 2.0)
        t_grid = [-1.5, 0.3, 0.5, 1.0, 2.0, 4.0]
        rep = cf_factorization_gap_from_samples(x, t_grid)
        gaps, std_errors = oracles.cf_gap_batches_loop(x, t_grid, n_batches)
        np.testing.assert_allclose(rep.gaps, gaps, rtol=1e-12)
        np.testing.assert_allclose(rep.std_errors, std_errors, rtol=1e-12)

    @pytest.mark.parametrize("scale", [1.0, 1e3, 1e8], ids=["unit", "1e3", "1e8"])
    @pytest.mark.parametrize("n_vars", [2, 3, 5])
    def test_real_phase_matches_complex_exp_bit_for_bit(self, n_vars, scale):
        # exp(itX) from cos and sin of the phase tX is what complex exp gives at
        # a zero real part. Samples of both signs up to |x| = scale, with exact
        # zeros of either sign, at t = 0, of either sign, and far out at 1e3.
        rng = np.random.default_rng(n_vars)
        x = rng.uniform(-scale, scale, (1_003, n_vars))
        x[::7, 0] = 0.0
        x[3::11, -1] = -0.0
        x[5, :] = [scale, -scale, 0.0, -0.0, 1.0][:n_vars]
        t_grid = [0.0, -0.5, 0.5, 2.0, 1e3]
        rep = cf_factorization_gap_from_samples(x, t_grid)
        gaps, std_errors = oracles.cf_gap_from_samples_cexp(x, t_grid)
        np.testing.assert_array_equal(rep.gaps, gaps)
        np.testing.assert_array_equal(rep.std_errors, std_errors)


class TestCfGapFromModel:
    def test_iid_model_gap_small(self, iid_model):
        rep = cf_factorization_gap(
            iid_model, (3, 3), [0.5, 1.0, 2.0], replicates=20_000, seed=SeedSpec(88, 1)
        )
        assert rep.max_gap <= float(np.max(rep.std_errors)) * 4 + 0.01

    def test_benchmark_within_certificate(self, bench_model):
        eps = epsilon_certificate(bench_model, (5, 5))
        rep = cf_factorization_gap(
            bench_model, (5, 5), [0.5, 1.0, 2.0], replicates=20_000, seed=SeedSpec(88, 2)
        )
        for gap, se in zip(rep.gaps, rep.std_errors):
            assert gap <= 2.0 * eps + 4.0 * se

    def test_deterministic_in_seed(self, bench_model):
        a = cf_factorization_gap(
            bench_model, (2,), [1.0], replicates=4_000, seed=SeedSpec(3, 3)
        )
        b = cf_factorization_gap(
            bench_model, (2,), [1.0], replicates=4_000, seed=SeedSpec(3, 3)
        )
        np.testing.assert_array_equal(a.gaps, b.gaps)
        np.testing.assert_array_equal(a.std_errors, b.std_errors)

    def test_rows_are_the_stationary_event_time_observations(self, bench_model):
        # cf_factorization_gap samples the stationary path at steps 0, 5, 10
        # only; its rows are the event-time observations of the stream layout.
        seed, replicates = SeedSpec(88, 4), 3_000
        _states, obs = oracles.event_chunks_loop(bench_model.stationary_start(), [0, 5, 10],
                                                 replicates, seed)
        expected = cf_factorization_gap_from_samples(obs, [0.5, 1.0, 2.0])
        rep = cf_factorization_gap(bench_model, (5, 5), [0.5, 1.0, 2.0], replicates=replicates,
                                   seed=seed)
        np.testing.assert_array_equal(rep.gaps, expected.gaps)
        np.testing.assert_array_equal(rep.std_errors, expected.std_errors)

    def test_memory_layout_does_not_change_the_bits(self):
        # The same values in C and Fortran order give the same gaps to the bit.
        x = np.cumsum(np.random.default_rng(21).standard_normal((3000, 3)), axis=1)
        c_order = cf_factorization_gap_from_samples(x, [0.5, 1.0, 2.0])
        f_order = cf_factorization_gap_from_samples(np.asfortranarray(x), [0.5, 1.0, 2.0])
        np.testing.assert_array_equal(c_order.gaps, f_order.gaps)
        np.testing.assert_array_equal(c_order.std_errors, f_order.std_errors)

    def test_argument_validation(self, bench_model):
        with pytest.raises(ValueError):
            cf_factorization_gap(bench_model, (2,), [1.0])
        with pytest.raises(ValueError):
            cf_factorization_gap(bench_model, (), [1.0], seed=SeedSpec(1))
        with pytest.raises(ValueError):
            cf_factorization_gap(bench_model, (0,), [1.0], seed=SeedSpec(1))

    def test_too_few_replicates_refused_before_drawing(self, bench_model, monkeypatch):
        # Fewer than two replicates per batch leave a one-row batch, whose
        # gap is 0; the call refuses them before block 0 is drawn.
        def refuse(*args, **kwargs):
            raise AssertionError("drew before refusing too few replicates")

        monkeypatch.setattr(SeedSpec, "block_rng", refuse)
        for replicates in (39, 30, 5):
            with pytest.raises(ValueError, match="per batch"):
                cf_factorization_gap(bench_model, (2,), [1.0], replicates=replicates,
                                     seed=SeedSpec(1))
        # Two per batch pass the check and go on to draw.
        with pytest.raises(AssertionError, match="drew"):
            cf_factorization_gap(bench_model, (2,), [1.0], replicates=40, seed=SeedSpec(1))


class TestCfGapExact:
    def test_short_paths_values(self, bench_model):
        gaps = cf_gap_exact(bench_model, (5, 5), [0.5, 1.0, 2.0])
        np.testing.assert_allclose(gaps, [0.04543, 0.03019, 0.00032], atol=5e-6)
        assert np.all(gaps <= 2.0 * epsilon_certificate(bench_model, (5, 5)))

    @pytest.mark.parametrize("lags", [(1,), (2, 3), (1, 1, 4)])
    def test_matches_path_enumeration(self, uniform_model, lags):
        # E e^{it sum X} over every regime path; X's cf given the regime.
        import itertools

        pi, p = uniform_model.stationary(), uniform_model.chain.p
        times = np.concatenate([[0], np.cumsum(lags)])
        for t in (0.7, -1.3, 3.0):
            d = uniform_model.emissions.cf_matrix(t)
            joint = 0.0
            for path in itertools.product(range(2), repeat=times[-1] + 1):
                prob = pi[path[0]] * np.prod([p[a, b] for a, b in zip(path, path[1:])])
                joint += prob * np.prod([d[path[r]] for r in times])
            expected = abs(joint - complex(pi @ d) ** len(times))
            assert cf_gap_exact(uniform_model, lags, [t])[0] == pytest.approx(expected, abs=1e-14)

    def test_sampled_gap_agrees(self, bench_model):
        rep = cf_factorization_gap(bench_model, (5, 5), [0.5, 1.0, 2.0], replicates=20_000,
                                   seed=SeedSpec(88, 2))
        exact = cf_gap_exact(bench_model, (5, 5), [0.5, 1.0, 2.0])
        assert np.all(np.abs(rep.gaps - exact) <= 4.0 * rep.std_errors)

    def test_argument_validation(self, bench_model):
        for lags in ((), (0,), (2, -1)):
            with pytest.raises(ValueError):
                cf_gap_exact(bench_model, lags, [1.0])


class TestCfGapReport:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            CfGapReport(
                t_grid=np.array([1.0, 2.0]),
                gaps=np.array([0.1]),
                std_errors=np.array([0.01]),
                n_vars=2,
                replicates=100,
            )

    def test_max_gap(self):
        rep = CfGapReport(
            t_grid=np.array([1.0, 2.0]),
            gaps=np.array([0.1, 0.3]),
            std_errors=np.array([0.01, 0.01]),
            n_vars=2,
            replicates=100,
        )
        assert rep.max_gap == 0.3
