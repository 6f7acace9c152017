"""Tests for empirical characteristic functions and the factorization gap."""

import math
import tracemalloc

import numpy as np
import pytest

from regimeclt.charfn import (
    CfGapReport,
    StepApproximation,
    build_step_approximation,
    cf_factorization_gap,
    cf_factorization_gap_from_samples,
    cf_gap_exact,
    ecf,
    truncation_radius,
)
from regimeclt.errors import ConfigInvalid
from regimeclt.independence import epsilon_certificate
from regimeclt.process import iter_path_chunks, mixture_cdf, mixture_mean, mixture_variance
from regimeclt.seeds import SeedSpec


class TestEcf:
    def test_standard_normal_reference(self):
        x = np.random.default_rng(5).standard_normal(100_000)
        est = ecf(x, [0.5, 1.0, 2.0])
        for t, v, se in zip(est.t_grid, est.values, est.std_errors):
            assert abs(v - math.exp(-0.5 * t * t)) <= 4 * se

    def test_value_at_zero(self):
        x = np.random.default_rng(6).standard_normal(500)
        est = ecf(x, [0.0])
        assert est.values[0] == 1.0 + 0.0j
        assert est.std_errors[0] == 0.0

    def test_conjugate_symmetry(self):
        x = np.random.default_rng(7).standard_normal(2_000)
        plus = ecf(x, [0.8]).values[0]
        minus = ecf(x, [-0.8]).values[0]
        assert minus == pytest.approx(plus.conjugate(), abs=1e-15)

    def test_modulus_bounded_by_one(self):
        x = np.random.default_rng(8).exponential(size=5_000)
        est = ecf(x, np.linspace(-4, 4, 17))
        assert np.all(np.abs(est.values) <= 1.0 + 1e-12)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            ecf(np.array([1.0]), [1.0])
        with pytest.raises(ValueError):
            ecf(np.ones((3, 3)), [1.0])


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
            cf_factorization_gap_from_samples(np.ones((10, 2)), [1.0], n_batches=20)
        with pytest.raises(ValueError):
            cf_factorization_gap_from_samples(np.ones((50, 1)), [1.0])


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

    def test_rows_are_the_full_paths_at_the_event_times(self, bench_model):
        # cf_factorization_gap transforms only the observations at steps
        # 0, 5, 10; its rows equal those columns of the full paths.
        seed, replicates = SeedSpec(88, 4), 3_000
        full = np.empty((replicates, 11))
        for start, _states, obs in iter_path_chunks(bench_model, 11, replicates, seed):
            full[start : start + obs.shape[0]] = obs
        rows = full[:, [0, 5, 10]]  # Fortran-ordered; the function takes it to C order
        expected = cf_factorization_gap_from_samples(rows, [0.5, 1.0, 2.0])
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
