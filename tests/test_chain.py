import json

import numpy as np
import pytest

import oracles
from regimeclt import (
    NotErgodic,
    TransitionMatrix,
    is_ergodic,
    mixing_rate,
    n_step,
    stationary_distribution,
)
from tests_support import random_chain_pool


class TestTransitionMatrix:
    def test_rejects_bad_rows(self):
        with pytest.raises(ValueError):
            TransitionMatrix(np.array([[0.5, 0.6], [0.5, 0.5]]))
        with pytest.raises(ValueError):
            TransitionMatrix(np.array([[1.1, -0.1], [0.5, 0.5]]))
        with pytest.raises(ValueError):
            TransitionMatrix(np.array([[0.5, 0.5]]))

    def test_json_round_trip(self, bench_chain):
        text = bench_chain.to_json()
        back = TransitionMatrix.from_json(text)
        np.testing.assert_array_equal(back.p, bench_chain.p)
        obj = json.loads(text)
        assert obj["n_states"] == 2

    def test_equality_and_hash_by_value(self, bench_chain):
        same = TransitionMatrix(bench_chain.p.tolist())
        assert same == bench_chain and hash(same) == hash(bench_chain)
        assert same != TransitionMatrix(np.array([[0.8, 0.2], [0.2, 0.8]]))
        assert same != TransitionMatrix(np.eye(3))
        # -0.0 and 0.0 are equal entries, so they must hash equal too.
        signed = TransitionMatrix(np.array([[-0.0, 1.0], [1.0, 0.0]]))
        plain = TransitionMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert signed == plain and hash(signed) == hash(plain)

    def test_entries_read_only(self, bench_chain):
        with pytest.raises(ValueError):
            bench_chain.p[0, 0] = 0.0


class TestStationary:
    def test_benchmark_closed_form(self, bench_chain):
        pi = stationary_distribution(bench_chain)
        np.testing.assert_allclose(pi, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)
        assert pi.shape == (2,) and not pi.flags.writeable

    def test_matches_power_iteration_on_pool(self):
        for rows in random_chain_pool(30, seed=101):
            pi = stationary_distribution(TransitionMatrix(rows))
            ref = oracles.stationary_power_iteration(rows)
            np.testing.assert_allclose(pi, ref, atol=1e-9)

    def test_fixed_point_residual(self):
        for rows in random_chain_pool(30, seed=202):
            pi = stationary_distribution(TransitionMatrix(rows))
            assert np.max(np.abs(pi @ rows - pi)) < 1e-10
            assert abs(pi.sum() - 1.0) < 1e-12

    @pytest.mark.parametrize("rows", [
        # Birth-death chains: pi is proportional to (1, 2e-12, 1) and to
        # (1, 2e-12, 2e-12).
        [[1 - 1e-12, 1e-12, 0.0], [0.5, 0.0, 0.5], [0.0, 1e-12, 1 - 1e-12]],
        [[1 - 1e-12, 1e-12, 0.0], [0.5, 0.5 - 1e-12, 1e-12], [0.0, 1e-12, 1 - 1e-12]],
        # A slow cycle through three sticky regimes: pi is uniform.
        [[1 - 1e-12, 1e-12, 0.0], [0.0, 1 - 1e-12, 1e-12], [1e-12, 0.0, 1 - 1e-12]],
    ], ids=["two-sticky-ends", "one-sticky-end", "sticky-cycle"])
    def test_stiff_chain_matches_exact_oracle(self, rows):
        # Nearly decomposable chains: every entry of pi, down to the 1e-12
        # ones, to a relative 1e-14.
        pi = stationary_distribution(TransitionMatrix(np.array(rows)))
        np.testing.assert_allclose(pi, oracles.stationary_exact(rows), rtol=1e-14, atol=0.0)

    def test_periodic_chain_rejected(self):
        swap = TransitionMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(NotErgodic):
            stationary_distribution(swap)


class TestNStep:
    def test_benchmark_two_step(self, bench_chain):
        p2 = n_step(bench_chain, 2).p
        np.testing.assert_allclose(p2, [[0.83, 0.17], [0.34, 0.66]], atol=1e-15)

    def test_chapman_kolmogorov(self, bench_chain):
        p3 = n_step(bench_chain, 3).p
        p1p2 = bench_chain.p @ n_step(bench_chain, 2).p
        np.testing.assert_allclose(p3, p1p2, atol=1e-12)

    def test_zero_steps_rejected(self, bench_chain):
        with pytest.raises(ValueError):
            n_step(bench_chain, 0)


class TestErgodicity:
    def test_benchmark(self, bench_chain):
        verdict = is_ergodic(bench_chain)
        assert verdict and verdict.irreducible and verdict.aperiodic
        assert verdict.period == 1

    def test_reducible(self):
        verdict = is_ergodic(TransitionMatrix(np.array([[1.0, 0.0], [0.0, 1.0]])))
        assert not verdict.irreducible and not verdict.ergodic

    def test_periodic(self):
        verdict = is_ergodic(TransitionMatrix(np.array([[0.0, 1.0], [1.0, 0.0]])))
        assert verdict.irreducible and not verdict.aperiodic
        assert verdict.period == 2

    def test_three_cycle_period(self):
        rows = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        verdict = is_ergodic(TransitionMatrix(rows))
        assert verdict.period == 3

    def test_agrees_with_primitivity_oracle(self):
        rng = np.random.default_rng(77)
        for _ in range(60):
            n = int(rng.integers(2, 6))
            rows = rng.dirichlet(np.ones(n), size=n)
            # Randomly zero entries to create reducible or periodic cases.
            mask = rng.random((n, n)) < 0.35
            rows = np.where(mask, 0.0, rows)
            sums = rows.sum(axis=1, keepdims=True)
            dead = sums[:, 0] == 0.0
            rows[dead] = 1.0 / n
            sums = rows.sum(axis=1, keepdims=True)
            rows = rows / sums
            chain = TransitionMatrix(rows)
            assert bool(is_ergodic(chain)) == oracles.is_ergodic_brute(rows)


class TestMixingRate:
    def test_benchmark_alpha_and_prefactor(self, bench_chain):
        prof = mixing_rate(bench_chain, s_max=50)
        assert prof.alpha == pytest.approx(0.7, abs=1e-12)
        # Two-state chains satisfy P^s - limit = alpha^s (I - limit), so the
        # fitted prefactor is the largest entry gap at s = 1 over alpha. The
        # fit divides by alpha**s, so eigenvalue round-off grows with s_max.
        assert prof.c == pytest.approx(2.0 / 3.0, rel=1e-6)

    def test_gap_values_match_brute_force(self, bench_chain):
        prof = mixing_rate(bench_chain, s_max=20)
        pi = stationary_distribution(bench_chain)
        for s, gap in prof.gaps:
            assert gap == pytest.approx(oracles.sup_gap_brute(bench_chain.p, pi, s), abs=1e-14)

    def test_envelope_covers_all_recorded_gaps(self):
        for rows in random_chain_pool(25, seed=303):
            prof = mixing_rate(TransitionMatrix(rows), s_max=40)
            for s, gap in prof.gaps:
                assert gap <= prof.bound(s) + 1e-12

    def test_gaps_nonincreasing(self):
        for rows in random_chain_pool(25, seed=404):
            prof = mixing_rate(TransitionMatrix(rows), s_max=40)
            values = [g for _s, g in prof.gaps]
            for a, b in zip(values, values[1:]):
                assert b <= a + 1e-14

    def test_one_state_chain(self):
        prof = mixing_rate(TransitionMatrix(np.array([[1.0]])), s_max=5)
        assert prof.alpha == 0.0
        assert all(g == 0.0 for _s, g in prof.gaps)
