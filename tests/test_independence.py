"""Tests for dependence gaps, mixing envelopes, and the epsilon certificate."""

import itertools
import math
import tracemalloc
from typing import Sequence
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from regimeclt import exact, independence
from regimeclt.chain import TransitionMatrix, mixing_rate
from regimeclt.errors import ConfigInvalid, EmptyConditioningEvent
from regimeclt.independence import (
    RectEvent,
    chained_gap_bound,
    conditional_gap_matrix,
    default_event_family,
    epsilon_certificate,
    joint_product_gap,
    observable_event_family,
)
from regimeclt.process import EmissionSpec, Gaussian, ModelSpec, ShiftedExponential, Uniform
from regimeclt.seeds import SeedSpec
from tests_support import random_chain_pool

FULL = RectEvent(frozenset({1, 2}))
STATE1 = RectEvent(frozenset({1}))
STATE2 = RectEvent(frozenset({2}))


def _gaussian_model(rows: np.ndarray) -> ModelSpec:
    comps = tuple(Gaussian(-2.0 + 1.5 * j, 0.6 + 0.2 * j) for j in range(rows.shape[0]))
    return ModelSpec(TransitionMatrix(rows), EmissionSpec(comps))


_EMISSION_KINDS = ("gaussian", "uniform", "shifted_exponential")
_PRUNING_CHAINS = random_chain_pool(12, seed=2718, n_min=2, n_max=3)


def _mixed_model(rows: np.ndarray, kinds: Sequence[str]) -> ModelSpec:
    """One emission per regime, of the named family, spread along the line."""
    comps = []
    for j, kind in enumerate(kinds[: rows.shape[0]]):
        shift = 1.2 * j - 1.0
        if kind == "gaussian":
            comps.append(Gaussian(shift, 0.5 + 0.3 * j))
        elif kind == "uniform":
            comps.append(Uniform(shift, shift + 1.0 + 0.5 * j))
        else:
            comps.append(ShiftedExponential(1.0 / (0.4 + 0.3 * j), shift))
    return ModelSpec(TransitionMatrix(rows), EmissionSpec(tuple(comps)))


def _conditional_gap(model: ModelSpec, target: RectEvent, cond: RectEvent, tau: int) -> float:
    """One exact conditional gap |P(target at tau | cond at 0) - P(target)|."""
    gaps = conditional_gap_matrix(model, target.weights(model)[None, :], cond.weights(model)[None, :], tau)
    return float(gaps[0, 0])


def _three_family_model() -> ModelSpec:
    rows = np.array([[0.93, 0.05, 0.02], [0.04, 0.93, 0.03], [0.03, 0.04, 0.93]])
    comps = (Gaussian(-1.5, 1.0), Uniform(-0.5, 1.5), ShiftedExponential(1.0, 1.0))
    return ModelSpec(TransitionMatrix(rows), EmissionSpec(comps))


class TestRectEvent:
    def test_validation(self):
        with pytest.raises(ValueError):
            RectEvent(frozenset())
        with pytest.raises(ValueError):
            RectEvent(frozenset({0, 1}))
        with pytest.raises(ValueError):
            RectEvent(frozenset({1}), 2.0, 2.0)

    def test_indicator_half_open(self):
        # The sampled oracle's indicator reads the interval as the weights do.
        ev = RectEvent(frozenset({1}), 0.0, 1.0)
        states = np.array([1, 1, 1, 2])
        obs = np.array([0.0, 0.5, 1.0, 0.5])
        np.testing.assert_array_equal(
            oracles.rect_indicator(ev, states, obs), [False, True, True, False]
        )

    def test_weights(self, uniform_model):
        # Uniform(-1, 0.5) has mass 1/3 in (0, 0.5]; the state mask zeroes
        # the other component.
        ev = RectEvent(frozenset({1}), 0.0, 0.5)
        np.testing.assert_allclose(ev.weights(uniform_model), [1.0 / 3.0, 0.0])

    def test_weights_reject_unknown_regime(self, bench_model):
        with pytest.raises(ValueError):
            RectEvent(frozenset({3})).weights(bench_model)


class TestConditionalGap:
    def test_matches_enumeration(self, bench_model):
        w_b = RectEvent(frozenset({1, 2}), -0.5, 1.2).weights(bench_model)
        target = RectEvent(frozenset({2}), -math.inf, 0.3)
        w_a = target.weights(bench_model)
        pi = bench_model.stationary()
        for tau in (1, 2, 3):
            joint = oracles.enumerate_joint_probability(
                pi, bench_model.chain.p, [0, tau], [w_b, w_a]
            )
            expected = abs(joint / float(pi @ w_b) - float(pi @ w_a))
            gap = _conditional_gap(bench_model, target, RectEvent(frozenset({1, 2}), -0.5, 1.2), tau)
            assert gap == pytest.approx(expected, abs=1e-12)

    def test_single_regime_targets_respect_envelope(self, bench_model, uniform_model):
        conds = [
            FULL,
            STATE1,
            RectEvent(frozenset({1, 2}), -math.inf, 0.0),
            RectEvent(frozenset({2}), -0.4, math.inf),
        ]
        targets = [STATE1, STATE2, RectEvent(frozenset({1}), -math.inf, 0.25), FULL]
        for model in (bench_model, uniform_model):
            w_c = np.stack([ev.weights(model) for ev in conds])
            w_t = np.stack([ev.weights(model) for ev in targets])
            for tau in range(1, 31):
                # The envelope 2 c alpha^tau, c fitted on lags up to max(tau, 2).
                bound = 2.0 * mixing_rate(model.chain, s_max=max(tau, 2)).bound(tau)
                assert np.all(conditional_gap_matrix(model, w_t, w_c, tau) <= bound + 1e-12)

    def test_envelope_on_random_chains(self):
        for rows in random_chain_pool(8, seed=515, n_max=5):
            model = _gaussian_model(rows)
            ev_b = RectEvent(frozenset({1}), -math.inf, -1.0)
            for j in range(1, model.n_states + 1):
                for tau in (1, 3, 7, 15):
                    bound = 2.0 * mixing_rate(model.chain, s_max=max(tau, 2)).bound(tau)
                    assert _conditional_gap(model, RectEvent(frozenset({j})), ev_b, tau) <= bound + 1e-12

    def test_iid_gap_is_zero(self, iid_model):
        below = RectEvent(frozenset({1}), -math.inf, 0.5)
        gap = _conditional_gap(iid_model, below, RectEvent(frozenset({1})), 4)
        assert gap <= 1e-15
        assert mixing_rate(iid_model.chain, s_max=4).bound(4) == 0.0

    def test_empty_conditioning_event(self, uniform_model):
        with pytest.raises(EmptyConditioningEvent):
            _conditional_gap(uniform_model, FULL, RectEvent(frozenset({1}), 2.0, 3.0), 1)

    def test_tau_must_be_positive(self, bench_model):
        with pytest.raises(ValueError):
            _conditional_gap(bench_model, FULL, FULL, 0)


class TestConditionalGapMatrix:
    def test_entries_match_single_pair_gaps(self):
        # Each entry against one pair's gap by a direct matrix power.
        model = _three_family_model()
        family = default_event_family(model, (0.25, 0.5, 0.75))
        pi = model.stationary()
        conds = [ev for ev in family if float(pi @ ev.weights(model)) > 0.0]
        w_t = np.stack([ev.weights(model) for ev in family])
        w_c = np.stack([ev.weights(model) for ev in conds])
        for tau in range(1, 7):
            gaps = conditional_gap_matrix(model, w_t, w_c, tau)
            assert gaps.shape == (len(conds), len(family))
            p_tau = np.linalg.matrix_power(model.chain.p, tau)
            for ci, wc in enumerate(w_c):
                for ti, wt in enumerate(w_t):
                    single = abs((pi * wc) @ p_tau @ wt / (pi @ wc) - pi @ wt)
                    assert abs(gaps[ci, ti] - single) <= 1e-15

    def test_empty_conditioning_event_in_stack(self):
        model = _three_family_model()
        # Regime 2 emits Uniform(-0.5, 1.5), so this event has probability 0.
        below_support = RectEvent(frozenset({2}), -math.inf, -1.0)
        w_c = np.stack([RectEvent(frozenset({1})).weights(model), below_support.weights(model)])
        w_t = RectEvent(frozenset({3})).weights(model)[None, :]
        with pytest.raises(EmptyConditioningEvent):
            conditional_gap_matrix(model, w_t, w_c, 2)


_STACKS = (
    ((3, 1), (3,)),
    ((1, 2), (1,)),
    ((2, 3, 1), (2, 1)),
    ((1, 3, 2, 2), (3, 1, 2)),
    ((3, 1, 2, 3), (1, 2, 3)),
)


def _outer_stacks(weights, n_states):
    """Position r's (B_r, N) stack on axis r: every choice of one row per position."""
    k = len(weights)
    return [w.reshape((1,) * r + (len(w),) + (1,) * (k - 1 - r) + (n_states,))
            for r, w in enumerate(weights)]


class TestJointCore:
    # exact.transfer over outer stacks gives the joint probability of every
    # choice of one event per position. The core takes any start vector: a
    # Dirichlet draw away from pi checks that, and its cases add "-dirichlet"
    # to the stationary cases' ids.
    @pytest.mark.parametrize("sizes,lags,start", [
        pytest.param(sizes, lags, start, id=f"sizes{i}-lags{i}" + "-dirichlet" * (start == "dirichlet"))
        for start in ("stationary", "dirichlet") for i, (sizes, lags) in enumerate(_STACKS)
    ])
    @pytest.mark.parametrize("chain_index", range(3))
    def test_matches_enumeration_with_unequal_stacks(self, sizes, lags, start, chain_index):
        rows = random_chain_pool(3, seed=1117, n_min=2, n_max=4)[chain_index]
        model = _gaussian_model(rows)
        rng = np.random.default_rng(31 * chain_index + len(sizes))
        weights = [rng.uniform(size=(b, model.n_states)) for b in sizes]
        if start == "stationary":
            v = model.stationary()
        else:
            v = rng.dirichlet(np.ones(model.n_states))
            assert np.max(np.abs(v - model.stationary())) > 1e-3
        joint = exact.transfer(v, _outer_stacks(weights, model.n_states),
                               [(model.chain.p, t) for t in lags])
        assert joint.shape == sizes
        times = [0, *np.cumsum(lags).tolist()]
        for idx in itertools.product(*(range(b) for b in sizes)):
            expected = oracles.enumerate_joint_probability(
                v, model.chain.p, times, [w[i] for w, i in zip(weights, idx)]
            )
            assert abs(joint[idx] - expected) <= 1e-14

    @pytest.mark.parametrize("layout", ["paired", "outer"])
    @pytest.mark.parametrize("dtype", ["real", "complex"])
    @pytest.mark.parametrize("start", ["stationary", "dirichlet"])
    def test_product_gap_matches_enumeration(self, layout, dtype, start):
        # |joint - product of marginals| for every row of paired (B, N)
        # stacks, or every choice of one row per position for outer stacks.
        rows = random_chain_pool(3, seed=1117, n_min=2, n_max=4)[2]
        model = _gaussian_model(rows)
        rng = np.random.default_rng(47)
        sizes, lags = ((3,) * 4 if layout == "paired" else (3, 1, 2, 2)), (2, 1, 3)
        weights = [rng.uniform(size=(b, model.n_states)) for b in sizes]
        if dtype == "complex":
            weights = [w + 1j * rng.uniform(-1.0, 1.0, size=w.shape) for w in weights]
        v = model.stationary() if start == "stationary" else rng.dirichlet(np.ones(model.n_states))
        if layout == "paired":  # result index (i,): row i at every position
            stacks, choices = weights, {(i,): (i,) * 4 for i in range(3)}
        else:
            stacks = _outer_stacks(weights, model.n_states)
            choices = {idx: idx for idx in itertools.product(*(range(b) for b in sizes))}
        gaps = exact.product_gap(v, model.chain.p, stacks, lags)
        assert gaps.dtype == np.float64 and gaps.size == len(choices)
        times = [0, *np.cumsum(lags).tolist()]
        for key, idx in choices.items():
            picked = [w[i] for w, i in zip(weights, idx)]
            joint = oracles.enumerate_joint_probability(v, model.chain.p, times, picked)
            expected = abs(joint - np.prod([v @ w for w in picked]))
            assert abs(gaps[key] - expected) <= 1e-14

    def test_validate_lags_refuses_fractional_lags(self):
        assert exact.validate_lags([1, 2.0, np.int64(3), np.float64(4.0)]) == (1, 2, 3, 4)
        assert all(type(t) is int for t in exact.validate_lags(np.array([1, 2])))
        for lags in ([1.7, 2.9], [2, 0.5], [np.float64(3.5)], [2, float("inf")], [float("nan")], [None]):
            with pytest.raises(ValueError, match="positive integers"):
                exact.validate_lags(lags)
        for lags in ([], [0], [3, -1]):
            with pytest.raises(ValueError, match="positive integers"):
                exact.validate_lags(lags)


class TestJointProductGap:
    def test_matches_enumeration(self, bench_model):
        events = [
            RectEvent(frozenset({1}), -math.inf, 0.0),
            FULL,
            RectEvent(frozenset({2}), -1.0, 2.5),
        ]
        lags = (2, 1)
        rep = joint_product_gap(bench_model, events, lags)
        pi = bench_model.stationary()
        weights = [ev.weights(bench_model) for ev in events]
        joint = oracles.enumerate_joint_probability(
            pi, bench_model.chain.p, [0, 2, 3], weights
        )
        product = float(np.prod([pi @ w for w in weights]))
        assert rep.gap_estimate == pytest.approx(abs(joint - product), abs=1e-13)

    def test_matches_enumeration_three_states(self):
        rows = random_chain_pool(1, seed=99, n_min=3, n_max=3)[0]
        model = _gaussian_model(rows)
        events = [
            RectEvent(frozenset({2}), -math.inf, -0.5),
            RectEvent(frozenset({1, 3})),
        ]
        rep = joint_product_gap(model, events, (3,))
        pi = model.stationary()
        weights = [ev.weights(model) for ev in events]
        joint = oracles.enumerate_joint_probability(pi, model.chain.p, [0, 3], weights)
        product = float(np.prod([pi @ w for w in weights]))
        assert rep.gap_estimate == pytest.approx(abs(joint - product), abs=1e-13)

    def test_repeated_events_weighed_once(self, bench_model):
        # Each distinct event's weights are computed once per tuple, and the
        # gap matches enumeration over the repeated events.
        below = RectEvent(frozenset({1}), -math.inf, 0.0)
        events, lags = [below, FULL, below, below, FULL], (1, 2, 1, 3)
        with mock.patch.object(RectEvent, "weights", autospec=True,
                               side_effect=RectEvent.weights) as weights:
            rep = joint_product_gap(bench_model, events, lags)
        assert weights.call_count == 2
        pi = bench_model.stationary()
        w = [ev.weights(bench_model) for ev in events]
        joint = oracles.enumerate_joint_probability(pi, bench_model.chain.p, [0, 1, 3, 4, 7], w)
        product = float(np.prod([pi @ v for v in w]))
        assert rep.gap_estimate == pytest.approx(abs(joint - product), abs=1e-13)

    def test_full_space_events_give_zero_gap(self, bench_model):
        rep = joint_product_gap(bench_model, [FULL, FULL, FULL], (1, 4))
        assert rep.gap_estimate <= 1e-15

    def test_iid_gap_is_zero(self, iid_model):
        one = RectEvent(frozenset({1}), -math.inf, 0.7)
        rep = joint_product_gap(iid_model, [one, one], (5,))
        assert rep.gap_estimate <= 1e-15

    def test_mc_agrees_with_exact(self, bench_model):
        events = [STATE1, RectEvent(frozenset({2}), -math.inf, 0.5), FULL]
        exact = joint_product_gap(bench_model, events, (3, 2))
        (gap,), (se,) = oracles.tuple_gaps_mc(bench_model, [events], (3, 2), 30_000, SeedSpec(2024, 9))
        assert se > 0.0
        assert abs(gap - exact.gap_estimate) <= 4 * se

    @pytest.mark.parametrize("kind", _EMISSION_KINDS)
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(
        chain_index=st.integers(min_value=0, max_value=len(_PRUNING_CHAINS) - 1),
        picks=st.lists(st.integers(min_value=0, max_value=10**6), min_size=2, max_size=3),
        lags=st.lists(st.integers(min_value=1, max_value=4), min_size=2, max_size=2),
    )
    def test_mc_agrees_with_exact_across_families(self, kind, chain_index, picks, lags):
        # The reported SE is a Wald error, so rare joint events (a handful of
        # hits) are left out rather than judged by it.
        model = _mixed_model(_PRUNING_CHAINS[chain_index], (kind,) * 3)
        family = default_event_family(model, (0.25, 0.5, 0.75)) + observable_event_family(
            model, (0.25, 0.5, 0.75)
        )
        events = [family[i % len(family)] for i in picks]
        lags = tuple(lags[: len(events) - 1])
        pi = model.stationary()
        weights = [ev.weights(model) for ev in events]
        joint = oracles.enumerate_joint_probability(
            pi, model.chain.p, [0, *itertools.accumulate(lags)], weights
        )
        assume(joint >= 0.005)
        exact = joint_product_gap(model, events, lags)
        (gap,), (se,) = oracles.tuple_gaps_mc(model, [events], lags, 40_000, SeedSpec(4049, 3))
        assert abs(gap - exact.gap_estimate) <= 4 * se

    def test_mc_deterministic_in_seed(self, bench_model):
        a, b = (oracles.tuple_gaps_mc(bench_model, [[STATE1, STATE2]], (2,), 5_000, SeedSpec(7, 1))
                for _ in range(2))
        np.testing.assert_array_equal(a, b)

    def test_argument_errors(self, bench_model):
        with pytest.raises(ValueError):
            joint_product_gap(bench_model, [FULL], ())
        with pytest.raises(ValueError):
            joint_product_gap(bench_model, [FULL, FULL], (1, 2))
        with pytest.raises(ValueError):
            joint_product_gap(bench_model, [FULL, FULL], (0,))
        # Only the exact route is left: there is no method to choose.
        with pytest.raises(TypeError):
            joint_product_gap(bench_model, [FULL, FULL], (1,), method="mc")

    @pytest.mark.parametrize("lags", [(1, 2, 1, 1, 2, 1), (1, 1, 2, 1, 1, 1, 2)],
                             ids=["7-events", "8-events"])
    @pytest.mark.parametrize("event", [STATE1, RectEvent(frozenset({1}), -math.inf, 0.0),
                                       RectEvent(frozenset({2}), -0.5, 1.0)],
                             ids=["state1", "state1-below-0", "state2-window"])
    def test_more_than_six_events(self, bench_model, lags, event):
        # Exact routes take any number of events. One event repeated gives
        # the same bits as a gap, as an explicit one-tuple family and as a
        # one-event pool (the prefix DP), and matches path enumeration.
        k = len(lags) + 1
        gap = joint_product_gap(bench_model, [event] * k, lags).gap_estimate
        assert epsilon_certificate(bench_model, lags, family=[(event,) * k]) == gap
        assert epsilon_certificate(bench_model, lags, base_events=[event]) == gap
        pi, w = bench_model.stationary(), event.weights(bench_model)
        times = [0, *itertools.accumulate(lags)]
        joint = oracles.enumerate_joint_probability(pi, bench_model.chain.p, times, [w] * k)
        assert gap == pytest.approx(abs(joint - (pi @ w) ** k), abs=1e-15)


class TestEnvelopes:
    def test_multiplicative_envelope_fails_where_chained_holds(self, bench_model):
        # Regression: triple state-2 events at spacings (10, 10) exceed the
        # k c alpha^(sum lags) envelope while the chained form still covers
        # the gap. This is why downstream checks use the chained bound.
        prof = mixing_rate(bench_model.chain, s_max=40)
        rep = joint_product_gap(bench_model, [STATE2, STATE2, STATE2], (10, 10))
        assert rep.gap_estimate == pytest.approx(0.0043030292685892, rel=1e-10)
        assert rep.gap_estimate > rep.theoretical_bound
        assert rep.gap_estimate <= chained_gap_bound(prof, (10, 10))

    def test_chained_bound_on_random_chains(self):
        for rows in random_chain_pool(6, seed=808, n_max=4):
            model = _gaussian_model(rows)
            prof = mixing_rate(model.chain, s_max=40)
            family = default_event_family(model, (0.3, 0.7))
            for lags in [(1, 1), (2, 5), (4, 4)]:
                bound = chained_gap_bound(prof, lags)
                eps = epsilon_certificate(model, lags)
                assert eps <= bound + 1e-12
            # Spot-check individual tuples too, not just the family max.
            for ev in family[:4]:
                rep = joint_product_gap(model, [ev, ev, ev], (3, 6), profile=prof)
                assert rep.gap_estimate <= chained_gap_bound(prof, (3, 6)) + 1e-12

    def test_envelopes_refuse_lags_past_the_fitted_range(self):
        # c fitted on s <= 10 extrapolates to 0.147 at s = 40, where the true
        # sup gap of this slowly mixing chain is 0.252: the envelope would not
        # cover it, so every route refuses a lag past the profile's s_max.
        model = _gaussian_model(np.array([[.19, 0, .04, 0, .77], [0, .99, .01, 0, 0],
                                          [0, 0, .9, .1, 0], [.33, .03, .61, .03, 0],
                                          [0, .05, 0, 0, .95]]))
        prof = mixing_rate(model.chain, s_max=10)
        gap_40 = oracles.sup_gap_brute(model.chain.p, model.stationary(), 40)
        assert prof.c * prof.alpha**40 == pytest.approx(0.147, abs=1e-3)
        assert gap_40 == pytest.approx(0.252, abs=1e-3)
        with pytest.raises(ValueError, match="certified range"):
            prof.bound(40)
        with pytest.raises(ValueError, match="certified range"):
            prof.bound(11)
        with pytest.raises(ValueError, match="certified range"):
            chained_gap_bound(prof, (3, 11))
        event = RectEvent(frozenset({2}))
        with pytest.raises(ValueError, match="certified range"):
            joint_product_gap(model, [event] * 3, (5, 6), profile=prof)
        # Within the range every route answers, and the bounds cover the gaps.
        for s, gap in prof.gaps:
            assert gap <= prof.bound(s) + 1e-12
        rep = joint_product_gap(model, [event] * 3, (5, 5), profile=prof)
        assert rep.gap_estimate <= chained_gap_bound(prof, (5, 5)) + 1e-12
        assert chained_gap_bound(prof, (10, 10)) == pytest.approx(4.0 * prof.bound(10), rel=1e-12)

    def test_chained_bound_value(self, bench_chain):
        prof = mixing_rate(bench_chain, s_max=30)
        expected = 2.0 * prof.c * (prof.alpha**3 + prof.alpha**7)
        assert chained_gap_bound(prof, (3, 7)) == pytest.approx(expected, rel=1e-12)


class TestEpsilonCertificate:
    def test_benchmark_frozen_values(self, bench_model):
        assert epsilon_certificate(bench_model, (5, 5)) == pytest.approx(
            0.0518909277703699, rel=1e-10
        )
        assert epsilon_certificate(bench_model, (5,)) == pytest.approx(
            0.0373488888888890, rel=1e-10
        )

    def test_maximum_attained_by_pure_regime_tuple(self, bench_model):
        # The certifying family includes pure-regime events; the largest gap
        # at (5, 5) comes from the all-state-1 tuple.
        eps = epsilon_certificate(bench_model, (5, 5))
        rep = joint_product_gap(bench_model, [STATE1, STATE1, STATE1], (5, 5))
        assert eps == pytest.approx(rep.gap_estimate, rel=1e-12)

    def test_decreasing_in_lags(self, bench_model):
        values = [
            epsilon_certificate(bench_model, (t, t)) for t in (1, 2, 5, 8)
        ]
        assert values == sorted(values, reverse=True)

    def test_observation_only_family_is_strictly_smaller(self, bench_model):
        eps_regime = epsilon_certificate(bench_model, (5, 5))
        eps_obs = epsilon_certificate(
            bench_model, (5, 5), base_events=observable_event_family(bench_model)
        )
        assert eps_obs == pytest.approx(0.0241105806295632, rel=1e-9)
        assert eps_obs < eps_regime

    def test_iid_certificate_is_zero(self, iid_model):
        assert epsilon_certificate(iid_model, (3,)) <= 1e-14

    def test_explicit_family_matches_product_construction(self, bench_model):
        import itertools

        base = default_event_family(bench_model, (0.5,))
        eps_base = epsilon_certificate(bench_model, (4,), base_events=base)
        eps_family = epsilon_certificate(
            bench_model, (4,), family=itertools.product(base, repeat=2)
        )
        assert eps_base == pytest.approx(eps_family, rel=1e-12)

    @pytest.mark.parametrize("lags", [(3,), (2, 4), (1, 2, 3)])
    def test_fused_family_matches_explicit_tuples(self, lags):
        # k = 2 fuses the only lag, so no inner lag expands the prefix.
        model = _three_family_model()
        base = default_event_family(model, (0.5,))
        fused = epsilon_certificate(model, lags, base_events=base)
        explicit = epsilon_certificate(
            model, lags, family=itertools.product(base, repeat=len(lags) + 1)
        )
        assert fused > 0.0
        assert abs(fused - explicit) <= 1e-14

    def test_mc_certificate_is_conservative(self, bench_model):
        # The largest sampled gap plus 3 SE over every tuple of the pool
        # covers the exact certificate, and not by much.
        base = default_event_family(bench_model, (0.5,))
        exact = epsilon_certificate(bench_model, (3,), base_events=base)
        family = list(itertools.product(base, repeat=2))
        gaps, std_errors = oracles.tuple_gaps_mc(bench_model, family, (3,), 30_000, SeedSpec(31, 4))
        mc = float(np.max(gaps + 3.0 * std_errors))
        assert mc >= exact
        assert mc <= exact + 0.03

    def test_all_zero_pool_gives_zero(self):
        # Regime 2 emits on (-0.5, 1.5], so neither event can occur.
        model = _three_family_model()
        base = [RectEvent(frozenset({2}), 5.0, 6.0), RectEvent(frozenset({2}), -9.0, -8.0)]
        assert epsilon_certificate(model, (2,), base_events=base) == 0.0

    def test_argument_errors(self, bench_model):
        with pytest.raises(ValueError):
            epsilon_certificate(bench_model, ())
        with pytest.raises(ValueError):
            epsilon_certificate(bench_model, (0,))
        with pytest.raises(ValueError):
            epsilon_certificate(
                bench_model, (1,), family=[(FULL, FULL)], base_events=[FULL]
            )
        with pytest.raises(ValueError):
            epsilon_certificate(bench_model, (1,), family=[(FULL,)])
        # method takes one value; the sampled certificate and its knobs are gone.
        default = epsilon_certificate(bench_model, (1,))
        assert epsilon_certificate(bench_model, (1,), method="exact") == default
        with pytest.raises(ValueError):
            epsilon_certificate(bench_model, (1,), method="mc")
        for knob in ("replicates", "seed"):
            with pytest.raises(TypeError):
                epsilon_certificate(bench_model, (1,), **{knob: None})
        # profile was accepted and never read; it is no longer a parameter.
        with pytest.raises(TypeError):
            epsilon_certificate(bench_model, (1,), profile=None)

    def test_explicit_family_weighs_each_event_once(self, bench_model):
        # An explicit family computes each distinct event's weights once for
        # the whole family, not once per tuple, and scores every tuple.
        base = default_event_family(bench_model, (0.25, 0.5, 0.75))
        with mock.patch.object(RectEvent, "weights", autospec=True,
                               side_effect=RectEvent.weights) as weights:
            eps = epsilon_certificate(bench_model, (1, 2), family=itertools.product(base, repeat=3))
        assert weights.call_count == len(set(base)) == len(base)
        assert sorted(map(RectEvent.describe, (c.args[0] for c in weights.call_args_list))) == \
            sorted(map(RectEvent.describe, base))
        assert eps == pytest.approx(
            epsilon_certificate(bench_model, (1, 2), base_events=base), rel=1e-12
        )

    def test_explicit_family_matches_the_per_tuple_gaps(self, monkeypatch):
        # Stacked in chunks through the transfer core, the explicit family's
        # maximum equals the largest single-tuple gap, chunk size aside.
        model = _three_family_model()
        base = default_event_family(model, (0.25, 0.5, 0.75))
        family = list(itertools.product(base, repeat=3))
        rows = {ev: ev.weights(model) for ev in base}
        pi = model.stationary()

        def tuple_gap(events):
            joint = exact.transfer(pi, [rows[ev] for ev in events], [(model.chain.p, t) for t in (1, 3)])
            return abs(joint - np.prod([pi @ rows[ev] for ev in events]))

        per_tuple = max(tuple_gap(events) for events in family)
        stacked = epsilon_certificate(model, (1, 3), family=family)
        assert abs(stacked - per_tuple) <= 1e-14
        monkeypatch.setattr(independence, "EXPLICIT_FAMILY_CHUNK", 97)
        assert epsilon_certificate(model, (1, 3), family=iter(family)) == stacked
        assert epsilon_certificate(model, (1, 3), family=[]) == 0.0

    def test_exact_family_memory_preflight(self):
        # 60 quantile levels give 61 observation-only events, all weighing
        # every regime, so none is dominated; five lags make the fused last
        # lag hold 61^4 * 61 float64 values per leading event, about 6.7 GB.
        model = _gaussian_model(np.array(
            [[0.93, 0.05, 0.02], [0.04, 0.93, 0.03], [0.03, 0.04, 0.93]]
        ))
        base = observable_event_family(model, [i / 61 for i in range(1, 61)])
        assert len(base) == 61
        assert 61**4 * 61 * 8 > 6.7e9 > exact.MAX_EXACT_BYTES
        tracemalloc.start()
        try:
            with pytest.raises(ConfigInvalid, match="bytes"):
                epsilon_certificate(model, (5,) * 5, base_events=base)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        # Five events over 31 base events (9 levels) need 7.4 MB and still run.
        assert 31**3 * 31 * 8 < exact.MAX_EXACT_BYTES

    def test_dominated_default_family_runs_past_preflight(self):
        # 3 states and 19 quantile levels give B = 3 * 20 + 1 = 61 default
        # events, which the preflight refused before dominated events were
        # pruned. Only the three full-line regime events and the full space
        # are undominated, so 4^6 tuples give the same maximum.
        model = _gaussian_model(np.array(
            [[0.93, 0.05, 0.02], [0.04, 0.93, 0.03], [0.03, 0.04, 0.93]]
        ))
        base = default_event_family(model, [round(0.05 * i, 2) for i in range(1, 20)])
        assert len(base) == 61
        survivors = [ev for ev in base if ev.lo == -math.inf and ev.hi == math.inf]
        assert len(survivors) == 4
        lags = (5,) * 5
        eps = epsilon_certificate(model, lags, base_events=base)
        explicit = epsilon_certificate(
            model, lags, family=itertools.product(survivors, repeat=6)
        )
        assert eps > 0.0
        assert abs(eps - explicit) <= 1e-14

    @settings(max_examples=40, deadline=None)
    @example(chain_index=0, kinds=("gaussian", "uniform", "uniform"), levels=[0.05, 0.95],
             lags=(2, 3), subset_seed=0)
    @given(
        chain_index=st.integers(min_value=0, max_value=len(_PRUNING_CHAINS) - 1),
        kinds=st.tuples(*[st.sampled_from(_EMISSION_KINDS)] * 3),
        levels=st.lists(st.sampled_from([0.02, 0.1, 0.3, 0.5, 0.7, 0.9, 0.98]),
                        min_size=1, max_size=3),
        lags=st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=2).map(tuple),
        subset_seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_pruned_family_matches_full_explicit_tuples(
        self, chain_index, kinds, levels, lags, subset_seed
    ):
        # Repeating the first level duplicates its events, so exact ties
        # among single-regime events always occur; low levels leave bounded
        # emissions with zero-weight events. A random half of the family
        # leaves some regimes without their full-line event.
        rows = _PRUNING_CHAINS[chain_index]
        model = _mixed_model(rows, kinds)
        family = default_event_family(model, levels + levels[:1])
        keep = np.random.default_rng(subset_seed).random(len(family)) < 0.5
        for base in (family, [ev for ev, kept in zip(family, keep) if kept] or family[:1]):
            pruned = epsilon_certificate(model, lags, base_events=base)
            explicit = epsilon_certificate(
                model, lags, family=itertools.product(base, repeat=len(lags) + 1)
            )
            assert abs(pruned - explicit) <= 1e-14

    def test_multi_regime_events_survive_pruning(self):
        # Observation-only events weigh every regime, so pruning must keep
        # them; the two light regime-1 events alone give a smaller maximum.
        model = _three_family_model()
        singles = (
            RectEvent(frozenset({1}), -math.inf, -3.0),
            RectEvent(frozenset({1}), -math.inf, -3.5),
        )
        base = observable_event_family(model, (0.3, 0.6))[:-1] + singles
        for lags in [(2,), (1, 3)]:
            pruned = epsilon_certificate(model, lags, base_events=base)
            explicit = epsilon_certificate(
                model, lags, family=itertools.product(base, repeat=len(lags) + 1)
            )
            assert pruned > epsilon_certificate(model, lags, base_events=singles)
            assert abs(pruned - explicit) <= 1e-14


class TestEventFamilies:
    def test_default_family_composition(self, bench_model):
        family = default_event_family(bench_model, (0.25, 0.75))
        # Per regime: one half-line per level plus the unrestricted event,
        # then the full space.
        assert len(family) == 2 * 3 + 1
        assert family[-1].state_set == frozenset({1, 2})
        assert family[-1].lo == -math.inf and family[-1].hi == math.inf

    def test_observable_family_ignores_regimes(self, bench_model):
        family = observable_event_family(bench_model, (0.5,))
        assert len(family) == 2
        assert all(ev.state_set == frozenset({1, 2}) for ev in family)

    def test_family_thresholds_are_mixture_quantiles(self, bench_model):
        from regimeclt.process import mixture_cdf

        family = observable_event_family(bench_model, (0.3, 0.8))
        assert mixture_cdf(bench_model, family[0].hi) == pytest.approx(0.3, abs=1e-9)
        assert mixture_cdf(bench_model, family[1].hi) == pytest.approx(0.8, abs=1e-9)
