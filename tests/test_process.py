"""Tests for emissions, model specs, path simulation, and filtering."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from regimeclt import process
from regimeclt.chain import TransitionMatrix
from regimeclt.charfn import cf_factorization_gap
from regimeclt.clt import clt_convergence
from regimeclt.errors import InvalidModel, ZeroLikelihood
from regimeclt.independence import RectEvent
from regimeclt.process import (
    EmissionSpec,
    Gaussian,
    ModelSpec,
    PathSample,
    ShiftedExponential,
    Uniform,
    conditional_density,
    emission_from_json_dict,
    iter_path_chunks,
    mixture_abs_third_moment,
    mixture_cdf,
    mixture_mean,
    mixture_quantile,
    mixture_variance,
    predictive_state_probs,
    sample_path,
)
from regimeclt.seeds import REPLICATE_BLOCK, SeedSpec


class TestEmissions:
    @pytest.mark.parametrize(
        "comp",
        [Gaussian(0.5, 2.0), Uniform(-1.0, 3.0), ShiftedExponential(0.7, -2.0)],
        ids=["gaussian", "uniform", "shifted_exponential"],
    )
    def test_cf_matches_fourier_quadrature(self, comp):
        from scipy import integrate

        lo, hi = comp.effective_support()
        for t in (0.0, 1e-7, 0.3, 1.0, 4.0, -2.5):
            parts = [integrate.quad(lambda x: float(comp.pdf(x)), lo, hi, weight=w, wvar=t,
                                    limit=400, epsabs=1e-13)[0] for w in ("cos", "sin")]
            assert abs(complex(comp.cf(t)) - complex(*parts)) <= 1e-9

    @pytest.mark.parametrize(
        "comp",
        [Gaussian(0.5, 2.0), Uniform(-1.0, 3.0), ShiftedExponential(0.7, -2.0)],
        ids=["gaussian", "uniform", "shifted_exponential"],
    )
    def test_cf_bound_is_a_nonincreasing_envelope(self, comp):
        s = np.linspace(0.0, 60.0, 60_001)
        bound = comp.cf_bound(s)
        assert np.all(np.abs(comp.cf(s)) <= bound + 1e-15)
        assert np.all(np.diff(bound) <= 0.0)
        np.testing.assert_array_equal(comp.cf_bound(-s), bound)
        # The far-tail bound every family shares.
        assert np.all(np.abs(comp.cf(s[1:])) <= 1.0 / (s[1:] * math.sqrt(comp.variance)))

    def test_uniform_cf_is_accurate_near_zero(self):
        # The sinc form keeps full relative accuracy where the difference
        # quotient loses about eps / t.
        comp = Uniform(-0.5, 1.5)
        for t in (1e-6, 1e-9, 1e-12):
            half = 0.5 * (comp.b - comp.a) * t
            expected = complex(math.cos(0.5 * t), math.sin(0.5 * t)) * (1.0 - half * half / 6.0)
            assert abs(complex(comp.cf(t)) - expected) <= 2e-16

    def test_cf_matrix_stacks_the_components(self, bench_model):
        t = np.array([[0.0, 0.5], [1.0, 2.0]])
        got = bench_model.emissions.cf_matrix(t)
        assert got.shape == (2, 2, 2)
        for j, comp in enumerate(bench_model.emissions.components):
            np.testing.assert_array_equal(got[..., j], comp.cf(t))

    @pytest.mark.parametrize(
        "comp",
        [Gaussian(0.5, 2.0), Uniform(-1.0, 3.0), ShiftedExponential(0.7, -2.0)],
        ids=["gaussian", "uniform", "shifted_exponential"],
    )
    def test_abs_third_moment_matches_quadrature(self, comp):
        lo, hi = comp.effective_support()
        for center in (0.0, comp.mean, 1.3):
            expected = oracles.abs_third_moment_quad(comp.pdf, lo, hi, center)
            assert comp.abs_third_moment(center) == pytest.approx(expected, rel=1e-8)

    @pytest.mark.parametrize(
        "comp",
        [Gaussian(-1.0, 0.5), Uniform(0.0, 2.0), ShiftedExponential(1.5, 1.0)],
        ids=["gaussian", "uniform", "shifted_exponential"],
    )
    def test_ppf_inverts_cdf(self, comp):
        u = np.linspace(0.01, 0.99, 25)
        np.testing.assert_allclose(comp.cdf(comp.ppf(u)), u, atol=1e-10)

    def test_variance_matches_quadrature(self):
        comp = ShiftedExponential(0.9, -0.4)
        lo, hi = comp.effective_support()
        from scipy import integrate

        mean, _ = integrate.quad(lambda x: x * comp.pdf(x), lo, hi)
        var, _ = integrate.quad(lambda x: (x - mean) ** 2 * comp.pdf(x), lo, hi)
        assert comp.mean == pytest.approx(mean, rel=1e-9)
        assert comp.variance == pytest.approx(var, rel=1e-8)

    @pytest.mark.parametrize(
        "bad",
        [
            lambda: Gaussian(0.0, 0.0),
            lambda: Gaussian(0.0, -1.0),
            lambda: Uniform(1.0, 1.0),
            lambda: Uniform(2.0, -2.0),
            lambda: ShiftedExponential(0.0, 0.0),
            lambda: ShiftedExponential(-1.0, 0.0),
            # Finite parameters whose variance or squared mean leaves float
            # range: the closed-form check in EmissionSpec refuses them.
            lambda: EmissionSpec((ShiftedExponential(1e-320),)),
            lambda: EmissionSpec((ShiftedExponential(1e-200),)),
            lambda: EmissionSpec((ShiftedExponential(1e308),)),
            lambda: EmissionSpec((Uniform(-1e308, 1e308),)),
            lambda: EmissionSpec((Uniform(0.0, 1e-320),)),
            lambda: EmissionSpec((Gaussian(0.0, 1e-320),)),
            lambda: EmissionSpec((Gaussian(0.0, 1e170),)),
            lambda: EmissionSpec((Gaussian(1e200, 1.0),)),
        ],
    )
    def test_invalid_parameters_rejected(self, bad):
        with pytest.raises(InvalidModel):
            bad()

    def test_small_positive_variance_accepted(self):
        # sigma^2 = 1e-320 is subnormal but positive; a grid quadrature of
        # this density cannot resolve it, the closed form can.
        emissions = EmissionSpec((Gaussian(0.0, 1e-160), Uniform(-1.0, 1.0)))
        assert emissions.variances()[0] > 0.0

    @pytest.mark.parametrize(
        "comp",
        [Gaussian(0.25, 1.5), Uniform(-2.0, -0.5), ShiftedExponential(2.0, 0.1)],
    )
    def test_json_round_trip(self, comp):
        again = emission_from_json_dict(json.loads(json.dumps(comp.to_json_dict())))
        assert again == comp

    def test_unknown_family_rejected(self):
        with pytest.raises(InvalidModel):
            emission_from_json_dict({"family": "cauchy", "loc": 0.0})


class TestNormalFunctions:
    """process._ndtr and process._ndtri against scipy.special (tests only)."""

    def test_ndtri_matches_scipy(self):
        from scipy import special

        grid = np.concatenate([
            np.logspace(-300, -1, 6001),
            np.linspace(0.1, 0.9, 6001),
            1.0 - np.logspace(-1, -15.9, 6001),
            [0.075, 0.925, 1.0 - 2.0**-53],
            np.random.default_rng(71).random(1_000_000),
        ])
        got, expected = process._ndtri(grid), special.ndtri(grid)
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got, expected, rtol=2e-15, atol=0.0)

    def test_ndtr_matches_scipy(self):
        from scipy import special

        x = np.linspace(-40.0, 40.0, 160_001)
        np.testing.assert_allclose(process._ndtr(x), special.ndtr(x), rtol=0.0, atol=1e-15)

    def test_scalar_gives_the_bits_it_has_in_an_array(self):
        levels = np.array([1e-300, 1e-20, 0.01, 0.07, 0.075, 0.3, 0.5, 0.925, 0.99, 1.0 - 1e-12])
        mixed = np.concatenate([levels, np.random.default_rng(72).random(5_000)])
        for fn, values in ((process._ndtri, mixed), (process._ndtr, 12.0 * mixed - 6.0)):
            batch = fn(values)
            for i, v in enumerate(values[: levels.size]):
                scalar = fn(float(v))
                assert np.ndim(scalar) == 0
                assert scalar == batch[i]

    def test_ndtri_endpoints(self):
        np.testing.assert_array_equal(process._ndtri([0.0, 1.0, 0.5]), [-np.inf, np.inf, 0.0])

    def test_gaussian_ppf_at_zero_is_finite(self):
        comp = Gaussian(0.5, 2.0)
        assert np.isfinite(comp.ppf(0.0))
        assert comp.ppf(0.0) == comp.ppf(1e-300)
        assert np.all(np.isfinite(comp.ppf(np.array([0.0, 0.5, 1.0 - 2.0**-53]))))


class TestModelSpec:
    def test_state_count_mismatch(self, bench_chain):
        with pytest.raises(InvalidModel):
            ModelSpec(bench_chain, EmissionSpec((Gaussian(0.0, 1.0),)))

    def test_initial_specifications(self, bench_chain):
        emissions = EmissionSpec((Gaussian(-1.0, 1.0), Gaussian(1.0, 1.0)))
        fixed = ModelSpec(bench_chain, emissions, initial=2)
        np.testing.assert_array_equal(fixed.initial_distribution(), [0.0, 1.0])
        explicit = ModelSpec(bench_chain, emissions, initial=[0.25, 0.75])
        np.testing.assert_allclose(explicit.initial_distribution(), [0.25, 0.75])
        with pytest.raises(InvalidModel):
            ModelSpec(bench_chain, emissions, initial=3)
        with pytest.raises(InvalidModel):
            ModelSpec(bench_chain, emissions, initial=[0.7, 0.7])
        with pytest.raises(InvalidModel):
            ModelSpec(bench_chain, emissions, initial="uniform")

    def test_stationary_initial_distribution(self, bench_model):
        np.testing.assert_allclose(
            bench_model.initial_distribution(), [2.0 / 3.0, 1.0 / 3.0], atol=1e-12
        )

    def test_stationary_is_cached_read_only_and_not_a_field(self, bench_model):
        model = ModelSpec.from_json(bench_model.to_json())
        before = model.to_json()
        pi = model.stationary()
        assert model.stationary() is pi
        assert not pi.flags.writeable
        assert model.to_json() == before
        assert [f.name for f in dataclasses.fields(model)] == ["chain", "emissions", "initial"]

    def test_json_round_trip(self, bench_model, uniform_model):
        for model in (bench_model, uniform_model):
            again = ModelSpec.from_json(model.to_json())
            assert again.to_json_dict() == model.to_json_dict()

    @pytest.mark.parametrize("initial,form", [(2, {"fixed_state": 2}),
                                              ((0.25, 0.75), {"probs": [0.25, 0.75]})])
    def test_json_round_trip_of_a_non_stationary_start(self, bench_model, initial, form):
        model = dataclasses.replace(bench_model, initial=initial)
        assert model.to_json_dict()["initial"] == form
        again = ModelSpec.from_json(model.to_json())
        assert again == model and again.initial == initial
        assert again.to_json() == model.to_json()

    def test_stationary_routes_ignore_the_initial_law(self, bench_model):
        # These routes sample model.stationary_start(), so a model started
        # from a fixed regime gives the bits of its stationary twin.
        started = dataclasses.replace(bench_model, initial=2)
        twin = started.stationary_start()
        assert twin == bench_model and twin.chain is started.chain
        seed = SeedSpec(41, 2)
        events = [RectEvent(frozenset({1}), -np.inf, 0.0), RectEvent(frozenset({1, 2}), 0.5)]

        def outputs(model):
            cf = cf_factorization_gap(model, (2, 3), [0.5, 1.0], replicates=400, seed=seed)
            gap = oracles.tuple_gaps_mc(model, [events], (3,), 2_000, seed)
            sd = oracles.long_run_std_batch_means(model, seed, batches=50)
            conv = clt_convergence(model, [16, 64])
            return [np.asarray(getattr(rep, f.name)) for rep in (cf, conv)
                    for f in dataclasses.fields(rep)] + [*gap, np.asarray(sd)]

        for a, b in zip(outputs(started), outputs(twin), strict=True):
            np.testing.assert_array_equal(a, b)

    def test_equal_by_value_and_hash_equal(self, bench_model):
        a = ModelSpec.from_json(bench_model.to_json())
        b = ModelSpec.from_json(bench_model.to_json())
        assert a.chain is not b.chain
        assert a == b and hash(a) == hash(b)
        a.stationary()  # the cache is not a field
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != dataclasses.replace(b, initial=1)

    def test_from_json_dict_rejects_garbage(self, bench_model):
        obj = bench_model.to_json_dict()
        obj["emissions"] = obj["emissions"][:1]
        with pytest.raises(InvalidModel):
            ModelSpec.from_json_dict(obj)


# Exact zeros and repeated cumulative values: rows 1 and 3 are [0, 1, 0].
_ZERO_ROWS = TransitionMatrix(np.array([[0.0, 1.0, 0.0], [1 / 3, 1 / 3, 1 / 3], [0.0, 1.0, 0.0]]))
_ZERO_EMISSIONS = EmissionSpec((Gaussian(-1.0, 1.0), Uniform(0.0, 2.0), ShiftedExponential(1.0, 1.0)))
ZERO_ROW_MODELS = [ModelSpec(_ZERO_ROWS, _ZERO_EMISSIONS, initial)
                   for initial in ("stationary", 3, (0.5, 0.0, 0.5))]


# Emission families of a model: one family for every regime, or Gaussian and
# uniform alternating, or all three in turn.
FAMILY_MIXES = ("gaussian", "uniform", "shifted_exponential", "two", "three")


def family_emissions(mix: str, n_states: int) -> EmissionSpec:
    """n_states components of the families in mix, with parameters that vary by regime."""
    make = {"gaussian": lambda j: Gaussian(float(j), 1.0 + 0.25 * j),
            "uniform": lambda j: Uniform(float(j), j + 1.5),
            "shifted_exponential": lambda j: ShiftedExponential(1.0 + 0.5 * j, -float(j))}
    cycle = {"two": ("uniform", "gaussian"),
             "three": ("gaussian", "uniform", "shifted_exponential")}.get(mix, (mix,))
    return EmissionSpec(tuple(make[cycle[j % len(cycle)]](j) for j in range(n_states)))


@st.composite
def walk_models(draw):
    """Models of 1 to 8 regimes whose rows have exact zeros and repeated
    cumulative values, under a stationary, fixed or explicit initial law,
    with emissions of one family or a mix of two or three."""
    n_states = draw(st.integers(1, 8))
    weights = draw(st.lists(st.integers(0, 3), min_size=n_states**2, max_size=n_states**2))
    w = np.array(weights, dtype=np.float64).reshape(n_states, n_states)
    # A cycle through every regime plus one self-loop make the chain ergodic,
    # so the stationary law exists; every other entry may be zero.
    idx = np.arange(n_states)
    w[idx, (idx + 1) % n_states] += 1.0
    w[0, 0] += 1.0
    chain = TransitionMatrix(w / w.sum(axis=1, keepdims=True))
    kind = draw(st.sampled_from(["stationary", "fixed", "vector"]))
    if kind == "fixed":
        initial = draw(st.integers(1, n_states))
    elif kind == "vector":
        v = np.array(draw(st.lists(st.integers(0, 3), min_size=n_states, max_size=n_states)),
                     dtype=np.float64)
        v[draw(st.integers(0, n_states - 1))] += 1.0
        initial = tuple(v / v.sum())
    else:
        initial = "stationary"
    return ModelSpec(chain, family_emissions(draw(st.sampled_from(FAMILY_MIXES)), n_states), initial)


class TestSamplePath:
    def test_deterministic_in_seed(self, bench_model):
        a = sample_path(bench_model, 500, SeedSpec(11, 3))
        b = sample_path(bench_model, 500, SeedSpec(11, 3))
        np.testing.assert_array_equal(a.states, b.states)
        np.testing.assert_array_equal(a.observations, b.observations)
        c = sample_path(bench_model, 500, SeedSpec(11, 4))
        assert not np.array_equal(a.observations, c.observations)

    def test_labels_one_based(self, bench_model):
        path = sample_path(bench_model, 200, SeedSpec(1))
        assert len(path) == 200
        assert path.states.min() >= 1 and path.states.max() <= 2

    def test_state_frequency_near_stationary(self, bench_model):
        path = sample_path(bench_model, 200_000, SeedSpec(42))
        freq = np.mean(path.states == 1)
        # Autocorrelated indicator: variance inflation (1 + alpha) / (1 - alpha).
        se = np.sqrt((2.0 / 9.0) * (1.7 / 0.3) / 200_000)
        assert abs(freq - 2.0 / 3.0) < 5 * se

    def test_fixed_initial_transitions_once(self, bench_chain):
        emissions = EmissionSpec((Gaussian(-1.0, 1.0), Gaussian(1.0, 1.0)))
        model = ModelSpec(bench_chain, emissions, initial=1)
        first = np.array(
            [sample_path(model, 1, SeedSpec(7, s)).states[0] for s in range(4000)]
        )
        assert np.mean(first == 1) == pytest.approx(0.9, abs=0.025)

    def test_csv_output(self, bench_model, tmp_path):
        path = sample_path(bench_model, 5, SeedSpec(3))
        out = tmp_path / "path.csv"
        path.to_csv(out)
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "t,state,x"
        assert len(lines) == 6
        t, s, x = lines[3].split(",")
        assert int(t) == 3
        assert int(s) == path.states[2]
        assert float(x) == path.observations[2]

    def test_rejects_empty_path(self, bench_model):
        with pytest.raises(InvalidModel):
            sample_path(bench_model, 0, SeedSpec(1))

    @pytest.mark.parametrize("block", [7, process._OBS_BLOCK_ELEMENTS])
    @pytest.mark.parametrize("n", [1, 17, 5000])
    def test_matches_bisect_loop(self, bench_model, n, block):
        for model in [bench_model, *ZERO_ROW_MODELS]:
            for seed in (SeedSpec(11, 3), SeedSpec(2024, 0)):
                with mock.patch.object(process, "_OBS_BLOCK_ELEMENTS", block):
                    path = sample_path(model, n, seed)
                # Replicate 0 of the block streams, walked one step at a time.
                states, obs = oracles.path_chunks_loop(model, n, 1, seed)
                np.testing.assert_array_equal(path.states, states[0])
                np.testing.assert_array_equal(path.observations, obs[0])


class TestIterPathChunks:
    @staticmethod
    def _collect(model, n, n_paths, seed, **kwargs):
        times = kwargs.get("times")
        states = np.empty((n_paths, n if times is None else len(times)), dtype=np.int16)
        obs = np.empty(states.shape)
        for start, s, x in iter_path_chunks(model, n, n_paths, seed, **kwargs):
            states[start : start + s.shape[0]] = s
            obs[start : start + s.shape[0]] = x
        return states, obs

    def test_independent_of_chunk_size(self, bench_model):
        seed = SeedSpec(99, 2)
        big = self._collect(bench_model, 30, 40, seed)
        small = self._collect(bench_model, 30, 40, seed, max_elements=200)
        np.testing.assert_array_equal(big[0], small[0])
        np.testing.assert_array_equal(big[1], small[1])

    def test_replicate_matches_manual_reconstruction(self, bench_model):
        # Replicate r consumes 2n + 1 uniforms (one for the initial regime, n
        # for transitions, n for observations) from the stream of block
        # r // REPLICATE_BLOCK, after the rows of the replicates before it.
        n, r = 12, REPLICATE_BLOCK + 7
        seed = SeedSpec(5, 1)
        states, obs = self._collect(bench_model, n, r + 1, seed)
        block, row = divmod(r, REPLICATE_BLOCK)
        u = seed.block_rng(block).random((row + 1, 2 * n + 1))[row]
        cum_init = np.cumsum(bench_model.initial_distribution())
        state = int(np.searchsorted(cum_init, u[0], side="right"))
        cum = np.cumsum(bench_model.chain.p, axis=1)
        expect_states = []
        for t in range(n):
            state = int((cum[state] <= u[1 + t]).sum())
            expect_states.append(state + 1)
        np.testing.assert_array_equal(states[r], expect_states)
        comps = bench_model.emissions.components
        expect_obs = [comps[s - 1].ppf(u[1 + n + t]) for t, s in enumerate(expect_states)]
        np.testing.assert_allclose(obs[r], expect_obs, rtol=1e-12)

    def test_independent_of_chunk_size_across_blocks(self, bench_model):
        # 3 * 300 = 900 uniforms fit 300 replicates per chunk, which does not
        # divide the block size, so chunks start and end mid-block.
        n, n_paths = 1, 2 * REPLICATE_BLOCK + 100
        seed = SeedSpec(42, 3)
        big = self._collect(bench_model, n, n_paths, seed)
        small = self._collect(bench_model, n, n_paths, seed, max_elements=3 * 300)
        np.testing.assert_array_equal(big[0], small[0])
        np.testing.assert_array_equal(big[1], small[1])

    def test_prefix_of_longer_run(self, bench_model):
        n, m = 4, REPLICATE_BLOCK + 5
        seed = SeedSpec(8, 6)
        short = self._collect(bench_model, n, m, seed)
        long = self._collect(bench_model, n, 2 * REPLICATE_BLOCK + 1, seed)
        np.testing.assert_array_equal(short[0], long[0][:m])
        np.testing.assert_array_equal(short[1], long[1][:m])

    def test_stationary_marginal_mean(self, bench_model):
        _, obs = self._collect(bench_model, 3, 20_000, SeedSpec(123, 5))
        last = obs[:, -1]
        se = last.std(ddof=1) / np.sqrt(last.size)
        assert abs(last.mean() - mixture_mean(bench_model)) < 4 * se

    @settings(max_examples=60, deadline=None)
    @example(model=ZERO_ROW_MODELS[0], n=9, n_paths=REPLICATE_BLOCK + 5, max_elements=1000,
             block=7, base=3)
    @example(model=ZERO_ROW_MODELS[1], n=1, n_paths=40, max_elements=1, block=1, base=4)
    @example(model=ZERO_ROW_MODELS[2], n=33, n_paths=12, max_elements=200, block=64, base=5)
    @given(
        model=walk_models(),
        n=st.integers(1, 40),
        n_paths=st.integers(1, 60),
        max_elements=st.integers(1, 500),
        block=st.sampled_from([1, 2, 7, 64, process._OBS_BLOCK_ELEMENTS]),
        base=st.integers(0, 2**32 - 1),
    )
    def test_matches_walk_loop(self, model, n, n_paths, max_elements, block, base):
        # A small block size splits the row-blocked observation transform
        # over many blocks (one row each at size 1), and a small max_elements
        # splits the replicates over many chunks.
        seed = SeedSpec(base, 1)
        with mock.patch.object(process, "_OBS_BLOCK_ELEMENTS", block):
            states, obs = self._collect(model, n, n_paths, seed, max_elements=max_elements)
        expect_states, expect_obs = oracles.path_chunks_loop(model, n, n_paths, seed)
        np.testing.assert_array_equal(states, expect_states)
        np.testing.assert_array_equal(obs, expect_obs)

    @settings(max_examples=60, deadline=None)
    @example(model=ZERO_ROW_MODELS[0], n=9, n_paths=REPLICATE_BLOCK + 5, max_elements=1000,
             block=7, base=3, picks=[0, 4, 8])
    @example(model=ZERO_ROW_MODELS[1], n=1, n_paths=40, max_elements=1, block=1, base=4, picks=[0])
    @example(model=ZERO_ROW_MODELS[2], n=33, n_paths=12, max_elements=200, block=64, base=5,
             picks=[32, 0, 31, 1])
    @given(
        model=walk_models(),
        n=st.integers(1, 40),
        n_paths=st.integers(1, 60),
        max_elements=st.integers(1, 500),
        block=st.sampled_from([1, 2, 7, 64, process._OBS_BLOCK_ELEMENTS]),
        base=st.integers(0, 2**32 - 1),
        picks=st.lists(st.integers(0, 39), min_size=1, max_size=5),
    )
    def test_event_times_match_event_loop(self, model, n, n_paths, max_elements, block, base,
                                          picks):
        # Event times with moves of one and of several steps, repeated and
        # not: equal moves share one next-regime table, and each move is
        # walked here on its own P^move.
        seed = SeedSpec(base, 1)
        times = sorted({t % n for t in picks})
        with mock.patch.object(process, "_OBS_BLOCK_ELEMENTS", block):
            states, obs = self._collect(model, n, n_paths, seed, max_elements=max_elements,
                                        times=times)
        expect_states, expect_obs = oracles.event_chunks_loop(model, times, n_paths, seed)
        np.testing.assert_array_equal(states, expect_states)
        np.testing.assert_array_equal(obs, expect_obs)

    @pytest.mark.parametrize("max_elements", [7, 7 * 700, 10_000_000])
    def test_event_times_match_event_loop_across_blocks(self, bench_model, max_elements):
        # 3,000 replicates cross two block boundaries; three event times take
        # 7 uniforms a replicate, so max_elements 7 is one replicate per chunk
        # and 7 * 700 ends chunks mid-block.
        n_paths, seed, times = 3_000, SeedSpec(61, 2), [0, 5, 10]
        for model in (bench_model, ZERO_ROW_MODELS[1]):
            states, obs = self._collect(model, 11, n_paths, seed, max_elements=max_elements,
                                        times=times)
            expect_states, expect_obs = oracles.event_chunks_loop(model, times, n_paths, seed)
            np.testing.assert_array_equal(states, expect_states)
            np.testing.assert_array_equal(obs, expect_obs)

    @pytest.mark.parametrize("model", ZERO_ROW_MODELS, ids=["stationary", "fixed", "vector"])
    def test_event_time_regimes_follow_the_exact_law(self, model):
        # The regime at tau_a has law mu_a = mu P^(tau_a + 1) for the initial
        # law mu (e_3 for the fixed start, pi for the stationary one), and the
        # pair at tau_a < tau_b has law mu_a,i (P^(tau_b - tau_a))_ij. Every
        # pair frequency lies within 5 binomial SE of it; a cell of
        # probability 0 is never hit.
        times, replicates = [1, 2, 5], 200_000
        states, _obs = self._collect(model, 6, replicates, SeedSpec(404, 1), times=times)
        p = model.chain.p
        laws = [model.initial_distribution() @ np.linalg.matrix_power(p, t + 1) for t in times]
        if model.initial == "stationary":
            np.testing.assert_allclose(laws[0], model.stationary(), atol=1e-15)
        for a, b in [(0, 1), (1, 2), (0, 2)]:
            expect = laws[a][:, None] * np.linalg.matrix_power(p, times[b] - times[a])
            freq = np.zeros_like(expect)
            np.add.at(freq, (states[:, a] - 1, states[:, b] - 1), 1.0 / replicates)
            se = np.sqrt(expect * (1.0 - expect) / replicates)
            assert np.all(np.abs(freq - expect) <= 5.0 * se), (a, b, freq, expect)

    @pytest.mark.parametrize("times", [[], [5], [-1], [[0, 1]], [0, 0], [5, 2], [3, 1]])
    def test_times_validation(self, bench_model, times):
        with pytest.raises(InvalidModel):
            list(iter_path_chunks(bench_model, 5, 3, SeedSpec(1), times=times))

    @settings(max_examples=60, deadline=None)
    @given(model=walk_models(), size=st.integers(1, 6), k=st.integers(1, 30),
           move=st.sampled_from([1, 2, 5]), base=st.integers(0, 2**32 - 1))
    def test_walk_matches_walk_loop_at_ties(self, model, size, k, move, base):
        # Uniforms equal to a cumulative value of P^move, or one ulp below it,
        # decide which side of a threshold a tie falls on; random draws almost
        # never hit them. Event times move - 1, 2 move - 1, ... make every move
        # P^move (move 1 is the full path), and the stubbed block stream feeds
        # tie values to every move uniform.
        cum = oracles._cumulative_rows(np.linalg.matrix_power(model.chain.p, move))
        ties = np.unique(cum[cum < 1.0])
        values = np.concatenate(([0.0], ties, np.nextafter(ties, 0.0)))
        rng = np.random.default_rng(base)
        u = rng.random((size, 2 * k + 1))
        u[:, 1 : k + 1] = rng.choice(values, size=(size, k))

        class Draws:
            # The one block stream hands out the rows of u in order.
            row = 0

            def random(self, out):
                out[:] = u[self.row : self.row + len(out)]
                self.row += len(out)

        times = move * np.arange(1, k + 1) - 1
        with mock.patch.object(SeedSpec, "block_rng", return_value=Draws()):
            states, obs = self._collect(model, move * k, size, SeedSpec(1), times=times)
        s0 = oracles._initial_states(model, u[:, 0])
        expect = oracles.walk_loop(cum, s0, u[:, 1 : k + 1])
        np.testing.assert_array_equal(states, expect + 1)
        np.testing.assert_array_equal(obs, oracles._observations(model, expect, u[:, k + 1 :]))

    @pytest.mark.parametrize("block", [1, 2, 7, 64, process._OBS_BLOCK_ELEMENTS])
    @pytest.mark.parametrize("mix", FAMILY_MIXES)
    def test_family_quantiles_match_per_component_oracle_at_the_ends(self, mix, block):
        # Observation uniforms of 0 (which the Gaussian quantile clips to
        # 1e-300), of 1 - 2^-53 (the largest draw) and their neighbours, among
        # random ones, under every family mix and row block; the oracle applies
        # each component's ppf to its regime's entries.
        model = ModelSpec(TransitionMatrix(np.full((5, 5), 0.2)), family_emissions(mix, 5))
        size, k = 400, 3
        rng = np.random.default_rng(block)
        u = rng.random((size, 2 * k + 1))
        ends = [0.0, 5e-324, 1e-300, 0.5, 1.0 - 2.0**-52, 1.0 - 2.0**-53]
        u[:, k + 1 :] = np.where(rng.random((size, k)) < 0.5, rng.choice(ends, (size, k)),
                                 u[:, k + 1 :])

        class Draws:
            row = 0

            def random(self, out):
                out[:] = u[self.row : self.row + len(out)]
                self.row += len(out)

        with mock.patch.object(process, "_OBS_BLOCK_ELEMENTS", block), \
                mock.patch.object(SeedSpec, "block_rng", return_value=Draws()):
            states, obs = self._collect(model, k, size, SeedSpec(1))
        expect = oracles._observations(model, states - 1, u[:, k + 1 :])
        np.testing.assert_array_equal(obs, expect)
        assert np.all(np.isfinite(obs))

    @pytest.mark.parametrize("n,n_paths", [(4000, 150), (3, process._OBS_BLOCK_ELEMENTS + 10)],
                             ids=["long-paths", "many-paths"])
    def test_matches_walk_loop_across_obs_blocks(self, n, n_paths):
        # Both shapes hold more than two row blocks of observation uniforms.
        model = ZERO_ROW_MODELS[0]
        seed = SeedSpec(77, 4)
        states, obs = self._collect(model, n, n_paths, seed)
        expect_states, expect_obs = oracles.path_chunks_loop(model, n, n_paths, seed)
        np.testing.assert_array_equal(states, expect_states)
        np.testing.assert_array_equal(obs, expect_obs)

    def test_walk_scratch_stays_within_a_few_obs_blocks(self):
        # One 300 x 16,000 chunk's memory beyond its arrays (the uniforms u,
        # the 0-based and 1-based int16 states, obs) is the per-move bucket
        # search and lookup and the row-blocked observation transform, not
        # another array of the chunk's size.
        model = ModelSpec(
            TransitionMatrix(np.array([[0.98, 0.015, 0.005], [0.01, 0.98, 0.01],
                                       [0.005, 0.015, 0.98]])),
            EmissionSpec((Gaussian(-1.0, 1.0), Uniform(0.0, 2.0), Gaussian(3.0, 0.5))))
        n, n_paths = 16_000, 300
        tracemalloc.start()
        try:
            _start, states, obs = next(iter_path_chunks(model, n, n_paths, SeedSpec(3)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert states.shape == obs.shape == (n_paths, n)
        arrays = n_paths * (2 * n + 1) * 8 + 2 * states.nbytes + obs.nbytes
        assert peak - arrays < 4 * process._OBS_BLOCK_ELEMENTS * 8

    def test_transform_scratch_stays_within_a_few_row_blocks(self):
        # The observation transform alone, on the same 300 x 16,000 mixed
        # model, holds beyond its output a few row blocks of scratch (the
        # family masks, the gathered parameters, the quantile temporaries),
        # not one temporary of the chunk's size: even a boolean one is 4.8 MB.
        emissions = EmissionSpec((Gaussian(-1.0, 1.0), Uniform(0.0, 2.0), Gaussian(3.0, 0.5)))
        n, n_paths = 16_000, 300
        rng = np.random.default_rng(3)
        states0 = rng.integers(0, 3, size=(n_paths, n)).astype(np.int16)
        u = rng.random((n_paths, n))
        block = max(1, process._OBS_BLOCK_ELEMENTS // n) * n
        tracemalloc.start()
        try:
            obs = emissions.ppf_by_state(states0, u)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert obs.shape == (n_paths, n)
        assert peak - obs.nbytes < 12 * block * 8 < n_paths * n

    def test_dense_chain_table_built_once_within_its_bytes(self):
        # A dense 200-state chain has about 40,000 distinct cumulative
        # values, so its (buckets, N) next-regime table is the walk's largest
        # buffer. It is built once per call, not per chunk, as int16, and the
        # traced peak stays within its size, plus eight N x N float arrays of
        # the table build's own scratch (the sorted rows and thresholds, and
        # each row's bucket counts), plus a few observation blocks.
        p = np.random.default_rng(12).random((200, 200)) + 0.01
        chain = TransitionMatrix(p / p.sum(axis=1, keepdims=True))
        emissions = EmissionSpec(tuple(Gaussian(float(j % 7), 1.0) for j in range(200)))
        model = ModelSpec(chain, emissions, 1)
        cum = np.cumsum(chain.p, axis=1)
        cum[:, -1] = 1.0
        table_bytes = (np.unique(cum).size + 1) * 200 * 2
        n, n_paths, seed = 50, 6, SeedSpec(31, 2)
        with mock.patch.object(process, "_walk_table", wraps=process._walk_table) as build:
            tracemalloc.start()
            try:
                # Two replicates per chunk: three chunks.
                states, obs = self._collect(model, n, n_paths, seed, max_elements=2 * (2 * n + 1))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert build.call_count == 1
        assert table_bytes > 15_000_000
        assert peak < table_bytes + 8 * 200 * 200 * 8 + 4 * process._OBS_BLOCK_ELEMENTS * 8
        expect_states, expect_obs = oracles.path_chunks_loop(model, n, n_paths, seed)
        np.testing.assert_array_equal(states, expect_states)
        np.testing.assert_array_equal(obs, expect_obs)

    def test_fixed_initial_regime_ignores_its_uniform(self, bench_model):
        # cumsum(e_j) is (0, .., 0, 1, .., 1) with j zeros, so the initial
        # uniform u in [0, 1) starts a fixed regime j at j whatever u is: at 0,
        # at every tie value of the walk and one ulp below it, and just under 1.
        for base in (bench_model, ZERO_ROW_MODELS[0]):
            cum = np.cumsum(base.chain.p, axis=1)
            ties = np.unique(cum[cum < 1.0])
            u0 = np.concatenate(([0.0], ties, np.nextafter(ties, 0.0), [np.nextafter(1.0, 0.0)]))

            class Draws:
                # Replicate r's 2n + 1 uniforms all equal u0[r].
                def random(self, out):
                    out[:] = u0[:, None]

            # So the path is the walk from j - 1 under the same two move uniforms.
            cum_p = oracles._cumulative_rows(base.chain.p)
            for j in range(1, base.n_states + 1):
                model = dataclasses.replace(base, initial=j)
                with mock.patch.object(SeedSpec, "block_rng", return_value=Draws()):
                    states, _obs = self._collect(model, 2, u0.size, SeedSpec(1))
                expect = oracles.walk_loop(cum_p, np.full(u0.size, j - 1), np.repeat(u0[:, None], 2, 1))
                np.testing.assert_array_equal(states, expect + 1)

    def test_table_over_cap_refused_before_drawing(self, bench_model):
        # The two-state chain's table is 4 buckets (thresholds 0.2, 0.9, 1)
        # x 2 regimes x 2 bytes; one byte less of cap refuses it.
        cum = np.cumsum(bench_model.chain.p, axis=1)
        assert process._walk_table(cum)[1].nbytes == 16
        no_block_draws = mock.patch.object(SeedSpec, "block_rng", side_effect=AssertionError("drew"))
        with mock.patch.object(process, "_WALK_TABLE_BYTES", 15), no_block_draws:
            with pytest.raises(InvalidModel, match="next-regime table"):
                sample_path(bench_model, 10, SeedSpec(1))
            with pytest.raises(InvalidModel, match="next-regime table"):
                list(iter_path_chunks(bench_model, 10, 5, SeedSpec(1)))
        with mock.patch.object(process, "_WALK_TABLE_BYTES", 16):
            assert len(sample_path(bench_model, 10, SeedSpec(1))) == 10

    def test_power_table_over_cap_refused_before_drawing(self):
        # P^2 of the zero-row chain has more distinct cumulative values than
        # P, so a cap that P's table meets refuses the table of a two-step move.
        model = ZERO_ROW_MODELS[0]
        p = model.chain.p
        one, two = (process._walk_table(oracles._cumulative_rows(np.linalg.matrix_power(p, m)))[1]
                    for m in (1, 2))
        assert two.nbytes > one.nbytes
        no_block_draws = mock.patch.object(SeedSpec, "block_rng", side_effect=AssertionError("drew"))
        with mock.patch.object(process, "_WALK_TABLE_BYTES", one.nbytes), no_block_draws:
            for times in ([0, 2], [1], [0, 1, 3]):
                with pytest.raises(InvalidModel, match="next-regime table"):
                    list(iter_path_chunks(model, 4, 5, SeedSpec(1), times=times))
        with mock.patch.object(process, "_WALK_TABLE_BYTES", one.nbytes):
            assert len(sample_path(model, 10, SeedSpec(1))) == 10

    def test_rejects_degenerate_requests(self, bench_model):
        with pytest.raises(InvalidModel):
            list(iter_path_chunks(bench_model, 0, 5, SeedSpec(1)))
        with pytest.raises(InvalidModel):
            list(iter_path_chunks(bench_model, 5, 0, SeedSpec(1)))


class TestFiltering:
    def test_matches_enumeration_oracle(self, bench_model):
        rng = np.random.default_rng(8)
        observations = rng.normal(0.0, 1.5, size=6)
        densities = np.column_stack(
            [np.asarray(c.pdf(observations)) for c in bench_model.emissions.components]
        )
        expected = oracles.filter_by_enumeration(
            bench_model.initial_distribution(), bench_model.chain.p, densities
        )
        got = predictive_state_probs(bench_model, observations)
        np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_matches_oracle_three_states(self):
        rng = np.random.default_rng(21)
        rows = rng.dirichlet(np.ones(3), size=3)
        rows = (0.85 * rows + 0.15 * np.eye(3)) / (0.85 * rows + 0.15 * np.eye(3)).sum(
            axis=1, keepdims=True
        )
        from regimeclt.chain import TransitionMatrix

        model = ModelSpec(
            TransitionMatrix(rows),
            EmissionSpec((Gaussian(-2.0, 1.0), Gaussian(0.0, 0.5), Gaussian(2.0, 1.5))),
            initial=2,
        )
        observations = rng.normal(0.0, 2.0, size=5)
        densities = np.column_stack(
            [np.asarray(c.pdf(observations)) for c in model.emissions.components]
        )
        expected = oracles.filter_by_enumeration(
            model.initial_distribution(), model.chain.p, densities
        )
        np.testing.assert_allclose(
            predictive_state_probs(model, observations), expected, atol=1e-10
        )

    def test_empty_prefix_is_propagated_initial(self, bench_model):
        np.testing.assert_allclose(
            predictive_state_probs(bench_model, []),
            bench_model.initial_distribution() @ bench_model.chain.p,
            atol=1e-12,
        )

    def test_zero_likelihood_raises(self, uniform_model):
        with pytest.raises(ZeroLikelihood):
            predictive_state_probs(uniform_model, [5.0])

    def test_conditional_density_integrates_to_one(self, bench_model):
        from scipy import integrate

        total, _ = integrate.quad(
            lambda x: conditional_density(bench_model, x, [0.4, -1.1]), -12.0, 12.0
        )
        assert total == pytest.approx(1.0, abs=1e-9)


class TestMixtureSummaries:
    def test_benchmark_mean_and_variance(self, bench_model):
        assert mixture_mean(bench_model) == pytest.approx(-1.0 / 3.0, abs=1e-12)
        assert mixture_variance(bench_model) == pytest.approx(17.0 / 9.0, abs=1e-12)

    def test_abs_third_moment_against_quadrature(self, bench_model):
        pi = bench_model.stationary()
        center = mixture_mean(bench_model)
        expected = 0.0
        for weight, comp in zip(pi, bench_model.emissions.components):
            lo, hi = comp.effective_support()
            expected += weight * oracles.abs_third_moment_quad(comp.pdf, lo, hi, center)
        assert mixture_abs_third_moment(bench_model) == pytest.approx(expected, rel=1e-8)

    @pytest.mark.parametrize("family", ["gaussian", "uniform", "shifted_exponential"])
    def test_quantile_array_matches_scalar_calls(self, family, bench_chain):
        comps = {
            "gaussian": (Gaussian(-1.0, 0.5), Gaussian(2.0, 1.5)),
            "uniform": (Uniform(-1.0, 0.5), Uniform(-0.5, 3.0)),
            "shifted_exponential": (ShiftedExponential(2.0, -1.0), ShiftedExponential(0.4, 0.5)),
        }[family]
        model = ModelSpec(bench_chain, EmissionSpec(comps))
        levels = np.array([1e-6, 0.01, 0.1, 0.25, 0.5, 0.5, 0.75, 0.9, 0.99, 1.0 - 1e-6])
        xs = mixture_quantile(model, levels)
        assert xs.shape == levels.shape
        for q, x in zip(levels, xs):
            scalar = mixture_quantile(model, float(q))
            assert isinstance(scalar, float)
            assert scalar == x  # bit for bit
        np.testing.assert_allclose(mixture_cdf(model, xs), levels, rtol=0.0, atol=1e-12)
        with pytest.raises(ValueError):
            mixture_quantile(model, [0.5, 1.0])

    def test_import_leaves_out_scipy(self):
        code = "import sys, regimeclt; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"

    def test_quantile_round_trip(self, bench_model, uniform_model):
        for model in (bench_model, uniform_model):
            for q in (0.05, 0.25, 0.5, 0.9):
                x = mixture_quantile(model, q)
                assert mixture_cdf(model, x) == pytest.approx(q, abs=1e-10)
        with pytest.raises(ValueError):
            mixture_quantile(bench_model, 0.0)

    def test_stationary_sampler_marginal(self, bench_model):
        # One step from the stationary law is a draw from the stationary mixture.
        values = np.concatenate([obs[:, 0] for _start, _states, obs in iter_path_chunks(
            bench_model.stationary_start(), 1, 100_000, SeedSpec(17))])
        d = oracles.ks_distance_sorted(np.sort(values), lambda x: mixture_cdf(bench_model, x))
        # 99th percentile of the Kolmogorov statistic is about 1.63 / sqrt(n).
        assert d < 1.9 / np.sqrt(values.size)


class TestPathSampleValidation:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            PathSample(np.array([1, 2]), np.array([0.0]), SeedSpec(1))

    def test_zero_based_labels_rejected(self):
        with pytest.raises(ValueError):
            PathSample(np.array([0, 1]), np.array([0.0, 1.0]), SeedSpec(1))
