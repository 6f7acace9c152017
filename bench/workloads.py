"""Scenario generators for the benchmark workloads.

Each workload is a function of the workload seed only and returns a scenario
document in the format `regimeclt run --scenario` reads. The program sees the
generated scenario and nothing else; the seed becomes the scenario's seed
base, so Monte Carlo workloads draw different replicates per seed while the
amount of work stays the same.
"""

from __future__ import annotations

# The two-state gaussian model of scenarios/benchmark_cf_gap.json. Its closed
# forms (pi = (2/3, 1/3), alpha = 0.7, c = 2/3, long-run variance 163/27) are
# what the oracle tests pin.
TWO_STATE_MODEL = {
    "chain": {"n_states": 2, "rows": [[0.9, 0.1], [0.2, 0.8]]},
    "emissions": [
        {"family": "gaussian", "mu": -1.0, "sigma": 1.0},
        {"family": "gaussian", "mu": 1.0, "sigma": 1.0},
    ],
    "initial": "stationary",
}

# A slowly mixing three-state chain (second eigenvalue modulus about 0.906)
# with one emission of each supported family.
THREE_STATE_MODEL = {
    "chain": {
        "n_states": 3,
        "rows": [[0.93, 0.05, 0.02], [0.04, 0.93, 0.03], [0.03, 0.04, 0.93]],
    },
    "emissions": [
        {"family": "gaussian", "mu": -1.5, "sigma": 1.0},
        {"family": "uniform", "a": -0.5, "b": 1.5},
        {"family": "shifted_exponential", "rate": 1.0, "shift": 1.0},
    ],
    "initial": "stationary",
}

CF_GAP_LEVELS = [round(0.05 * i, 2) for i in range(1, 20)]
INDEPENDENCE_LEVELS = [round(0.1 * i, 1) for i in range(1, 10)]


def short_paths(seed: int) -> dict:
    return {
        "schema_version": 1,
        "name": "bench-short-paths",
        "experiment": "cf_gap",
        "model": TWO_STATE_MODEL,
        "seed": {"base": seed, "stream": 3},
        "params": {
            "lags": [5, 5],
            "t_grid": [0.5, 1.0, 2.0],
            "replicates": 100_000,
            "eta": 0.05,
            "quantile_levels": CF_GAP_LEVELS,
        },
    }


def long_paths(seed: int) -> dict:
    return {
        "schema_version": 1,
        "name": "bench-long-paths",
        "experiment": "clt",
        "model": THREE_STATE_MODEL,
        "seed": {"base": seed, "stream": 4},
        "params": {
            "n_grid": [1000, 4000, 16000],
            "replicates": 300,
            "t_grid": [0.5, 1.0, 2.0],
            "eta_grid": [0.1, 0.5, 1.0],
            "alpha_exp": 0.25,
            "m": 2,
            "remainder_replicates": 400,
            "batches": 2000,
            "lindeberg_replicates": 200_000,
        },
    }


def exact_gaps(seed: int) -> dict:
    return {
        "schema_version": 1,
        "name": "bench-exact-gaps",
        "experiment": "independence",
        "model": THREE_STATE_MODEL,
        "seed": {"base": seed, "stream": 2},
        "params": {
            "tau_grid": list(range(1, 11)),
            "lags": [1, 2, 3, 4],
            "quantile_levels": INDEPENDENCE_LEVELS,
        },
    }


WORKLOADS = {
    "short-paths": short_paths,
    "long-paths": long_paths,
    "exact-gaps": exact_gaps,
}

DEFAULT_SEEDS = {
    "short-paths": 20260817,
    "long-paths": 20260818,
    "exact-gaps": 20260819,
}
