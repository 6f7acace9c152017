"""Scenario orchestration: config parsing, experiment pipelines, reports.

Experiments
-----------
mixing        geometric-decay certificate for the chain's n-step gaps
independence  exact conditional and joint-product gaps with envelopes
cf_gap        characteristic-function factorization gap, Monte Carlo and exact
clt           exact normal-convergence measurements plus block/remainder checks
              (draws nothing, so its artifacts do not depend on the seed)

Every run writes report.json, tables.csv (long format; each row carries its
theoretical bound where one exists), and manifest.json into a directory
named after the scenario. Reports and tables are byte-identical across
reruns of the same scenario; the timestamp lives only in the manifest. A
bound_scale below 1 shrinks every envelope and is the supported way to
inject faults when exercising the exit-code contract.

tables.csv and verify_all's summary.csv are built as text in one pass, in
the format Python 3.11's csv writer gives with lineterminator "\n": a field
is quoted only when it holds a comma, a double quote or a newline ("\r" is
not quoted), and a quote inside is doubled. Every number in tables.csv is
repr(float(v)), an absent std_error or bound an empty field. The bytes are
those the csv module wrote before.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import re
import sys
import tempfile
from dataclasses import dataclass, field
from datetime import datetime, timezone
from itertools import repeat
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from . import __version__
from .chain import is_ergodic, mixing_rate
from .charfn import (CF_GAP_BATCHES, build_step_approximation, cf_factorization_gap, cf_gap_exact,
                     truncation_radius)
from .clt import KS_EXACT_ATOL, clt_convergence, decompose, remainder_diagnostic
from .errors import BoundViolated, ConfigInvalid, InvalidModel, RegimecltError
from .exact import product_gap
from .independence import chained_gap_bound, conditional_gap_matrix, default_event_family, epsilon_certificate
from .process import ModelSpec
from .seeds import SeedSpec

SCHEMA_VERSION = 1
EXPERIMENTS = ("mixing", "independence", "cf_gap", "clt")

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")

_PARAM_DEFAULTS: dict[str, dict] = {
    "mixing": {"s_max": 50},
    "independence": {
        "tau_grid": list(range(1, 11)),
        "lags": [5, 5],
        "quantile_levels": [0.25, 0.5, 0.75],
    },
    "cf_gap": {
        "lags": [5, 5],
        "t_grid": [0.5, 1.0, 2.0],
        "replicates": 100_000,
        "eta": 0.05,
        "quantile_levels": [round(0.05 * i, 2) for i in range(1, 20)],
    },
    "clt": {
        "n_grid": [100, 400, 1600],
        "t_grid": [0.5, 1.0, 2.0],
        "eta_grid": [0.1, 0.5, 1.0],
        "alpha_exp": 0.25,
        "m": 2,
        # Accepted and validated but unused, as clt is exact; old scenarios,
        # --replicates and bench/workloads.py pass them.
        "batches": 2000,
        "replicates": 2000,
        "remainder_replicates": 400,
        "lindeberg_replicates": 200_000,
    },
}

_INT_PARAMS = {"s_max", "replicates", "m", "remainder_replicates", "batches", "lindeberg_replicates"}
_INT_LIST_PARAMS = {"tau_grid", "lags", "n_grid"}
_FLOAT_LIST_PARAMS = {"t_grid", "eta_grid", "quantile_levels"}
_FLOAT_PARAMS = {"eta", "alpha_exp"}
# Smallest sample sizes: cf_gap batches its replicates two or more to a batch
# (a one-row batch gap is 0), and clt's unused replicates and batches keep
# their sampled-era minimum.
_MIN_SAMPLES = {("cf_gap", "replicates"): 2 * CF_GAP_BATCHES, ("clt", "replicates"): 2,
                ("clt", "batches"): 2}
# Largest s_max, tau_grid entry or lag: the mixing profile steps P once per
# lag up to the largest, and the mixing experiment writes a row per step.
MAX_LAG = 10_000
# Largest clt n_grid entry: the exact cf of S_n is a product of n matrices,
# whose round-off grows like n eps. KS sqrt(n) stays flat up to n = 10^9 on
# the two- and three-state benchmark models and is round-off by 10^11.
MAX_CLT_N = 10**9
_MAXIMA = {"s_max": MAX_LAG, "tau_grid": MAX_LAG, "lags": MAX_LAG, "n_grid": MAX_CLT_N}


def _normalize_params(experiment: str, params: Mapping) -> dict:
    merged = {k: (list(v) if isinstance(v, list) else v)
              for k, v in _PARAM_DEFAULTS[experiment].items()}
    for key, value in dict(params).items():
        if key not in merged:
            known = ", ".join(sorted(merged))
            raise ConfigInvalid(f"unknown parameter {key!r} for experiment {experiment!r} (known: {known})")
        merged[key] = value
    for key, value in merged.items():
        maximum = _MAXIMA.get(key, math.inf)
        if key in _INT_PARAMS:
            merged[key] = _as_int(value, f"parameter {key!r}", _MIN_SAMPLES.get((experiment, key), 1),
                                  maximum)
        elif key in _FLOAT_PARAMS:
            merged[key] = _as_float(value, key)
        elif key in _INT_LIST_PARAMS:
            merged[key] = [_as_int(v, f"parameter {key!r}", 1, maximum) for v in _as_list(value, key)]
        elif key in _FLOAT_LIST_PARAMS:
            merged[key] = [_as_float(v, key) for v in _as_list(value, key)]
    if merged.get("eta", 1.0) <= 0.0:
        raise ConfigInvalid(f"parameter 'eta' must be positive, got {merged['eta']!r}")
    if any(v < 0.0 for v in merged.get("eta_grid", ())):
        raise ConfigInvalid(f"parameter 'eta_grid' entries must be >= 0, got {merged['eta_grid']!r}")
    if not all(0.0 < q < 1.0 for q in merged.get("quantile_levels", ())):
        raise ConfigInvalid(
            f"parameter 'quantile_levels' must lie strictly between 0 and 1, "
            f"got {merged['quantile_levels']!r}"
        )
    return merged


def _as_list(value, key) -> list:
    if not isinstance(value, (list, tuple)) or len(value) == 0:
        raise ConfigInvalid(f"parameter {key!r} must be a nonempty list")
    return list(value)


def _as_int(value, what: str, minimum: int, maximum: float = math.inf) -> int:
    # An integral float passes; int() would truncate 7.9 and overflow on inf.
    if isinstance(value, bool) or not isinstance(value, (int, float)) or (
            isinstance(value, float) and not value.is_integer()):
        raise ConfigInvalid(f"{what} must be an integer, got {value!r}")
    iv = int(value)
    if iv < minimum:
        raise ConfigInvalid(f"{what} must be >= {minimum}, got {iv}")
    if iv > maximum:
        raise ConfigInvalid(f"{what} must be <= {maximum}, got {iv}")
    return iv


def _as_seed(value) -> SeedSpec:
    """A config seed, an integer base or {"base": ..., "stream": ...}."""
    fields = value if isinstance(value, dict) else {"base": value}
    if "base" not in fields:
        raise ConfigInvalid("invalid seed: missing 'base'")
    try:
        return SeedSpec(_as_int(fields["base"], "seed base", 0),
                        _as_int(fields.get("stream", 0), "seed stream", 0))
    except ValueError as exc:  # a base of 2^64 or more
        raise ConfigInvalid(f"invalid seed: {exc}") from exc


def _as_float(value, key) -> float:
    # Compared, not converted: float() of an int past float range overflows.
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
        raise ConfigInvalid(f"parameter {key!r} must be a finite number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class Scenario:
    """One named, fully specified experiment configuration."""

    name: str
    experiment: str
    model: ModelSpec
    seed: SeedSpec
    params: dict = field(default_factory=dict)
    bound_scale: float = 1.0

    def __post_init__(self) -> None:
        if not _NAME_RE.match(self.name):
            raise ConfigInvalid(
                f"scenario name {self.name!r} must match {_NAME_RE.pattern} (it becomes a directory)"
            )
        if self.experiment not in EXPERIMENTS:
            raise ConfigInvalid(
                f"unknown experiment {self.experiment!r}; expected one of {', '.join(EXPERIMENTS)}"
            )
        if not (isinstance(self.bound_scale, (int, float)) and 0.0 < self.bound_scale <= sys.float_info.max):
            raise ConfigInvalid("bound_scale must be a positive finite number")
        object.__setattr__(self, "bound_scale", float(self.bound_scale))
        object.__setattr__(self, "params", _normalize_params(self.experiment, self.params))

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "name": self.name,
            "experiment": self.experiment,
            "model": self.model.to_json_dict(),
            "seed": self.seed.to_json_dict(),
            "params": self.params,
            "bound_scale": self.bound_scale,
        }

    def canonical_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))

    def content_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()

    @classmethod
    def from_json_dict(cls, obj: dict) -> "Scenario":
        if not isinstance(obj, dict):
            raise ConfigInvalid("scenario must be a JSON object")
        version = obj.get("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise ConfigInvalid(f"unsupported schema_version {version!r}; this tool reads {SCHEMA_VERSION}")
        allowed = {"schema_version", "name", "experiment", "model", "seed", "params", "bound_scale"}
        unknown = set(obj) - allowed
        if unknown:
            raise ConfigInvalid(f"unknown scenario fields: {', '.join(sorted(unknown))}")
        for required in ("name", "experiment", "model"):
            if required not in obj:
                raise ConfigInvalid(f"scenario is missing required field {required!r}")
        try:
            model = ModelSpec.from_json_dict(obj["model"])
        except (RegimecltError, ValueError, KeyError, TypeError, OverflowError) as exc:
            raise ConfigInvalid(f"invalid model: {exc}") from exc
        seed = _as_seed(obj.get("seed", 0))
        return cls(
            name=str(obj["name"]),
            experiment=str(obj["experiment"]),
            model=model,
            seed=seed,
            params=obj.get("params", {}),
            bound_scale=obj.get("bound_scale", 1.0),
        )

    def with_overrides(self, seed: int | None = None, replicates: int | None = None) -> "Scenario":
        """Copy with the CLI-level overrides applied.

        The replicates override touches only experiments that have a
        replicates parameter; elsewhere it is ignored.
        """
        new_seed = self.seed if seed is None else _as_seed(seed)
        params = dict(self.params)
        if replicates is not None and "replicates" in _PARAM_DEFAULTS[self.experiment]:
            params["replicates"] = int(replicates)
        return dataclasses.replace(self, seed=new_seed, params=params)


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario file; ConfigInvalid carries the location."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigInvalid(f"cannot read scenario file {path}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(
            f"malformed JSON in {path} at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    return Scenario.from_json_dict(obj)


# ---------------------------------------------------------------------------
# experiment pipelines
# ---------------------------------------------------------------------------

# Report row: (section, label, value, std_error or None, bound or None).
Row = tuple[str, str, float, float | None, float | None]
# Absolute slack for exact-arithmetic bound comparisons; covers accumulated
# round-off in matrix powers.
BOUND_SLACK = 1e-12


def _check(rows: list[Row], violations: list[str], section: str, label: str,
           value: float, std_error: float | None, bound: float | None) -> None:
    _check_all(rows, violations, section, (label,), (value,), std_error, bound)


def _check_all(rows: list[Row], violations: list[str], section: str, labels: Sequence[str],
               values: Sequence[float], std_error: float | None, bound: float | None) -> None:
    """Append one row per (label, value), all sharing std_error and bound."""
    rows.extend(zip(repeat(section), labels, values, repeat(std_error), repeat(bound)))
    if bound is not None:
        limit = bound + BOUND_SLACK
        violations.extend(f"{section}[{label}]: value {value!r} exceeds bound {bound!r}"
                          for label, value in zip(labels, values) if value > limit)


def _require_ergodic(model: ModelSpec) -> None:
    verdict = is_ergodic(model.chain)
    if not verdict:
        raise ConfigInvalid(f"scenario chain is not ergodic: {verdict.reason}")


def _experiment_mixing(scenario: Scenario) -> tuple[dict, list[Row], list[str]]:
    params = scenario.params
    chain = scenario.model.chain
    prof = mixing_rate(chain, s_max=params["s_max"])
    pi = chain.stationary()
    rows: list[Row] = []
    violations: list[str] = []
    for s, gap in prof.gaps:
        _check(rows, violations, "mixing", f"s={s}", gap, None,
               scenario.bound_scale * prof.bound(s))
    results = {
        "alpha": prof.alpha,
        "c": prof.c,
        "stationary": [float(v) for v in pi],
        "s_max": params["s_max"],
        "max_gap": max((g for _s, g in prof.gaps), default=0.0),
    }
    return results, rows, violations


def _experiment_independence(scenario: Scenario) -> tuple[dict, list[Row], list[str]]:
    model = scenario.model
    params = scenario.params
    tau_grid = params["tau_grid"]
    lags = params["lags"]
    scale = scenario.bound_scale
    prof = mixing_rate(model.chain, s_max=max(max(tau_grid), sum(lags), 2))
    family = default_event_family(model, quantile_levels=params["quantile_levels"])
    # The 2 c alpha^tau envelope is certified for single-regime targets;
    # conditioning events are unrestricted but must have positive stationary
    # probability (bounded emissions can empty a low-quantile regime event).
    weights = np.stack([ev.weights(model) for ev in family])
    labels = [ev.describe() for ev in family]
    cond_idx = np.flatnonzero(weights @ model.stationary() > 0.0)
    target_idx = [i for i, ev in enumerate(family) if len(ev.state_set) == 1]
    # Rows run over targets, then conditioning events: the (C, T) gaps transposed.
    pairs = [f" target={labels[t]} given={labels[c]}" for t in target_idx for c in cond_idx]
    rows: list[Row] = []
    violations: list[str] = []
    for tau in tau_grid:
        gaps = conditional_gap_matrix(model, weights[target_idx], weights[cond_idx], tau)
        _check_all(rows, violations, "conditional", [f"tau={tau}{pair}" for pair in pairs],
                   gaps.T.ravel().tolist(), None, scale * (2.0 * prof.bound(tau)))
    chained = chained_gap_bound(prof, lags)
    lag_label = ",".join(str(t) for t in lags)
    # Each target repeated at every position, one stack row per target.
    joint = product_gap(model.stationary(), model.chain.p, [weights[target_idx]] * (len(lags) + 1), lags)
    _check_all(rows, violations, "joint", [f"lags={lag_label} event={labels[t]}" for t in target_idx],
               joint.tolist(), None, scale * chained)
    eps = epsilon_certificate(model, lags)
    _check(rows, violations, "epsilon", f"lags={lag_label}", eps, None, scale * chained)
    results = {
        "alpha": prof.alpha,
        "c": prof.c,
        "epsilon_hat": eps,
        "chained_bound": chained,
        "lags": list(lags),
        "n_conditional_rows": len(tau_grid) * len(target_idx) * len(cond_idx),
    }
    return results, rows, violations


def _experiment_cf_gap(scenario: Scenario) -> tuple[dict, list[Row], list[str]]:
    model = scenario.model
    params = scenario.params
    lags = params["lags"]
    scale = scenario.bound_scale
    # Built first so that a refused step approximation costs no sampling.
    radius = truncation_radius(model, params["eta"])
    approximations = [build_step_approximation(t, params["eta"], radius) for t in params["t_grid"]]
    eps = epsilon_certificate(model, lags)
    rep = cf_factorization_gap(
        model, lags, params["t_grid"], replicates=params["replicates"],
        seed=scenario.seed.child(1),
    )
    rows: list[Row] = []
    violations: list[str] = []
    for t, gap, se in zip(rep.t_grid, rep.gaps, rep.std_errors):
        # Reported, not gated: exit 2 is for exact computations, and the
        # folded |gap| is noisier than its batch SE says. cf_gap_exact is gated.
        _check(rows, violations, "cf_gap", f"t={float(t)!r}", float(gap), float(se), None)
    exact = cf_gap_exact(model, lags, params["t_grid"])
    for t, gap in zip(rep.t_grid, exact):
        _check(rows, violations, "cf_gap_exact", f"t={float(t)!r}", float(gap), None,
               scale * 2.0 * eps)
    for t, approx in zip(params["t_grid"], approximations):
        _check(rows, violations, "step", f"t={t!r} cells={approx.n_cells}",
               approx.sup_error, None, scale * params["eta"])
    results = {
        "epsilon_hat": eps,
        "lags": list(lags),
        "replicates": params["replicates"],
        "truncation_radius": radius,
        "max_gap": rep.max_gap,
        "max_gap_exact": float(np.max(exact)),
    }
    return results, rows, violations


def _experiment_clt(scenario: Scenario) -> tuple[dict, list[Row], list[str]]:
    model = scenario.model
    params = scenario.params
    scale = scenario.bound_scale
    n_max = max(params["n_grid"])
    try:
        d = decompose(n_max, params["alpha_exp"], params["m"])
    except ValueError as exc:
        raise ConfigInvalid(f"block decomposition of n={n_max}: {exc}") from exc
    # The remainder's p^2 R^2 / n envelope is checked before the exact
    # distances: an emission scale that overflows R is refused.
    try:
        rem = remainder_diagnostic(model, d)
    except (OverflowError, ZeroDivisionError) as exc:
        raise ConfigInvalid(f"third absolute moment R of the emissions leaves float range: "
                            f"{exc}") from exc
    if not math.isfinite(rem.bound):
        raise ConfigInvalid(f"remainder envelope p^2 R^2 / n at n={n_max} is not finite "
                            f"(R = {rem.abs_third_moment!r})")
    report = clt_convergence(model, params["n_grid"], t_grid=params["t_grid"],
                             eta_grid=params["eta_grid"])
    rows: list[Row] = []
    violations: list[str] = []
    for i, n in enumerate(report.n_grid):
        _check(rows, violations, "ks_distance", f"n={n}", report.ks_distance[i], None, None)
        _check(rows, violations, "cf_distance", f"n={n}", report.cf_distance[i], None, None)
        _check(rows, violations, "variance_ratio_exact", f"n={n}",
               report.variance_ratio_exact[i], None, None)
        for j, eta in enumerate(report.eta_grid):
            _check(rows, violations, "lindeberg", f"n={n} eta={eta!r}",
                   float(report.lindeberg_values[i, j]), None, None)

    # p^2 R^2 / n dominates the remainder second moment only when R >= 1.
    rem_bound = scale * rem.bound if rem.abs_third_moment >= 1.0 else None
    _check(rows, violations, "remainder", f"n={n_max} k={d.k} m={d.m}",
           rem.second_moment, None, rem_bound)

    ks = report.ks_distance
    monotone = all(ks[i + 1] <= ks[i] + KS_EXACT_ATOL for i in range(len(ks) - 1))
    results = {
        "convergence": report.to_json_dict(),
        "normalizer": report.normalizer,
        "ks_monotone_within_noise": monotone,
        "block": {"n": d.n, "k": d.k, "nu": d.nu, "m": d.m, "p": d.p},
        "remainder": {
            "second_moment": rem.second_moment,
            "bound": rem.bound,
            "abs_third_moment": rem.abs_third_moment,
        },
    }
    return results, rows, violations


_PIPELINES: dict[str, Callable[[Scenario], tuple[dict, list[Row], list[str]]]] = {
    "mixing": _experiment_mixing,
    "independence": _experiment_independence,
    "cf_gap": _experiment_cf_gap,
    "clt": _experiment_clt,
}


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------


def _atomic_write_text(path: Path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_field(text: str) -> str:
    """text as one field of the module docstring's csv format."""
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_line(fields: Sequence[str]) -> str:
    return ",".join(map(_csv_field, fields)) + "\n"


class _FloatReprs(dict):
    """repr(float(v)) by value, each formatted once; None maps to ""."""

    def __missing__(self, v) -> str:
        text = repr(float(v))
        if v:  # 0.0 and -0.0 are equal keys, so zeros are never stored
            self[v] = text
        return text


def _csv_text(rows: Sequence[Row]) -> str:
    # Sections, standard errors and bounds repeat across rows (one bound per
    # tau on a conditional table), so each distinct one is formatted once.
    sections = {section: _csv_field(section) for section in {row[0] for row in rows}}
    reprs = _FloatReprs({None: ""})
    return _csv_line(("section", "label", "value", "std_error", "bound")) + "".join([
        f"{sections[section]},{_csv_field(label)},{float(value)!r},{reprs[std_error]},{reprs[bound]}\n"
        for section, label, value, std_error, bound in rows])


@dataclass(frozen=True)
class RunResult:
    """Status and artifact locations for one executed scenario."""

    scenario: Scenario
    status: int
    violations: tuple[str, ...]
    report_path: Path
    csv_path: Path
    manifest_path: Path
    report: dict


def run_scenario(scenario: Scenario, out_dir, threads: int = 1) -> RunResult:
    """Execute one scenario and write its artifacts.

    Returns status 0 (all envelope checks passed) or 2 (at least one bound
    violated). Artifacts are written in both cases; report.json and
    tables.csv depend only on the scenario, never on wall-clock time or
    threads.
    """
    out_root = Path(out_dir)
    target = out_root / scenario.name
    target.mkdir(parents=True, exist_ok=True)
    _require_ergodic(scenario.model)
    try:
        results, rows, violations = _PIPELINES[scenario.experiment](scenario)
    except InvalidModel as exc:
        # The scenario parsed, but the sampler's next-regime table for this
        # model passes its cap.
        raise ConfigInvalid(f"model cannot be run by {scenario.experiment}: {exc}") from exc
    status = 2 if violations else 0

    report = {
        "schema_version": SCHEMA_VERSION,
        "scenario": scenario.to_json_dict(),
        "results": results,
        "violations": list(violations),
        "status": status,
    }
    report_path = target / "report.json"
    csv_path = target / "tables.csv"
    manifest_path = target / "manifest.json"
    _atomic_write_text(report_path, json.dumps(report, sort_keys=True, indent=2) + "\n")
    _atomic_write_text(csv_path, _csv_text(rows))
    manifest = {
        "scenario_hash": scenario.content_hash(),
        "tool_version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "seed": scenario.seed.to_json_dict(),
        "threads": threads,
        "outputs": [report_path.name, csv_path.name],
        "status": status,
    }
    _atomic_write_text(manifest_path, json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return RunResult(
        scenario=scenario,
        status=status,
        violations=tuple(violations),
        report_path=report_path,
        csv_path=csv_path,
        manifest_path=manifest_path,
        report=report,
    )


def run(config_path, out_dir, seed: int | None = None, replicates: int | None = None,
        threads: int = 1) -> RunResult:
    """Load, override, execute; raise BoundViolated if any envelope failed.

    Artifacts are on disk before the exception is raised, so a failing run
    still leaves its evidence behind.
    """
    scenario = load_scenario(config_path).with_overrides(seed=seed, replicates=replicates)
    result = run_scenario(scenario, out_dir, threads=threads)
    if result.status == 2:
        raise BoundViolated(
            f"scenario {scenario.name!r}: {len(result.violations)} bound violation(s); "
            f"first: {result.violations[0]}"
        )
    return result


@dataclass(frozen=True)
class VerifySummary:
    """Per-scenario status table for a suite directory."""

    entries: tuple[dict, ...]
    summary_path: Path | None
    csv_path: Path | None

    @property
    def exit_code(self) -> int:
        # The most severe status: 3 over 1 over 2 over 0.
        return max((e["status"] for e in self.entries), key=(0, 2, 1, 3).index, default=0)

    @property
    def n_failed(self) -> int:
        return sum(1 for e in self.entries if e["status"] != 0)


def verify_all(suite_dir, out_dir, threads: int = 1) -> VerifySummary:
    """Run every *.json scenario under suite_dir and tabulate the outcomes.

    Scenario failures do not stop the sweep: config problems record status
    1, bound violations 2, unexpected errors 3. A file whose scenario name an
    earlier file already used records status 1 and writes nothing, so it
    cannot overwrite that scenario's artifacts. An empty suite yields an
    empty summary with exit code 0.
    """
    suite = Path(suite_dir)
    if not suite.is_dir():
        raise ConfigInvalid(f"suite directory {suite} does not exist")
    out_root = Path(out_dir)
    out_root.mkdir(parents=True, exist_ok=True)
    entries: list[dict] = []
    first_file: dict[str, str] = {}  # scenario name -> the file that claimed it
    for path in sorted(suite.glob("*.json")):
        entry = {"file": path.name, "name": "", "experiment": "", "status": 0, "detail": ""}
        try:
            scenario = load_scenario(path)
            entry["name"] = scenario.name
            entry["experiment"] = scenario.experiment
            earlier = first_file.setdefault(scenario.name, path.name)
            if earlier != path.name:
                raise ConfigInvalid(f"scenario name {scenario.name!r} is already used by {earlier}")
            result = run_scenario(scenario, out_root, threads=threads)
            entry["status"] = result.status
            if result.violations:
                entry["detail"] = result.violations[0]
        except ConfigInvalid as exc:
            entry["status"] = 1
            entry["detail"] = str(exc)
        except Exception as exc:  # noqa: BLE001 -- a suite sweep must survive any scenario
            entry["status"] = 3
            entry["detail"] = f"{type(exc).__name__}: {exc}"
        entries.append(entry)

    summary_path = out_root / "summary.json"
    csv_path = out_root / "summary.csv"
    _atomic_write_text(summary_path, json.dumps({"scenarios": entries}, sort_keys=True, indent=2) + "\n")
    columns = ("file", "name", "experiment", "status", "detail")
    _atomic_write_text(csv_path, _csv_line(columns) + "".join(
        _csv_line([str(e[c]) for c in columns]) for e in entries))
    return VerifySummary(entries=tuple(entries), summary_path=summary_path, csv_path=csv_path)
