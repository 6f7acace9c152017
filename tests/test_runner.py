"""Tests for scenario parsing, experiment runs, artifacts, and the CLI."""

import csv
import io
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from regimeclt import cli, process, runner
from regimeclt.chain import stationary_distribution
from regimeclt.clt import _exact_distances, long_run_variance_exact
from regimeclt.errors import BoundViolated, ConfigInvalid
from regimeclt.independence import (RectEvent, conditional_gap_matrix, default_event_family,
                                    epsilon_certificate)
from regimeclt.runner import (
    BOUND_SLACK,
    EXPERIMENTS,
    MAX_CLT_N,
    MAX_LAG,
    Scenario,
    _csv_field,
    _csv_text,
    _experiment_independence,
    load_scenario,
    run,
    run_scenario,
    verify_all,
)
from regimeclt.seeds import SeedSpec

BENCH_MODEL_JSON = {
    "chain": {"n_states": 2, "rows": [[0.9, 0.1], [0.2, 0.8]]},
    "emissions": [
        {"family": "gaussian", "mu": -1.0, "sigma": 1.0},
        {"family": "gaussian", "mu": 1.0, "sigma": 1.0},
    ],
    "initial": "stationary",
}


def scenario_dict(name="t1", experiment="mixing", params=None, **extra) -> dict:
    obj = {
        "name": name,
        "experiment": experiment,
        "model": dict(BENCH_MODEL_JSON),
        "seed": {"base": 7, "stream": 0},
    }
    if params is not None:
        obj["params"] = params
    obj.update(extra)
    return obj


def write_scenario(path, obj) -> str:
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

TABLE_COLUMNS = ("section", "label", "value", "std_error", "bound")


def csv_writer_text(header, lines) -> str:
    """The csv module's text for a header and lines of string fields."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(lines)
    return buf.getvalue()


def reference_tables_csv(rows) -> str:
    """tables.csv as csv.writer writes it, numbers as repr(float(v))."""
    def number(v):
        return "" if v is None else repr(float(v))
    return csv_writer_text(TABLE_COLUMNS, [(section, label, number(value), number(se), number(bound))
                                           for section, label, value, se, bound in rows])


FAST_CLT_PARAMS = {
    "n_grid": [16, 64],
    "replicates": 100,
    "batches": 50,
    "lindeberg_replicates": 2000,
    "remainder_replicates": 30,
    "m": 1,
}


class TestScenarioValidation:
    def test_accepts_all_experiments(self, tmp_path):
        for exp in EXPERIMENTS:
            Scenario.from_json_dict(scenario_dict(experiment=exp))

    @pytest.mark.parametrize("name", ["", "has space", "-lead", "../evil", "a/b"])
    def test_bad_names(self, name):
        with pytest.raises(ConfigInvalid):
            Scenario.from_json_dict(scenario_dict(name=name))

    def test_unknown_experiment(self):
        with pytest.raises(ConfigInvalid):
            Scenario.from_json_dict(scenario_dict(experiment="voodoo"))

    @pytest.mark.parametrize("scale", [0.0, -1.0, float("inf")])
    def test_bad_bound_scale(self, scale):
        with pytest.raises(ConfigInvalid):
            Scenario.from_json_dict(scenario_dict(bound_scale=scale))

    def test_unknown_fields_rejected(self):
        with pytest.raises(ConfigInvalid) as err:
            Scenario.from_json_dict(scenario_dict(extra_field=1))
        assert "extra_field" in str(err.value)

    def test_missing_required_field(self):
        obj = scenario_dict()
        del obj["model"]
        with pytest.raises(ConfigInvalid):
            Scenario.from_json_dict(obj)

    def test_wrong_schema_version(self):
        with pytest.raises(ConfigInvalid):
            Scenario.from_json_dict(scenario_dict(schema_version=99))

    def test_invalid_model_wrapped(self):
        obj = scenario_dict()
        obj["model"]["chain"] = {"n_states": 2, "rows": [[0.9, 0.2], [0.2, 0.8]]}
        with pytest.raises(ConfigInvalid):
            Scenario.from_json_dict(obj)

    def test_plain_integer_seed(self):
        s = Scenario.from_json_dict(scenario_dict(seed=123))
        assert s.seed == SeedSpec(123, 0)

    def test_unknown_param_rejected(self):
        with pytest.raises(ConfigInvalid) as err:
            Scenario.from_json_dict(scenario_dict(params={"bogus": 1}))
        assert "bogus" in str(err.value)

    @pytest.mark.parametrize(
        "experiment,params",
        [
            ("mixing", {"s_max": 0}),
            ("mixing", {"s_max": "ten"}),
            ("mixing", {"s_max": 2.5}),
            ("independence", {"tau_grid": []}),
            ("independence", {"lags": [1, 0]}),
            ("cf_gap", {"eta": float("nan")}),
            ("cf_gap", {"t_grid": 1.0}),
            ("clt", {"replicates": True}),
            ("cf_gap", {"eta": 0.0}),
            ("cf_gap", {"quantile_levels": [0.0]}),
            ("independence", {"quantile_levels": [0.5, 1.5]}),
        ],
    )
    def test_bad_param_values(self, experiment, params):
        with pytest.raises(ConfigInvalid):
            Scenario.from_json_dict(scenario_dict(experiment=experiment, params=params))

    def test_defaults_filled_in(self):
        s = Scenario.from_json_dict(scenario_dict(experiment="cf_gap"))
        assert s.params["replicates"] == 100_000
        assert s.params["lags"] == [5, 5]

    def test_with_overrides(self):
        s = Scenario.from_json_dict(scenario_dict(experiment="cf_gap"))
        s2 = s.with_overrides(seed=99, replicates=500)
        assert s2.seed == SeedSpec(99)
        assert s2.params["replicates"] == 500
        # mixing has no replicates parameter; the override is a no-op there.
        m = Scenario.from_json_dict(scenario_dict(experiment="mixing"))
        m2 = m.with_overrides(replicates=500)
        assert "replicates" not in m2.params

    def test_content_hash_tracks_content(self):
        a = Scenario.from_json_dict(scenario_dict())
        b = Scenario.from_json_dict(scenario_dict())
        assert a.content_hash() == b.content_hash()
        c = Scenario.from_json_dict(scenario_dict(seed=8))
        assert c.content_hash() != a.content_hash()

    @pytest.mark.parametrize("initial", [{"fixed_state": 2}, {"probs": [0.25, 0.75]}])
    def test_non_stationary_initial_round_trip(self, initial):
        obj = scenario_dict()
        obj["model"] = dict(obj["model"], initial=initial)
        s = Scenario.from_json_dict(obj)
        assert s.to_json_dict()["model"]["initial"] == initial
        again = Scenario.from_json_dict(json.loads(s.canonical_json()))
        assert again.model == s.model
        assert again.content_hash() == s.content_hash()
        assert s.content_hash() != Scenario.from_json_dict(scenario_dict()).content_hash()


class TestLoadScenario:
    def test_round_trip(self, tmp_path):
        path = write_scenario(tmp_path / "s.json", scenario_dict())
        s = load_scenario(path)
        assert s.name == "t1" and s.experiment == "mixing"

    def test_malformed_json_reports_location(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"name": "x",\n  "experiment": oops}', encoding="utf-8")
        with pytest.raises(ConfigInvalid) as err:
            load_scenario(path)
        assert "line 2" in str(err.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigInvalid):
            load_scenario(tmp_path / "nope.json")


class TestRunScenario:
    def test_mixing_artifacts(self, tmp_path):
        s = Scenario.from_json_dict(scenario_dict(params={"s_max": 20}))
        result = run_scenario(s, tmp_path)
        assert result.status == 0 and not result.violations
        report = json.loads(result.report_path.read_text())
        assert report["status"] == 0
        assert report["results"]["alpha"] == pytest.approx(0.7, abs=1e-12)
        assert report["scenario"]["name"] == "t1"
        lines = result.csv_path.read_text().splitlines()
        assert lines[0] == "section,label,value,std_error,bound"
        assert len(lines) == 21  # header + one row per lag
        manifest = json.loads(result.manifest_path.read_text())
        assert manifest["scenario_hash"] == s.content_hash()
        assert manifest["status"] == 0
        assert "timestamp" in manifest

    def test_rows_respect_bounds(self, tmp_path):
        s = Scenario.from_json_dict(scenario_dict(params={"s_max": 30}))
        result = run_scenario(s, tmp_path)
        for line in result.csv_path.read_text().splitlines()[1:]:
            _sec, _label, value, _se, bound = line.split(",")
            assert float(value) <= float(bound) + 1e-12

    def test_independence_status_ok(self, tmp_path):
        s = Scenario.from_json_dict(
            scenario_dict(
                experiment="independence",
                params={"tau_grid": [1, 2, 3], "lags": [2, 2], "quantile_levels": [0.5]},
            )
        )
        result = run_scenario(s, tmp_path)
        assert result.status == 0
        assert result.report["results"]["epsilon_hat"] > 0.0

    def test_cf_gap_status_ok(self, tmp_path):
        s = Scenario.from_json_dict(
            scenario_dict(
                experiment="cf_gap",
                params={
                    "lags": [2, 2],
                    "t_grid": [1.0],
                    "replicates": 2000,
                    "quantile_levels": [0.5],
                },
            )
        )
        result = run_scenario(s, tmp_path)
        assert result.status == 0
        rows = [line.split(",") for line in result.csv_path.read_text().splitlines()[1:]]
        assert {r[0] for r in rows} == {"cf_gap", "cf_gap_exact", "step"}
        # The exact gap is gated at 2 eps itself, with no standard error.
        eps = result.report["results"]["epsilon_hat"]
        (exact,) = [r for r in rows if r[0] == "cf_gap_exact"]
        assert exact[1] == "t=1.0" and exact[3] == "" and float(exact[4]) == 2.0 * eps
        assert float(exact[2]) == result.report["results"]["max_gap_exact"]

    def test_clt_report_structure(self, tmp_path):
        s = Scenario.from_json_dict(scenario_dict(experiment="clt", params=FAST_CLT_PARAMS))
        result = run_scenario(s, tmp_path)
        assert result.status == 0
        conv = result.report["results"]["convergence"]
        assert conv["n_grid"] == [16, 64]
        assert result.report["results"]["block"]["n"] == 64
        assert isinstance(result.report["results"]["ks_monotone_within_noise"], bool)

    def test_clt_is_exact_and_ignores_replicates(self, tmp_path):
        # The distances are exact; replicates is still validated but never read.
        results, tables = [], []
        for reps in (100, 2):
            params = dict(FAST_CLT_PARAMS, replicates=reps)
            s = Scenario.from_json_dict(scenario_dict(experiment="clt", params=params))
            result = run_scenario(s, tmp_path / str(reps))
            results.append(result.report["results"])
            tables.append(result.csv_path.read_text())
        assert results[0] == results[1] and tables[0] == tables[1]
        model = Scenario.from_json_dict(scenario_dict(experiment="clt")).model
        assert results[0]["normalizer"] == math.sqrt(long_run_variance_exact(model))
        assert "normalizer_exact" not in results[0]
        assert "normalizer_exact" not in results[0]["convergence"]
        assert results[0]["ks_monotone_within_noise"] is True
        conv = results[0]["convergence"]
        assert conv["ks_distance"] == [_exact_distances(model, n, [0.5, 1.0, 2.0]).ks
                                       for n in (16, 64)]
        assert "variance_ratio" not in conv and "replicates" not in conv
        sections = {line.split(",")[0] for line in tables[0].splitlines()[1:]}
        assert sections == {"ks_distance", "cf_distance", "variance_ratio_exact", "lindeberg",
                            "remainder"}

    def test_clt_artifacts_do_not_depend_on_seed_or_batches(self, tmp_path, monkeypatch):
        # clt draws nothing, so only the scenario echo in report.json moves
        # with the seed and the (validated, unused) batches.
        def refuse(*args, **kwargs):
            raise AssertionError("clt sampled")

        monkeypatch.setattr(SeedSpec, "block_rng", refuse)
        reports, tables = [], []
        for seed, batches in ((7, 50), (7, 2000), (20260818, 50), (1, 2)):
            obj = scenario_dict(experiment="clt", params=dict(FAST_CLT_PARAMS, batches=batches),
                                seed={"base": seed, "stream": 3})
            result = run_scenario(Scenario.from_json_dict(obj), tmp_path / f"{seed}-{batches}")
            report = json.loads(result.report_path.read_text())
            assert report.pop("scenario")["params"]["batches"] == batches
            reports.append(report)
            tables.append(result.csv_path.read_bytes())
        assert all(r == reports[0] for r in reports) and all(t == tables[0] for t in tables)

    def test_clt_remainder_is_exact(self, tmp_path):
        # remainder_replicates is still validated but no longer read: the
        # remainder second moment is exact, so it does not move any output.
        results, tables = [], []
        for reps in (30, 7):
            params = dict(FAST_CLT_PARAMS, remainder_replicates=reps)
            s = Scenario.from_json_dict(scenario_dict(experiment="clt", params=params))
            result = run_scenario(s, tmp_path / str(reps))
            results.append(result.report["results"])
            tables.append(result.csv_path.read_text())
        assert results[0] == results[1] and tables[0] == tables[1]
        rem = results[0]["remainder"]
        assert set(rem) == {"second_moment", "bound", "abs_third_moment"}
        rows = [line.split(",") for line in tables[0].splitlines()[1:]]
        (remainder_row,) = [r for r in rows if r[0] == "remainder"]
        assert remainder_row[2:] == [repr(rem["second_moment"]), "", repr(rem["bound"])]
        exact_rows = [r for r in rows if r[0] == "variance_ratio_exact"]
        assert [r[1] for r in exact_rows] == ["n=16", "n=64"]
        assert [float(r[2]) for r in exact_rows] == results[0]["convergence"]["variance_ratio_exact"]
        with pytest.raises(ConfigInvalid):
            Scenario.from_json_dict(scenario_dict(
                experiment="clt", params=dict(FAST_CLT_PARAMS, remainder_replicates=0)))

    @pytest.mark.parametrize(
        "experiment,params",
        [
            ("independence", {"tau_grid": [1, 2, 3], "lags": [2, 2]}),
            ("cf_gap", {"lags": [2, 2], "t_grid": [1.0], "replicates": 2000}),
            ("clt", FAST_CLT_PARAMS),
            ("mixing", {"s_max": 15}),
        ],
    )
    def test_stationary_law_solved_once_per_model(self, tmp_path, monkeypatch, experiment, params):
        # The law is cached on the chain, which the model, its stationary-start
        # copy and the mixing fits all share: one solve per run.
        calls = []

        def counting(chain):
            calls.append(chain)
            return stationary_distribution(chain)

        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("regimeclt") and (
                getattr(mod, "stationary_distribution", None) is stationary_distribution
            ):
                monkeypatch.setattr(mod, "stationary_distribution", counting)
        s = Scenario.from_json_dict(scenario_dict(experiment=experiment, params=params))
        assert run_scenario(s, tmp_path).status == 0
        assert len(calls) == 1

    def test_independence_weights_once_per_event(self, tmp_path, monkeypatch):
        # Event weights are computed once per family event for the gap
        # matrix and the joint rows, and once per pool event for the
        # certificate; never per target or per (tau, target, condition)
        # triple.
        calls = []
        original = RectEvent.weights

        def counting(self, model):
            calls.append(self)
            return original(self, model)

        monkeypatch.setattr(RectEvent, "weights", counting)
        params = {"tau_grid": [1, 2, 3, 4, 5], "lags": [2, 2], "quantile_levels": [0.25, 0.5, 0.75]}
        s = Scenario.from_json_dict(scenario_dict(experiment="independence", params=params))
        result = run_scenario(s, tmp_path)
        assert result.status == 0
        n_family, n_targets = 2 * 4 + 1, 2 * 4
        triples = result.report["results"]["n_conditional_rows"]
        assert triples == 5 * n_targets * n_family
        assert len(calls) <= 2 * n_family < triples

    @pytest.mark.parametrize("emissions", [
        BENCH_MODEL_JSON["emissions"],
        # Past 0.78 the mixture quantile lies above 0.5, where the first
        # regime's half-line weight ties with its full line at exactly 1.0.
        [{"family": "uniform", "a": -1.0, "b": 0.5}, {"family": "uniform", "a": -0.5, "b": 1.0}],
    ], ids=["gaussian", "uniform"])
    def test_cf_gap_certificate_solves_no_quantile(self, tmp_path, monkeypatch, emissions):
        # The level family prunes to the full-line regime events plus the
        # full space, whatever the levels, so the pool is built without them.
        levels_sets = ([0.5], [0.25, 0.5, 0.75], [0.8, 0.9, 0.95],
                       [round(0.05 * i, 2) for i in range(1, 20)])
        model_json = dict(BENCH_MODEL_JSON, emissions=emissions)
        model = Scenario.from_json_dict(scenario_dict(model=model_json)).model
        expected = [epsilon_certificate(model, [2, 3], base_events=default_event_family(model, levels))
                    for levels in levels_sets]
        calls = []
        original = process.mixture_quantile

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("regimeclt") and (
                getattr(mod, "mixture_quantile", None) is original
            ):
                monkeypatch.setattr(mod, "mixture_quantile", counting)
        for levels, eps in zip(levels_sets, expected):
            params = {"lags": [2, 3], "t_grid": [1.0], "replicates": 200, "quantile_levels": levels}
            s = Scenario.from_json_dict(scenario_dict(experiment="cf_gap", model=model_json,
                                                      params=params))
            result = run_scenario(s, tmp_path / str(len(levels)))
            assert result.report["results"]["epsilon_hat"] == eps
        assert calls == []
        if emissions != BENCH_MODEL_JSON["emissions"]:
            tie = default_event_family(model, [0.9])[0].weights(model)
            assert tie.tolist() == [1.0, 0.0]

    def test_independence_certificate_uses_scenario_levels(self, tmp_path, monkeypatch):
        levels = [0.25, 0.5, 0.75]
        weighed = set()
        original = RectEvent.weights

        def recording(self, model):
            weighed.add(self)
            return original(self, model)

        monkeypatch.setattr(RectEvent, "weights", recording)
        params = {"tau_grid": [1, 2], "lags": [2, 3], "quantile_levels": levels}
        s = Scenario.from_json_dict(scenario_dict(experiment="independence", params=params))
        result = run_scenario(s, tmp_path)
        assert result.status == 0
        family = default_event_family(s.model, levels)
        # No event of the default nine-level family outside the scenario's.
        assert weighed <= set(family)
        expected = epsilon_certificate(s.model, [2, 3], base_events=family)
        assert result.report["results"]["epsilon_hat"] == expected

    def test_clt_gap_not_below_block_is_config_error(self, tmp_path, capsys):
        # n = 20 gives k = floor(20^0.25) = 2, which the default gap m = 2 fills.
        path = write_scenario(
            tmp_path / "clt.json", scenario_dict(experiment="clt", params={"n_grid": [10, 20]})
        )
        code = cli.main(["run", "--scenario", path, "--out", str(tmp_path / "out")])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config-invalid"
        assert "k=2" in err["message"]

    @pytest.mark.parametrize(
        "emission,eta",
        [({"family": "gaussian", "mu": 1e15, "sigma": 1.0}, 0.05),
         ({"family": "gaussian", "mu": 1.0, "sigma": 1.0}, 1e-12)],
        ids=["mu=1e15", "eta=1e-12"],
    )
    def test_cf_gap_runs_with_huge_step_cell_counts(self, tmp_path, monkeypatch, emission, eta):
        # Both ask for more than 1e16 cells, which the step record only counts.
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        import oracle

        obj = scenario_dict(experiment="cf_gap", params={"eta": eta, "replicates": 2000})
        obj["model"]["emissions"] = [obj["model"]["emissions"][0], emission]
        result = run_scenario(Scenario.from_json_dict(obj), tmp_path)
        assert result.status == 0
        rows = oracle.read_rows(result.csv_path.read_text(encoding="utf-8"))
        # The oracle's own radius can differ in its last bits, and with it
        # a 1e17 cell count; its sup-error bounds must hold.
        errors = oracle.check_short_paths(result.report["scenario"], result.report, rows)
        assert [e for e in errors if e.startswith("step t=")] == []
        radius = result.report["results"]["truncation_radius"]
        t_grid = result.report["scenario"]["params"]["t_grid"]
        labels = [row["label"] for row in rows if row["section"] == "step"]
        assert labels == [f"t={t!r} cells={math.ceil(2.0 * radius / (eta / (abs(t) + 1.0)))}"
                          for t in t_grid]

    def test_cf_gap_step_refusal_comes_before_sampling(self, tmp_path, monkeypatch):
        import regimeclt.runner as runner_mod

        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the step approximation was checked")

        monkeypatch.setattr(runner_mod, "cf_factorization_gap", no_sampling)
        # The cell count overflows to inf.
        obj = scenario_dict(experiment="cf_gap", params={"eta": 1e-300, "replicates": 2000})
        with pytest.raises(ConfigInvalid, match="step approximation"):
            run_scenario(Scenario.from_json_dict(obj), tmp_path)

    def test_clt_n_grid_length_is_not_capped(self, tmp_path):
        # Every n is exact and draws nothing, so a 31-entry n_grid (once
        # refused to keep per-n streams apart) runs.
        params = dict(FAST_CLT_PARAMS, n_grid=list(range(64, 64 + 31)))
        s = Scenario.from_json_dict(scenario_dict(experiment="clt", params=params))
        result = run_scenario(s, tmp_path)
        assert result.status == 0
        conv = result.report["results"]["convergence"]
        assert conv["n_grid"] == params["n_grid"]
        assert len(conv["ks_distance"]) == len(conv["variance_ratio_exact"]) == 31

    def test_nonergodic_model_is_config_error(self, tmp_path):
        obj = scenario_dict()
        obj["model"]["chain"] = {"n_states": 2, "rows": [[0.0, 1.0], [1.0, 0.0]]}
        s = Scenario.from_json_dict(obj)
        with pytest.raises(ConfigInvalid):
            run_scenario(s, tmp_path)

    def test_fault_injection_trips_status_two(self, tmp_path):
        s = Scenario.from_json_dict(scenario_dict(bound_scale=1e-6, params={"s_max": 10}))
        result = run_scenario(s, tmp_path)
        assert result.status == 2
        assert result.violations
        report = json.loads(result.report_path.read_text())
        assert report["status"] == 2 and report["violations"]

    def test_shipped_fault_scenario(self, tmp_path, capsys):
        # An independence run whose shrunk envelopes trip on conditional rows.
        path = str(SCENARIOS / "faults" / "bound_scale_fault.json")
        for threads in ("1", "2"):
            code = cli.main(["run", "--scenario", path, "--out", str(tmp_path / threads),
                             "--threads", threads])
            assert code == 2
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err["error"] == "bound-violated"
        first = ("conditional[tau=1 target=states(1)x(-inf,-1.3316667821001613] "
                 "given=states(1)x(-inf,-1.3316667821001613]]: value 0.08634977005587599 "
                 "exceeds bound 0.009333333333333426")
        assert f"first: {first}" in err["message"]
        a, b = tmp_path / "1" / "fault-shrunk-envelope", tmp_path / "2" / "fault-shrunk-envelope"
        for name in ("report.json", "tables.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        report = json.loads((a / "report.json").read_text())
        assert report["status"] == 2 and report["violations"][0] == first
        # The violations are the rows over their bounds, in row order.
        _results, rows, violations = _experiment_independence(load_scenario(path))
        assert violations == report["violations"] == [
            f"{section}[{label}]: value {value!r} exceeds bound {bound!r}"
            for section, label, value, _se, bound in rows
            if bound is not None and value > bound + BOUND_SLACK
        ]
        assert (a / "tables.csv").read_text() == reference_tables_csv(rows)

    def test_run_raises_after_writing_artifacts(self, tmp_path):
        path = write_scenario(
            tmp_path / "fault.json",
            scenario_dict(name="fault", bound_scale=1e-6, params={"s_max": 10}),
        )
        with pytest.raises(BoundViolated):
            run(path, tmp_path / "out")
        assert (tmp_path / "out" / "fault" / "report.json").exists()
        assert (tmp_path / "out" / "fault" / "manifest.json").exists()


class TestCsvText:
    def test_matches_csv_writer_on_edge_rows(self):
        nan = float("nan")
        rows = [
            ("mixing", "s=1", 0.5, None, None),
            ("a,b", 'say "hi", twice', 1.0, 0.0, -0.0),
            ("quote\"d", "line\nbreak", -0.0, -0.0, 0.0),
            ("sec", "both, \"and\"\nnewline", 0.0, 0.0, -0.0),
            ("sec", "s", nan, float("inf"), float("-inf")),
            ("sec", "s", float("-inf"), nan, nan),
            ("sec", "tiny", 5e-324, 5e-324, -5e-324),
            ("sec", "", np.float64(0.1), np.float64(-0.0), np.float64(0.25)),
            ("sec", "ints", 3, 0, True),
            ("sec", "repeat", 0.25, None, 0.25),
            ("sec", "repeat", -0.0, float("nan"), 0.0),
        ]
        text = _csv_text(rows)
        assert text == reference_tables_csv(rows)
        # A signed zero keeps its sign whichever zero the column saw first.
        parsed = list(csv.reader(io.StringIO(text)))[1:]
        assert [line[2:] for line in parsed[1:4]] == [
            ["1.0", "0.0", "-0.0"], ["-0.0", "-0.0", "0.0"], ["0.0", "0.0", "-0.0"]]
        assert parsed[-1] == ["sec", "repeat", "-0.0", "nan", "0.0"]

    def test_carriage_return_is_not_quoted(self):
        # The format is Python 3.11's csv writer: "\r" alone is not quoted.
        assert _csv_field("a\rb") == "a\rb"
        assert _csv_field("a,b") == '"a,b"' and _csv_field('a"b') == '"a""b"'

    def test_matches_csv_writer_on_exact_gaps_sized_table(self, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        import workloads

        s = Scenario.from_json_dict(workloads.exact_gaps(workloads.DEFAULT_SEEDS["exact-gaps"]))
        _results, rows, violations = _experiment_independence(s)
        assert len(rows) == 10 * 23 * 30 + 30 + 1 and violations == []
        assert len({row[4] for row in rows}) == 10 + 1
        assert _csv_text(rows) == reference_tables_csv(rows)
        # The conditional rows, cell by cell: targets outer, conditioning events inner.
        family = default_event_family(s.model, quantile_levels=s.params["quantile_levels"])
        weights = np.stack([ev.weights(s.model) for ev in family])
        targets = [i for i, ev in enumerate(family) if len(ev.state_set) == 1]
        conds = [i for i, w in enumerate(weights) if w @ s.model.stationary() > 0.0]
        expected = []
        for tau in s.params["tau_grid"]:
            gaps = conditional_gap_matrix(s.model, weights[targets], weights[conds], tau)
            for ti, t in enumerate(targets):
                for ci, c in enumerate(conds):
                    expected.append((f"tau={tau} target={family[t].describe()} "
                                     f"given={family[c].describe()}", float(gaps[ci, ti])))
        assert [(label, value) for _s, label, value, _se, _b in rows[:len(expected)]] == expected


class TestDeterminism:
    @pytest.mark.parametrize(
        "experiment,params",
        [
            ("mixing", {"s_max": 15}),
            (
                "independence",
                {"tau_grid": [1, 2], "lags": [2, 2], "quantile_levels": [0.5]},
            ),
            (
                "cf_gap",
                {"lags": [2], "t_grid": [1.0], "replicates": 1500, "quantile_levels": [0.5]},
            ),
            ("clt", FAST_CLT_PARAMS),
        ],
    )
    def test_reports_byte_identical(self, tmp_path, experiment, params):
        s = Scenario.from_json_dict(scenario_dict(experiment=experiment, params=params))
        r1 = run_scenario(s, tmp_path / "a")
        r2 = run_scenario(s, tmp_path / "b", threads=8)
        assert r1.report_path.read_bytes() == r2.report_path.read_bytes()
        assert r1.csv_path.read_bytes() == r2.csv_path.read_bytes()
        m1 = json.loads(r1.manifest_path.read_text())
        m2 = json.loads(r2.manifest_path.read_text())
        assert m1["scenario_hash"] == m2["scenario_hash"]

    def test_seed_override_changes_mc_results(self, tmp_path):
        base = scenario_dict(
            experiment="cf_gap",
            params={"lags": [2], "t_grid": [1.0], "replicates": 1500, "quantile_levels": [0.5]},
        )
        path = write_scenario(tmp_path / "s.json", base)
        r1 = run(path, tmp_path / "o1")
        r2 = run(path, tmp_path / "o2", seed=12345)
        assert r1.report["results"]["max_gap"] != r2.report["results"]["max_gap"]


class TestVerifyAll:
    def test_mixed_suite(self, tmp_path):
        suite = tmp_path / "suite"
        suite.mkdir()
        write_scenario(suite / "a_good.json", scenario_dict(name="good", params={"s_max": 10}))
        write_scenario(
            suite / "b_fault.json",
            scenario_dict(name="fault", bound_scale=1e-6, params={"s_max": 10}),
        )
        (suite / "c_broken.json").write_text("{not json", encoding="utf-8")
        out = tmp_path / "out"
        summary = verify_all(suite, out)
        assert [e["file"] for e in summary.entries] == [
            "a_good.json", "b_fault.json", "c_broken.json",
        ]
        assert [e["status"] for e in summary.entries] == [0, 2, 1]
        assert summary.n_failed == 2
        # Config errors outrank bound violations in the aggregate code.
        assert summary.exit_code == 1
        on_disk = json.loads((out / "summary.json").read_text())
        assert len(on_disk["scenarios"]) == 3
        csv_lines = (out / "summary.csv").read_text().splitlines()
        assert csv_lines[0] == "file,name,experiment,status,detail"
        assert len(csv_lines) == 4

    def test_summary_csv_quotes_details(self, tmp_path):
        # The config error quotes the parameter name: a comma and a quote.
        suite = tmp_path / "suite"
        suite.mkdir()
        write_scenario(suite / "a.json", scenario_dict(name="a", params={'x,"y': 1}))
        write_scenario(suite / "b.json", scenario_dict(name="b", params={"s_max": 5}))
        summary = verify_all(suite, tmp_path / "out")
        detail = summary.entries[0]["detail"]
        assert "," in detail and '"' in detail
        columns = ("file", "name", "experiment", "status", "detail")
        expected = csv_writer_text(columns, [[e[c] for c in columns] for e in summary.entries])
        assert summary.csv_path.read_text() == expected

    def test_duplicate_name_does_not_overwrite(self, tmp_path):
        # The later file would write into the earlier one's directory; it is
        # refused with status 1 and the earlier artifacts stay as they were.
        suite = tmp_path / "suite"
        suite.mkdir()
        write_scenario(suite / "a.json", scenario_dict(name="same", params={"s_max": 10}))
        write_scenario(suite / "b.json", scenario_dict(name="same", params={"s_max": 12}))
        out = tmp_path / "out"
        summary = verify_all(suite, out)
        assert [e["status"] for e in summary.entries] == [0, 1]
        assert summary.entries[1]["detail"] == "scenario name 'same' is already used by a.json"
        assert summary.exit_code == 1
        report = json.loads((out / "same" / "report.json").read_text())
        assert report["scenario"]["params"]["s_max"] == 10
        assert sorted(path.name for path in (out / "same").iterdir()) == \
            ["manifest.json", "report.json", "tables.csv"]

    def test_empty_suite(self, tmp_path):
        suite = tmp_path / "empty"
        suite.mkdir()
        summary = verify_all(suite, tmp_path / "out")
        assert summary.entries == ()
        assert summary.exit_code == 0

    def test_missing_suite_dir(self, tmp_path):
        with pytest.raises(ConfigInvalid):
            verify_all(tmp_path / "nope", tmp_path / "out")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_shipped_suites(self, tmp_path):
        # A numpy RuntimeWarning (say, a NaN from an empty sample) becomes an
        # error, which the sweep records as status 3.
        shipped = verify_all(SCENARIOS, tmp_path / "shipped")
        assert len(shipped.entries) == 5
        assert shipped.exit_code == 0, shipped.entries
        faults = verify_all(SCENARIOS / "faults", tmp_path / "faults")
        assert faults.exit_code == 2, faults.entries

    def test_no_shipped_row_carries_both_std_error_and_bound(self, tmp_path):
        # A bound gates exact values only: a sampled row reports its standard
        # error and no bound, in every shipped scenario and benchmark workload.
        sys.path.insert(0, str(SCENARIOS.parent / "bench"))
        try:
            import workloads
        finally:
            sys.path.remove(str(SCENARIOS.parent / "bench"))
        suite = tmp_path / "suite"
        suite.mkdir()
        for path in [*SCENARIOS.glob("*.json"), *SCENARIOS.glob("faults/*.json")]:
            (suite / f"{path.parent.name}-{path.name}").write_bytes(path.read_bytes())
        for name, make in workloads.WORKLOADS.items():
            write_scenario(suite / f"workload-{name}.json", make(workloads.DEFAULT_SEEDS[name]))
        summary = verify_all(suite, tmp_path / "out")
        assert len(summary.entries) == 9 and max(e["status"] for e in summary.entries) == 2
        sections = set()
        for entry in summary.entries:
            with (tmp_path / "out" / entry["name"] / "tables.csv").open(newline="") as fh:
                rows = list(csv.DictReader(fh))
            sections.update(row["section"] for row in rows if row["std_error"])
            assert not [row for row in rows if row["std_error"] and row["bound"]], entry["file"]
        assert "cf_gap" in sections

    def test_does_not_recurse(self, tmp_path):
        suite = tmp_path / "suite"
        (suite / "sub").mkdir(parents=True)
        write_scenario(suite / "top.json", scenario_dict(name="top", params={"s_max": 5}))
        write_scenario(suite / "sub" / "nested.json", scenario_dict(name="nested"))
        summary = verify_all(suite, tmp_path / "out")
        assert [e["file"] for e in summary.entries] == ["top.json"]


class TestCli:
    def test_run_ok(self, tmp_path, capsys):
        path = write_scenario(tmp_path / "s.json", scenario_dict(params={"s_max": 10}))
        code = cli.main(["run", "--scenario", path, "--out", str(tmp_path / "out")])
        assert code == 0
        assert "t1: ok" in capsys.readouterr().out

    def test_run_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken", encoding="utf-8")
        code = cli.main(["run", "--scenario", str(bad), "--out", str(tmp_path / "out")])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config-invalid"

    def test_run_degenerate_emission_is_config_error(self, tmp_path, capsys):
        # 1 / rate^2 overflows float range, so the variance is not finite.
        obj = scenario_dict(experiment="clt", params=FAST_CLT_PARAMS)
        obj["model"]["emissions"] = [
            obj["model"]["emissions"][0], {"family": "shifted_exponential", "rate": 1e-320}
        ]
        path = write_scenario(tmp_path / "s.json", obj)
        code = cli.main(["run", "--scenario", path, "--out", str(tmp_path / "out")])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config-invalid"

    def test_run_negative_eta_grid_is_config_error(self, tmp_path, capsys):
        obj = scenario_dict(experiment="clt", params=dict(FAST_CLT_PARAMS, eta_grid=[0.5, -1.0]))
        path = write_scenario(tmp_path / "s.json", obj)
        code = cli.main(["run", "--scenario", path, "--out", str(tmp_path / "out")])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config-invalid"
        assert "eta_grid" in err["message"]

    @pytest.mark.parametrize(
        "emissions",
        [[BENCH_MODEL_JSON["emissions"][0], {"family": "gaussian", "mu": 1.0, "sigma": 1e120}],
         [BENCH_MODEL_JSON["emissions"][0], {"family": "gaussian", "mu": 1e60, "sigma": 1.0}],
         [BENCH_MODEL_JSON["emissions"][0], {"family": "gaussian", "mu": 1e150, "sigma": 1.0}],
         [BENCH_MODEL_JSON["emissions"][0], {"family": "shifted_exponential", "rate": 1e-150}],
         # The mixture mean lies below the shift, so R's 6 / rate^3 term
         # divides by an underflowed rate^3.
         [{"family": "shifted_exponential", "rate": 1e-150, "shift": 1e150},
          {"family": "gaussian", "mu": -2e150, "sigma": 1.0}]],
        ids=["sigma=1e120", "mu=1e60", "mu=1e150", "rate=1e-150", "rate=1e-150-below-shift"],
    )
    def test_run_clt_wide_emission_scale_refused_before_sampling(self, tmp_path, capsys,
                                                                monkeypatch, emissions):
        # R leaves float range (float ** overflows, or rate^3 underflows to a
        # zero divisor), or p^2 R^2 / n is infinite (mu=1e60); each is
        # refused before the convergence measurements, which draw nothing.
        import regimeclt.runner as runner_mod

        def refuse(*args, **kwargs):
            raise AssertionError("measured before the remainder envelope was checked")

        monkeypatch.setattr(runner_mod, "clt_convergence", refuse)
        monkeypatch.setattr(SeedSpec, "block_rng", refuse)
        obj = scenario_dict(experiment="clt", params=FAST_CLT_PARAMS)
        obj["model"]["emissions"] = emissions
        path = write_scenario(tmp_path / "s.json", obj)
        code = cli.main(["run", "--scenario", path, "--out", str(tmp_path / "out")])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config-invalid"
        assert "remainder envelope" in err["message"] or "third absolute moment" in err["message"]

    def test_run_walk_table_over_cap_is_config_error(self, tmp_path, capsys, monkeypatch):
        # A chain whose next-regime table passes the cap is refused with
        # exit 1, not an internal error. cf_gap samples; clt draws nothing.
        import regimeclt.process as process_mod

        monkeypatch.setattr(process_mod, "_WALK_TABLE_BYTES", 15)
        params = {"lags": [2], "t_grid": [1.0], "replicates": 40, "quantile_levels": [0.5]}
        path = write_scenario(tmp_path / "s.json", scenario_dict(experiment="cf_gap", params=params))
        code = cli.main(["run", "--scenario", path, "--out", str(tmp_path / "out")])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config-invalid"
        assert "next-regime table" in err["message"]

    @pytest.mark.parametrize("experiment", ["independence", "cf_gap"])
    def test_run_six_lags_exits_0(self, tmp_path, experiment):
        # Seven exact events: only the byte cap limits an exact route, and
        # the artifacts do not depend on --threads.
        params = {"lags": [1] * 6, "quantile_levels": [0.5]}
        if experiment == "cf_gap":
            params.update(t_grid=[1.0], replicates=2_000)
        path = write_scenario(tmp_path / "s.json", scenario_dict(experiment=experiment, params=params))
        for threads in ("1", "2"):
            out = str(tmp_path / f"out{threads}")
            assert cli.main(["run", "--scenario", path, "--out", out, "--threads", threads]) == 0
        for name in ("report.json", "tables.csv"):
            assert (tmp_path / "out1" / "t1" / name).read_bytes() == \
                (tmp_path / "out2" / "t1" / name).read_bytes()

    @pytest.mark.parametrize(
        "fields,model_fields,flags,message",
        [({"params": {"s_max": math.inf}}, {}, [], "'s_max' must be an integer, got inf"),
         ({"experiment": "independence", "params": {"lags": [2, math.inf]}}, {}, [],
          "'lags' must be an integer, got inf"),
         ({"experiment": "cf_gap", "params": {"eta": 10**400}}, {}, [], "'eta' must be a finite number"),
         ({"bound_scale": 10**400}, {}, [], "bound_scale must be a positive finite number"),
         ({"seed": math.inf}, {}, [], "seed base must be an integer, got inf"),
         ({"seed": 7.9}, {}, [], "seed base must be an integer, got 7.9"),
         ({"seed": {"base": 7, "stream": 0.5}}, {}, [], "seed stream must be an integer, got 0.5"),
         ({}, {"initial": {"fixed_state": 1.5}}, [], "fixed_state must be an integer regime label"),
         ({}, {"chain": dict(BENCH_MODEL_JSON["chain"], n_states=math.inf)}, [],
          "n_states does not match the number of rows"),
         ({}, {"emissions": [BENCH_MODEL_JSON["emissions"][0],
                             {"family": "gaussian", "mu": 10**400, "sigma": 1.0}]}, [],
          "invalid model: int too large to convert to float"),
         ({}, {}, ["--seed", "-1"], "seed base must be >= 0, got -1"),
         ({}, {}, ["--seed", str(2**64)], "invalid seed: base seed must fit in 64 bits")],
        ids=["s_max=inf", "lags=inf", "eta=1e400", "bound_scale=1e400", "seed=inf", "seed=7.9",
             "stream=0.5", "fixed_state=1.5", "n_states=inf", "mu=1e400", "flag-seed=-1",
             "flag-seed=2^64"],
    )
    def test_run_non_integer_or_out_of_range_is_config_error(self, tmp_path, capsys, fields,
                                                             model_fields, flags, message):
        # json.loads reads Infinity and integer literals past float range.
        # int() overflows on inf and truncates 7.9 to 7 and 1.5 to regime 1;
        # float() overflows on a long literal. Each exits 1, not 3.
        obj = scenario_dict(**{"params": {"s_max": 5}, **fields})
        obj["model"] = dict(obj["model"], **model_fields)
        path = write_scenario(tmp_path / "s.json", obj)
        code = cli.main(["run", "--scenario", path, "--out", str(tmp_path / "out"), *flags])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config-invalid"
        assert message in err["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "experiment,params,message",
        [("mixing", {"s_max": 10**400}, "'s_max' must be <= 10000"),
         ("mixing", {"s_max": MAX_LAG + 1}, "'s_max' must be <= 10000, got 10001"),
         ("independence", {"tau_grid": [1, 10**400]}, "'tau_grid' must be <= 10000"),
         ("independence", {"lags": [2, 10**400]}, "'lags' must be <= 10000"),
         ("cf_gap", {"lags": [10**400]}, "'lags' must be <= 10000")],
        ids=["s_max=1e400", "s_max=max+1", "tau_grid=1e400", "independence-lags=1e400",
             "cf_gap-lags=1e400"],
    )
    def test_run_lag_over_the_cap_is_config_error(self, tmp_path, capsys, monkeypatch,
                                                   experiment, params, message):
        # The mixing profile steps P once per lag up to the largest, so an
        # integer literal of 10^400 would run for ever; it exits 1 at load,
        # before any profile is fitted or any path drawn.
        def no_work(*args, **kwargs):
            raise AssertionError("worked before the lags were checked")

        monkeypatch.setattr(runner, "mixing_rate", no_work)
        monkeypatch.setattr(SeedSpec, "block_rng", no_work)
        path = write_scenario(tmp_path / "s.json", scenario_dict(experiment=experiment, params=params))
        code = cli.main(["run", "--scenario", path, "--out", str(tmp_path / "out")])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config-invalid"
        assert message in err["message"]
        assert not (tmp_path / "out").exists()

    def test_lags_at_the_cap_are_accepted(self):
        for experiment, params in [("mixing", {"s_max": MAX_LAG}),
                                   ("independence", {"tau_grid": [MAX_LAG], "lags": [MAX_LAG]}),
                                   ("cf_gap", {"lags": [MAX_LAG, 1]})]:
            s = Scenario.from_json_dict(scenario_dict(experiment=experiment, params=params))
            assert all(s.params[key] == value for key, value in params.items())

    def test_run_integral_floats_are_integers(self, tmp_path):
        # 7.0 reads as 7 wherever an integer is expected.
        reports = []
        for value in (2, 2.0):
            obj = scenario_dict(params={"s_max": 5 * value}, seed={"base": 3 * value, "stream": 0 * value})
            obj["model"] = dict(obj["model"], initial={"fixed_state": value})
            out = tmp_path / f"out-{value!r}"
            assert cli.main(["run", "--scenario", write_scenario(tmp_path / "s.json", obj),
                             "--out", str(out)]) == 0
            reports.append((out / "t1" / "report.json").read_bytes())
        assert reports[0] == reports[1]

    @pytest.mark.parametrize(
        "experiment,params,flags,message",
        [("cf_gap", {"replicates": 5}, [], "'replicates' must be >= 40"),
         ("cf_gap", {"replicates": 39}, [], "'replicates' must be >= 40"),
         ("clt", dict(FAST_CLT_PARAMS, batches=1), [], "'batches' must be >= 2"),
         ("clt", dict(FAST_CLT_PARAMS, replicates=1), [], "'replicates' must be >= 2"),
         ("clt", FAST_CLT_PARAMS, ["--replicates", "1"], "'replicates' must be >= 2")],
        ids=["cf_gap-replicates=5", "cf_gap-replicates=39", "clt-batches=1", "clt-replicates=1",
             "clt-flag-replicates=1"],
    )
    def test_run_too_few_samples_is_config_error(self, tmp_path, capsys, monkeypatch,
                                                 experiment, params, flags, message):
        # Too few rows to batch, or to take a sample variance of, exit 1
        # before any draw instead of crashing (exit 3) or writing NaN.
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the sample sizes were checked")

        monkeypatch.setattr(SeedSpec, "block_rng", no_sampling)
        path = write_scenario(tmp_path / "s.json", scenario_dict(experiment=experiment, params=params))
        code = cli.main(["run", "--scenario", path, "--out", str(tmp_path / "out"), *flags])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config-invalid"
        assert message in err["message"]

    @pytest.mark.parametrize(
        "experiment,params",
        [("cf_gap", {"lags": [2], "t_grid": [1.0], "replicates": 40, "quantile_levels": [0.5]}),
         ("clt", dict(FAST_CLT_PARAMS, replicates=2, batches=2))],
        ids=["cf_gap", "clt"],
    )
    def test_run_smallest_sample_sizes_run(self, tmp_path, experiment, params):
        path = write_scenario(tmp_path / "s.json", scenario_dict(experiment=experiment, params=params))
        assert cli.main(["run", "--scenario", path, "--out", str(tmp_path / "out")]) == 0
        report = json.loads((tmp_path / "out" / "t1" / "report.json").read_text())
        assert "NaN" not in json.dumps(report)

    @pytest.mark.parametrize(
        "experiment,params,message",
        [("cf_gap", {"replicates": 10**15}, "complex phase matrix needs 48000000000000000 bytes")],
        ids=["cf_gap-replicates=1e15"],
    )
    def test_run_oversized_config_is_config_error(self, tmp_path, capsys, monkeypatch,
                                                  experiment, params, message):
        # An array past the 2^30-byte cap is refused with exit 1 before it is
        # allocated or anything is drawn, not an internal error (exit 3).
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the sizes were checked")

        monkeypatch.setattr(SeedSpec, "block_rng", no_sampling)
        path = write_scenario(tmp_path / "s.json", scenario_dict(experiment=experiment, params=params))
        code = cli.main(["run", "--scenario", path, "--out", str(tmp_path / "out")])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config-invalid"
        assert message in err["message"] and "byte cap" in err["message"]

    @pytest.mark.parametrize("n_grid", [[MAX_CLT_N + 1], [10**15], [16, 10**15]],
                             ids=["n=max+1", "n=1e15", "n=16,1e15"])
    def test_run_clt_n_over_the_cap_is_config_error(self, tmp_path, capsys, monkeypatch, n_grid):
        # The exact cf's round-off grows like n eps, so an n past MAX_CLT_N
        # exits 1 when the scenario is loaded, before any clt work.
        def no_work(*args, **kwargs):
            raise AssertionError("worked before n_grid was checked")

        for name in ("decompose", "remainder_diagnostic", "clt_convergence"):
            monkeypatch.setattr(runner, name, no_work)
        monkeypatch.setattr(SeedSpec, "block_rng", no_work)
        path = write_scenario(tmp_path / "s.json", scenario_dict(experiment="clt", params={"n_grid": n_grid}))
        code = cli.main(["run", "--scenario", path, "--out", str(tmp_path / "out")])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config-invalid"
        assert "'n_grid' must be <= 1000000000, got " in err["message"]
        assert not (tmp_path / "out").exists()

    def test_clt_n_at_the_cap_runs(self, tmp_path):
        # n = 10^9 was run through a 1.1e7-index remainder walk; now it is
        # a few matrix powers, like every other clt quantity.
        params = {"n_grid": [16, MAX_CLT_N]}
        path = write_scenario(tmp_path / "s.json", scenario_dict(experiment="clt", params=params))
        assert load_scenario(path).params["n_grid"] == [16, MAX_CLT_N]
        assert cli.main(["run", "--scenario", path, "--out", str(tmp_path / "out")]) == 0
        results = json.loads((tmp_path / "out" / "t1" / "report.json").read_text())["results"]
        assert results["block"]["n"] == MAX_CLT_N
        assert 0.0 < results["remainder"]["second_moment"] < 1.0

    def test_run_bound_violation(self, tmp_path, capsys):
        path = write_scenario(
            tmp_path / "f.json",
            scenario_dict(name="fault", bound_scale=1e-6, params={"s_max": 10}),
        )
        code = cli.main(["run", "--scenario", path, "--out", str(tmp_path / "out")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "bound-violated"

    def test_run_seed_and_replicates_flags(self, tmp_path):
        path = write_scenario(
            tmp_path / "s.json",
            scenario_dict(
                experiment="cf_gap",
                params={"lags": [2], "t_grid": [1.0], "replicates": 1500, "quantile_levels": [0.5]},
            ),
        )
        code = cli.main([
            "run", "--scenario", path, "--out", str(tmp_path / "out"),
            "--seed", "5", "--replicates", "800", "--threads", "4",
        ])
        assert code == 0
        report = json.loads((tmp_path / "out" / "t1" / "report.json").read_text())
        assert report["scenario"]["seed"] == {"base": 5, "stream": 0}
        assert report["scenario"]["params"]["replicates"] == 800

    def test_verify_all_exit_code(self, tmp_path, capsys):
        suite = tmp_path / "suite"
        suite.mkdir()
        write_scenario(suite / "good.json", scenario_dict(name="good", params={"s_max": 5}))
        write_scenario(
            suite / "fault.json",
            scenario_dict(name="fault", bound_scale=1e-6, params={"s_max": 5}),
        )
        code = cli.main(["verify-all", "--suite", str(suite), "--out", str(tmp_path / "out")])
        assert code == 2
        out = capsys.readouterr().out
        assert "good.json: ok" in out
        assert "fault.json: FAIL(2)" in out
        assert "2 scenario(s), 1 failed" in out

    def test_verify_all_missing_suite(self, tmp_path, capsys):
        code = cli.main(["verify-all", "--suite", str(tmp_path / "nope"), "--out", str(tmp_path / "o")])
        assert code == 1
        assert json.loads(capsys.readouterr().err)["error"] == "config-invalid"

    def test_out_dir_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("REGIMECLT_OUT", str(tmp_path / "envout"))
        path = write_scenario(tmp_path / "s.json", scenario_dict(params={"s_max": 5}))
        assert cli.main(["run", "--scenario", path]) == 0
        assert (tmp_path / "envout" / "t1" / "report.json").exists()

    def test_out_dir_default(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("REGIMECLT_OUT", raising=False)
        path = write_scenario(tmp_path / "s.json", scenario_dict(params={"s_max": 5}))
        assert cli.main(["run", "--scenario", path]) == 0
        assert (tmp_path / "regimeclt-out" / "t1" / "report.json").exists()
