"""Cold-process scenario benchmark for regimeclt.

    python3 bench/run.py --workload {short-paths,long-paths,exact-gaps}
                         [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. For S seconds the benchmark starts one workload
process after another (bench/child.py, never two at once, BLAS pinned to one
thread); one starts only if it is expected to end within S seconds. Each
process imports the program from src/, loads the scenario the benchmark
generated from --seed, and makes one `run_scenario` call, exactly as
`regimeclt run` does. Every process is one attempted operation; a process
that crashes or ends with a nonzero status counts as failed.

Machine speed: the wall time of identical work on the VM this was built on
moves by up to 2x within minutes, so a reference load (bench/speedref.py)
runs on the second core throughout and every time is reported at the
reference speed: wall time x REF_UNIT_S / (mean reference unit time over the
same interval). The raw wall times are printed beside them and reported by
the traced run. The reference load first runs alone for QUIET_S seconds; the
median unit time alone and beside the workload processes are printed, so a
change in how much a workload slows the reference shows.

--trace 0 reports the end-to-end metrics, each the median over the run's
processes: setup_s (launch until the scenario is loaded and validated),
scenario_s (the first run_scenario call, artifacts written) and
peak_rss_mib. --trace 1 alternates an untraced and a traced process and
reports the per-layer metrics of bench/tracing.py; spans and the summary go
to bench-out/.

After the timed processes, every report.json and tables.csv of the run must
be byte-identical, and the first is checked by the independent oracles of
bench/oracle.py. The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import oracle
from tracing import summarize
from workloads import DEFAULT_SEEDS, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_ROOT = ROOT / "bench-out"
# Ten times the slowest workload process seen; keeps a run with a hung
# process inside the 180 s a run may take.
CHILD_TIMEOUT_S = 60
# Nominal duration of one reference unit: reported times read as seconds on
# a machine where one unit of bench/speedref.py takes this long.
REF_UNIT_S = 0.002
# The reference load runs alone this long before the first workload process,
# so every run shows how much the workload beside it slows the reference.
QUIET_S = 2.0

END_TO_END_UNITS = {"setup_s": "s", "scenario_s": "s", "peak_rss_mib": "MiB"}
# Per-layer times that fall in the set-up interval rather than the scenario.
SETUP_PHASE = {"setup.import_s", "setup.load_s", "process.model_build_s"}


def per_layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


class SpeedReference:
    """The reference load process and the unit timings it logged."""

    def __init__(self, log_path: Path, lifetime_s: float) -> None:
        self.log_path = log_path
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "speedref.py"), str(log_path), str(lifetime_s)],
            env=_single_thread_env(),
        )
        self.units = None

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
        self.proc.wait()
        log = np.loadtxt(self.log_path, dtype=np.int64, ndmin=2)
        self.units = (log[:, 0], log[:, 1])

    def _overlapping(self, start_ns: int, end_ns: int) -> np.ndarray:
        ends, durations = self.units
        overlap = (ends >= start_ns) & (ends - durations <= end_ns)
        if not overlap.any():
            raise RuntimeError("the reference load logged no unit in a measured interval")
        return durations[overlap]

    def scale(self, start_ns: int, end_ns: int) -> float:
        """REF_UNIT_S over the mean duration of the units overlapping [start, end]."""
        return REF_UNIT_S / (self._overlapping(start_ns, end_ns).mean() / 1e9)

    def unit_ms(self, windows: list[tuple[int, int]]) -> float:
        """Median duration in ms of the units overlapping any of the windows."""
        return float(np.median(np.concatenate([self._overlapping(*w) for w in windows]))) / 1e6


def _single_thread_env() -> dict:
    return dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")


def run_child(scenario_path: Path, out_dir: Path, trace_path: Path | None = None) -> dict | None:
    """Start one workload process, wait for it, return its record (None if it failed)."""
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), "--scenario", str(scenario_path),
           "--out", str(out_dir)]
    if trace_path is not None:
        cmd += ["--trace", str(trace_path)]
    cmd += ["--launched-ns", str(time.monotonic_ns())]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=_single_thread_env(),
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"workload process timed out after {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"workload process exited {proc.returncode}:\n{proc.stderr}", file=sys.stderr)
        return None
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    if record["status"] != 0:
        print(f"scenario ended with status {record['status']}", file=sys.stderr)
        return None
    if trace_path is not None:
        record["trace"] = str(trace_path)
    return record


def add_times(rec: dict, ref: SpeedReference) -> None:
    """Wall and reference-speed times of one workload process."""
    rec["wall_setup_s"] = (rec["set_up_ns"] - rec["launched_ns"]) / 1e9
    rec["wall_import_s"] = (rec["imported_ns"] - rec["launched_ns"]) / 1e9
    rec["wall_scenario_s"] = (rec["ended_ns"] - rec["set_up_ns"]) / 1e9
    rec["setup_scale"] = ref.scale(rec["launched_ns"], rec["set_up_ns"])
    rec["scenario_scale"] = ref.scale(rec["set_up_ns"], rec["ended_ns"])
    rec["setup_s"] = rec["wall_setup_s"] * rec["setup_scale"]
    rec["scenario_s"] = rec["wall_scenario_s"] * rec["scenario_scale"]


def check_outputs(workload: str, scenario: dict, records: list[dict]) -> list[str]:
    """Byte-identical artifacts across the run, then the workload's oracle."""
    errors = []
    first = records[0]
    report_bytes = Path(first["report"]).read_bytes()
    table_bytes = Path(first["tables"]).read_bytes()
    for rec in records[1:]:
        if Path(rec["report"]).read_bytes() != report_bytes:
            errors.append(f"{rec['report']} differs from {first['report']}")
        if Path(rec["tables"]).read_bytes() != table_bytes:
            errors.append(f"{rec['tables']} differs from {first['tables']}")
    report = json.loads(report_bytes)
    if report["status"] != 0:
        errors.append(f"report status {report['status']}")
    rows = oracle.read_rows(table_bytes.decode("utf-8"))
    errors += oracle.CHECKS[workload](scenario, report, rows)
    return errors


def layer_metrics(traced: list[dict], untraced: list[dict], reference: dict,
                  run_dir: Path) -> tuple[dict, list[str]]:
    """Per-layer metrics: medians of times over the traced processes, counts
    that must repeat exactly, the tracing overhead and uncovered time."""
    errors = []
    summaries = []
    for rec in traced:
        with open(rec["trace"], encoding="utf-8") as fh:
            summary = summarize(json.load(fh))
        summary["trace.uncovered_s"] = rec["wall_scenario_s"] - summary.pop("trace.scenario_span_s")
        summary["setup.import_s"] = rec["wall_import_s"]
        for name in summary:
            scale = rec["setup_scale" if name in SETUP_PHASE else "scenario_scale"]
            if per_layer_unit(name) == "s":
                summary[name] *= scale
            elif per_layer_unit(name) == "1/s":
                summary[name] /= scale
        tables = Path(rec["tables"])
        summary["runner.table_rows"] = len(tables.read_text(encoding="utf-8").splitlines()) - 1
        # report.json and tables.csv only: the manifest carries a timestamp.
        summary["runner.artifact_bytes"] = tables.stat().st_size + Path(rec["report"]).stat().st_size
        summaries.append(summary)

    metrics = {}
    for name in summaries[0]:
        values = [s[name] for s in summaries]
        if per_layer_unit(name) in ("count", "bytes"):
            if len(set(values)) != 1:
                errors.append(f"count {name} differs between processes: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    traced_s = statistics.median(r["scenario_s"] for r in traced)
    metrics["trace.scenario_s"] = traced_s
    metrics["trace.overhead_s"] = traced_s - statistics.median(r["scenario_s"] for r in untraced)
    metrics["wall.setup_s"] = statistics.median(r["wall_setup_s"] for r in untraced)
    metrics["wall.scenario_s"] = statistics.median(r["wall_scenario_s"] for r in untraced)

    layer_total = sum(metrics[k] for k in metrics if k.endswith(".self_s"))
    with open(run_dir / "trace-summary.json", "w", encoding="utf-8") as fh:
        json.dump({
            "per_process": summaries,
            "medians": metrics,
            "accounting": {
                "traced_scenario_s": traced_s,
                "sum_layer_self_s": layer_total,
                "uncovered_s": metrics["trace.uncovered_s"],
                "reference_unit_ms": reference,
            },
        }, fh, indent=2, sort_keys=True)
    return metrics, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "regimeclt" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'regimeclt'} is missing", file=sys.stderr)
        return 2
    seed = DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
    if not 0 <= seed < 2**64:
        print("error: --seed must lie in [0, 2^64)", file=sys.stderr)
        return 2

    scenario = WORKLOADS[args.workload](seed)
    run_dir = OUT_ROOT / f"{args.workload}-seed{seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    scenario_path = run_dir / "scenario.json"
    scenario_path.write_text(json.dumps(scenario, indent=2) + "\n", encoding="utf-8")

    # SIGTERM unwinds like an error, so the workload process and the
    # reference load are stopped and waited for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    untraced: list[dict] = []
    traced: list[dict] = []
    attempted = failed = 0
    ref = SpeedReference(run_dir / "speedref.log", QUIET_S + args.seconds + 2 * CHILD_TIMEOUT_S)
    try:
        quiet_start = time.monotonic_ns()
        time.sleep(QUIET_S)
        quiet = (quiet_start, time.monotonic_ns())
        started = time.monotonic()
        rep = 0
        round_s = 0.0
        # A round starts only if it is expected to end within --seconds.
        while rep == 0 or time.monotonic() - started + round_s <= args.seconds:
            round_start = time.monotonic()
            plan = [(untraced, run_dir / f"rep{rep}", None)]
            if args.trace:
                plan.append((traced, run_dir / f"rep{rep}-traced", run_dir / f"trace-rep{rep}.json"))
            for sink, out_dir, trace_path in plan:
                rec = run_child(scenario_path, out_dir, trace_path)
                attempted += 1
                if rec is None:
                    failed += 1
                else:
                    sink.append(rec)
            round_s = time.monotonic() - round_start
            rep += 1
    finally:
        ref.stop()

    if not untraced or (args.trace and not traced):
        print("error: no workload process completed", file=sys.stderr)
        return 1
    for rec in untraced + traced:
        add_times(rec, ref)
    errors = check_outputs(args.workload, scenario, untraced + traced)
    reference = {
        "alone": ref.unit_ms([quiet]),
        "beside_workload": ref.unit_ms([(r["launched_ns"], r["ended_ns"]) for r in untraced + traced]),
    }
    if args.trace:
        metrics, count_errors = layer_metrics(traced, untraced, reference, run_dir)
        errors += count_errors
        out = {name: {"value": v, "unit": per_layer_unit(name)} for name, v in sorted(metrics.items())}
    else:
        out = {
            name: {"value": statistics.median(r[name] for r in untraced), "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }
    for err in errors:
        print(f"check failed: {err}", file=sys.stderr)

    print(f"workload {args.workload} seed {seed}: {attempted} attempted, {failed} failed, "
          f"outputs {'correct' if not errors else 'INCORRECT'}")
    for name, m in out.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for name in ("wall_setup_s", "wall_scenario_s"):
        print(f"  ({name} = {statistics.median(r[name] for r in untraced):.6g} s at the machine's speed)")
    print(f"  (reference unit = {reference['alone']:.4g} ms alone before the first process, "
          f"{reference['beside_workload']:.4g} ms beside the workload processes, nominal {REF_UNIT_S * 1e3:g} ms)")
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
