"""A traced benchmark process runs, and passes its oracle, on every workload.

The benchmark under bench/ wraps the program from outside: bench/tracing.py
unpacks the (start, states, obs) items of `iter_path_chunks` and binds
`epsilon_certificate`'s arguments by name, and bench/oracle.py reads each
run's report.json and tables.csv (a numeric std_error on every cf_gap row).
A change to any of these breaks a traced benchmark run, so each workload here
runs as one traced bench/child.py process, and its trace and artifacts go
through the same `tracing.summarize` and `oracle.CHECKS` as in bench/run.py.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_child_passes_oracle(tmp_path, workload):
    scenario = workloads.WORKLOADS[workload](workloads.DEFAULT_SEEDS[workload])
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(scenario), encoding="utf-8")
    trace_path = tmp_path / "trace.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "--scenario", str(scenario_path),
         "--out", str(tmp_path / "out"), "--trace", str(trace_path),
         "--launched-ns", str(time.monotonic_ns())],
        capture_output=True, text=True, timeout=600,
        env=dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1"),
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    assert record["status"] == 0

    metrics = tracing.summarize(json.loads(trace_path.read_text(encoding="utf-8")))
    # The hooks still see what they count: sampled paths, or certificate tuples.
    counted = "independence.certificate_tuples" if workload == "exact-gaps" else "process.paths"
    assert metrics[counted] > 0

    report = json.loads(Path(record["report"]).read_text(encoding="utf-8"))
    rows = oracle.read_rows(Path(record["tables"]).read_text(encoding="utf-8"))
    assert oracle.CHECKS[workload](scenario, report, rows) == []
