"""One workload process: set up, run one scenario, report what it cost.

    python3 bench/child.py --scenario FILE --out DIR --launched-ns NS [--trace FILE]

This is the process a user's `regimeclt run` is: it imports the program from
the src/ directory beside bench/, loads and validates the scenario, and makes its first and only
`run_scenario` call. --launched-ns is the CLOCK_MONOTONIC reading the parent
took just before starting this process; the record adds CLOCK_MONOTONIC
readings after the import, after the scenario is loaded and after
run_scenario returns. With --trace the layers are wrapped before the
scenario is loaded, and the spans go to FILE. The last line of stdout is one
JSON object.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--scenario", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--launched-ns", type=int, required=True)
    parser.add_argument("--trace", default=None)
    args = parser.parse_args()

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    import regimeclt

    t_import_ns = time.monotonic_ns()
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    scenario = regimeclt.load_scenario(args.scenario)
    t_setup_ns = time.monotonic_ns()
    result = regimeclt.run_scenario(scenario, args.out)
    t_end_ns = time.monotonic_ns()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    record = {
        "launched_ns": args.launched_ns,
        "imported_ns": t_import_ns,
        "set_up_ns": t_setup_ns,
        "ended_ns": t_end_ns,
        "peak_rss_mib": peak_rss_mib,
        "status": result.status,
        "report": str(result.report_path),
        "tables": str(result.csv_path),
    }
    if tracer is not None:
        with open(args.trace, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh, separators=(",", ":"))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
