"""Reference load that records the machine's speed while workloads run.

    python3 bench/speedref.py LOG DEADLINE_S

Repeats one fixed unit of work (an interpreter loop, small numpy calls and a
pass over a 1 MiB array, the mix the program's hot paths have) and appends
"end_ns duration_ns" per unit to LOG, using CLOCK_MONOTONIC so the benchmark
can line the units up with a workload process's own timestamps. It runs on
the second core beside the workload process and exits by itself after
DEADLINE_S seconds if nobody stops it first.
"""

import sys
import time

import numpy as np


def unit(small: np.ndarray, large: np.ndarray) -> float:
    total = 0
    for i in range(10_000):
        total += i * i
    for _ in range(100):
        total += float(np.sort(small).sum())
    return total + float(np.cumsum(large)[-1])


def main() -> int:
    log_path, deadline_s = sys.argv[1], float(sys.argv[2])
    rng = np.random.default_rng(0)
    small, large = rng.random(32), rng.random(1 << 17)
    deadline = time.monotonic_ns() + int(deadline_s * 1e9)
    with open(log_path, "w", encoding="ascii", buffering=1) as log:
        while True:
            start = time.monotonic_ns()
            unit(small, large)
            end = time.monotonic_ns()
            log.write(f"{end} {end - start}\n")
            if end > deadline:
                return 0


if __name__ == "__main__":
    sys.exit(main())
