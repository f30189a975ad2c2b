"""Run every workload over several seeds and summarise each metric.

Usage (from the root of a checkout)::

    python3 perfbench/suite.py --seeds 0-9 --seconds 28
    python3 perfbench/suite.py --seeds 0-4 --workloads paper-figures
    python3 perfbench/suite.py --seeds 0-1 --trace 1

Every run is ``run.py`` in a fresh process.  For each workload and metric
the table gives the median over the runs, the first and third quartile
(``statistics.quantiles(values, n=4)``), the sample count and the spread
``(q3 - q1) / median``.  ``--trace 0`` summarises every end-to-end metric
a workload defines (from the ``detail`` line); ``--trace 1`` the
per-layer metrics.  Every run's result line is also written, one JSON
object a line, to ``--out`` when given.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from typing import Dict, List

from rep import SIZES
from run import HERE, ROOT
from record import _seeds


def _run(workload: str, seed: int, seconds: int, trace: int) -> Dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = next(json.loads(line[len("detail "):]) for line in lines
                  if line.startswith("detail "))
    return {"workload": workload, "seed": seed, "result": result,
            "detail": detail}


def summarise(values: List[float]) -> str:
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / median if median else float("nan")
    return (f"{median:14.6g} {q1:14.6g} {q3:14.6g} {len(values):4d} "
            f"{spread:8.4f}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("0-9"),
                        help="a seed or an inclusive range (default 0-9)")
    parser.add_argument("--seconds", type=int, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads", nargs="*", default=list(SIZES),
                        choices=list(SIZES))
    parser.add_argument("--out", default=None,
                        help="file for the per-run JSON lines")
    args = parser.parse_args()
    runs = []
    for workload in args.workloads:
        for seed in args.seeds:
            run = _run(workload, seed, args.seconds, args.trace)
            runs.append(run)
            print(f"# {workload} seed {seed}: correct="
                  f"{run['result']['correct']} attempted="
                  f"{run['result']['attempted']} failed="
                  f"{run['result']['failed']}", flush=True)
    if args.out:
        with open(args.out, "w") as handle:
            for run in runs:
                handle.write(json.dumps(run) + "\n")
    print(f"{'workload':24s} {'metric':28s} {'unit':8s} {'median':>14s} "
          f"{'q1':>14s} {'q3':>14s} {'n':>4s} {'spread':>8s}")
    for workload in args.workloads:
        mine = [run for run in runs if run["workload"] == workload]
        source = "result" if args.trace else "detail"
        metrics = mine[0][source]["metrics"]
        for name in sorted(metrics):
            values = [run[source]["metrics"][name]["value"] for run in mine]
            print(f"{workload:24s} {name:28s} {metrics[name]['unit']:8s} "
                  f"{summarise(values)}")
    host = runs[0]["detail"]["host"]
    print("host: " + json.dumps(host, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
