"""Record the paper-figures result digests that ``run.py`` checks against.

Run from the root of a checkout after an intentional change of results::

    python3 perfbench/record.py --size bench --seeds 0-19
    python3 perfbench/record.py --size smoke --seeds 0

Each seed runs once in a fresh process; its per-experiment digests are
written to ``perfbench/expected.json`` under ``paper-figures/<size>/<seed>``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from run import EXPECTED_FILE, HERE, ROOT, _child_env


def _seeds(text: str):
    low, _, high = text.partition("-")
    return range(int(low), int(high or low) + 1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", choices=("bench", "smoke"), required=True)
    parser.add_argument("--seeds", type=_seeds, required=True,
                        help="a seed or an inclusive range such as 0-19")
    args = parser.parse_args()
    expected = (json.loads(EXPECTED_FILE.read_text())
                if EXPECTED_FILE.exists() else {})
    table = expected.setdefault("paper-figures", {}).setdefault(args.size, {})
    with tempfile.TemporaryDirectory(dir=ROOT) as work:
        for seed in args.seeds:
            out = f"{work}/seed-{seed}.json"
            subprocess.run(
                [sys.executable, str(HERE / "rep.py"),
                 "--workload", "paper-figures", "--seed", str(seed),
                 "--size", args.size, "--t0", repr(time.monotonic()),
                 "--out", out],
                cwd=ROOT, env=_child_env(Path(work)), check=True)
            with open(out) as handle:
                table[str(seed)] = json.load(handle)["digests"]
            print(f"seed {seed}: recorded", flush=True)
    EXPECTED_FILE.write_text(json.dumps(expected, indent=1, sort_keys=True)
                             + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
