"""Run one workload untraced on several seeds and print each end-to-end metric's median and relative spread.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --workload forms-actions --seeds 1-10

The spread is the distance between the first and third quartile as a share
of the median (``statistics.quantiles(values, n=4)``), the figure a metric's
``bound`` in ``BENCHMARK.json`` is compared with.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median

from stats import relative_spread

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = parser.parse_args()
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    config = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in seeds:
        command = [
            sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(config["run_seconds"]), "--trace", "0",
        ]
        result = json.loads(subprocess.run(command, capture_output=True, text=True, check=True).stdout.splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} ops failed", file=sys.stderr)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)
    for name, series in values.items():
        spread = relative_spread(series) if len(series) > 1 and median(series) else float("nan")
        bound = bounds[name]
        verdict = "ok" if spread < bound / 3 else "WIDE"
        print(f"{name:<40} median {median(series):>12.4f}  spread {spread:.4f}  bound {bound}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
