"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload serve --seeds 1 2 3 4 5

Runs ``run.py`` once per seed (untraced, one child process at a time) and
prints, per metric, the median, the quartile spread as a share of the
median (as ``statistics.quantiles(values, n=4)`` gives the quartiles) and
the metric's bound from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args(argv)
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else config["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    values: dict = {}
    for seed in args.seeds:
        started = time.perf_counter()
        completed = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=str(ROOT), capture_output=True, text=True, timeout=900, check=False)
        if completed.returncode != 0:
            print(completed.stderr, file=sys.stderr)
            return 1
        last = json.loads(completed.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: {time.perf_counter() - started:.1f}s correct={last['correct']} "
              f"attempted={last['attempted']} failed={last['failed']}", flush=True)
        for name, metric in last["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    print(f"{'metric':<20} {'median':>12} {'spread':>8} {'bound':>6}")
    for name, series in values.items():
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        flag = "" if spread < bounds.get(name, 1.0) / 3 else "  <-- over a third of bound"
        print(f"{name:<20} {median:>12.6g} {spread:>8.3f} {bounds.get(name, 0):>6}{flag}")
        print("    " + " ".join(f"{value:.6g}" for value in series))
    return 0


if __name__ == "__main__":
    sys.exit(main())
