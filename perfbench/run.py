"""Run one benchmark workload, or all of them.

    python3 perfbench/run.py --workload query --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Workloads: ingest, query, serve, api (see perfbench/CATALOGUE.md). With
``--trace 0`` the last stdout line carries the end-to-end metrics of an
untraced run; with ``--trace 1`` it carries the per-layer metrics of a
traced run. The line before it (``report: {...}``) holds the full
report: environment fingerprint, every figure measured, the
workload-specific metric names, and how any failed operation failed.

Ingest and query replay their operations in rounds, each in a fresh child
process doing the same work, and time each operation by its fastest
replay (``harness.REPLAY_ROUNDS``); ``--rounds 1`` runs a single round in
this process.

``--workload all`` runs every workload untraced and traced, each in a
child process, and prints the named end-to-end metrics, the per-layer
split and the tracing overhead (traced minus untraced).

Runs from the root of a checkout: the program is imported from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

WORKLOADS = ("ingest", "query", "serve", "api")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", default="",
                        help="traced runs: write every span as JSON lines here")
    parser.add_argument("--rounds", type=int, default=None,
                        help="replay rounds (default: 4 for ingest and query, else 1)")
    return parser.parse_args(argv)


def measure(args) -> dict:
    """Run the workload once in this process; returns its report."""
    import importlib

    from harness import fingerprint
    from layers import Recorder

    module = importlib.import_module(args.workload)
    recorder = Recorder() if args.trace else None
    result = module.run(args.seed, args.seconds, recorder=recorder)
    if recorder is not None and args.spans_out:
        with open(args.spans_out, "w", encoding="utf-8") as handle:
            for line in recorder.to_json_lines():
                handle.write(line + "\n")
    checks = result.checks
    info = dict(result.info)
    return {
        "fingerprint": fingerprint(
            args.workload, args.seed, args.seconds, bool(args.trace),
            info.pop("mode"), info.pop("real_latency_scale")),
        "end_to_end": result.end_to_end,
        "per_layer": result.per_layer,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "failures": checks.failures,
        "failure_examples": checks.examples,
        "info": info,
    }


def run_one(args) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    from harness import END_TO_END, NAMED, PER_LAYER, REPLAY_ROUNDS, combine_replays

    rounds = args.rounds if args.rounds is not None else REPLAY_ROUNDS.get(args.workload, 1)
    if rounds > 1 and args.workload not in REPLAY_ROUNDS:
        print(f"error: {args.workload} is not replayed; it runs one round", file=sys.stderr)
        return 2
    if rounds == 1:
        report = measure(args)
    else:
        # Each replay round in a fresh process of its own, one at a time.
        replays = [
            _child(args.workload, args.seed, args.seconds, args.trace, "--rounds", "1",
                   *(["--spans-out", str(Path(args.spans_out).resolve())]
                     if args.spans_out and i == 0 else []))
            for i in range(rounds)
        ]
        for replay in replays:
            del replay["last_line"], replay["named"]
        report = combine_replays(replays)
        report["fingerprint"]["rounds"] = rounds
    report["named"] = {NAMED[args.workload].get(k, f"{args.workload}.{k}"): v
                       for k, v in report["end_to_end"].items()}
    print("report: " + json.dumps(report, sort_keys=True, default=repr))
    table = PER_LAYER if args.trace else END_TO_END
    values = report["per_layer"] if args.trace else report["end_to_end"]
    print(json.dumps({
        "correct": report["failures"].get("mismatch", 0) == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in table},
    }))
    return 0


def _child(workload: str, seed: int, seconds: float, trace: int, *extra: str) -> dict:
    completed = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace), *extra],
        cwd=str(ROOT), capture_output=True, text=True, timeout=900, check=False,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"{workload} trace={trace} failed:\n{completed.stderr}")
    lines = completed.stdout.strip().splitlines()
    report = json.loads(lines[-2][len("report: "):])
    report["last_line"] = json.loads(lines[-1])
    return report


def run_all(args) -> int:
    from harness import END_TO_END, NAMED

    units = dict(END_TO_END)
    summary = {}
    correct = True
    attempted = failed = 0
    for workload in WORKLOADS:
        plain = _child(workload, args.seed, args.seconds, 0)
        traced = _child(workload, args.seed, args.seconds, 1)
        correct &= plain["last_line"]["correct"] and traced["last_line"]["correct"]
        attempted += plain["attempted"]
        failed += plain["failed"]
        print(f"== {workload}: {plain['attempted']} attempted, {plain['failed']} failed "
              f"{plain['failures'] or ''}")
        for key, value in plain["end_to_end"].items():
            name = NAMED[workload].get(key, f"{workload}.{key}")
            overhead = traced["end_to_end"][key] - value
            print(f"  {name:<34} {value:>12.6g} {units[key]:<6} "
                  f"tracing overhead {overhead:+.6g}")
        for key, value in plain["info"].items():
            if key.startswith(f"{workload}."):  # e.g. the serve generator's lateness
                print(f"  {key:<34} {value:>12.6g} ms")
        split = {k: v for k, v in traced["per_layer"].items() if k.endswith(".self_share")}
        print("  self-time split: " + ", ".join(
            f"{k.split('.')[0]} {v:.1%}" for k, v in sorted(split.items(), key=lambda kv: -kv[1])
            if v >= 0.001))
        summary[workload] = {"untraced": plain, "traced": traced}
    print("all: " + json.dumps(summary, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {}}))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
