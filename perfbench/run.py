"""Seeded end-to-end and per-layer benchmark of sttsim.

    python3 perfbench/run.py --workload simulate-long --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports the package from
`src/`. Workloads: simulate-long, train-oracle, schedule-stream, or `all`
for the three in turn. Each run sets up its inputs at least three times
(set-up time is the median), then repeats whole rounds of the workload
while the next one still fits in `--seconds`, checking every output.
`--trace 1` wraps the program's public functions and reports per-layer
metrics instead, and writes every span to `perfbench/out/`.

The last line of standard output is one JSON object:
`{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# Set up at least this many times, and until this much set-up time is
# measured, so that a cheap set-up still gets a steady median.
SETUPS = 3
SETUP_SECONDS = 2.0
PROBLEMS_SHOWN = 20

# name -> unit; the end-to-end metrics of every workload.
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "sim_accesses_per_s": "accesses/s",
    "peak_rss_mb": "MB",
}


def run_workload(wl, seed: int, seconds: float, traced: bool) -> dict:
    import tracing
    from workloads import RunContext

    work = OUT / f"work-{wl.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = tracing.Tracer() if traced else None
    try:
        with tracing.installed(tracer) if traced else contextlib.nullcontext():
            setups, state = [], None
            while len(setups) < SETUPS or sum(setups) < SETUP_SECONDS:
                state = None
                gc.collect()
                busy, state = wl.setup(seed, work)
                setups.append(busy)
            if traced:
                tracer.phase = "run"
            ctx, rounds = RunContext(tracer), []
            started = time.perf_counter()
            while True:
                gc.collect()
                if traced:
                    tracer.round = len(rounds)
                rounds.append(wl.run_round(state, work, ctx))
                # Start another round only if it should end within `seconds`.
                if time.perf_counter() - started + rounds[-1]["busy"] > seconds:
                    break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if len({r["digest"] for r in rounds}) != 1:
        ctx.tally.round_check(["rounds gave different results"])

    busy = [r["busy"] for r in rounds]
    metrics = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(busy),
        "sim_accesses_per_s": statistics.median(r["accesses"] / r["busy"]
                                                for r in rounds),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    result = {"workload": wl.name, "seed": seed, "rounds": len(rounds),
              "setups": setups, "busy": busy, "metrics": metrics,
              "extra": wl.extra_metrics(rounds), "tally": ctx.tally,
              "digest": rounds[0]["digest"]}
    if traced:
        layers = tracing.report(tracer, len(rounds), len(setups))
        path = OUT / f"trace-{wl.name}-seed{seed}.json"
        path.write_text(json.dumps(
            {"workload": wl.name, "seed": seed, "rounds": len(rounds),
             "traced_run_s": metrics["run_s"], **layers}))
        result["layers"] = layers["metrics"]
        result["trace_file"] = path
    return result


def print_report(result: dict, traced: bool) -> dict:
    """Human-readable lines, then the metrics the JSON line carries."""
    import tracing
    from workloads import KNOWN_FAULT

    tally = result["tally"]
    print(f"workload {result['workload']} seed {result['seed']} "
          f"python {platform.python_version()} cpus {os.cpu_count()} "
          f"rounds {result['rounds']} "
          f"setups {' '.join(f'{s:.3f}' for s in result['setups'])} "
          f"round busy {' '.join(f'{s:.3f}' for s in result['busy'])}")
    for name, value in result["metrics"].items():
        print(f"  {name} = {value:.6g} {END_TO_END[name]}"
              + (" (traced)" if traced else ""))
    for name, (value, unit, n) in result["extra"].items():
        print(f"  {name} = {value!r} {unit} (n={n})")
    print(f"  operations attempted {tally.attempted} failed {tally.failed} "
          f"({tally.known_fault} of them the known fault: {KNOWN_FAULT})")
    for problem in tally.problems[:PROBLEMS_SHOWN]:
        print(f"  problem: {problem}")
    print(f"digest {result['workload']} {result['digest']}")
    if traced:
        print(f"  spans and per-layer metrics: "
              f"{result['trace_file'].relative_to(ROOT)}")
        return {name: (result["layers"][name], unit)
                for name, (unit, _) in tracing.PER_LAYER.items()}
    return {name: (value, END_TO_END[name])
            for name, value in result["metrics"].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("simulate-long", "train-oracle",
                                 "schedule-stream", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sttsim" / "__init__.py").is_file():
        print(f"benchmark: no sttsim sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    # The benchmark's modules import sttsim, so they load only from here on.
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    traced = bool(args.trace)
    results = []
    for name in names:
        result = run_workload(WORKLOADS[name], args.seed, args.seconds, traced)
        results.append((name, result, print_report(result, traced)))

    def summary(parts, prefix: bool) -> dict:
        return {
            "correct": all(not r["tally"].problems for _, r, _ in parts),
            "attempted": sum(r["tally"].attempted for _, r, _ in parts),
            "failed": sum(r["tally"].failed for _, r, _ in parts),
            "metrics": {(f"{name}.{metric}" if prefix else metric):
                        {"value": value, "unit": unit}
                        for name, _, metrics in parts
                        for metric, (value, unit) in metrics.items()},
        }

    if len(results) > 1:
        for part in results:
            print(json.dumps(summary([part], prefix=False)))
    print(json.dumps(summary(results, prefix=len(results) > 1)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
