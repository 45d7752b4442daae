"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 1-10 [--seconds 20] [--trace 1] [--json FILE]
        [--workload NAME ...]

For every workload and metric it prints the median, the quartiles and the
spread (distance between the quartiles as a share of the median, the
figure `BENCHMARK.json` bounds are compared with), plus the share of failed
operations. Runs go one after another, in this process's checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload", nargs="+",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--json", type=Path, help="also write the summary here")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    for workload in args.workload:
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            done = subprocess.run(cmd, cwd=HERE.parent, capture_output=True,
                                  text=True, check=True)
            runs.append(json.loads(done.stdout.strip().splitlines()[-1]))
        shares = {r["failed"] / r["attempted"] for r in runs}
        rows = {}
        print(f"{workload}: seeds {args.seeds[0]}-{args.seeds[-1]}, "
              f"correct {all(r['correct'] for r in runs)}, "
              f"failed share {sorted(shares)}")
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else 0.0
            rows[name] = {"unit": first["unit"], "median": median, "q1": q1,
                          "q3": q3, "spread": spread, "values": values}
            bound = bounds.get(name)
            note = "" if bound is None else f"  bound {bound} ({spread / bound:.2f} of it)"
            print(f"  {name:30s} median {median:<12.6g} q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} spread {spread:.3f}{note}")
        summary[workload] = {"correct": all(r["correct"] for r in runs),
                             "failed_share": sorted(shares), "metrics": rows}
    if args.json:
        args.json.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
