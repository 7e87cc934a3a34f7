"""Repeat the benchmark and report each metric's run-to-run spread.

    python3 perfbench/spread.py --runs 10 --seeds 1 [--workloads falsify,owa] [--trace 0]

Runs ``run.py`` once per (seed, workload), interleaving the workloads
within each round so that a slow stretch of the host hits every workload
rather than one.  For each workload and metric it prints the median, the
quartile spread (Q3 - Q1) / median as ``statistics.quantiles(n=4)`` gives
the quartiles, and the bound from BENCHMARK.json.  Raw results are written
as JSON lines to ``--out`` when given.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values = defaultdict(lambda: defaultdict(list))
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for name in workloads:
            proc = subprocess.run(
                [*bench["command"], "--workload", name, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if args.out:
                with args.out.open("a") as fh:
                    fh.write(json.dumps({"workload": name, "seed": seed, **result}) + "\n")
            if not result["correct"]:
                print(f"{name} seed {seed}: {result['failed']} failed", file=sys.stderr)
            for metric, v in result["metrics"].items():
                values[name][metric].append(v["value"])
            print(f"seed {seed} {name}: " + " ".join(
                f"{m}={v['value']:.4g}" for m, v in result["metrics"].items()), flush=True)

    for name in workloads:
        for metric, vals in values[name].items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"{name:13s} {metric:32s} median={med:<12.5g} spread={spread:.4f} "
                  f"bound={bounds.get(metric)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
