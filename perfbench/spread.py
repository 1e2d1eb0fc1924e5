#!/usr/bin/env python3
"""Run the timed pass over several seeds and report each metric's spread.

Run from the repository root::

    python3 perfbench/spread.py --workloads benign_mc sampled_mcf campaign_grid \\
        --seeds 1 2 3 4 5 6 7 8 9 10

For every end-to-end metric it prints the median over the seeds and the
spread: the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound in ``BENCHMARK.json`` and the same spread of the raw,
unscaled host-time values.  ``--record`` stores the medians as this
commit's baseline in ``reference.json``.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RAW = re.compile(r"^(\S+)\s+\S+\s+\S+\s+\(raw (\S+)\)$")


def spread(values: List[float]) -> float:
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def run_once(workload: str, seed: int, seconds: int) -> Dict[str, Dict[str, float]]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True,
    )
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} failed its checks:\n{done.stderr}")
    raw = {}
    for line in lines[:-1]:
        match = RAW.match(line)
        if match:
            raw[match.group(1)] = float(match.group(2))
    return {
        "scaled": {name: entry["value"] for name, entry in result["metrics"].items()},
        "raw": raw,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=None,
                        help="defaults to run_seconds in BENCHMARK.json")
    parser.add_argument("--record", action="store_true",
                        help="store the medians as the baseline in reference.json")
    args = parser.parse_args()
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or benchmark["run_seconds"]
    bounds = {entry["name"]: entry["bound"] for entry in benchmark["end_to_end"]}
    baseline = {}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            runs.append(run_once(workload, seed, seconds))
            print(f"{workload} seed {seed}: " + " ".join(
                f"{name}={value:.6g}" for name, value in runs[-1]["scaled"].items()
            ), flush=True)
        print(f"\n{workload}: {len(runs)} seeds, {seconds} s each")
        print(f"{'metric':<20} {'median':>12} {'spread':>8} {'bound':>6} {'raw spread':>10}")
        medians = {}
        for name, bound in bounds.items():
            values = [run["scaled"][name] for run in runs]
            raw = [run["raw"][name] for run in runs if name in run["raw"]]
            medians[name] = statistics.median(values)
            raw_spread = f"{spread(raw):>10.4f}" if len(raw) == len(runs) else f"{'-':>10}"
            flag = "" if spread(values) < bound / 3 else "  <- above a third of the bound"
            print(f"{name:<20} {medians[name]:>12.6g} {spread(values):>8.4f} "
                  f"{bound:>6} {raw_spread}{flag}")
        print(flush=True)
        baseline[workload] = medians
    if args.record:
        path = HERE / "reference.json"
        reference = json.loads(path.read_text())
        reference.setdefault("baseline", {}).update(baseline)
        reference["baseline_seeds"] = args.seeds
        path.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
