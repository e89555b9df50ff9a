#!/usr/bin/env python3
"""Steadiness check: run the benchmark command once per (workload, seed) and
report, for every end-to-end metric, the median, the quartiles and the
quartile spread as a share of the median.

    python3 perfbench/steady.py --seeds 1-10 --label first
    python3 perfbench/steady.py --seeds 101-110 --label held_out

Run it from the repository root on an otherwise idle host.  Every
workload in ``BENCHMARK.json`` runs once per seed.  Results are merged into
``perfbench/steadiness.json`` under ``--label``; a metric is steady when
its spread is below a third of its bound.  Each run's campaign digests are
merged into ``perfbench/digests.json``, the modeled results later runs
are checked against.  To re-record them after a change that is meant to
move modeled results, delete that file and run this script again.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REPORT = HERE / "steadiness.json"
DIGESTS = HERE / "digests.json"


def parse_seeds(text: str):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(spec, workload: str, seed: int):
    cmd = [sys.executable if spec["command"][0].startswith("python")
           else spec["command"][0], *spec["command"][1:],
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    info = json.loads(lines[-2])["info"]
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs incorrect")
    return info, result


def summarize(values, bound):
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    return {"median": median, "q1": q1, "q3": q3, "spread": spread,
            "bound": bound, "within_third_of_bound": spread < bound / 3,
            "values": values}


def record_digests(workload: str, runs) -> None:
    """Merge the runs' campaign digests into ``digests.json``.  A run has
    already failed if it disagreed with a recorded digest, so merging only
    adds campaigns that were not recorded yet."""
    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    recorded = table.setdefault(workload, {})
    for info, _ in runs:
        for seed, digests in info["digests"].items():
            if len(digests) > len(recorded.get(seed, [])):
                recorded[seed] = digests
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = parse_seeds(args.seeds)
    report = {"seeds": seeds, "run_seconds": spec["run_seconds"],
              "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_once(spec, workload, seed) for seed in seeds]
        record_digests(workload, runs)
        report["provenance"] = runs[-1][0]["provenance"]
        rows = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for _, r in runs]
            rows[metric["name"]] = summarize(values, metric["bound"])
        report["workloads"][workload] = {
            "metrics": rows,
            "campaigns": [info["campaigns"] for info, _ in runs]}
        for name, row in rows.items():
            print(f"{workload:14s} {name:18s} median {row['median']:10.4f} "
                  f"q1 {row['q1']:10.4f} q3 {row['q3']:10.4f} spread "
                  f"{row['spread']:.3f} (bound {row['bound']})", flush=True)
    report["provenance"].pop("seed", None)

    merged = json.loads(REPORT.read_text()) if REPORT.exists() else {}
    merged[args.label] = report
    REPORT.write_text(json.dumps(merged, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
