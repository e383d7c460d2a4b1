"""Steadiness check: run one workload under several seeds and report, per
end-to-end metric, the median, the quartiles and the relative spread
(Q3 - Q1) / median against the metric's bound in BENCHMARK.json.  Each
run measures BENCHMARK.json's ``run_seconds``.

    python3 rotbench/spread.py --workload table2-flow --seeds 1-10

Runs are sequential.  Results go to ``rotbench/out/spread-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from summary import median, quartiles, relative_spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = []
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        values = {k: round(v["value"], 6) for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} {values}", flush=True)

    rows = {}
    print("\n| metric | median | Q1 | Q3 | spread | bound | spread/bound |")
    print("|---|---|---|---|---|---|---|")
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        q1, q2, q3 = quartiles(values)
        spread = relative_spread(values)
        bound = bounds.get(name)
        rows[name] = {"median": median(values), "q1": q1, "q3": q3,
                      "spread": spread, "bound": bound, "values": values}
        ratio = f"{spread / bound:.2f}" if bound else "-"
        print(f"| {name} | {q2:.6g} | {q1:.6g} | {q3:.6g} | {spread:.4f} "
              f"| {bound} | {ratio} |")
    out = HERE / "out" / f"spread-{args.workload}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"seconds": seconds, "runs": runs, "metrics": rows}, indent=2))
    return 0 if all(run["correct"] for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
