"""Fast self-check of the benchmark: every workload at a tiny scale.

    python3 perfbench/selfcheck.py

Runs ``run.py --size tiny`` for each workload, untraced and traced, from
the root of the checkout.  Each run must exit 0, pass all of its
correctness checks, fail no operation, and print exactly the metrics
``BENCHMARK.json`` declares, with their units.  Takes about two minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            cmd = spec["command"] + [
                "--workload", w["name"], "--seed", "1", "--seconds", "1",
                "--trace", str(trace), "--size", "tiny",
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=300)
            label = f"{w['name']} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            out = json.loads(proc.stdout.strip().splitlines()[-1])
            units = {k: v["unit"] for k, v in out["metrics"].items()}
            if not out["correct"]:
                problems.append(f"{label}: incorrect: {proc.stderr.strip()}")
            if out["failed"] or out["attempted"] < 1:
                problems.append(f"{label}: {out['failed']} of {out['attempted']} failed")
            if out["correct"] and units != declared[trace]:
                problems.append(f"{label}: metrics {sorted(units)} != declared")
            print(f"{label}: ok={out['correct']} attempted={out['attempted']}")
    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
