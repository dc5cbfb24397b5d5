#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark.

Runs every workload at its tiny size, untraced and traced, and checks that
the output checks pass with no failed operation and that every metric
BENCHMARK.json names is printed with its unit. From the checkout root:

    python3 e2ebench/smoke_test.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                   workload, "--seed", "7", "--seconds", "1", "--trace",
                   str(trace), "--smoke"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{where}: correct={result['correct']} "
                                f"failed={result['failed']}")
            if result["attempted"] < 1:
                problems.append(f"{where}: nothing attempted")
            metrics = result["metrics"]
            for m in spec[kind]:
                got = metrics.get(m["name"])
                if got is None:
                    problems.append(f"{where}: {m['name']} missing")
                elif got["unit"] != m["unit"]:
                    problems.append(f"{where}: {m['name']} unit {got['unit']}"
                                    f", expected {m['unit']}")
            extra = set(metrics) - {m["name"] for m in spec[kind]}
            if extra:
                problems.append(f"{where}: unlisted metrics {sorted(extra)}")
            print(f"{where}: {len(metrics)} metrics", flush=True)
    for p in problems:
        print("FAIL", p)
    print("smoke test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
