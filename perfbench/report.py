#!/usr/bin/env python3
"""Run all four workloads and print every named end-to-end metric.

    python3 perfbench/report.py [--seed 1] [--seconds 20]

Each workload runs in its own process (perfbench/run.py, --trace 0), one
after the other.  Prints one line per metric: workload, name, value, unit
and the number of samples behind it.  Exits 1 if any workload reports a
wrong output.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("catalog", "codes", "enumeration", "curve")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    args = parser.parse_args()
    ok = True
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, check=False,
        )
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{workload}: exit code {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            ok = False
            continue
        record = json.loads(lines[-2])["record"]
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        rows = [(name, m["value"], m["unit"], m["samples"]) for name, m in record["jobs"].items()]
        rows += [
            ("setup_s", result["metrics"]["setup_s"]["value"], "s", len(record["setup_s"])),
            ("peak_rss_mib", result["metrics"]["peak_rss_mib"]["value"], "MiB", 1),
            ("fail_frac", record["fail_frac"], f"of {record['attempted']}", record["attempted"]),
        ]
        for name, value, unit, samples in rows:
            print(f"{workload:12} {name:13} {value:12.6g} {unit:10} n={samples}")
        latency = record["op_latency"].get("verify")
        if latency:
            print(f"{workload:12} verify latency per fixture: {json.dumps(latency)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
