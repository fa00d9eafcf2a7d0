#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's median and
quartile spread (the distance between the first and third quartile as a
share of the median), the steadiness test a bound has to pass.

    python3 perfbench/spread.py --workload fed-desk --seeds 1-10 --seconds 25
    python3 perfbench/spread.py ... --baseline perfbench/baseline.json

Runs are sequential. ``--baseline`` records the summary, the per-run values
and the machine facts in that JSON file, under the workload's name (with
" traced" appended for ``--trace 1``, and then `` --label`` if given, as in
``--label repeat`` for a second set of the same runs).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from stats import machine_facts, quartile_spread  # noqa: E402


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, type=seed_list, help="e.g. 1-10")
    p.add_argument("--seconds", required=True)
    p.add_argument("--trace", default="0")
    p.add_argument("--baseline", type=Path)
    p.add_argument("--label", default="")
    args = p.parse_args()
    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']} "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
              flush=True)
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        spread = quartile_spread(values) if len(values) >= 2 and median else 0.0
        summary[name] = {"median": median, "spread": spread,
                         "unit": runs[0]["metrics"][name]["unit"]}
        print(f"{name}\tmedian {median:.6g}\tspread {spread:.4f}")
    if args.baseline:
        data = json.loads(args.baseline.read_text()) if args.baseline.exists() else {}
        key = args.workload if args.trace == "0" else f"{args.workload} traced"
        key = f"{key} {args.label}" if args.label else key
        data[key] = {"seconds": float(args.seconds), "trace": int(args.trace),
                     "machine": machine_facts(), "summary": summary, "runs": runs}
        args.baseline.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
