"""Run one workload over several seeds and summarise each metric's spread.

    python3 perfbench/repeat.py --workload predict --seeds 1-10 \
        [--seconds 20] [--trace 0]

Runs ``perfbench/run.py`` once per seed, one run at a time, and prints
for every metric (and every workload figure of the record) the median,
the first and third quartiles and the spread: the distance between the
quartiles as a share of the median.  The runs' records are kept in
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--seconds", default="20")
    p.add_argument("--trace", default="0")
    args = p.parse_args(argv)
    values, failed, attempted = {}, 0, 0
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", args.seconds,
             "--trace", args.trace],
            capture_output=True, text=True, check=True)
        record, result = (json.loads(line) for line in
                          out.stdout.strip().split("\n")[-2:])
        if not result["correct"]:
            print(f"seed {seed}: incorrect: {record['problems']}")
        failed += result["failed"]
        attempted += result["attempted"]
        figures = dict(result["metrics"], **record["quality"])
        for name, m in figures.items():
            values.setdefault((name, m["unit"]), []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={m['value']:.4g}" for k, m in figures.items()), flush=True)
    print(f"{args.workload}: {len(args.seeds)} runs, {attempted} operations "
          f"attempted, {failed} failed")
    print(f"{'metric':<48}{'unit':>7}{'median':>12}{'q1':>12}{'q3':>12}"
          f"{'spread':>9}")
    for (name, unit), vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:<48}{unit:>7}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}"
              f"{spread:>9.3f}")


if __name__ == "__main__":
    main()
