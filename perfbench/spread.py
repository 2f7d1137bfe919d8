#!/usr/bin/env python3
"""Repeats benchmark workloads over several seeds and prints, for every
end-to-end metric, its spread (inter-quartile distance over the median)
against the bound in BENCHMARK.json, and the share of failed operations.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [--workload NAME ...]
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args()

    ok = True
    for workload in args.workload or names:
        values, shares = {}, set()
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = ["python3", os.path.join(HERE, "run.py"), "--workload",
                   workload, "--seed", str(seed), "--seconds",
                   str(bench["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                 text=True, check=True).stdout
            result = json.loads(out.strip().split("\n")[-1])
            if not result["correct"]:
                ok = False
            shares.add((result["failed"], result["attempted"]))
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + json.dumps(result), flush=True)
        fractions = {f / a for f, a in shares}
        print(f"{workload}: failed share {sorted(fractions)}")
        if len(fractions) != 1:
            ok = False
        for metric in bench["end_to_end"]:
            v = values[metric["name"]]
            q = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q[2] - q[0]) / med
            verdict = "ok" if spread <= metric["bound"] else "OVER"
            if spread > metric["bound"]:
                ok = False
            print(f"  {metric['name']:18s} median {med:.6g} {metric['unit']:5s}"
                  f" spread {spread:.3f} bound {metric['bound']} {verdict}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
