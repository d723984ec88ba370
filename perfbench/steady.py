#!/usr/bin/env python3
"""Run one benchmark workload N times, with seeds 1..N, and print every
end-to-end metric's median, quartiles and spread (quartile distance /
median).

    python3 perfbench/steady.py --workload soak --runs 10

Run from the repository root. It runs BENCHMARK.json's command for
BENCHMARK.json's run_seconds; the bounds there are set from this output.
Runs are sequential: the benchmark measures one thread, and parallel
runs would compete for the same cores.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    a = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    cmd = bench["command"]
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values = {}
    units = {}
    shares = set()
    for seed in range(1, a.runs + 1):
        argv = cmd + ["--workload", a.workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
        p = subprocess.run(argv, capture_output=True, text=True)
        lines = p.stdout.strip().splitlines()
        if p.returncode != 0 or not lines:
            sys.stderr.write(p.stdout + p.stderr)
            sys.exit(f"run with seed {seed} failed (exit {p.returncode})")
        res = json.loads(lines[-1])
        if not res["correct"]:
            sys.exit(f"run with seed {seed} reported incorrect output")
        shares.add(res["failed"] / res["attempted"])
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: " + " ".join(
            f"{n}={m['value']:.6g}" for n, m in res["metrics"].items()), flush=True)

    print(f"\n{a.workload}: {a.runs} runs, failed shares {sorted(shares)}")
    for name, vs in values.items():
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        note = f"  bound {bound} (spread {spread / bound:.2f} of it)" if bound else ""
        print(f"{name:28s} median {med:.6g} {units[name]}  q1 {q1:.6g}  q3 {q3:.6g}"
              f"  spread {spread:.4f}{note}")


if __name__ == "__main__":
    main()
