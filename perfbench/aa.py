#!/usr/bin/env python3
"""A/A and spread check for the perfbench benchmark.

Runs each workload `--runs` times on every checkout given with `--side`
(two checkouts of the same commit make an A/A comparison), alternating
which side goes first, each run at its own seed. Prints, per workload and
end-to-end metric, each side's median and quartiles, the spread
(interquartile distance over the median) and the ratio of the medians,
and checks them against the bounds in BENCHMARK.json.

    python3 perfbench/aa.py --side . --runs 5 --workloads whatif
    python3 perfbench/aa.py --side ../a --side ../b --runs 10 --json aa.json

Each side is built first, into `<side>/.bench_build`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def build(side):
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(side, ".bench_build"))
    subprocess.run(
        ["cargo", "build", "--release", "--quiet", "--manifest-path",
         os.path.join(side, "perfbench", "Cargo.toml")],
        check=True, env=env)


def run_once(side, workload, seed, seconds):
    exe = os.path.join(side, ".bench_build", "release", "perfbench")
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=side, capture_output=True, text=True,
                         timeout=180)
    if out.returncode != 0:
        sys.exit(f"{side} {workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{side} {workload} seed {seed}: incorrect\n{out.stderr}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--side", action="append", required=True,
                    help="checkout root; give twice for an A/A comparison")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--json", help="write every run and summary here")
    args = ap.parse_args()

    spec = json.load(open(os.path.join(args.side[0], "BENCHMARK.json")))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = ([w for w in args.workloads.split(",") if w]
                 or [w["name"] for w in spec["workloads"]])
    for side in args.side:
        build(side)

    record = {"runs": {}, "summary": {}}
    ok = True
    for w in workloads:
        runs = {side: [] for side in args.side}
        for i in range(args.runs):
            seed = args.first_seed + i
            order = args.side if i % 2 == 0 else list(reversed(args.side))
            for side in order:
                m = run_once(side, w, seed, spec["run_seconds"])
                runs[side].append(m)
                print(f"{w} seed {seed} {side}: " +
                      " ".join(f"{k}={v:.6g}" for k, v in m.items()), flush=True)
        record["runs"][w] = runs
        record["summary"][w] = {}
        print(f"\n{w}: median [q1, q3] spread per side; ratio of medians")
        for metric, bound in bounds.items():
            sides = [summary([r[metric] for r in runs[s]]) for s in args.side]
            record["summary"][w][metric] = sides
            line = f"  {metric:<14}"
            for s in sides:
                line += f" {s['median']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}] {s['spread']:.3f}"
                if s["spread"] > bound:
                    ok = False
                    line += " SPREAD>BOUND"
                elif s["spread"] > bound / 3:
                    line += " (spread>bound/3)"
            if len(sides) == 2:
                ratio = sides[1]["median"] / sides[0]["median"]
                line += f"  ratio {ratio:.4f}"
                if max(ratio, 1 / ratio) - 1 > bound:
                    ok = False
                    line += " MEDIANS>BOUND"
            print(line, flush=True)
        print()
    if args.json:
        with open(args.json, "w") as f:
            json.dump(record, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
