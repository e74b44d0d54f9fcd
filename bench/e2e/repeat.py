#!/usr/bin/env python3
"""Runs the benchmark repeatedly and summarizes each metric.

    python3 bench/e2e/repeat.py [--root DIR] [--runs N] [--seed S | --vary-seed]
                                [--workloads a,b] [--trace] [--json OUT]

Each run is `bash bench/e2e/run.sh --workload W --seed S ...` from the
checkout at --root.  Per workload and metric it prints the median, the
quartiles (statistics.quantiles(values, n=4)) and the spread, which is the
quartile distance as a share of the median; an end-to-end metric whose
spread exceeds its bound in BENCHMARK.json is marked UNSTEADY (setup_s is
exempt: it is bounded median to median).  --vary-seed gives run i the seed
1 + i; otherwise every run uses --seed.  --json writes the summary, e.g. as
the recorded baseline.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_benchmark(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(root, workload, seed, trace):
    """One benchmark run; returns its result object (the last output line)."""
    cmd = ["bash", "bench/e2e/run.sh", "--workload", workload, "--seed", str(seed),
           "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} in {root}: exit {proc.returncode}")
    return json.loads(lines[-1])


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=os.path.normpath(os.path.join(HERE, "../..")))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--vary-seed", action="store_true")
    parser.add_argument("--workloads", default="")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--json")
    args = parser.parse_args()

    bench = load_benchmark(args.root)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in bench["workloads"]]

    summary = {}
    steady = True
    for workload in workloads:
        runs = []
        for i in range(args.runs):
            seed = 1 + i if args.vary_seed else args.seed
            runs.append(run_once(args.root, workload, seed, args.trace))
            print(f"{workload}: run {i + 1}/{args.runs} done", file=sys.stderr)
        summary[workload] = {
            "correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": {},
        }
        print(f"\n{workload}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            s = summarize(values)
            s["unit"] = runs[0]["metrics"][name]["unit"]
            summary[workload]["metrics"][name] = s
            bound = bounds.get(name)
            mark = ""
            if bound is not None and name != "setup_s" and s["spread"] > bound:
                mark, steady = "  UNSTEADY", False
            elif bound is not None and s["spread"] > bound / 3:
                mark = "  (spread above a third of the bound)"
            print(f"  {name:32s} median {s['median']:14.6g} {s['unit']:7s} "
                  f"q1 {s['q1']:12.6g} q3 {s['q3']:12.6g} spread {s['spread']:7.2%}{mark}")
        if not summary[workload]["correct"] or summary[workload]["failed"]:
            steady = False
            print("  CHECKS FAILED")

    if args.json:
        with open(args.json, "w") as f:
            json.dump(summary, f, indent=2)
            f.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
