#!/usr/bin/env python3
"""Compares two checkouts on the benchmark, workload by workload.

    python3 bench/e2e/compare.py PARENT_DIR CHANGE_DIR [--pairs N]
                                 [--workloads a,b] [--seed S]

For each workload it runs N (at least 10) pairs of the parent and the
change, alternating which side runs first; every run uses the one seed S
(default 1), so both sides do the same work and each side's spread is the
machine's alone.  Per end-to-end metric of CHANGE_DIR/BENCHMARK.json it
reports each side's median and quartiles and a verdict:

  gain        the change wins at least 9 of 10 pairs (ties count for
              neither) and the medians differ by more than the parent's
              quartile distance;
  regression  the change's median is worse than the parent's by more than
              the metric's bound;
  unresolved  either side's spread (quartile distance over median) exceeds
              the bound, unless every change run beats every parent run;
  same        none of the above.

A gain does not count when the change fails more operations than the
parent.  Exits 1 when any metric regresses or any check fails.
"""
import argparse
import math
import os
import sys

sys.dont_write_bytecode = True  # Leave no __pycache__ in the checkout.
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from repeat import load_benchmark, run_once, summarize  # noqa: E402


def better(a, b, direction):
    return a > b if direction == "higher" else a < b


def verdict(metric, parent, change, parent_failed, change_failed):
    direction, bound = metric["better"], metric["bound"]
    p, c = summarize(parent), summarize(change)
    wins = sum(better(cv, pv, direction) for pv, cv in zip(parent, change))
    every = all(better(cv, pv, direction) for pv in parent for cv in change)
    worse_by = (c["median"] - p["median"]) / p["median"] if p["median"] else 0.0
    if direction == "higher":
        worse_by = -worse_by
    if (wins >= math.ceil(0.9 * len(parent)) and better(c["median"], p["median"], direction)
            and abs(c["median"] - p["median"]) > p["q3"] - p["q1"]
            and change_failed <= parent_failed):
        word = "gain"
    elif max(p["spread"], c["spread"]) > bound and not every:
        word = "unresolved"
    elif worse_by > bound:
        word = "regression"
    else:
        word = "same"
    return word, p, c, wins


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    if args.pairs < 10:
        parser.error("--pairs must be at least 10")

    bench = load_benchmark(args.change)
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in bench["workloads"]]
    bad = False
    for workload in workloads:
        runs = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for side in order:
                root = args.parent if side == "parent" else args.change
                runs[side].append(run_once(root, workload, args.seed, False))
            print(f"{workload}: pair {i + 1}/{args.pairs} done", file=sys.stderr)

        failed = {side: sum(r["failed"] for r in rs) for side, rs in runs.items()}
        correct = all(r["correct"] for rs in runs.values() for r in rs)
        print(f"\n{workload}  (failed: parent {failed['parent']}, change {failed['change']}"
              f"{'' if correct else ', CHECKS FAILED'})")
        print(f"  {'metric':18s} {'parent median [q1, q3]':>36s} {'change median [q1, q3]':>36s}"
              f" {'wins':>6s}  verdict")
        bad = bad or not correct
        for metric in bench["end_to_end"]:
            name = metric["name"]
            parent = [r["metrics"][name]["value"] for r in runs["parent"]]
            change = [r["metrics"][name]["value"] for r in runs["change"]]
            word, p, c, wins = verdict(metric, parent, change, failed["parent"],
                                       failed["change"])
            bad = bad or word == "regression"
            print(f"  {name:18s} {p['median']:12.5g} [{p['q1']:9.5g}, {p['q3']:9.5g}]"
                  f" {c['median']:12.5g} [{c['q1']:9.5g}, {c['q3']:9.5g}]"
                  f" {wins:3d}/{args.pairs:<2d}  {word}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
