#!/usr/bin/env python3
"""Compares the benchmark of record between a parent commit and this tree.

    python3 scripts/perf_pairs.py --workload carrier-7m --pairs 8
    python3 scripts/perf_pairs.py --workload trace-700k --pairs 4 \\
        --parent HEAD~1 --seconds 28 --seed 71

Single perfbench runs are too noisy to compare: on a shared 4-core VM,
carrier-7m's capacity_rps has spread 5.7-10.0 solves/s over 8 runs of the
same code. So this script runs the two sides in alternating pairs:

  * the parent revision (default HEAD, so the comparison is "the
    uncommitted change vs its parent") is exported with `git archive`
    into a temporary directory (under $TMPDIR), removed on exit. Unlike
    a `git worktree`, an interrupted run leaves nothing registered in
    the repository;
  * pair i runs `perfbench/run.py --workload W --seed S+i` once in each
    tree, the parent first in even pairs and the change first in odd
    ones, so drift within the session and any cost of running second hit
    both sides alike; --pairs must be even for that. Each tree builds
    into its own .bench_build/;
  * per metric it prints the parent's median and interquartile range, the
    change's median, the median ratio, and in how many pairs the change
    was better, by the direction BENCHMARK.json declares for the metric;
    then every pair's parent and change value of each end-to-end metric.

Runs are sequential (a perfbench run peaks near 2 GB RSS). Exit code 0
when every run produced a correct result, 1 when any run failed or
reported a failed check, 2 on bad arguments or a failed checkout. The
script reads perfbench/ and BENCHMARK.json and changes neither.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    """BENCHMARK.json's metrics: a map of each name to "lower" or "higher",
    and the end-to-end names in declared order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    directions = {}
    for group in ("end_to_end", "per_layer"):
        for metric in spec.get(group, []):
            directions[metric["name"]] = metric["better"]
    return directions, [m["name"] for m in spec.get("end_to_end", [])]


def run_once(tree, args, seed):
    """One perfbench run in `tree`; returns its metrics dict or None."""
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    done = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    if done.returncode != 0 or not lines:
        print(f"# run failed in {tree} (seed {seed}, rc {done.returncode})",
              file=sys.stderr)
        return None
    result = json.loads(lines[-1])
    if not result.get("correct", False):
        print(f"# run in {tree} (seed {seed}) failed its checks",
              file=sys.stderr)
        return None
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def report(parent_runs, change_runs, directions, end_to_end):
    names = sorted(set().union(*parent_runs, *change_runs))
    print(f"{'metric':32} {'parent p50':>12} {'parent IQR':>12} "
          f"{'change p50':>12} {'ratio':>7} {'wins':>6}")
    for name in names:
        pairs = [(p[name], c[name]) for p, c in zip(parent_runs, change_runs)
                 if name in p and name in c]
        if not pairs:
            continue
        parent = [p for p, _ in pairs]
        change = [c for _, c in pairs]
        p50, c50 = statistics.median(parent), statistics.median(change)
        q1, q3 = quartiles(parent)
        better = directions.get(name, "lower")
        wins = sum(1 for p, c in pairs
                   if (c < p if better == "lower" else c > p))
        ratio = f"{c50 / p50:7.3f}" if p50 else "      -"
        print(f"{name:32} {p50:12.4g} {q3 - q1:12.4g} {c50:12.4g} "
              f"{ratio} {wins:>3}/{len(pairs)}")
    print("# every pair, parent -> change:")
    for name in end_to_end:
        runs = [f"{p[name]:.4g}->{c[name]:.4g}"
                for p, c in zip(parent_runs, change_runs)
                if name in p and name in c]
        print(f"{name:32} " + "  ".join(runs))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["carrier-7m", "trace-700k"])
    parser.add_argument("--pairs", type=int, default=6)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--seed", type=int, default=71,
                        help="seed of pair 0; pair i uses seed + i")
    parser.add_argument("--parent", default="HEAD",
                        help="revision to compare against (default HEAD)")
    args = parser.parse_args()
    if args.pairs < 2 or args.pairs % 2 != 0:
        parser.error("--pairs must be even and >= 2, so each side runs "
                     "first equally often")

    parent_tree = tempfile.mkdtemp(prefix="perf_pairs_")
    try:
        archive = subprocess.Popen(
            ["git", "-C", ROOT, "archive", "--format=tar", args.parent],
            stdout=subprocess.PIPE)
        untar = subprocess.run(["tar", "-x", "-C", parent_tree],
                               stdin=archive.stdout)
        archive.stdout.close()
        if archive.wait() != 0 or untar.returncode != 0:
            print(f"perf_pairs: could not export {args.parent}",
                  file=sys.stderr)
            return 2
        parent_runs, change_runs, failed = [], [], 0
        for i in range(args.pairs):
            seed = args.seed + i
            order = [parent_tree, ROOT] if i % 2 == 0 else [ROOT, parent_tree]
            results = {}
            for tree in order:
                print(f"# pair {i + 1}/{args.pairs}: seed {seed} in {tree}",
                      file=sys.stderr)
                results[tree] = run_once(tree, args, seed)
            if results[parent_tree] is None or results[ROOT] is None:
                failed += 1
                continue
            parent_runs.append(results[parent_tree])
            change_runs.append(results[ROOT])
        print(f"# {args.workload}: {len(parent_runs)} complete pairs "
              f"(parent {args.parent})")
        if parent_runs:
            report(parent_runs, change_runs, *load_spec())
        return 1 if failed else 0
    finally:
        shutil.rmtree(parent_tree, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
