#!/usr/bin/env python3
"""Alternating pairs of benchmark runs on two checkouts, summarised per metric.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload horizon-wide \\
        --seed 0 --pairs 5 --seconds 10

PARENT and CHANGE are two checkouts of the repository. Each pair runs
``bench/run.py --workload W --seed S --seconds T --trace 0`` once in each,
the parent first in even pairs (counting from 0) and the change first in
odd ones, and reads the metrics from the run's last stdout line, one JSON
object. A run's page faults are the growth of
``resource.getrusage(RUSAGE_CHILDREN).ru_minflt`` over it, which counts the
run and the fresh interpreters it launches for ``setup_s``.

For every metric it prints the parent's and the change's median, the
parent's quartiles, and the pairs that the change wins, loses and ties,
better being the direction the change's BENCHMARK.json gives the metric
(lower where it gives none); then every metric whose change median is
worse than the parent's by more than that file's bound for it, relative to
the parent's median; then each run's page faults, marking every pair whose
two counts differ by more than a tenth of the smaller one. A run whose heap
lands in another state (glibc's dynamic mmap and trim thresholds) faults
thousands more pages and times differently, so a marked pair measures the
heap as much as the change.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path


def summarize(pairs: list, better: dict) -> list:
    """One row per metric of the first parent run, (name, parent median,
    change median, parent first quartile, parent third quartile, wins,
    losses, ties), from ``pairs``, a list of (parent, change) dicts of
    metric name -> value. ``better`` maps a name to "lower" or "higher"."""
    rows = []
    for name in pairs[0][0]:
        before = [parent[name] for parent, _ in pairs]
        after = [change[name] for _, change in pairs]
        sign = -1.0 if better.get(name, "lower") == "higher" else 1.0
        gains = [sign * (b - a) for b, a in zip(before, after)]
        q1, _, q3 = (statistics.quantiles(before, n=4, method="inclusive")
                     if len(before) > 1 else before * 3)
        rows.append((name, statistics.median(before), statistics.median(after), q1, q3,
                     sum(g > 0 for g in gains), sum(g < 0 for g in gains), sum(g == 0 for g in gains)))
    return rows


def format_rows(rows: list) -> list:
    """The summary as text lines, one per metric under a header."""
    lines = [f"{'metric':14s} {'parent':>12s} {'change':>12s} {'change %':>9s} "
             f"{'parent q1':>12s} {'parent q3':>12s}  wins/losses/ties"]
    for name, before, after, q1, q3, wins, losses, ties in rows:
        pct = f"{100.0 * (after - before) / before:+.1f}" if before else "n/a"
        lines.append(f"{name:14s} {before:12.6g} {after:12.6g} {pct:>9s} {q1:12.6g} {q3:12.6g}"
                     f"  {wins}/{losses}/{ties}")
    return lines


def over_bounds(rows: list, metrics: list) -> list:
    """(name, relative change, bound) of every row of ``summarize`` whose
    change median is worse than the parent's by more than its bound, a
    share of the parent's median. ``metrics`` lists BENCHMARK.json's
    end_to_end entries, each with a name, a better direction and a bound;
    a metric that none of them names is not judged."""
    spec = {m["name"]: m for m in metrics}
    over = []
    for name, before, after, *_ in rows:
        if name in spec:
            sign = -1.0 if spec[name]["better"] == "higher" else 1.0
            if sign * (after - before) > spec[name]["bound"] * abs(before):
                change = (after - before) / before if before else float("inf")
                over.append((name, change, spec[name]["bound"]))
    return over


def heap_mismatches(faults: list) -> list:
    """Indices, from 0, of the (parent, change) page fault counts in
    ``faults`` that differ by more than a tenth of the smaller count."""
    return [i for i, (before, after) in enumerate(faults) if abs(after - before) > 0.1 * min(before, after)]


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> tuple:
    """(metric name -> value, minor page faults) of one bench/run.py run."""
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - faults
    if proc.returncode not in (0, 1) or not proc.stdout.strip():
        raise SystemExit(f"bench/run.py failed in {checkout} (exit {proc.returncode}):\n{proc.stderr}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    if not last["correct"]:
        print(f"# {checkout}: {last['failed']} of {last['attempted']} calls failed their check")
    return {name: m["value"] for name, m in last["metrics"].items()}, faults


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    pairs, faults = [], []
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        runs = {side: run_once(getattr(args, side), args.workload, args.seed, args.seconds)
                for side in order}
        pairs.append((runs["parent"][0], runs["change"][0]))
        faults.append((runs["parent"][1], runs["change"][1]))
        print(f"# pair {i + 1}/{args.pairs} done ({' then '.join(order)})", flush=True)

    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s runs")
    rows = summarize(pairs, better)
    print("\n".join(format_rows(rows)))
    print("\n".join(f"OVER BOUND: {name} {100.0 * change:+.1f}% against a bound of {bound:g}"
                     for name, change, bound in over_bounds(rows, spec["end_to_end"]))
          or "every metric within its bound")
    mismatched = set(heap_mismatches(faults))
    for i, (before, after) in enumerate(faults):
        mark = "  HEAP STATES DIFFER" if i in mismatched else ""
        print(f"pair {i + 1}: ru_minflt parent {before} change {after}{mark}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
