#!/usr/bin/env python3
"""Paired benchmark runs of two source trees, A (the base) and B.

    python3 tools/paired_bench.py ROOT_A ROOT_B --workload W --seed S --pairs 10 --seconds 25

runs each root's own ``bench/run.py --workload W --seed S --seconds
SECONDS --trace 0``, from that root, in alternating order: A first in
odd pairs, B first in even ones, so that a drift of the host's speed
falls on both sides alike.  Each run's last output line gives its
end-to-end metrics, and ROOT_A's ``BENCHMARK.json`` says which of them
are better lower or higher.

For each metric it prints, per side, the median and the quartiles over
the pairs, and how many pairs each side won (a tie counts for neither).
The gap between the medians is then set against side A's spread, the
distance between its quartiles: "B better" or "B worse" when the gap
exceeds it, "within A's spread" otherwise.  A gain is claimed when B wins
at least nine tenths of the pairs and the gap exceeds the spread.

A change that claims no gain is judged instead by whether each metric is
no worse than the metric's ``bound`` in ROOT_A's ``BENCHMARK.json``, read
as a fraction of A's median: a bound of 0.1 on an 86 MB peak RSS allows
8.6 MB.  An absolute reading (0.1 MB) would have failed the group-assembly
change, which raised ``peak_rss_mb`` by 0.36-0.48 MB and was accepted
against that bound.  The verdict is "no worse than its bound" when
every B run beats every A run; otherwise "worse than its bound" when B's
median is worse than A's by more than the bound, "unresolved" when A's
spread exceeds the bound, and "no worse than its bound" when neither
holds.
The failure counts of both sides are printed too, and a last JSON line
holds every run.  Nothing under either root is changed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run(root: Path, args) -> dict:
    """One benchmark run of ``root``; its last output line, parsed."""
    command = [sys.executable, "bench/run.py", "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(command, cwd=root, capture_output=True, text=True, check=False)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise SystemExit(f"error: bench/run.py in {root} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive of the extremes."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(spec: list[dict], runs: list[tuple[dict, dict]]) -> list[dict]:
    """Per end-to-end metric: each side's quartiles, its wins and the verdict."""
    rows = []
    for entry in spec:
        name, lower = entry["name"], entry["better"] == "lower"
        a = [pair[0]["metrics"][name]["value"] for pair in runs]
        b = [pair[1]["metrics"][name]["value"] for pair in runs]
        a_wins = sum((x < y) if lower else (x > y) for x, y in zip(a, b))
        b_wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
        qa, qb = quartiles(a), quartiles(b)
        gap, spread = qb[1] - qa[1], qa[2] - qa[0]
        if abs(gap) <= spread:
            verdict = "within A's spread"
        else:
            verdict = "B better" if (gap < 0) == lower else "B worse"
        claim = verdict == "B better" and b_wins >= 0.9 * len(runs)
        bound = entry["bound"] * abs(qa[1])
        if (max(b) < min(a)) if lower else (min(b) > max(a)):
            regression = "no worse than its bound"
        elif (gap if lower else -gap) > bound:
            regression = "worse than its bound"
        elif spread > bound:
            regression = "unresolved"
        else:
            regression = "no worse than its bound"
        rows.append({"metric": name, "unit": entry["unit"], "better": entry["better"],
                     "a": qa, "b": qb, "a_wins": a_wins, "b_wins": b_wins,
                     "gap": gap, "a_spread": spread, "verdict": verdict, "gain": claim,
                     "bound": bound, "regression": regression})
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("root_a", type=Path)
    parser.add_argument("root_b", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25.0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    roots = [args.root_a.resolve(), args.root_b.resolve()]
    for root in roots:
        if not (root / "bench" / "run.py").is_file():
            parser.error(f"{root} has no bench/run.py")
    spec = json.loads((roots[0] / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]

    runs = []
    for pair in range(1, args.pairs + 1):
        first = 0 if pair % 2 else 1  # A first in odd pairs
        result = [None, None]
        for side in (first, 1 - first):
            result[side] = run(roots[side], args)
        runs.append(tuple(result))
        line = "  ".join(f"{e['name']} {result[0]['metrics'][e['name']]['value']:.4g}/"
                         f"{result[1]['metrics'][e['name']]['value']:.4g}" for e in spec)
        print(f"pair {pair} ({'AB' if first == 0 else 'BA'}): A/B {line}", file=sys.stderr)

    rows = summarize(spec, runs)
    print(f"workload {args.workload}  seed {args.seed}  pairs {args.pairs}  "
          f"seconds {args.seconds:g}\n  A = {roots[0]}\n  B = {roots[1]}")
    for r in rows:
        (a1, a2, a3), (b1, b2, b3) = r["a"], r["b"]
        print(f"  {r['metric']:16s} A {a2:.4g} [{a1:.4g}, {a3:.4g}]  B {b2:.4g} [{b1:.4g}, {b3:.4g}]"
              f" {r['unit']}  wins A {r['a_wins']} B {r['b_wins']}  gap {r['gap']:+.4g}"
              f" vs A's spread {r['a_spread']:.4g}: {r['verdict']}"
              + ("  (gain)" if r["gain"] else "")
              + f"; bound {r['bound']:.4g}: {r['regression']}")
    for side, name in ((0, "A"), (1, "B")):
        failed = sorted({(p[side]["failed"], p[side]["attempted"]) for p in runs})
        correct = all(p[side]["correct"] for p in runs)
        print(f"  {name}: failed/attempted {', '.join(f'{f}/{n}' for f, n in failed)}"
              f"  correct {correct}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "summary": rows,
                      "runs": [{"a": a, "b": b} for a, b in runs]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
