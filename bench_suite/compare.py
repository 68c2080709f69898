#!/usr/bin/env python3
"""Compares two full-suite result files written by run_suite.py.

  python3 bench_suite/compare.py A.json B.json

A is the baseline (the parent commit), B the change, both measured with
the same benchmark code and settings. A launch counts as one run: for
every (end-to-end metric, workload) row it prints each side's value as
run_suite.py reported it, the quartiles of its per-launch values, the
fraction of launch pairs (round i of A against round i of B) that B
wins, and the first verdict that applies:

  regressed   B's value is worse than A's by more than the bound,
              whatever the spread;
  improved    B wins at least 9/10 of the pairs, ties counting for
              neither, and the values differ by more than A's own spread
              (the distance between A's quartiles);
  unresolved  the run-to-run spread is wider than the metric's bound and
              not every run of B reads better than every run of A;
  unchanged   otherwise.

Bounds come from BENCHMARK.json; fail_frac regresses on any increase.
Count metrics (units count and B) must repeat exactly between the two
sets; every difference is listed. Exits 1 if a row regressed or a count
differs.
"""
import json
import statistics
import sys
from pathlib import Path

from run_suite import run_passes

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def side(result, metric):
    """(the side's headline value as run_suite.py reported it, one value
    per launch). A launch is one run in the sense of the pairing rule."""
    launches = result["launches"]
    if metric == "run_passes":
        per_launch = [statistics.median(run_passes(d)) if d["run_s"] else float("inf")
                      for d in launches]
    elif metric == "fail_frac":
        per_launch = [d["failed"] / d["attempted"] for d in launches]
    else:
        per_launch = [d[metric] for d in launches]
    return result["end_to_end"][metric], per_launch


def verdict(ma, a, mb, b, bound, better):
    """a, b: per-launch values, paired by round; ma, mb: headline values."""
    sign = 1.0 if better == "lower" else -1.0
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    win_frac = wins / len(pairs) if pairs else 0.0
    if ma == 0:
        # A zero baseline (fail_frac): any change in the bad direction regresses.
        if sign * (mb - ma) > 0:
            return win_frac, "regressed"
        return win_frac, "improved" if mb != ma else "unchanged"
    q1a, q3a = quartiles(a)
    q1b, q3b = quartiles(b)
    spread = max((q3a - q1a) / abs(ma), (q3b - q1b) / abs(mb) if mb else 0.0)
    all_better = all(sign * (y - x) < 0 for y in b for x in a)
    if sign * (mb - ma) / abs(ma) > bound:
        return win_frac, "regressed"
    if win_frac >= 0.9 and sign * (ma - mb) > q3a - q1a:
        return win_frac, "improved"
    if spread > bound and not all_better:
        return win_frac, "unresolved"
    return win_frac, "unchanged"


def main(argv):
    if len(argv) != 3:
        print(__doc__)
        return 2
    a_all = json.loads(Path(argv[1]).read_text())["workloads"]
    b_all = json.loads(Path(argv[2]).read_text())["workloads"]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = [(m["name"], m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]]
    metrics.append(("fail_frac", "ratio", "lower", 0.0))
    counts = [m["name"] for m in bench["per_layer"] if m["unit"] in ("count", "B")]

    print(f"{'workload':<12} {'metric':<12} {'unit':<6} {'A value':>10} {'A q1..q3':>21} "
          f"{'B value':>10} {'B q1..q3':>21} {'B wins':>7}  verdict")
    bad = 0
    for w in a_all:
        if w not in b_all:
            print(f"{w:<12} missing from {argv[2]}")
            bad += 1
            continue
        for name, unit, better, bound in metrics:
            ma, a = side(a_all[w], name)
            mb, b = side(b_all[w], name)
            win_frac, v = verdict(ma, a, mb, b, bound, better)
            bad += v == "regressed"
            q1a, q3a = quartiles(a)
            q1b, q3b = quartiles(b)
            print(f"{w:<12} {name:<12} {unit:<6} {ma:>10.4g} {q1a:>10.4g}..{q3a:<10.4g} "
                  f"{mb:>10.4g} {q1b:>10.4g}..{q3b:<10.4g} {win_frac:>7.2f}  {v}")

    print("\ncount metrics (must repeat exactly)")
    diffs = 0
    for w in a_all:
        if w not in b_all:
            continue
        for name in counts:
            seen = {d["layers"].get(name) for result in (a_all[w], b_all[w])
                    for d in result["launches"]}
            if len(seen) > 1:
                print(f"  {w} {name}: {sorted(v for v in seen if v is not None)}")
                diffs += 1
    if diffs == 0:
        print("  all identical")
    return 1 if bad or diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
