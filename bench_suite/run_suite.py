#!/usr/bin/env python3
"""The front-door benchmark's one command.

Builds bench_suite (bench_suite/CMakeLists.txt, into .bench_build/ at the
repository root), runs every workload through engine::Engine::run, checks
every result and prints every metric by name with its unit.

  python3 bench_suite/run_suite.py [--seed 11] [--out FILE]
      The full suite: ROUNDS rounds; each round runs the host probes, then
      launches every workload once, in a fixed order, as its own process
      (one cold run, K warm timed runs, one traced run). Timings pool over
      the rounds. Writes the results JSON for compare.py (default
      .bench_build/suite_results.json). Exits 1 if any run fails its gate
      or a traced run has a span no layer claims.

  python3 bench_suite/run_suite.py --smoke
      Every workload once at reduced size with every correctness gate.

  python3 bench_suite/run_suite.py --workload W --seed S --seconds T --trace 0|1
      One measured run of one workload: three launches share T seconds
      of warm runs. The last stdout line is one JSON object with keys
      correct, attempted, failed and metrics: the end_to_end metrics of
      BENCHMARK.json with --trace 0, its per_layer metrics with --trace 1.

run_passes, the run-time metric, counts each warm run's wall time in
host reference passes (one read and one write of a state-sized buffer,
timed by bench_suite right after the run), so that it follows the code
rather than the shared host's speed; the wall time itself is run_s in
the full suite and engine.wall_s among the per-layer metrics.

Load model: closed loop, one caller, one process at a time, never more
threads than nproc (4): qft_emu and gates_* run OMP_NUM_THREADS=4,
grover_emu and shor_sim 1, dist_qft 4 rank threads with 1 each (the
per-workload value comes from bench_suite --list).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "bench_suite"
ROUNDS = 5               # full-suite rounds (R); each launches every workload once
LAUNCHES_PER_RUN = 3     # launches that share one --seconds budget
LAUNCH_TIMEOUT_S = 170
RUN_BUDGET_S = 170       # a measured run, after the build, ends within this
TRIAD_THREADS = 4


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def run_logged(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        log(proc.stdout)
        raise SystemExit(f"run_suite: '{' '.join(cmd)}' failed with exit {proc.returncode}")


def build():
    """Configures once, then rebuilds incrementally; logs go to stderr."""
    if not (ROOT / "src" / "engine" / "engine.hpp").is_file():
        raise SystemExit(f"run_suite: no library sources under {ROOT / 'src'}")
    if not (BUILD / "CMakeCache.txt").is_file():
        log("run_suite: configuring", BUILD)
        run_logged(["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    run_logged(["cmake", "--build", str(BUILD), "-j", "4", "--target", "qc_bench_suite"])


def launch(args, threads, deadline=None):
    """Runs bench_suite once and returns its JSON line (plus its exit code).
    The launch must end by `deadline` (time.monotonic()); on timeout the
    process is killed and reaped before the error propagates."""
    timeout = LAUNCH_TIMEOUT_S if deadline is None else max(1.0, deadline - time.monotonic())
    env = dict(os.environ, OMP_NUM_THREADS=str(threads))
    proc = subprocess.run([str(BINARY), *args], env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"bench_suite {' '.join(args)} exited {proc.returncode} without a "
                           f"result: {proc.stderr.strip()}")
    result = json.loads(lines[-1])
    result["exit"] = proc.returncode
    return result


def workloads():
    return {w["name"]: w for w in launch(["--list"], 1)["workloads"]}


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def median(values):
    return statistics.median(values) if values else float("nan")


def quartiles(values):
    if len(values) < 2:
        return (values[0], values[0]) if values else (float("nan"), float("nan"))
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


# --- aggregation -------------------------------------------------------------

def run_passes(launch):
    """Each warm run's time over the host reference pass timed after it."""
    return [r / p for r, p in zip(launch["run_s"], launch["pass_s"])]


def end_to_end(launches):
    """The end-to-end metrics of one workload, pooled over its launches."""
    samples = [s for d in launches for s in d["run_s"]]
    attempted = sum(d["attempted"] for d in launches)
    failed = sum(d["failed"] for d in launches)
    return {
        "run_passes": median([x for d in launches for x in run_passes(d)]),
        "run_s": median(samples),
        "pass_s": median([p for d in launches for p in d["pass_s"]]),
        "setup_s": median([d["setup_s"] for d in launches]),
        "peak_rss_mb": median([d["peak_rss_mb"] for d in launches]),
        "fail_frac": failed / attempted if attempted else 1.0,
        "samples": len(samples),
        "attempted": attempted,
        "failed": failed,
    }


def per_layer(launches, triad, cells):
    """Per-layer metrics: medians over the traced launches (counts repeat
    exactly), bandwidths as fractions of the host's triad bandwidth, and
    the two factors of run_passes."""
    keys = sorted({k for d in launches for k in d["layers"]})
    m = {k: median([d["layers"][k] for d in launches if k in d["layers"]]) for k in keys}
    e2e = end_to_end(launches)
    m["engine.wall_s"] = e2e["run_s"]
    m["host.pass_s"] = e2e["pass_s"]

    def frac(gbs):
        return gbs / triad if triad else 0.0

    def rate(bytes_key, seconds_key):
        s = m.get(seconds_key, 0.0)
        return m.get(bytes_key, 0.0) / s / 1e9 if s > 0 else 0.0

    m["host.triad_gbs"] = triad or 0.0
    m["emu.fft_bw_frac"] = frac(rate("bytes.emu.fft", "emu.fft_s"))
    for item in ("sweep", "remap", "global"):
        m[f"sched.{item}_bw_frac"] = frac(rate(f"bytes.sched.{item}", f"sched.{item}_s"))
    if cells:
        m["sim.alloc_s"] = cells["alloc_s"]
        m["sim.hbench_lo_bw_frac"] = frac(cells["hbench_lo_gbs"])
        m["sim.hbench_hi_bw_frac"] = frac(cells["hbench_hi_gbs"])
        m["sim.swapbench_bw_frac"] = frac(cells["swapbench_gbs"])
    return m


def probes(info, deadline=None):
    """Host triad bandwidth (all cores) and the micro-cells of each workload
    in `info` (at that workload's thread count), each in its own process
    so none touches a workload launch's peak RSS."""
    triad = launch(["--probe", "triad"], TRIAD_THREADS, deadline)
    if triad["exit"] != 0 or not triad["ok"]:
        raise RuntimeError("the triad probe computed wrong sums")
    log(f"run_suite: host triad {triad['triad_gbs']:.2f} GB/s over 3 x "
        f"{triad['array_bytes'] / 2**20:.0f} MiB arrays (LLC {triad['llc_bytes'] / 2**20:.0f} MiB)")
    cells = {w: launch(["--probe", "cells", "--workload", w], wl["omp_threads"], deadline)["cells"]
             for w, wl in info.items()}
    return triad["triad_gbs"], cells


# --- one measured run (the benchmark contract) -------------------------------

def measured_run(opts):
    build()
    info = workloads().get(opts.workload)
    if info is None:
        raise SystemExit(f"run_suite: unknown workload '{opts.workload}'")
    bench = spec()
    trace = opts.trace == 1
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    deadline = time.monotonic() + RUN_BUDGET_S
    per_launch = opts.seconds / LAUNCHES_PER_RUN
    args = ["--workload", opts.workload, "--seed", str(opts.seed), "--seconds", f"{per_launch:.3f}"]
    if trace:
        args.append("--trace")
    try:
        triad, cells = probes({opts.workload: info}, deadline) if trace else (None, {})
        launches = [launch(args, info["omp_threads"], deadline) for _ in range(LAUNCHES_PER_RUN)]
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as e:
        # A crashed or hung launch is a failed run, reported as such.
        log(f"run_suite: {opts.workload}: {e}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {
            m["name"]: {"value": 0.0, "unit": m["unit"]} for m in wanted}}))
        return 0
    e2e = end_to_end(launches)
    correct = e2e["failed"] == 0 and e2e["samples"] > 0 and all(d["exit"] == 0 for d in launches)
    if trace:
        values = per_layer(launches, triad, cells[opts.workload])
    else:
        values = e2e
    for d in launches:
        for e in d["errors"]:
            log(f"run_suite: {opts.workload}: {e}")
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        log("run_suite: no value for " + ", ".join(missing))
        correct = False
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": correct, "attempted": e2e["attempted"], "failed": e2e["failed"],
                      "metrics": metrics}))
    return 0


# --- the full suite ----------------------------------------------------------

def fmt(v):
    if isinstance(v, float) and v != v:
        return "-"
    if v == 0:
        return "0"
    return f"{v:.4g}"


def print_suite(results, bench, triad):
    names = list(results)
    print(f"\nend-to-end ({len(next(iter(results.values()))['launches'])} launches per workload; "
          "run_passes and run_s pooled over every warm run)")
    print(f"{'workload':<12} {'metric':<12} {'unit':<6} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'samples':>8}")
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    units.update(run_s="s", fail_frac="ratio")
    for w in names:
        launches = results[w]["launches"]
        e2e = results[w]["end_to_end"]
        rows = {
            "run_passes": [x for d in launches for x in run_passes(d)],
            "run_s": [s for d in launches for s in d["run_s"]],
            "setup_s": [d["setup_s"] for d in launches],
            "peak_rss_mb": [d["peak_rss_mb"] for d in launches],
            "fail_frac": [d["failed"] / d["attempted"] for d in launches],
        }
        for metric, values in rows.items():
            q1, q3 = quartiles(values)
            count = e2e["attempted"] if metric == "fail_frac" else len(values)
            print(f"{w:<12} {metric:<12} {units[metric]:<6} {fmt(e2e[metric]):>10} {fmt(q1):>10} "
                  f"{fmt(q3):>10} {count:>8}")

    print(f"\nper-layer (medians over traced launches; host triad {fmt(triad or 0)} GB/s)")
    print(f"{'metric':<26} {'unit':<6}" + "".join(f"{w:>12}" for w in names))
    for m in bench["per_layer"]:
        row = "".join(f"{fmt(results[w]['per_layer'].get(m['name'], 0.0)):>12}" for w in names)
        print(f"{m['name']:<26} {m['unit']:<6}{row}")

    # One whole traced run per workload (the launch with the median
    # engine.run), so its rows add up to its engine.run exactly.
    traced = {}
    for w in names:
        ls = sorted((d for d in results[w]["launches"] if "engine.run_s" in d["layers"]),
                    key=lambda d: d["layers"]["engine.run_s"])
        traced[w] = ls[len(ls) // 2]["layers"] if ls else {}
    print("\nattribution of one traced engine.run per workload (self seconds; rank lanes as "
          "per-rank means)")
    layers = sorted({k for w in names for k in traced[w] if k.startswith("self.")})
    print(f"{'layer':<26} {'':<6}" + "".join(f"{w:>12}" for w in names))
    for k in layers:
        row = "".join(f"{fmt(traced[w].get(k, 0.0)):>12}" for w in names)
        print(f"{k[5:]:<26} {'s':<6}{row}")
    sums = [sum(traced[w].get(k, 0.0) for k in layers) for w in names]
    print(f"{'sum of rows':<26} {'s':<6}" + "".join(f"{fmt(v):>12}" for v in sums))
    print(f"{'engine.run':<26} {'s':<6}" +
          "".join(f"{fmt(traced[w].get('engine.run_s', 0.0)):>12}" for w in names))


def full_suite(opts):
    build()
    info = workloads()
    bench = spec()
    rounds = 1 if opts.smoke else ROUNDS
    launches = {w: [] for w in info}
    triads, cells_by_round = [], []
    for r in range(rounds):
        if not opts.smoke:
            triad, cells = probes(info)
            triads.append(triad)
            cells_by_round.append(cells)
        for w, wl in info.items():
            args = ["--workload", w, "--seed", str(opts.seed), "--trace"]
            if opts.smoke:
                args.append("--smoke")
            d = launch(args, wl["omp_threads"])
            launches[w].append(d)
            log(f"run_suite: round {r + 1}/{rounds} {w}: {len(d['run_s'])} runs, "
                f"median {fmt(median(d['run_s']))} s, setup {fmt(d['setup_s'])} s, "
                f"{d['failed']} failed")
            for e in d["errors"]:
                log(f"run_suite: {w}: {e}")

    triad = median(triads) if triads else None
    results = {}
    for w, ls in launches.items():
        cells = None
        if cells_by_round:
            cells = {k: median([c[w][k] for c in cells_by_round]) for k in cells_by_round[0][w]}
        results[w] = {"config": info[w], "launches": ls, "end_to_end": end_to_end(ls),
                      "per_layer": per_layer(ls, triad, cells)}
    print_suite(results, bench, triad)

    out = Path(opts.out) if opts.out else BUILD / "suite_results.json"
    out.write_text(json.dumps({"seed": opts.seed, "rounds": rounds, "smoke": opts.smoke,
                               "triad_gbs": triad, "workloads": results}, indent=1))
    print(f"\nresults: {out}")
    bad = [w for w, r in results.items()
           if r["end_to_end"]["failed"] or any(d["exit"] for d in r["launches"])]
    if bad:
        print("FAILED: " + ", ".join(bad))
        return 1
    print("all correctness gates passed")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", help="run one measured run of this workload")
    p.add_argument("--seed", type=int, default=11)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--out")
    opts = p.parse_args()
    if opts.workload:
        return measured_run(opts)
    try:
        return full_suite(opts)
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        log(f"run_suite: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
