#!/usr/bin/env python3
"""Benchmark entry point for memoria: build, run one workload, report.

Run from the root of a checkout:

  python3 perfbench/run.py --workload tables|tune|serve --seed N \
      --seconds S --trace 0|1
      Build the benchmark and the memoria binary into .bench_build/,
      run one workload and print its result as the last stdout line:
      {"correct", "attempted", "failed", "metrics"} -- the end-to-end
      metrics with --trace 0, the per-layer metrics with --trace 1.
      Exits non-zero when an output disagrees with its reference.

  python3 perfbench/run.py --steady K [--workloads tables,tune,serve]
      Steadiness mode: K untraced runs per workload on seeds 1..K plus
      two traced runs; prints median, quartiles and relative spread per
      end-to-end metric, flags spreads above a tenth or above a third
      of the metric's bound, and fails when a deterministic figure
      differs between runs.

  python3 perfbench/run.py --selftest
      Build and run the tests of the benchmark's own helpers.

  python3 perfbench/run.py --recording-check
      Check that the optimizer transforms the serve stream's first 2000
      cold programs the same way with the program's recording on as
      with it off; exits 1 on any difference.

Everything it writes stays under .bench_build/ in the checkout.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = ".bench_build"
BENCH_EXE = os.path.join(BUILD, "default", "perfbench", "bench.exe")
SELFTEST_EXE = os.path.join(BUILD, "default", "perfbench", "selftest.exe")
MEMORIA_EXE = os.path.join(BUILD, "default", "bin", "memoria.exe")
WORKLOADS = ["tables", "tune", "serve"]

# Figures that must read the same on every run of a workload.
DETERMINISTIC = {
    0: ["modelled_speedup", "winner_miss_pct"],
    1: ["core.transforms_applied", "interp.accesses", "tune.legal_ratio"],
}


def clean_env():
    """The environment without MEMORIA_* settings and without dune's
    shared cache, so that nothing is read or written outside the
    checkout."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("MEMORIA_")}
    env["DUNE_CACHE"] = "disabled"
    return env


def build(targets):
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD,
           "--profile", "release"] + targets
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=clean_env(),
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, timeout=880)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.stderr.write(f"build failed: {e}\n")
        return False
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.stderr.write("build failed\n")
        return False
    return True


def stop_group(pgid):
    """Kill what is left of a process group and wait until it is gone."""
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            return
        time.sleep(0.01)


def keep_trace(workdir, workload, seed):
    """Move a traced run's span file out of the scratch directory."""
    src = os.path.join(ROOT, workdir, f"trace-{workload}.json")
    if os.path.exists(src):
        dst = os.path.join(ROOT, BUILD, "traces")
        os.makedirs(dst, exist_ok=True)
        os.replace(src, os.path.join(dst, f"{workload}-seed{seed}.json"))


def run_timeout(seconds):
    """How long one run may take: the timed region plus set-up,
    verification and, in a traced run, the probe."""
    return 4 * seconds + 50


def run_bench(workload, seed, seconds, trace):
    """Run one workload; returns (exit code, result dict or None)."""
    workdir = os.path.join(BUILD, "run", str(os.getpid()))
    cmd = [BENCH_EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--memoria", MEMORIA_EXE, "--workdir", workdir]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=clean_env(),
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=run_timeout(seconds))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.stderr.write(
            f"{workload}: no result within {run_timeout(seconds)} s\n")
        return 1, None
    finally:
        # The daemon the bench starts lives in the same session; make
        # sure nothing outlives the run.
        stop_group(proc.pid)
        keep_trace(workdir, workload, seed)
        shutil.rmtree(os.path.join(ROOT, workdir), ignore_errors=True)
    lines = [l for l in out.splitlines() if l.strip()]
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if result is None or set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.stderr.write(f"{workload}: no result line (exit {proc.returncode})\n")
        return proc.returncode or 1, None
    return proc.returncode, result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def steady(runs, workloads, seconds):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m.get("bound") for m in json.load(f)["end_to_end"]}
    ok = True
    for w in workloads:
        values = {}
        for seed in range(1, runs + 1):
            code, res = run_bench(w, seed, seconds, 0)
            if code != 0 or res is None or not res["correct"]:
                print(f"{w} seed {seed}: FAILED (exit {code})")
                ok = False
                continue
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: " + "  ".join(
                f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
                flush=True)
        print(f"\n{w}: {runs} runs")
        print(f"  {'metric':<22}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}  bound")
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            med, q1, q3, sp = spread(vals)
            bound = bounds.get(name)
            flag = ""
            if sp > 0.1:
                flag = "  SPREAD > 0.1"
            elif bound is not None and name != "setup_s" and sp > bound / 3:
                flag = "  SPREAD > bound/3"
            print(f"  {name:<22}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{sp:>9.4f}  {bound}{flag}")
            if name in DETERMINISTIC[0] and len(set(vals)) != 1:
                print(f"  {name}: NOT DETERMINISTIC {sorted(set(vals))}")
                ok = False
        traced = []
        for seed in (1, 2):
            code, res = run_bench(w, seed, seconds, 1)
            if code != 0 or res is None:
                print(f"{w} traced seed {seed}: FAILED (exit {code})")
                ok = False
                continue
            traced.append(res["metrics"])
        for name in DETERMINISTIC[1]:
            vals = {t[name]["value"] for t in traced}
            state = "repeats exactly" if len(vals) == 1 else "NOT DETERMINISTIC"
            ok = ok and len(vals) == 1
            print(f"  {name}: {sorted(vals)} {state}")
        print(flush=True)
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--steady", type=int, metavar="K")
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--recording-check", action="store_true")
    args = ap.parse_args()

    if args.recording_check:
        if not build(["./perfbench/bench.exe"]):
            return 2
        return subprocess.run([BENCH_EXE, "--recording-check", "2000"],
                              cwd=ROOT, env=clean_env()).returncode

    if args.selftest:
        if not build(["./perfbench/selftest.exe"]):
            return 2
        return subprocess.run([SELFTEST_EXE], cwd=ROOT).returncode

    if not build(["./perfbench/bench.exe", "./bin/memoria.exe"]):
        return 2
    if args.steady:
        ws = [w for w in args.workloads.split(",") if w]
        return 0 if steady(args.steady, ws, args.seconds) else 1
    if not args.workload:
        ap.error("give --workload, --steady, --selftest or --recording-check")
    code, res = run_bench(args.workload, args.seed, args.seconds, args.trace)
    if res is None:
        return code or 1
    print(json.dumps(res))
    return code


if __name__ == "__main__":
    sys.exit(main())
