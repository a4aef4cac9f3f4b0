#!/usr/bin/env python3
"""Write and check BENCH_perf.jsonl, the repository's one perf record.

Each line of BENCH_perf.jsonl is one row: the schema, the PR, the
commit, the host, the seconds per run, and, for every workload and
end-to-end metric of BENCHMARK.json, the median, q1 and q3 over
perfbench seeds 1-5. Run from the root of a checkout:

  python3 ci/perfcheck.py row --pr N PARENT
      Run perfbench/run.py --workload W --seed S for each workload and
      seed in PARENT (a checkout of the parent commit) and in this
      checkout, and print two rows on stdout: the parent's (as PR N-1),
      then this one's. Runs alternate between the two checkouts, each
      seed starting with the other one, so that the host's drift falls
      on both rows alike.

  python3 ci/perfcheck.py compare [FILE]
      Compare the last two rows of FILE (default BENCH_perf.jsonl).
      Prints FLAG <workload>/<metric> and exits 1 when a median got
      worse by more than the metric's bound; a metric missing from
      either row, or two rows from different hosts or run lengths, is
      an error too.
"""

import json
import os
import platform
import statistics
import subprocess
import sys

SCHEMA = 1
SEEDS = range(1, 6)


def benchmark():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def host():
    """Node name, CPU model and CPU count: rows compare only on one host."""
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            model = next(line.split(":", 1)[1].strip()
                         for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return f"{platform.node()} {model} x{os.cpu_count()}"


def run(checkout, workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if lines else None
    if proc.returncode != 0 or result is None or not result["correct"]:
        sys.exit(f"perfcheck: {checkout}: {workload} seed {seed} failed "
                 f"(exit {proc.returncode})")
    return {name: m["value"] for name, m in result["metrics"].items()}


def rows(pr, parent):
    checkouts = [parent, "."]
    bench = benchmark()
    seconds = bench["run_seconds"]
    runs = {c: {} for c in checkouts}
    for w in (w["name"] for w in bench["workloads"]):
        for seed in SEEDS:
            for c in checkouts if seed % 2 else checkouts[::-1]:
                runs[c].setdefault(w, []).append(run(c, w, seed, seconds))
    for i, c in enumerate(checkouts):
        workloads = {}
        for w, ws in runs[c].items():
            workloads[w] = {}
            for m in bench["end_to_end"]:
                values = [r[m["name"]] for r in ws]
                q1, _, q3 = statistics.quantiles(values, n=4)
                workloads[w][m["name"]] = {
                    "median": statistics.median(values), "q1": q1, "q3": q3}
        commit = subprocess.run(["git", "describe", "--always", "--dirty"],
                                cwd=c, stdout=subprocess.PIPE,
                                text=True).stdout.strip()
        print(json.dumps({"schema": SCHEMA,
                          "pr": pr - 1 + i,
                          "commit": commit, "host": host(),
                          "seconds": seconds, "workloads": workloads}))
    return 0


def compare(path):
    with open(path) as f:
        rows = [json.loads(line) for line in f if line.strip()]
    if len(rows) < 2 or any(r.get("schema") != SCHEMA for r in rows[-2:]):
        print(f"perfcheck: {path} needs two schema-{SCHEMA} rows")
        return 2
    old, new = rows[-2], rows[-1]
    for field in ("host", "seconds"):
        if old[field] != new[field]:
            print(f"perfcheck: PR {old['pr']} and PR {new['pr']} differ in "
                  f"{field}; measure both rows in one run")
            return 2
    bench = benchmark()
    bad = False
    for w in (w["name"] for w in bench["workloads"]):
        for m in bench["end_to_end"]:
            key = f"{w}/{m['name']}"
            try:
                a = old["workloads"][w][m["name"]]["median"]
                b = new["workloads"][w][m["name"]]["median"]
            except KeyError:
                print(f"MISSING {key}")
                bad = True
                continue
            if m["better"] == "higher":
                worse = b < a * (1 - m["bound"])
            else:
                worse = b > a * (1 + m["bound"])
            print(f"{'FLAG' if worse else 'ok  '} {key} {a:.6g} -> {b:.6g} "
                  f"(bound {m['bound']})")
            bad = bad or worse
    return 1 if bad else 0


def main(argv):
    if len(argv) == 4 and argv[0] == "row" and argv[1] == "--pr":
        return rows(int(argv[2]), argv[3])
    if argv[:1] == ["compare"] and len(argv) <= 2:
        return compare(argv[1] if len(argv) == 2 else "BENCH_perf.jsonl")
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
