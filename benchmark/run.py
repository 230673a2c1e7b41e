#!/usr/bin/env python3
"""Build and run the rgpdOS end-to-end benchmark, or compare two sets of runs.

Run from the root of the source tree:

  python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1
                           [--json FILE] [--trace-out FILE]
  python3 benchmark/run.py --compare A.jsonl B.jsonl

The first form builds benchmark/main.exe with dune into .bench_build and
runs it with the given arguments; its last line of output is the JSON
result.  The second form reads two files of invocation records (written
with --json, one line per invocation) and reports, per workload and
metric, each side's median and quartiles.  It fails when B's median is
worse than A's by more than the bound BENCHMARK.json declares, and, for
invocations of the same seeds, when any output digest or simulated or
count metric differs at all.
"""

import json
import os
import statistics
import subprocess
import sys
from collections import defaultdict

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "benchmark", "main.exe")
# host-time figures, and the heap, which depends on how many rounds fit in
# the time budget; every other metric repeats exactly for one seed
HOST_METRICS = {"setup_s", "heap_mb", "trace.overhead_pct"}


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib") and os.path.isfile("benchmark/dune")):
        sys.exit("run.py: run from the root of the rgpdOS source tree (no dune-project or lib/ here)")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, "--cache", "disabled",
           "-j", "2", "--display", "quiet", "./benchmark/main.exe"]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr)
    except FileNotFoundError:
        sys.exit("run.py: dune is not on PATH")
    if done.returncode != 0:
        sys.exit("run.py: build failed")


def is_host(name):
    return "host" in name or name in HOST_METRICS


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def compare(path_a, path_b):
    with open("BENCHMARK.json") as f:
        declared = {m["name"]: m for m in json.load(f)["end_to_end"]}
    a, b = load(path_a), load(path_b)
    failures = []
    sides = {}
    for label, rows in (("A", a), ("B", b)):
        values = defaultdict(list)
        exact = {}
        for r in rows:
            if not r["correct"]:
                failures.append(f"{label}: {r['workload']} seed {r['seed']} failed its output checks")
            key = (r["workload"], r["seed"], r["trace"])
            fingerprint = {("digest", r["digest"])}
            for name, m in r["metrics"].items():
                values[(r["workload"], name, m["unit"])].append(m["value"])
                if not is_host(name):
                    fingerprint.add((name, m["value"]))
            if key in exact and exact[key] != fingerprint:
                differ = sorted({n for n, _ in exact[key] ^ fingerprint})
                failures.append(f"{label}: {key[0]} seed {key[1]} not identical across invocations: {', '.join(differ)}")
            exact.setdefault(key, fingerprint)
        sides[label] = (values, exact)
    (va, ea), (vb, eb) = sides["A"], sides["B"]
    for key in sorted(set(ea) | set(eb)):
        if key in ea and key in eb and ea[key] != eb[key]:
            differ = sorted({n for n, _ in ea[key] ^ eb[key]})
            failures.append(f"{key[0]} seed {key[1]}: not identical across sides: {', '.join(differ)}")
    for (workload, name, unit) in sorted(set(va) & set(vb)):
        xa, xb = va[(workload, name, unit)], vb[(workload, name, unit)]
        qa = statistics.quantiles(xa, n=4) if len(xa) > 1 else [xa[0]] * 3
        qb = statistics.quantiles(xb, n=4) if len(xb) > 1 else [xb[0]] * 3
        ma, mb = statistics.median(xa), statistics.median(xb)
        verdict = ""
        if name in declared and ma != 0:
            d = declared[name]
            worse = (mb - ma) / abs(ma) if d["better"] == "lower" else (ma - mb) / abs(ma)
            verdict = f"worse by {100 * worse:+.2f}% (bound {100 * d['bound']:.0f}%)"
            if worse > d["bound"]:
                failures.append(f"{workload} {name}: {verdict}")
                verdict += "  FAIL"
        print(f"{workload:10s} {name:36s} {unit:10s} "
              f"A {ma:14.4f} [{qa[0]:.4f}, {qa[2]:.4f}]  B {mb:14.4f} [{qb[0]:.4f}, {qb[2]:.4f}]  {verdict}")
    for f in failures:
        print("FAIL " + f)
    print("compare: " + ("FAIL" if failures else "ok"))
    return 1 if failures else 0


def main(argv):
    if argv[:1] == ["--compare"]:
        if len(argv) != 3:
            sys.exit("usage: run.py --compare A.jsonl B.jsonl")
        return compare(argv[1], argv[2])
    build()
    return subprocess.run([EXE] + argv).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
