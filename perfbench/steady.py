#!/usr/bin/env python3
"""Steadiness record: runs workloads over several seeds and reports, per
end-to-end metric, the median, the quartiles and the quartile spread as a
share of the median, against the metric's bound in BENCHMARK.json.

    python3 perfbench/steady.py --workloads solve-cold,serve-warm --seeds 1-10

Run from the root of the source tree; each run is `perfbench/run.py` at
BENCHMARK.json's `run_seconds`.
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    """Distance between the first and third quartile as a share of the
    median (statistics.quantiles' default exclusive method)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def parse_result(stdout):
    """The JSON object on the last non-empty line of a run's output."""
    lines = [l for l in stdout.splitlines() if l.strip()]
    if not lines:
        raise ValueError("no output")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("unexpected keys %s" % sorted(result))
    return result


PROBE = re.compile(r"host probe: median ([0-9.]+) ms .* solve_ms\.p50 ([0-9.]+),")


def probe_note(stdout):
    """(median probe ms, unscaled solve_ms.p50) from a run's notes, if given."""
    m = PROBE.search(stdout)
    return (float(m.group(1)), float(m.group(2))) if m else None


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        results = []
        notes = []
        for seed in seed_list(args.seeds):
            t0 = time.time()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            wall = time.time() - t0
            try:
                result = parse_result(proc.stdout)
            except ValueError as e:
                print("%s seed %d: no result (%s, exit %d)" % (workload, seed, e, proc.returncode))
                ok = False
                continue
            results.append(result)
            note = probe_note(proc.stdout)
            if note:
                notes.append(note)
            if not result["correct"] or proc.returncode != 0:
                ok = False
            print("%s seed %d: correct=%s failed=%d/%d wall %.1fs probe %s" % (
                workload, seed, result["correct"], result["failed"],
                result["attempted"], wall,
                "%.4f ms, unscaled solve_ms.p50 %.4f" % note if note else "-"), flush=True)
        if len(results) < 2:
            continue
        print("\n%-16s %12s %12s %12s %9s %7s" % (workload, "median", "q1", "q3", "spread", "bound"))
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            s = spread(values)
            within = s <= bounds[name] / 3
            ok = ok and s <= bounds[name]
            print("%-16s %12.4f %12.4f %12.4f %8.1f%% %6.0f%% %s" % (
                name, med, q1, q3, 100 * s,
                100 * bounds[name], "" if within else "<-- above a third of its bound"))
        if len(notes) >= 2:
            print("%-16s %8.1f%%   (unscaled solve_ms.p50 %8.1f%%)" % (
                "probe spread", 100 * spread([n[0] for n in notes]),
                100 * spread([n[1] for n in notes])))
        print()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
