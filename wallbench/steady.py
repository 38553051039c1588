#!/usr/bin/env python3
"""Steadiness report: run each workload several times and print, for every
end-to-end metric, the median and quartiles over the runs, calibrated and
raw side by side, with the spread (Q3 - Q1) / median that the bounds in
BENCHMARK.json are judged against.

    python3 wallbench/steady.py [--runs 10] [--seconds 10] [--first-seed 1] [workload ...]

Run from the repository root. Run i uses seed first-seed + i; with no
workload named, every workload in BENCHMARK.json runs. Exits 1 if a run
fails or reports a failed check.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the build step)

ROOT = os.path.dirname(run.HERE)


def one_run(exe, workload, seed, seconds):
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    result = json.loads(lines[-1])
    raw = next(json.loads(l[len("raw: "):]) for l in lines if l.startswith("raw: "))
    return result, raw


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3, (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    exe = run.build()
    bad = False
    for w in workloads:
        cal, raw, fails = {}, {}, []
        for i in range(args.runs):
            result, r = one_run(exe, w, args.first_seed + i, seconds)
            m = result["metrics"]
            print(f"{w} seed {args.first_seed + i}: " + "  ".join(
                f"{k} {m[k]['value']:.4g}/{r[k]:.4g}" for k in m if k in r) + f"  calib_ms {r['calib_ms']:.4g}",
                flush=True)
            fails.append(f'{result["failed"]}/{result["attempted"]}')
            bad |= not result["correct"] or result["failed"] != 0
            for name, m in result["metrics"].items():
                cal.setdefault(name, []).append(m["value"])
            for name, v in r.items():
                raw.setdefault(name, []).append(v)
        print(f"\n{w}: {args.runs} runs of {seconds} s, failed/attempted {' '.join(fails)}")
        print(f"{'metric':<16}{'bound':>7} | {'calibrated Q1':>14}{'median':>12}{'Q3':>12}{'spread':>8}"
              f" | {'raw Q1':>12}{'median':>12}{'Q3':>12}{'spread':>8}")
        for name, vals in cal.items():
            q1, med, q3, sp = spread(vals)
            line = f"{name:<16}{bounds.get(name, 0):>7.2f} | {q1:>14.4f}{med:>12.4f}{q3:>12.4f}{sp:>8.1%}"
            if name in raw:
                q1, med, q3, sp = spread(raw[name])
                line += f" | {q1:>12.4f}{med:>12.4f}{q3:>12.4f}{sp:>8.1%}"
            print(line)
        q1, med, q3, sp = spread(raw["calib_ms"])
        print(f"{'bench.calib_ms':<16}{'':>7} | {'':>14}{'':>12}{'':>12}{'':>8} | {q1:>12.4f}{med:>12.4f}{q3:>12.4f}{sp:>8.1%}")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
