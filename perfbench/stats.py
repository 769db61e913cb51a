#!/usr/bin/env python3
"""Run one workload over several seeds and summarize every metric.

Usage, from the root of the repository:

    python3 perfbench/stats.py --workload metro-engine --seeds 1-10 --seconds 20

For each metric it prints the median, the first and third quartiles
(statistics.quantiles, n=4), the sample count and the spread, the quartile
distance as a share of the median. The two ungated figures the runs print
as `#` notes (block latency p50, rss growth) are summarized as well. The
host record of the first run and the
share of failed operations of every run are printed too. --json writes the
same summary to a file.
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# "# block latency p50 16.576 ms (not gated, see README)" and the like.
NOTE = re.compile(r"^# (block latency p50|rss growth) ([0-9.]+) (\w+)")
NOTE_NAMES = {"block latency p50": "block_latency_p50_ms (note)",
              "rss growth": "rss_growth_mb (note)"}


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    host = next((l[5:] for l in lines if l.startswith("host ")), None)
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout)
        raise SystemExit(f"seed {seed}: exit code {done.returncode}")
    result = json.loads(lines[-1])
    for line in lines:
        note = NOTE.match(line)
        if note:
            result["metrics"][NOTE_NAMES[note.group(1)]] = {
                "value": float(note.group(2)), "unit": note.group(3)}
    return result, host


def summarize(values):
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    spread = (q3 - q1) / median if median else float("nan")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "spread": spread}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="write the summary to this file")
    args = parser.parse_args()

    samples = {}
    units = {}
    failed_shares = []
    host = None
    for seed in parse_seeds(args.seeds):
        result, run_host = run_once(args.workload, seed, args.seconds,
                                    args.trace)
        host = host or run_host
        if not result["correct"]:
            raise SystemExit(f"seed {seed}: a correctness check failed")
        failed_shares.append(result["failed"] / result["attempted"])
        for name, metric in result["metrics"].items():
            samples.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print(f"seed {seed}: " + " ".join(
            f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()),
            flush=True)

    summary = {name: dict(summarize(values), unit=units[name])
               for name, values in samples.items()}
    print(f"host {host}")
    print(f"failed share per run: {failed_shares}")
    print(f"{'metric':40s} {'median':>14s} {'q1':>14s} {'q3':>14s} "
          f"{'n':>3s} {'spread':>8s}")
    for name, s in summary.items():
        print(f"{name:40s} {s['median']:14.6g} {s['q1']:14.6g} "
              f"{s['q3']:14.6g} {s['n']:3d} {s['spread']:8.3f} {s['unit']}")
    if args.json:
        with open(args.json, "w") as out:
            json.dump({"workload": args.workload, "host": host,
                       "failed_share": failed_shares, "metrics": summary},
                      out, indent=1)


if __name__ == "__main__":
    main()
