#!/usr/bin/env python3
"""Runs every workload of BENCHMARK.json over ten seeds, each run as long as
its run_seconds, and reports each end-to-end metric's median, quartiles and
spread (IQR as a share of the median).

    python3 perfbench/prove.py [--first-seed 1] [--record perfbench/results/trajectory.json]

With --record, the result is appended to the trajectory file as one point:
the source digest and git sha it measured, the machine fingerprint, the
seeds, and per workload and metric the values, median, quartiles and
spread. It exits non-zero when a run fails its output checks.
"""

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import metrics as M  # noqa: E402

SEEDS = 10


def run_once(workload, seed, seconds):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload",
                           workload, "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", "0"], cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    fingerprint = next((json.loads(l[len("# fingerprint "):]) for l in lines
                        if l.startswith("# fingerprint ")), None)
    result = json.loads(lines[-1]) if lines else None
    if proc.returncode != 0 or not result or not result["correct"]:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed} failed (status {proc.returncode})")
    # The report's ungated figures: "#   name = value unit (note)".
    ungated = {}
    for line in lines:
        if line.startswith("#   ") and " = " in line:
            name, rest = line[4:].split(" = ", 1)
            value, unit = rest.split()[:2]
            if value != "n/a":
                ungated[name] = (float(value), unit)
    return result, fingerprint, ungated


def summary(values, unit, bound=None):
    q1, med, q3 = statistics.quantiles(values, n=4)
    row = {"unit": unit, "median": med, "q1": q1, "q3": q3,
           "spread": M.iqr_share(values), "values": values}
    if bound is not None:
        row["bound"] = bound
    return row


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--record", default="",
                        help="append the result to this trajectory file")
    args = parser.parse_args()

    bench = M.load_benchmark(os.path.join(ROOT, "BENCHMARK.json"))
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + SEEDS))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}

    point = {"recorded": datetime.datetime.now(datetime.timezone.utc).isoformat(
                 timespec="seconds"),
             "seeds": seeds, "seconds": seconds, "workloads": {}}
    worst = 0.0
    for workload in workloads:
        values = {name: [] for name in bounds}
        ungated = {}
        fingerprint = None
        for seed in seeds:
            result, fingerprint, figures = run_once(workload, seed, seconds)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            for name, (value, unit) in figures.items():
                ungated.setdefault(name, (unit, []))[1].append(value)
        point["fingerprint"] = {k: v for k, v in fingerprint.items()
                                if k not in ("threads", "pool_threads")}
        rows = {}
        for name, vals in values.items():
            rows[name] = summary(vals, units[name], bounds[name])
            spread = rows[name]["spread"]
            if name != "setup_s":
                worst = max(worst, spread / bounds[name])
            print(f"{workload:<18} {name:<16} median {rows[name]['median']:<12.6g} "
                  f"{units[name]:<4} spread {spread:6.3f} (bound {bounds[name]})", flush=True)
        point["workloads"][workload] = {
            "threads": fingerprint["threads"], "pool_threads": fingerprint["pool_threads"],
            "metrics": rows,
            # Ungated figures: reported, not gated.
            "ungated": {name: summary(v, unit) for name, (unit, v) in ungated.items()
                     if len(v) == len(seeds)}}
    print(f"largest spread / bound (setup_s excluded): {worst:.3f}")
    if args.record:
        path = os.path.join(ROOT, args.record) if not os.path.isabs(args.record) else args.record
        trajectory = []
        if os.path.exists(path):
            with open(path, encoding="utf-8") as f:
                trajectory = json.load(f)
        trajectory.append(point)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(trajectory, f, indent=1)
            f.write("\n")
        print(f"appended to {args.record}")


if __name__ == "__main__":
    main()
