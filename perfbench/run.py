#!/usr/bin/env python3
"""Runs one perfbench workload and prints its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. The first call builds the runner
(perfbench/CMakeLists.txt, which compiles the amret libraries it needs) into
.bench_build/perfbench; later calls only check that the build is current.

Each workload runs in a fresh temporary directory under .bench_build/runs,
with every AMRET_* variable removed from the environment except the thread
count the workload sets, so stray tuning files, caches or settings in the
checkout cannot change what is measured.

--trace 0 prints the end-to-end metrics of BENCHMARK.json. setup_s is the
median over SETUPS fresh processes (the measured run and SETUPS - 1 that
stop after set-up), each timed from process start. --trace 1 runs
the workload twice at the same seed, untraced and traced, and prints the
per-layer metrics; the traced outputs must be bitwise equal to the untraced
ones. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it are a readable
report. The exit status is non-zero when an output check fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # write nothing outside .bench_build

import metrics as M  # noqa: E402

# Kernel-pool threads per workload (AMRET_THREADS). serve_lenet runs its
# kernels inline on the two server workers; its generator and coalescer make
# four threads in all.
POOL_THREADS = {
    "retrain_vgg19": 4,
    "retrain_mobilenet": 4,
    "infer_vgg19": 4,
    "serve_lenet": 1,
}
SETUPS = 3  # fresh-process set-ups per untraced run; setup_s is their median
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds the runner; returns its path."""
    build_dir = os.path.join(ROOT, ".bench_build", "perfbench")
    out = sys.stderr
    try:
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                            "-DCMAKE_BUILD_TYPE=Release"], check=True, stdout=out,
                           stderr=out, timeout=BUILD_TIMEOUT_S)
        subprocess.run(["cmake", "--build", build_dir, "--target", "amret_perfbench",
                        "-j", "4"], check=True, stdout=out, stderr=out,
                       timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        fail(f"build failed: {e}", 1)
    return os.path.join(build_dir, "amret_perfbench")


def run_workload(exe, workload, seed, seconds, trace, setup_only=False):
    """Runs one workload in a fresh directory; returns its raw JSON."""
    runs = os.path.join(ROOT, ".bench_build", "runs")
    os.makedirs(runs, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=runs)
    env = {k: v for k, v in os.environ.items() if not k.startswith("AMRET_")}
    env["AMRET_THREADS"] = str(POOL_THREADS[workload])
    try:
        cmd = [exe, "--workload", workload, "--seed", str(seed), "--seconds",
               repr(seconds), "--trace", "1" if trace else "0", "--setup-only",
               "1" if setup_only else "0", "--out", "raw.json"]
        proc = subprocess.run(cmd, cwd=workdir, env=env, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=RUN_TIMEOUT_S)
        if proc.returncode != 0:
            fail(f"{workload} exited with status {proc.returncode}", 1)
        with open(os.path.join(workdir, "raw.json"), encoding="utf-8") as f:
            return json.load(f)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def serve_phase(raw, name):
    key = "serve." + name
    s = raw["series"]
    return {"due_us": s[key + ".due_us"], "sent_us": s[key + ".sent_us"],
            "total_us": s[key + ".total_us"], "queue_us": s[key + ".queue_us"],
            "ok": s[key + ".ok"], "rate": raw["scalars"][key + ".rate"],
            "seconds": raw["scalars"][key + ".seconds"],
            "batches": raw["scalars"][key + ".batches"],
            "batch_rows": raw["scalars"][key + ".batch_rows"]}


def ladder(raw):
    rungs, i = [], 0
    while f"serve.ladder{i}.rate" in raw["scalars"]:
        rungs.append(serve_phase(raw, f"ladder{i}"))
        i += 1
    return rungs


def per_request(raw, phase, scalar):
    """A serve phase's scalar (ms) per request of that phase."""
    return raw["scalars"][f"serve.{phase}.{scalar}"] / len(raw["series"][f"serve.{phase}.ok"])


def lateness(raw):
    """How late the generator submitted each open-loop request (ms)."""
    late = []
    for ph in [serve_phase(raw, "light"), serve_phase(raw, "heavy")] + ladder(raw):
        late += M.lateness_ms(ph["due_us"], ph["sent_us"])
    return late


def named_metrics(workload, raw):
    """The workload's ungated figures: {name: (value, unit, note)}. They are
    printed with every run and recorded by prove.py, but not gated: on a
    shared VM they drift more than the bounds allow (wall time; the serve
    open-loop CPU, which follows how often the host stalls the server)."""
    out = {}

    def timing(name, values, what):
        s = M.summarize(values)
        out[name + "_p50_ms"] = (s["p50"], "ms", f"{what}, n={s['n']}")
        out[name + "_tail_ms"] = (s["tail"], "ms",
                                  f"p{s['tail_pct']:g}, the highest percentile with "
                                  f">= {M.MIN_BEYOND} of n={s['n']} beyond"
                                  if s["tail_pct"] is not None else "too few samples")

    if workload.startswith("retrain_"):
        steps = raw["series"]["train.step_ms"]
        out["train_samples_per_s"] = (raw["scalars"]["train.samples"] /
                                      raw["scalars"]["train.timed_s"], "1/s",
                                      f"batch 32, {len(steps)} steps")
        timing("train_step", steps, "training step")
    elif workload == "infer_vgg19":
        b1, b64 = raw["series"]["infer.b1_ms"], raw["series"]["infer.b64_ms"]
        big = raw["scalars"]["infer.big_batch"]
        out["infer_b64_samples_per_s"] = (big * len(b64) / (sum(b64) / 1e3), "1/s",
                                          f"{len(b64)} batch-64 calls")
        timing("infer_b1", b1, "batch-1 call")
    else:
        for phase in ("light", "heavy"):
            ph = serve_phase(raw, phase)
            lat = M.due_latencies_ms(ph["due_us"], ph["sent_us"], ph["total_us"])
            timing(f"serve_{phase}", lat, f"{ph['rate']:.0f} req/s from due time")
            out[f"serve_{phase}_cpu_ms"] = (per_request(raw, phase, "server_cpu_ms"), "ms",
                                            "server CPU per request")
        late, rungs = lateness(raw), ladder(raw)
        out["loadgen_late_p99_ms"] = (M.percentile(late, 99.0), "ms", f"n={len(late)}")
        out["serve_missed_wakeups"] = (raw["scalars"]["serve.missed_wakeups"], "count",
                                       "requests the coalescer left asleep until rescued")
        out["serve_max_rps"] = (M.max_sustained_rate(rungs), "1/s",
                                f"{len(rungs)} rungs from {rungs[0]['rate']:.0f} req/s, "
                                "p99 <= 50 ms" if rungs else "no ladder")
    out["fail_share"] = (raw["failed"] / raw["attempted"] if raw["attempted"] else 1.0,
                         "ratio", f"{raw['failed']} of {raw['attempted']}")
    return out


def end_to_end(workload, raw, setup_cpu_s):
    """The BENCHMARK.json end_to_end metrics of one untraced run. Timings
    are CPU time, medians where per-call samples exist: cpu_* sums all
    threads (for serve, all but the generator), busiest_* takes the thread
    that used the most over all timed operations."""
    s = raw["series"]
    if workload.startswith("retrain_"):
        per_item = sum(s["train.step_cpu_ms"]) / raw["scalars"]["train.samples"]
        per_call = statistics.median(s["train.step_cpu_ms"])
        busiest = raw["scalars"]["train.busiest_ms"] / raw["scalars"]["train.samples"]
    elif workload == "infer_vgg19":
        big = raw["scalars"]["infer.big_batch"]
        per_item = statistics.median(s["infer.b64_cpu_ms"]) / big
        per_call = statistics.median(s["infer.b1_cpu_ms"])
        busiest = raw["scalars"]["infer.b64_busiest_ms"] / (big * len(s["infer.b64_cpu_ms"]))
    else:
        per_item = statistics.median(s["serve.burst_cpu_ms"])
        per_call = statistics.median(s["serve.lone_cpu_ms"])
        busiest = per_request(raw, "heavy", "busiest_ms")
    return {"setup_s": setup_cpu_s,
            "peak_rss_mb": raw["scalars"].get("serve.steady_peak_rss_mb",
                                              raw["peak_rss_mb"]),
            "cpu_per_item_ms": per_item,
            "cpu_per_call_ms": per_call,
            "busiest_cpu_per_item_ms": busiest}


def per_layer(workload, traced, untraced):
    """Per-layer metrics of a traced run, checked against its untraced twin."""
    layers = dict(traced["layers"])
    layers.update(traced["setup_ms"])
    if workload.startswith("retrain_"):
        layers["train.step_p50_ms"] = statistics.median(traced["series"]["train.step_span_ms"])
    if workload == "serve_lenet":
        light, heavy = serve_phase(traced, "light"), serve_phase(traced, "heavy")
        queue = [q / 1e3 for q in light["queue_us"]]
        exec_ms = [(t - q) / 1e3 for t, q in zip(heavy["total_us"], heavy["queue_us"])]
        layers["serve.queue_p50_ms"] = statistics.median(queue)
        layers["serve.queue_p99_ms"] = M.p99_if_supported(queue)
        layers["serve.exec_p50_ms"] = statistics.median(exec_ms)
        layers["serve.exec_p99_ms"] = M.p99_if_supported(exec_ms)
        layers["serve.mean_batch"] = heavy["batch_rows"] / max(1.0, heavy["batches"])
        late = lateness(traced)
        layers["loadgen.late_p99_ms"] = M.percentile(late, 99.0)
        layers["loadgen.late_max_ms"] = max(late)
    base = end_to_end(workload, untraced, 0.0)["cpu_per_item_ms"]
    with_trace = end_to_end(workload, traced, 0.0)["cpu_per_item_ms"]
    layers["trace.overhead_share"] = with_trace / base - 1.0
    return layers


def source_digest():
    """sha256 over the sources that decide what is measured: the library, the
    runner and the metric definitions (the checkout the benchmark runs in
    need not be a git repository)."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench/CMakeLists.txt", "perfbench/cpp",
                "perfbench/run.py", "perfbench/metrics.py"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def fingerprint(raw):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], check=True,
                                 capture_output=True, text=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    info = raw["info"]
    return {"cpu": cpu, "nproc": os.cpu_count(), "simd": info.get("simd"),
            "layout": info.get("layout"), "tiles": info.get("tiles"),
            "threads": raw["threads"], "pool_threads": POOL_THREADS[raw["workload"]],
            "build_type": info.get("build_type"), "amret_obs": info.get("amret_obs"),
            "git_sha": sha, "source_digest": source_digest()}


def fmt(value):
    return "n/a" if value is None else f"{value:.6g}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    for need in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt"),
                 "BENCHMARK.json"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            fail(f"{need} not found under {ROOT}; run from a full source checkout")
    try:
        bench = M.load_benchmark(os.path.join(ROOT, "BENCHMARK.json"))
    except (OSError, ValueError) as e:
        fail(str(e))
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    if args.seconds <= 0:
        fail("--seconds must be positive")

    exe = build()
    runs = [run_workload(exe, args.workload, args.seed, args.seconds, False)]
    if args.trace:
        runs.append(run_workload(exe, args.workload, args.seed, args.seconds, True))
    base = runs[0]
    setup_cpu = [base["setup_cpu_s"]]
    if not args.trace:
        setup_cpu += [run_workload(exe, args.workload, args.seed, args.seconds, False,
                                   setup_only=True)["setup_cpu_s"]
                      for _ in range(SETUPS - 1)]

    checks = [(c["name"], c["ok"], c["detail"]) for r in runs for c in r["checks"]]
    checks.append(("no_failed_operations", all(r["failed"] == 0 for r in runs),
                   f"{sum(r['failed'] for r in runs)} failed"))
    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("# fingerprint " + json.dumps(fingerprint(base), sort_keys=True))

    e2e = end_to_end(args.workload, base, statistics.median(setup_cpu))
    for name, (value, unit, note) in named_metrics(args.workload, base).items():
        print(f"#   {name} = {fmt(value)} {unit} ({note})")
    if args.trace:
        traced = runs[1]
        checks.append(("traced_digest_equals_untraced", traced["digest"] == base["digest"],
                       f"{traced['digest']} vs {base['digest']}"))
        values = per_layer(args.workload, traced, base)
        checks.append(("trace_dropped_zero", values.get("trace.dropped", 0) == 0,
                       f"{values.get('trace.dropped')} spans dropped"))
        for row in traced["rows"]:
            layer = row["layer"]
            print(f"#   {layer} {row['kind']:<9} {row['in']} -> {row['out']}  fwd "
                  f"{fmt(values.get(layer + '.fwd_ms'))} ms  bwd "
                  f"{fmt(values.get(layer + '.bwd_ms'))} ms  lookups "
                  f"{fmt(values.get(layer + '.fwd_lookups'))}")
        wanted = bench["per_layer"]
    else:
        values = e2e
        wanted = bench["end_to_end"]

    out = {}
    for m in wanted:
        v = values.get(m["name"])
        # A layer the workload does not run did no work: 0, as measured.
        v = 0.0 if v is None else float(v)
        out[m["name"]] = {"value": v, "unit": m["unit"]}
        print(f"# {m['name']} = {fmt(v)} {m['unit']}")
    for name, ok, detail in checks:
        if not ok:
            print(f"# CHECK FAILED {name}: {detail}")
    correct = all(ok for _, ok, _ in checks)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in runs),
                      "failed": sum(r["failed"] for r in runs),
                      "metrics": out}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
