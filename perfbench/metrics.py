"""Statistics and file formats of the perfbench benchmark.

Pure functions only, so perfbench/test_metrics.py can check every rule the
benchmark applies: the percentile rule, metric names, the BENCHMARK.json
format, due-time latency of open-loop requests and the serve ladder knee.
"""

import json
import math
import re
import statistics

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH_RE = re.compile(r"^[A-Za-z0-9_.\-/]{1,200}$")

# Candidate tail percentiles, highest first. A timing reports the highest
# one that leaves at least MIN_BEYOND samples above it.
TAIL_PERCENTILES = (99.9, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)
MIN_BEYOND = 10


def _rank(n, p):
    # The tolerance keeps binary rounding (99.9 / 100 * 10000 = 9990.000...2)
    # from moving the rank up by one.
    return max(1, math.ceil(p * n / 100.0 - 1e-9))


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[_rank(len(ordered), p) - 1]


def samples_beyond(n, p):
    """Samples strictly above the nearest-rank p-th percentile of n."""
    return n - _rank(n, p)


def tail_percentile(n):
    """Highest candidate percentile with at least MIN_BEYOND of n samples
    beyond it, or None when even the median has fewer."""
    for p in TAIL_PERCENTILES:
        if samples_beyond(n, p) >= MIN_BEYOND:
            return p
    return None


def summarize(values):
    """Median and tail of one timing, with the sample count stated."""
    n = len(values)
    out = {"n": n, "p50": statistics.median(values) if values else None}
    p = tail_percentile(n)
    out["tail_pct"] = p
    out["tail"] = percentile(values, p) if p is not None else None
    return out


def p99_if_supported(values):
    """p99 when at least MIN_BEYOND samples lie beyond it, else None."""
    if samples_beyond(len(values), 99.0) < MIN_BEYOND:
        return None
    return percentile(values, 99.0)


def valid_name(name):
    return isinstance(name, str) and bool(NAME_RE.match(name))


def due_latencies_ms(due_us, sent_us, total_us):
    """Open-loop latency of each request, counted from when it was due.

    sent_us - due_us is how late the generator submitted it; total_us is the
    server's submit-to-completion time. A generator stall therefore counts
    against every request it delayed.
    """
    return [(s - d + t) / 1000.0 for d, s, t in zip(due_us, sent_us, total_us)]


def lateness_ms(due_us, sent_us):
    return [(s - d) / 1000.0 for d, s in zip(due_us, sent_us)]


def backlog_at(t_us, due_us, sent_us, total_us):
    """Requests due by t_us that had not completed by t_us."""
    return sum(1 for d, s, t in zip(due_us, sent_us, total_us)
               if d <= t_us < s + t)


def rung_passes(phase, limit_ms=50.0):
    """Whether one ladder rung met the service limit.

    phase holds due_us/sent_us/total_us/ok lists, rate and seconds. A rung
    passes when every request completed ok (a failure misses every limit),
    the p99 latency from due time is within limit_ms, and the backlog did
    not grow: at the end of the rung it holds at most 10 ms of arrivals more
    than at its midpoint.
    """
    due, sent, total = phase["due_us"], phase["sent_us"], phase["total_us"]
    if not due or not all(phase["ok"]):
        return False
    lat = due_latencies_ms(due, sent, total)
    if percentile(lat, 99.0) > limit_ms:
        return False
    end_us = phase["seconds"] * 1e6
    growth = backlog_at(end_us, due, sent, total) - backlog_at(end_us / 2, due, sent, total)
    return growth <= phase["rate"] * 0.010


def max_sustained_rate(rungs, limit_ms=50.0):
    """Highest achieved arrival rate (requests per second of schedule) over
    the passing ladder rungs; 0 when none passes."""
    best = 0.0
    for rung in rungs:
        if rung_passes(rung, limit_ms):
            best = max(best, len(rung["due_us"]) / rung["seconds"])
    return best


def iqr_share(values):
    """Distance between the first and third quartile as a share of the
    median, as statistics.quantiles(values, n=4) gives the quartiles; None
    when the median is 0."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else None


def validate_benchmark(doc):
    """Problems with a BENCHMARK.json document (empty list when valid)."""
    errors = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if not isinstance(doc, dict) or set(doc) != keys:
        return ["top-level keys must be exactly " + ", ".join(sorted(keys))]
    cmd = doc["command"]
    if not (isinstance(cmd, list) and 1 <= len(cmd) <= 32
            and all(isinstance(c, str) and 0 < len(c) <= 200 for c in cmd)):
        errors.append("command: 1..32 strings of at most 200 characters")
    else:
        for c in cmd:
            if c.startswith("/") or ".." in c.split("/"):
                errors.append("command: no absolute or parent paths: " + c)
    paths = doc["paths"]
    if not (isinstance(paths, list) and 1 <= len(paths) <= 16
            and all(isinstance(p, str) and PATH_RE.match(p) and not p.startswith("/")
                    and ".." not in p.split("/") for p in paths)):
        errors.append("paths: 1..16 relative paths of [A-Za-z0-9_.-/]")
    rs = doc["run_seconds"]
    if not (isinstance(rs, int) and not isinstance(rs, bool) and 1 <= rs <= 60):
        errors.append("run_seconds: a whole number from 1 to 60")
    seen = set()

    def check_names(section, lo, hi, fields):
        items = doc[section]
        if not (isinstance(items, list) and lo <= len(items) <= hi):
            errors.append(f"{section}: {lo}..{hi} entries")
            return
        for item in items:
            if not isinstance(item, dict) or set(item) != set(fields):
                errors.append(f"{section}: entries have exactly {', '.join(fields)}")
                continue
            name = item["name"]
            if not valid_name(name):
                errors.append(f"{section}: bad name {name!r}")
            elif name in seen:
                errors.append(f"{section}: duplicate name {name!r}")
            seen.add(name)
            if "why" in item and not (isinstance(item["why"], str)
                                      and 0 < len(item["why"]) <= 200
                                      and "\n" not in item["why"]):
                errors.append(f"{section}: {name}: why is one line of <= 200 chars")
            if "unit" in item and not (isinstance(item["unit"], str)
                                       and UNIT_RE.match(item["unit"])):
                errors.append(f"{section}: {name}: bad unit {item['unit']!r}")
            if "better" in item and item["better"] not in ("higher", "lower"):
                errors.append(f"{section}: {name}: better is higher or lower")
            if "bound" in item and not (isinstance(item["bound"], (int, float))
                                        and 0 < item["bound"] <= 0.25):
                errors.append(f"{section}: {name}: bound in (0, 0.25]")

    check_names("workloads", 2, 8, ("name", "why"))
    check_names("end_to_end", 1, 16, ("name", "unit", "better", "bound"))
    check_names("per_layer", 1, 128, ("name", "unit", "better"))
    e2e = {m.get("name") for m in doc["end_to_end"] if isinstance(m, dict)}
    setup = [m for m in doc["end_to_end"] if isinstance(m, dict) and m.get("name") == "setup_s"]
    if not setup or setup[0].get("unit") != "s" or setup[0].get("better") != "lower":
        errors.append("end_to_end: setup_s with unit s and better lower is required")
    if "setup_s" in e2e and setup:
        others = [m["bound"] for m in doc["end_to_end"]
                  if isinstance(m, dict) and m.get("name") != "setup_s" and "bound" in m]
        if others and setup[0].get("bound", 0) < max(others):
            errors.append("end_to_end: setup_s must have the largest bound")
    return errors


def load_benchmark(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    errors = validate_benchmark(doc)
    if errors:
        raise ValueError(f"{path}: " + "; ".join(errors))
    return doc


def dump_benchmark(doc):
    """Canonical text of a BENCHMARK.json document (validated first)."""
    errors = validate_benchmark(doc)
    if errors:
        raise ValueError("; ".join(errors))
    text = json.dumps(doc, indent=2) + "\n"
    if len(text.encode("utf-8")) > 64 * 1024:
        raise ValueError("BENCHMARK.json exceeds 64 KiB")
    return text
