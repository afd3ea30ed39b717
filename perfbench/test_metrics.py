"""Tests of the benchmark's own logic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import metrics as M  # noqa: E402
import run  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(M.percentile(values, 50), 50)
        self.assertEqual(M.percentile(values, 99), 99)
        self.assertEqual(M.percentile(values, 100), 100)
        self.assertEqual(M.percentile([7.0], 99), 7.0)
        self.assertEqual(M.percentile([3, 1, 2], 50), 2)  # order-free

    def test_samples_beyond(self):
        self.assertEqual(M.samples_beyond(1000, 99.0), 10)
        self.assertEqual(M.samples_beyond(999, 99.0), 9)
        self.assertEqual(M.samples_beyond(10000, 99.9), 10)

    def test_highest_percentile_with_ten_beyond(self):
        self.assertEqual(M.tail_percentile(10000), 99.9)
        self.assertEqual(M.tail_percentile(1000), 99.0)
        self.assertEqual(M.tail_percentile(990), 98.0)
        self.assertEqual(M.tail_percentile(500), 98.0)
        self.assertEqual(M.tail_percentile(100), 90.0)
        self.assertEqual(M.tail_percentile(40), 75.0)
        self.assertEqual(M.tail_percentile(20), 50.0)
        self.assertIsNone(M.tail_percentile(19))
        for n in (20, 57, 333, 1000, 4321):
            p = M.tail_percentile(n)
            self.assertGreaterEqual(M.samples_beyond(n, p), M.MIN_BEYOND)

    def test_summary_states_count_and_percentile(self):
        s = M.summarize([float(i) for i in range(200)])
        self.assertEqual(s["n"], 200)
        self.assertEqual(s["tail_pct"], 95.0)
        self.assertEqual(s["tail"], 189.0)
        self.assertEqual(M.summarize([1.0] * 5)["tail"], None)

    def test_p99_only_with_ten_beyond(self):
        self.assertIsNone(M.p99_if_supported(list(range(999 - 10))))
        self.assertEqual(M.p99_if_supported(list(range(1, 1001))), 990)

    def test_iqr_share(self):
        self.assertAlmostEqual(M.iqr_share([10.0] * 10), 0.0)
        values = [9, 10, 10, 10, 10, 10, 10, 10, 10, 11]
        self.assertAlmostEqual(M.iqr_share(values), 0.0)
        self.assertGreater(M.iqr_share([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]), 0.5)
        self.assertIsNone(M.iqr_share([0.0] * 10))


class Names(unittest.TestCase):
    def test_charset(self):
        for good in ("setup_s", "approx.L00.fwd_ms", "kernels.simd.grad_x_blocks",
                     "serve.queue_p99_ms", "9lives", "a-b"):
            self.assertTrue(M.valid_name(good), good)
        for bad in ("", "_lead", ".lead", "has space", "slash/name", "unié",
                    "x" * 65, "colon:name", None):
            self.assertFalse(M.valid_name(bad), bad)

    def test_benchmark_names_are_valid_and_unique(self):
        doc = M.load_benchmark(os.path.join(ROOT, "BENCHMARK.json"))
        names = [m["name"] for section in ("workloads", "end_to_end", "per_layer")
                 for m in doc[section]]
        self.assertEqual(len(names), len(set(names)))
        self.assertTrue(all(M.valid_name(n) for n in names))


class BenchmarkFile(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            self.text = f.read()
        self.doc = json.loads(self.text)

    def test_round_trip(self):
        self.assertEqual(M.validate_benchmark(self.doc), [])
        self.assertEqual(M.dump_benchmark(self.doc), self.text)
        self.assertEqual(json.loads(M.dump_benchmark(self.doc)), self.doc)

    def test_command_and_paths_stay_inside(self):
        self.assertEqual(self.doc["command"][0], "python3")
        for arg in self.doc["command"][1:]:
            self.assertTrue(any(arg.startswith(p + "/") for p in self.doc["paths"]), arg)

    def test_rejects_broken_documents(self):
        def broken(mutate):
            doc = json.loads(self.text)
            mutate(doc)
            return M.validate_benchmark(doc)

        self.assertTrue(broken(lambda d: d.pop("per_layer")))
        self.assertTrue(broken(lambda d: d["end_to_end"][1].update(bound=0.5)))
        self.assertTrue(broken(lambda d: d["end_to_end"].pop(0)))  # no setup_s
        self.assertTrue(broken(lambda d: d["end_to_end"][0].update(bound=0.01)))
        self.assertTrue(broken(lambda d: d["per_layer"].append(d["per_layer"][0])))
        self.assertTrue(broken(lambda d: d["workloads"][0].update(why="two\nlines")))
        self.assertTrue(broken(lambda d: d.update(run_seconds=61)))
        self.assertTrue(broken(lambda d: d.update(command=["python3", "../x.py"])))
        self.assertTrue(broken(lambda d: d.update(paths=["/abs"])))
        self.assertTrue(broken(lambda d: d["per_layer"][0].update(unit="no spaces")))

    def test_every_workload_has_a_thread_count(self):
        names = {w["name"] for w in self.doc["workloads"]}
        self.assertEqual(names, set(run.POOL_THREADS))


def synthetic_phase(due, sent, total, rate, seconds, ok=None):
    return {"due_us": due, "sent_us": sent, "total_us": total,
            "ok": ok if ok is not None else [1.0] * len(due), "rate": rate,
            "seconds": seconds}


class DueTimeLatency(unittest.TestCase):
    def test_latency_counts_from_due_time(self):
        due = [0, 1000, 2000, 3000]
        sent = [0, 1500, 2000, 3100]      # the generator ran late twice
        total = [500, 500, 3000, 200]     # server-side submit -> completion
        self.assertEqual(M.due_latencies_ms(due, sent, total), [0.5, 1.0, 3.0, 0.3])
        self.assertEqual(M.lateness_ms(due, sent), [0.0, 0.5, 0.0, 0.1])

    def test_stall_delays_every_later_request(self):
        # Requests due every 1 ms; the generator stalls 10 ms before the
        # second and then catches up. The server answers each in 0.2 ms.
        due = [i * 1000 for i in range(12)]
        sent = [0] + [max(d, 11000) for d in due[1:]]
        total = [200] * 12
        lat = M.due_latencies_ms(due, sent, total)
        self.assertEqual(lat[0], 0.2)
        self.assertEqual(lat[1], 10.2)   # waited the whole stall
        self.assertEqual(lat[10], 1.2)
        self.assertEqual(lat[11], 0.2)   # due after the stall: on time

    def test_backlog(self):
        due = [0, 100, 200]
        sent = [0, 100, 200]
        total = [1000, 1000, 10]
        self.assertEqual(M.backlog_at(150, due, sent, total), 2)
        self.assertEqual(M.backlog_at(250, due, sent, total), 2)
        self.assertEqual(M.backlog_at(1100, due, sent, total), 0)

    def test_rung_rules(self):
        n = 1000
        due = [i * 1000 for i in range(n)]          # 1000 req/s for 1 s
        quick = synthetic_phase(due, list(due), [2000] * n, 1000.0, 1.0)
        self.assertTrue(M.rung_passes(quick))
        slow = synthetic_phase(due, list(due), [60000] * n, 1000.0, 1.0)
        self.assertFalse(M.rung_passes(slow))       # p99 above 50 ms
        failed = synthetic_phase(due, list(due), [2000] * n, 1000.0, 1.0,
                                 ok=[1.0] * (n - 1) + [0.0])
        self.assertFalse(M.rung_passes(failed))     # a failure misses the limit
        # Service time grows with queue position: the backlog at the end of
        # the rung is far above its midpoint value.
        growing = synthetic_phase(due, list(due), [40 * i for i in range(n)], 1000.0, 1.0)
        self.assertFalse(M.rung_passes(growing, limit_ms=1e9))

    def test_max_sustained_rate(self):
        def rung(rate, total_us):
            n = int(rate * 0.5)
            due = [int(i * 1e6 / rate) for i in range(n)]
            return synthetic_phase(due, list(due), [total_us] * n, rate, 0.5)

        rungs = [rung(1000, 2000), rung(2000, 3000), rung(4000, 80000)]
        self.assertEqual(M.max_sustained_rate(rungs), 2000.0)
        self.assertEqual(M.max_sustained_rate(rungs[2:]), 0.0)


class EndToEnd(unittest.TestCase):
    names = {m["name"] for m in M.load_benchmark(
        os.path.join(ROOT, "BENCHMARK.json"))["end_to_end"]}

    def test_retrain_metrics_use_cpu_time(self):
        raw = {"peak_rss_mb": 100.0,
               "series": {"train.step_cpu_ms": [100.0, 300.0, 200.0],
                          "train.step_ms": [50.0, 60.0, 70.0]},
               "scalars": {"train.samples": 96.0, "train.timed_s": 0.18,
                           "train.busiest_ms": 192.0}}
        e2e = run.end_to_end("retrain_vgg19", raw, 2.0)
        self.assertEqual(e2e["setup_s"], 2.0)
        self.assertEqual(e2e["cpu_per_item_ms"], 600.0 / 96.0)
        self.assertEqual(e2e["cpu_per_call_ms"], 200.0)
        self.assertEqual(e2e["busiest_cpu_per_item_ms"], 2.0)
        self.assertEqual(set(e2e), self.names)

    def test_serve_busiest_is_per_heavy_request(self):
        raw = {"peak_rss_mb": 30.0,
               "series": {"serve.burst_cpu_ms": [0.2, 0.4, 0.3],
                          "serve.lone_cpu_ms": [0.5, 0.7, 0.6],
                          "serve.heavy.ok": [1.0] * 10},
               "scalars": {"serve.heavy.busiest_ms": 3.0,
                           "serve.steady_peak_rss_mb": 20.0}}
        e2e = run.end_to_end("serve_lenet", raw, 0.1)
        self.assertEqual(e2e["cpu_per_item_ms"], 0.3)
        self.assertEqual(e2e["cpu_per_call_ms"], 0.6)
        self.assertEqual(e2e["busiest_cpu_per_item_ms"], 0.3)
        self.assertEqual(e2e["peak_rss_mb"], 20.0)
        self.assertEqual(set(e2e), self.names)


if __name__ == "__main__":
    unittest.main()
