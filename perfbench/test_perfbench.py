"""Self-tests of the benchmark's own code.

    python3 -m pytest perfbench
"""
from __future__ import annotations

import json
import sys
import time
import unittest
from pathlib import Path

import run
from run import ROOT
from spans import Tracer, install

SMALL_INPUTS = (
    (
        "decompose",
        "product(semidirect(field(5,2), cyclic(2), scalar(2)), "
        "semidirect(field(2,4), cyclic(5), scalar(5)))",
        "--json",
    ),
    ("search", "--max-order", "100000"),
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TracerTest(unittest.TestCase):
    def test_self_time_is_total_minus_children(self):
        clock = FakeClock()
        tracer = Tracer("toy", clock)

        def leaf():
            clock.now += 2.0

        def outer():
            clock.now += 1.0
            traced_leaf()
            clock.now += 3.0
            traced_leaf()

        traced_leaf = tracer.wrap("toy.leaf", leaf)
        tracer.wrap("toy.outer", outer)()
        summary = tracer.summary()
        self.assertEqual(summary["toy.outer"], {"calls": 1, "self_s": 4.0, "total_s": 8.0})
        self.assertEqual(summary["toy.leaf"], {"calls": 2, "self_s": 4.0, "total_s": 4.0})
        outer_span = tracer.spans[0]
        self.assertEqual(outer_span[:4], ("toy.outer", 0.0, 8.0, -1))
        self.assertTrue(all(s[3] == 0 for s in tracer.spans[1:]))

    def test_recursive_span_counts_total_once(self):
        clock = FakeClock()
        tracer = Tracer("toy", clock)

        def countdown(n):
            clock.now += 1.0
            if n:
                traced(n - 1)

        traced = tracer.wrap("toy.countdown", countdown)
        traced(2)
        self.assertEqual(
            tracer.summary()["toy.countdown"], {"calls": 3, "self_s": 3.0, "total_s": 3.0}
        )

    def test_install_replaces_every_imported_name(self):
        sys.path.insert(0, str(ROOT / "src"))
        try:
            import agroups.classify
            import agroups.cli
            import agroups.groups
        finally:
            sys.path.remove(str(ROOT / "src"))
        group_class = agroups.groups.FiniteGroup
        original = agroups.classify.structure_report
        compose = group_class.__dict__["compose"]
        restore = install(Tracer("toy"))
        try:
            wrapped = agroups.classify.structure_report
            self.assertIsNot(wrapped, original)
            self.assertIs(agroups.cli.structure_report, wrapped)
            self.assertIs(agroups.structure_report, wrapped)
            self.assertTrue(hasattr(group_class.__dict__["closure"], "__wrapped__"))
            self.assertIs(group_class.__dict__["compose"], compose)
        finally:
            restore()
        self.assertIs(agroups.cli.structure_report, original)
        self.assertFalse(hasattr(group_class.__dict__["closure"], "__wrapped__"))


class ChildProcessTest(unittest.TestCase):
    def setUp(self):
        run.OUT_DIR.mkdir(exist_ok=True)
        self.env = run.child_env()

    def test_traced_stdout_is_identical(self):
        for argv in SMALL_INPUTS:
            plain, plain_out = run.run_child(
                [sys.executable, "-m", "agroups", *argv], self.env, 120
            )
            base = run.OUT_DIR / "selftest"
            traced, traced_out = run.run_child(
                [sys.executable, str(run.HERE / "child.py"), "trace", "7", str(base), *argv],
                self.env,
                120,
            )
            self.assertEqual(plain.exit_code, 0)
            self.assertEqual(traced.exit_code, 0, traced.stderr_tail)
            self.assertTrue(plain_out)
            self.assertEqual(plain_out, traced_out)
            summary = json.loads(Path(f"{base}.summary.json").read_text())
            self.assertGreater(summary["spans"], 1)

    def test_peak_rss_is_per_child(self):
        big = "b = bytearray(200 * 1024 * 1024); b[::4096] = b'x' * len(b[::4096])"
        first, _ = run.run_child([sys.executable, "-c", big], self.env, 60)
        second, _ = run.run_child([sys.executable, "-c", "pass"], self.env, 60)
        self.assertGreater(first.peak_rss_mb, 200)
        self.assertLess(second.peak_rss_mb, 100)

    def test_reference_pauses_leave_wall_time(self):
        spin = "import time\nwhile time.process_time() < 1.0: pass"
        original = run.reference_loop

        def slow_reference() -> float:
            time.sleep(0.3)
            return 0.3

        run.reference_loop = slow_reference
        try:
            reference = []
            start = time.perf_counter()
            inv, _ = run.run_child([sys.executable, "-c", spin], self.env, 60, reference)
            outside = time.perf_counter() - start
        finally:
            run.reference_loop = original
        self.assertEqual(inv.exit_code, 0)
        self.assertGreaterEqual(len(reference), 2)
        self.assertGreater(outside - inv.wall_s, 0.3 * len(reference) - 0.05)
        self.assertLess(abs(inv.wall_s - inv.cpu_s), 0.4)

    def test_timeout_kills_child(self):
        inv, _ = run.run_child([sys.executable, "-c", "while True: pass"], self.env, 0.5)
        self.assertIsNone(inv.exit_code)
        self.assertLess(inv.wall_s, 30)


class BenchmarkFileTest(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
