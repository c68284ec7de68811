"""Self-test of the benchmark's own machinery.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  Checks the self-time arithmetic
on a synthetic span set, that the recorder rebinds every binding of a
listed function, that traced reports are byte-identical to untraced ones
on small versions of every workload's subcommands, and that
BENCHMARK.json names the metrics and workloads the runner emits.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run
from spans import LAYERS, Recorder, self_times

# Small versions of every subcommand the workloads run.
SMALL = [
    ["hadamard-sweep", "--count", "4", "--betas", "1.0,2.0"],
    ["exp-sweep", "--count", "4", "--alphas", "0.5"],
    ["cmp-random", "--count", "3", "--trials", "200"],
    ["converge-disk", "--levels", "3"],
    ["killed-green", "--domain", run.DISK, "--n", "162"],
    ["converge-free", "--levels", "2"],
    ["riesz-mc", "--trials", "3000", "--horizon", "4"],
    ["exit-mc", "--domain", run.DISK, "--n", "162", "--trials", "300"],
]


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        spans = [
            (0, 0.0, 10.0, -1),   # 0: root
            (1, 1.0, 3.0, 0),     # 1: child
            (1, 2.0, 5.0, 0),     # 2: child overlapping 1, merged with it
            (2, 7.0, 8.0, 0),     # 3: child with a child of its own
            (3, 7.2, 7.5, 3),     # 4: grandchild, not subtracted from the root
            (2, 9.0, 12.0, 0),    # 5: child running past its parent, clipped
            (0, 20.0, 21.0, -1),  # 6: second root, no children
        ]
        expected = [10.0 - 4.0 - 1.0 - 1.0, 2.0, 3.0, 1.0 - 0.3, 0.3, 3.0, 1.0]
        for got, want in zip(self_times(spans), expected, strict=True):
            self.assertAlmostEqual(got, want, places=12)

    def test_self_times_sum_to_root_duration(self):
        spans = [(0, 0.0, 6.0, -1), (1, 1.0, 4.0, 0), (2, 2.0, 3.0, 1), (1, 4.5, 5.0, 0)]
        self.assertAlmostEqual(sum(self_times(spans)), 6.0, places=12)


class RecorderTest(unittest.TestCase):
    def test_every_binding_rebound(self):
        sys.path.insert(0, str(run.SRC))
        try:
            import greenpot.cli  # noqa: F401
        finally:
            sys.path.remove(str(run.SRC))
        modules = {n: m for n, m in sys.modules.items()
                   if n == "greenpot" or n.startswith("greenpot.")}
        originals = set()
        for name in LAYERS:
            module, attr = name.split(".")
            originals.add(id(getattr(modules[f"greenpot.{module}"], attr)))
        before = sum(id(v) in originals for m in modules.values() for v in vars(m).values())
        recorder = Recorder()
        replaced = recorder.install()
        self.assertEqual(replaced, before)
        for m in modules.values():
            for attr, value in vars(m).items():
                self.assertNotIn(id(value), originals, f"{m.__name__}.{attr} bypasses its span")
        # the bindings made by `from .lattice import ...` go through the span too
        for module in ("cli", "operators", "potential"):
            self.assertIs(getattr(modules[f"greenpot.{module}"], "killed_green_matrix"),
                          getattr(modules["greenpot.lattice"], "killed_green_matrix"))
        self.assertIs(modules["greenpot.operators"].whole_space_green,
                      modules["greenpot.lattice"].whole_space_green)
        greenpot = modules["greenpot"]
        greenpot.potential.random_potential(3, (2, 6), 7)
        dump = recorder.dump()
        calls = [dump["names"][s[0]] for s in dump["spans"]]
        self.assertEqual(calls, ["potential.random_potential", "lattice.killed_green_matrix"])
        self.assertEqual(dump["spans"][1][3], 0)
        self.assertEqual(dump["counters"]["potential.random_potential"]["unique"], 1)


class TracedReportsTest(unittest.TestCase):
    def test_traced_reports_match_untraced(self):
        with tempfile.TemporaryDirectory(dir=run.HERE) as tmp:
            work = Path(tmp)
            for k, argv in enumerate(SMALL):
                plain = run.invoke(work, f"u{k}", argv, 3, trace=False)
                traced = run.invoke(work, f"t{k}", argv, 3, trace=True)
                with self.subTest(subcommand=argv[0]):
                    self.assertIsNone(plain["error"])
                    self.assertIsNone(traced["error"])
                    self.assertTrue(plain["report"])
                    self.assertEqual(plain["report"], traced["report"])
                    self.assertNotIn("trace", plain["stats"])
                    self.assertTrue(traced["stats"]["trace"]["spans"])


class BenchmarkFileTest(unittest.TestCase):
    def test_metric_names_match(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         [row[:3] for row in run.PER_LAYER])
        self.assertEqual({m["name"] for m in spec["end_to_end"]},
                         {"wall_s", "setup_s", "peak_rss_mb"})


if __name__ == "__main__":
    os.chdir(run.ROOT)
    unittest.main()
