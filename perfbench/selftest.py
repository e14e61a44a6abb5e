#!/usr/bin/env python3
"""Self-tests of the benchmark itself (not part of the simulator's suite).

    python3 perfbench/selftest.py

Checks that inputs follow only from the seed, that a seed other than the
one used to record the reference still passes every output check, that
the traced run's per-owner event counts add up to the untraced count,
that BENCHMARK.json lists exactly the metrics run.py prints, and that the
benchmark refuses to run without the simulator's sources.
"""

import json
import shutil
import struct
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import speed  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

WORK = HERE / "_work" / "selftest"
OWNERS = ("pci", "selectmap", "kernels", "other")


class BenchmarkSelfTest(unittest.TestCase):
    def tearDown(self) -> None:
        shutil.rmtree(WORK, ignore_errors=True)

    def test_same_seed_same_inputs(self):
        for cls in workloads.WORKLOADS.values():
            with self.subTest(workload=cls.name):
                a, b = cls(7, WORK).inputs(), cls(7, WORK).inputs()
                self.assertEqual(a, b)
                self.assertNotEqual(a, cls(8, WORK).inputs())

    def test_other_seed_passes_every_check(self):
        for cls in workloads.WORKLOADS.values():
            with self.subTest(workload=cls.name):
                record = worker._one_rep(cls, 90210, WORK)
                self.assertEqual(record["errors"], [])
                self.assertEqual(record["failed"], 0)
                self.assertEqual(len(record["jobs"]), cls.JOBS)

    def test_event_shares_add_up_to_events(self):
        cls = workloads.WORKLOADS["scenario_mix"]
        plain = worker._one_rep(cls, 3, WORK)
        tracer = Tracer()
        tracer.install()
        traced = worker._one_rep(cls, 3, WORK, tracer)
        shares = [traced["per_layer"][f"sim.events.{o}"] for o in OWNERS]
        self.assertEqual(sum(shares), plain["events"])
        self.assertEqual(traced["events"], plain["events"])
        self.assertEqual(traced["errors"], [])
        # every per-layer metric run.py prints, apart from the run-level bench.* ones
        self.assertEqual(set(traced["per_layer"]),
                         {n for n, _u, _w in run.PER_LAYER if not n.startswith("bench.")})
        # uninstall restored the program: a later rep is untraced again
        self.assertEqual(workloads.World.run_until_cause.__module__, "proteus_sim.board")

    def test_speed_probe_scales_each_piece_by_its_calibration(self):
        probe = speed.SpeedProbe()
        ref = speed.REF_S
        # Windows at [1, 1+ref) and [2, 2+2ref): the machine halves its speed.
        probe.starts, probe.ends = [1.0, 2.0], [1.0 + ref, 2.0 + 2 * ref]
        raw, norm = probe.seconds(0.5, 3.0)
        self.assertAlmostEqual(raw, 2.5 - 3 * ref)
        pieces = [(0.5, 1.0), (1.0 - ref, 1 / 1.5), (1.0 - 2 * ref, 1 / 2)]   # (length, scale)
        self.assertAlmostEqual(norm, sum(n * s for n, s in pieces))
        # An interval between two windows takes the mean of both.
        self.assertAlmostEqual(probe.seconds(1.5, 1.6)[1], 0.1 / 1.5)

    def test_fir4_oracle(self):
        words = [0xFFFFFFFF, 1, 2, 3, 4]
        data = struct.pack("<5I", *words)
        want = [sum(words[max(0, i - 3):i + 1]) & 0xFFFFFFFF for i in range(5)]
        self.assertEqual(workloads.fir4_oracle(data), struct.pack("<5I", *want))

    def test_benchmark_json_lists_the_printed_metrics(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         [(name, unit) for name, unit, _why in run.PER_LAYER])

    def test_refuses_to_run_without_sources(self):
        bare = WORK / "bare"
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("_work", "out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "stream_1mb",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
