#!/usr/bin/env python3
"""Tests of the benchmark itself: its arithmetic on synthetic stamps, and
the sim/TCP digest contract on a few steps of every workload.

    python3 perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchlib  # noqa: E402
import run  # noqa: E402

Span = benchlib.Span


class PercentileTest(unittest.TestCase):
    def test_p95_needs_ten_steps_beyond_it(self):
        self.assertEqual(benchlib.percentile(list(range(200)), 0.95), 189)
        self.assertIsNone(benchlib.percentile(list(range(199)), 0.95))
        self.assertIsNone(benchlib.percentile([5.0] * 20, 0.95))

    def test_median_has_its_tail(self):
        self.assertEqual(benchlib.percentile([3, 1, 2] * 7, 0.5), 2)
        self.assertIsNone(benchlib.percentile([], 0.5))


class FastestPartTest(unittest.TestCase):
    def test_fastest_part_counts_its_gaps(self):
        # 10 steps; steps 2-3 take 0.1 s each, the others 0.2 s, and a
        # 0.5 s stall follows step 9.
        begins = [0, 2, 4, 5, 6, 8, 10, 12, 14, 16]
        begins = [int(b * 1e8) for b in begins]
        self.assertEqual(
            benchlib.fastest_part(begins, int(23e8), parts=5), (2, 4, 10.0))
        first, last, pace = benchlib.fastest_part(begins, int(23e8), parts=1)
        self.assertEqual((first, last), (0, 10))
        self.assertAlmostEqual(pace, 10 / 2.3)
        # The stall counts against the part it falls in.
        self.assertAlmostEqual(
            benchlib.fastest_part(begins, int(23e8), parts=2)[2], 5 / 0.8)


class SelfTimeTest(unittest.TestCase):
    def test_covered_merges_overlaps_and_clips(self):
        self.assertEqual(benchlib.covered(0, 100, [(10, 20), (15, 30)]), 20)
        self.assertEqual(benchlib.covered(0, 100, [(-5, 10), (90, 120)]), 20)
        self.assertEqual(benchlib.covered(0, 100, [(40, 40), (50, 45)]), 0)

    def test_self_time_subtracts_children(self):
        parent = Span("nn.forward", 0, -1, 100, 200, 0)
        kids = [Span("comm.broadcast", 0, 0, 110, 130, 4),
                Span("comm.broadcast", 0, 0, 125, 140, 4)]
        self.assertEqual(benchlib.self_time(parent, kids), 70)
        self.assertEqual(benchlib.self_time(parent, []), 100)


class WaitWireTest(unittest.TestCase):
    def test_split_at_last_rank_entering(self):
        rank0 = [Span("comm.all_reduce", 0, 3, 100, 200, 8),
                 Span("comm.all_reduce", 0, 3, 300, 340, 8)]
        rank1 = [Span("comm.all_reduce", 0, 3, 150, 201, 8),
                 Span("comm.all_reduce", 0, 3, 290, 341, 8)]
        self.assertEqual(benchlib.wait_wire([rank0, rank1], 0),
                         [(50, 50), (0, 40)])
        self.assertEqual(benchlib.wait_wire([rank0, rank1], 1),
                         [(0, 51), (10, 41)])

    def test_single_rank_waits_only_on_itself(self):
        calls = [Span("comm.all_reduce", 0, 3, 10, 30, 8)]
        self.assertEqual(benchlib.wait_wire([calls], 0), [(0, 20)])

    def test_mismatched_sequences_are_refused(self):
        one = [Span("comm.all_reduce", 0, 3, 1, 2, 8)]
        with self.assertRaises(ValueError):
            benchlib.wait_wire([one, one + one], 0)


class StepLayersTest(unittest.TestCase):
    def test_breakdown_of_one_step(self):
        spans = [
            Span("comm.broadcast", -1, -1, 0, 5, 4),  # set-up: ignored
            Span("step", 0, -1, 1000, 2000, 0),
            Span("data.batch", 0, 1, 1000, 1050, 0),
            Span("nn.forward", 0, 1, 1050, 1300, 0),
            Span("comm.broadcast", 0, 3, 1100, 1150, 16),
            Span("autograd.backward", 0, 1, 1300, 1800, 0),
            Span("comm.all_reduce", 0, 5, 1400, 1500, 400),
            Span("comm.all_reduce", 0, 5, 1600, 1700, 200),
            Span("optim.step", 0, 1, 1800, 1990, 0),
        ]
        calls = benchlib.timed_calls(spans)
        self.assertEqual(len(calls), 3)
        splits = [(1, 49), (10, 90), (0, 100)]
        [row] = benchlib.step_layers(spans, [2000], [30], [20], [2], splits)
        self.assertEqual(row["data.batch"], 50)
        self.assertEqual(row["nn.forward"], 200)
        self.assertEqual(row["autograd.backward"], 500)
        self.assertEqual(row["autograd.compute"], 500 - 200 - 30 - 20)
        self.assertEqual(row["comm.calls"], 3)
        self.assertEqual(row["comm.bytes"], 616)
        self.assertEqual(row["comm.call"], 250)
        self.assertEqual(row["comm.wait"], 11)
        self.assertEqual(row["comm.wire"], 239)
        self.assertEqual(row["core.buckets"], 2)
        self.assertEqual(row["optim.step"], 190)
        self.assertAlmostEqual(row["accounted_frac"], 990 / 2000)

    def test_missing_layer_is_an_error(self):
        spans = [Span("step", 0, -1, 0, 10, 0),
                 Span("data.batch", 0, 0, 0, 1, 0)]
        with self.assertRaises(ValueError):
            benchlib.step_layers(spans, [10], [0], [0], [0], [])


class CorrectnessTest(unittest.TestCase):
    def test_digest_comparison(self):
        self.assertTrue(benchlib.digests_agree(["ab12", "ab12"]))
        self.assertFalse(benchlib.digests_agree(["ab12", "ab13"]))
        self.assertFalse(benchlib.digests_agree(["", ""]))
        self.assertFalse(benchlib.digests_agree([]))

    def test_loss_must_be_finite_and_fall(self):
        self.assertTrue(benchlib.loss_ok([2.3] + [1.0] * 20))
        self.assertFalse(benchlib.loss_ok([2.3] + [1.0] * 19 + [float("nan")]))
        self.assertFalse(benchlib.loss_ok([2.3, 1e308, 1.0]))
        self.assertFalse(benchlib.loss_ok([1.0] + [1.5] * 20))

    def test_unfinished_run_fails_every_planned_step(self):
        for trace in (0, 1):
            correct, attempted, failed, _, metrics, _ = run.unfinished(trace)
            self.assertFalse(correct)
            self.assertGreater(attempted, 0)
            self.assertEqual(failed, attempted)
        self.assertEqual(run.unfinished(0)[4]["ok_step_frac"][0], 0.0)


class SimTcpDigestTest(unittest.TestCase):
    """A few steps of each workload in-process over ProcessGroupSim and as
    processes over ProcessGroupTcp must end with bit-identical parameters."""

    STEPS = ("--warmup=1", "--min-steps=3", "--seconds=0")

    @classmethod
    def setUpClass(cls):
        run.build()
        cls.out = run.ROOT / ".bench_build" / "test_digests"
        shutil.rmtree(cls.out, ignore_errors=True)
        cls.workloads = json.loads(subprocess.run(
            [str(run.WORKER), "--describe"], capture_output=True, text=True,
            check=True).stdout)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.out, ignore_errors=True)

    def digests(self, name, world, backend, launcher=()):
        out = self.out / backend / name
        out.mkdir(parents=True)
        cmd = list(launcher) + [
            str(run.WORKER), "--workload=" + name, "--backend=" + backend,
            "--seed=3", "--out=" + str(out)] + list(self.STEPS)
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              env=run.bench_env(), timeout=120)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        ranks = [json.loads((out / ("rank%d.json" % r)).read_text())
                 for r in range(world)]
        for r in ranks:
            self.assertEqual(r["error"], "")
            self.assertEqual(len(r["losses"]), 4)
        return [r["digest"] for r in ranks]

    def test_sim_and_tcp_match_bit_for_bit(self):
        for name, spec in self.workloads.items():
            with self.subTest(workload=name):
                world = spec["world"]
                sim = self.digests(name, world, "sim")
                tcp = self.digests(name, world, "tcp", [
                    str(run.LAUNCH), "--nproc=%d" % world,
                    "--timeout-sec=100", "--"])
                self.assertTrue(benchlib.digests_agree(sim + tcp), sim + tcp)


if __name__ == "__main__":
    unittest.main()
