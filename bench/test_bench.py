"""Tests of the benchmark itself: its checks catch bad outputs and its
traced counts repeat. Run from the checkout root with

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

from __future__ import annotations

import dataclasses
import json
import random
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import hostspeed  # noqa: E402
import progen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

HELD_OUT_SEED = 7


def one_pass(workload, seed, tracer=None, pass_id=0):
    ref = workload.reference(run.fresh_import(), seed)
    return ref, run.one_pass(workload, ref, tracer, pass_id)


def failures(workload, ref, result) -> list[str]:
    checker = workloads.Checker()
    workload.check(checker, ref, result)
    assert checker.attempted > 0
    return checker.failures


class EngineBulkChecks(unittest.TestCase):
    def setUp(self):
        self.workload = workloads.EngineBulk(n=6)

    def test_correct_run_passes_on_default_and_held_out_seed(self):
        for seed in (0, HELD_OUT_SEED):
            ref, p = one_pass(self.workload, seed)
            self.assertEqual(failures(self.workload, ref, p.result), [])

    def test_tampered_output_fails(self):
        ref, p = one_pass(self.workload, 0)
        p.result.detail.outputs[(0, 0)] += 1
        self.assertTrue(any("matmul_oracle" in f for f in failures(self.workload, ref, p.result)))

    def test_tampered_counter_fails(self):
        ref, p = one_pass(self.workload, 0)
        p.result.detail = dataclasses.replace(p.result.detail, elements_created=1)
        self.assertTrue(any("created" in f for f in failures(self.workload, ref, p.result)))


class SweepGridChecks(unittest.TestCase):
    def workload(self, pins=None):
        return workloads.SweepGrid(sizes=(3, 4), procs=(1, 2), pins=pins,
                                   out_dir=workloads.BENCH_DIR / "out" / "test")

    def pinned(self):
        """A small grid with pins taken from its own first pass."""
        ref, p = one_pass(self.workload(pins={}), 0)
        pins = {grid: workloads.sweep_pins(records, comments)
                for grid, (_, _, records, comments) in p.result.detail.items()}
        return self.workload(pins)

    def test_pins_hold_on_held_out_seed_and_repeat(self):
        workload = self.pinned()
        ref, p = one_pass(workload, HELD_OUT_SEED)
        self.assertEqual(failures(workload, ref, p.result), [])
        second = run.one_pass(workload, ref)
        self.assertEqual(failures(workload, ref, second.result), [])

    def test_benchmark_grid_is_fully_pinned(self):
        pins = workloads.load_pins()["sweep-grid"]
        grid = workloads.SweepGrid()
        self.assertEqual(set(pins), {name for name, _ in workloads.SWEEP_GRIDS})
        for grid_pins in pins.values():
            self.assertEqual(len(grid_pins["cells"]), 2 * len(grid.sizes) * len(grid.procs))

    def test_tampered_cell_fails(self):
        workload = self.pinned()
        ref, p = one_pass(workload, 0)
        code, text, records, comments = p.result.detail["paper"]
        records[0]["sim_time"] = str(int(records[0]["sim_time"]) + 1)
        self.assertTrue(any("pinned" in f for f in failures(workload, ref, p.result)))

    def test_tampered_checksum_fails(self):
        workload = self.pinned()
        ref, p = one_pass(workload, 0)
        records = p.result.detail["paper"][2]
        records[0]["result_checksum"] = "1"
        found = failures(workload, ref, p.result)
        self.assertTrue(any("checksums differ" in f for f in found))
        self.assertTrue(any("matmul_oracle" in f for f in found))

    def test_changed_bytes_on_repeat_fail(self):
        workload = self.pinned()
        ref, p = one_pass(workload, 0)
        self.assertEqual(failures(workload, ref, p.result), [])
        code, text, records, comments = p.result.detail["paper"]
        p.result.detail["paper"] = (code, text + " ", records, comments)
        self.assertTrue(any("on repeat" in f for f in failures(workload, ref, p.result)))


class SmallMixedChecks(unittest.TestCase):
    def setUp(self):
        self.workload = workloads.SmallMixed(matmul_sizes=(1, 2, 3), generated=30)

    def test_correct_run_passes_on_default_and_held_out_seed(self):
        for seed in (0, HELD_OUT_SEED):
            ref, p = one_pass(self.workload, seed)
            self.assertEqual(failures(self.workload, ref, p.result), [])

    def test_tampered_step_output_fails(self):
        ref, p = one_pass(self.workload, 0)
        stepped = p.result.detail[-1][1]
        key = next(iter(stepped.outputs))
        stepped.outputs[key] += 1
        self.assertTrue(any("step() outputs" in f for f in failures(self.workload, ref, p.result)))

    def test_tampered_simulate_counter_fails(self):
        ref, p = one_pass(self.workload, 0)
        fifo, stepped, metrics = p.result.detail[-1]
        metrics.elements_processed += 1
        self.assertTrue(any("simulate() processed" in f
                            for f in failures(self.workload, ref, p.result)))

    def test_generator_is_seeded(self):
        first = [progen.random_spec(random.Random(3)) for _ in range(5)]
        again = [progen.random_spec(random.Random(3)) for _ in range(5)]
        self.assertEqual(first, again)

    def test_generator_covers_the_operation_set(self):
        rng = random.Random(0)
        seen = set()
        for _ in range(200):
            for inputs, op, _, _, (kind, _, _) in progen.random_spec(rng).relations:
                seen.update((op, kind))
        self.assertLessEqual({"NEGATE", "SQUARE", "REPLICATE", "MUL_PAIR", "SINK",
                              "KEEP", "DROP", "TRUNCATE", "INCREMENT_LAST",
                              "INSERT_VARIED"}, seen)


class TracedPasses(unittest.TestCase):
    def test_two_traced_passes_give_identical_counts(self):
        workload = workloads.SmallMixed(matmul_sizes=(2, 3), generated=20)
        ref = workload.reference(run.fresh_import(), 0)
        tracer = spans.Tracer()
        samples = []
        for pass_id in (0, 1):
            before = tracer.events
            p = run.one_pass(workload, ref, tracer, pass_id)
            samples.append(run.layer_sample(tracer, p, tracer.events - before))
        counts = [run.exact_counts(s) for s in samples]
        self.assertEqual(counts[0], counts[1])
        self.assertEqual(counts[0]["programs.calls"], 22)
        self.assertEqual(counts[0]["span_calls"]["engine.step"], 22)
        self.assertGreater(counts[0]["machine.events"], 0)

    def test_spans_nest_and_share_a_pass_id(self):
        workload = workloads.SmallMixed(matmul_sizes=(2,), generated=3)
        ref = workload.reference(run.fresh_import(), 0)
        tracer = spans.Tracer()
        run.one_pass(workload, ref, tracer, 5)
        by_id = {s.sid: s for s in tracer.spans}
        self.assertTrue(all(s.pass_id == 5 for s in tracer.spans))
        for s in tracer.spans:
            if s.parent is not None:
                parent = by_id[s.parent]
                self.assertLessEqual(parent.start, s.start)
                self.assertLessEqual(s.end, parent.end)
        self.assertEqual({s.name for s in tracer.spans if s.parent is None}, {"setup", "pass"})

    def test_traced_pass_restores_wrapped_attributes(self):
        workload = workloads.SmallMixed(matmul_sizes=(2,), generated=3)
        ref = workload.reference(run.fresh_import(), 0)
        original = progen.build
        run.one_pass(workload, ref, spans.Tracer(), 0)
        self.assertIs(progen.build, original)


class HostSpeed(unittest.TestCase):
    def test_probe_times_the_kernel_and_its_process_ends(self):
        with hostspeed.Probe() as probe:
            samples = [probe.sample() for _ in range(3)]
        self.assertTrue(all(0 < s < 10 for s in samples))
        self.assertIsNotNone(probe._proc.returncode)


class Definitions(unittest.TestCase):
    def test_metric_names_and_units_match_benchmark_json(self):
        path = BENCH_DIR.parent / "BENCHMARK.json"
        spec = json.loads(path.read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
