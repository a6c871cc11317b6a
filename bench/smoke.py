"""Smoke test of the benchmark itself, on tiny sizes; takes about 20 seconds.

    python3 bench/smoke.py
"""

from __future__ import annotations

import json
import sys
import unittest
from dataclasses import replace
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from harness import CAL_REF_S, ROOT, Calibration, Gate, Raised, import_package  # noqa: E402
from reference import attack_ok  # noqa: E402
from workloads import WORKLOADS, Workload, exponents, make_inputs  # noqa: E402

TINY = Workload(
    name="tiny",
    why="every code path of the benchmark in well under a second",
    attack_sizes=((5, 4), (5, 2)),
    keys_per_size=2,
    extra_known=4,
    brute_size=(5, 2),
    brute_keys=2,
    shrink_size=(5, 2),
    shrink_bits=4096,
    shares={"attack": 0.6, "brute": 0.2, "shrink": 0.2},
)
SECONDS = 0.5
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


class BenchmarkSmokeTest(unittest.TestCase):
    def test_timed_run_emits_every_end_to_end_metric(self):
        record, result = run.run(TINY, 1, SECONDS, False)
        expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, expected)
        for name, metric in result["metrics"].items():
            self.assertGreater(metric["value"], 0, name)
        self.assertEqual((result["correct"], result["failed"], record["failed_frac"]), (True, 0, 0.0))
        self.assertGreaterEqual(record["attack_tail"]["samples_per_block"], 11)

    def test_traced_run_emits_every_per_layer_metric_with_repeatable_counts(self):
        _, first = run.run(TINY, 3, SECONDS, True)
        _, second = run.run(TINY, 3, SECONDS, True)
        expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
        self.assertEqual({k: v["unit"] for k, v in first["metrics"].items()}, expected)
        self.assertTrue(first["correct"])
        counts = [name for name, unit in expected.items() if unit == "count"]
        self.assertEqual([first["metrics"][n] for n in counts], [second["metrics"][n] for n in counts])

    def test_gate_counts_a_planted_wrong_key(self):
        sg = import_package()
        real_attack = sg.attack

        def flipped_selector(attack_input):
            result = real_attack(attack_input)
            bits = list(result.srs_state.bits)
            bits[1] ^= 1
            return replace(result, srs_state=sg.LfsrState(tuple(bits)))

        with mock.patch.object(sg, "attack", flipped_selector):
            record, result = run.run(TINY, 1, SECONDS, False)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertGreater(record["failed_frac"], 0)

    def test_gate_on_corrupted_input(self):
        cases = make_inputs(TINY, 2).attacks
        i = next(i for i, c in enumerate(cases) if c.corrupted)
        key = (cases[i].sra, cases[i].srs)
        # The seeded key regenerates every known bit but the flipped one.
        self.assertFalse(attack_ok(cases[i], *exponents(cases[i].size), key))
        gate = Gate()
        gate.attacks(cases, [(i, Raised(ValueError, "rejected")), (i, key),
                             (i, Raised(TypeError, "crashed"))], ValueError)
        self.assertEqual((gate.attempted, len(gate.failures)), (3, 2))

    def test_calibration_scales_by_the_probes_near_a_call(self):
        calibration = Calibration()
        calibration.starts, calibration.seconds = [0.0, 5.0, 10.0], [0.5, 2.0, 4.0]
        self.assertEqual(calibration.scaled(4.5, 1.0), 1.0 * CAL_REF_S / 2.0)
        # No probe within CAL_WINDOW_S: the probes just before and after set the scale.
        self.assertEqual(calibration.scaled(2.0, 0.5), 0.5 * CAL_REF_S / 1.25)

    def test_inputs_come_from_the_seed_alone(self):
        self.assertEqual(make_inputs(TINY, 5), make_inputs(TINY, 5))
        self.assertNotEqual(make_inputs(TINY, 5), make_inputs(TINY, 6))

    def test_workload_rationale_matches_benchmark_json(self):
        self.assertEqual({w["name"]: w["why"] for w in BENCHMARK["workloads"]},
                         {name: w.why for name, w in WORKLOADS.items()})


if __name__ == "__main__":
    unittest.main()
