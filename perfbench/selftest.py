"""The benchmark's own tests: tracer counts, checks and failure capture.

Run from the repository root::

    python3 perfbench/selftest.py

The file is not named ``test_*.py`` on purpose, so the repository's pytest
suite does not collect it.
"""

import json
import math
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

from child import Runner  # noqa: E402
from tracer import Tracer, self_times, summarize  # noqa: E402
from workloads import WORKLOADS, Call, check_hierarchy, check_reverse  # noqa: E402


def _fd_hessian_counts(k, d):
    from bifurc import hessian
    from bifurc.gmm_probe import exact_collapsed

    z = np.random.default_rng(0).standard_normal((40, d))
    state = exact_collapsed(z, k, math.log(0.5))
    with Tracer() as tracer:
        hessian.numerical_hessian(state, z)
    return summarize(tracer.spans)


class TracerTest(unittest.TestCase):
    def test_counts_every_nll_call_of_a_finite_difference_hessian(self):
        for k, d in ((2, 2), (3, 1), (10, 2)):
            n = k * d
            table = _fd_hessian_counts(k, d)
            self.assertEqual(table["hessian.numerical_hessian"]["calls"], 1)
            self.assertEqual(table["gmm_probe.nll"]["calls"], 1 + 2 * n + 2 * n * (n - 1))
        self.assertEqual(1 + 2 * 20 + 2 * 20 * 19, 801)

    def test_rebinds_imported_names_and_restores_them(self):
        from bifurc import cli, gmm_probe, hessian

        originals = (gmm_probe.nll, hessian.nll, cli.numerical_hessian)
        with Tracer() as tracer:
            self.assertIs(hessian.nll, gmm_probe.nll)
            self.assertIsNot(hessian.nll, originals[0])
            self.assertIsNot(cli.numerical_hessian, originals[2])
            self.assertIn("experiments.ToyEncoderState.gd_step", tracer.wrapped)
            self.assertNotIn("cli.main", tracer.wrapped)
        self.assertEqual((gmm_probe.nll, hessian.nll, cli.numerical_hessian), originals)

    def test_self_time_subtracts_direct_children(self):
        spans = [["a", 0.0, 10.0, -1, None], ["b", 1.0, 4.0, 0, None], ["c", 2.0, 3.0, 1, None]]
        self.assertEqual(self_times(spans), [7.0, 2.0, 1.0])


def _write(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")


class CheckTest(unittest.TestCase):
    def setUp(self):
        self.dir = Path(tempfile.mkdtemp())

    def tearDown(self):
        shutil.rmtree(self.dir)

    def _reverse(self, merge_error):
        _write(self.dir / "toy-reverse_seed0.json", {
            "forward": {"overshoot_ratio": 1.35},
            "reverse": {"reverse_tracking_error": merge_error, "branch_overlap": 0.01,
                        "op_fraction_at_half_beta_c": 1e-13},
        })
        return check_reverse(self.dir, 0)

    def test_reverse_rejects_merge_error_above_four_percent(self):
        self.assertEqual(self._reverse(0.014), [])
        self.assertEqual(self._reverse(0.04), [])
        self.assertTrue(self._reverse(0.05))
        self.assertTrue(self._reverse(None))

    def test_flags_read_as_truthy(self):
        events = [{"stage": 1, "ratio_to_target": 1.3}, {"stage": 2, "ratio_to_target": 1.3}]
        for gate, ok in ((1, True), (True, True), (0, False), (False, False)):
            _write(self.dir / "toy-hierarchy_seed0.json",
                   {"second_stage_gate": gate, "events": events})
            self.assertEqual(check_hierarchy(self.dir, 0) == [], ok, gate)

    def test_hierarchy_rejects_event_outside_band(self):
        events = [{"stage": 1, "ratio_to_target": 1.3}, {"stage": 2, "ratio_to_target": 1.36}]
        _write(self.dir / "toy-hierarchy_seed0.json", {"second_stage_gate": True, "events": events})
        self.assertTrue(check_hierarchy(self.dir, 0))


class RunnerTest(unittest.TestCase):
    """A pass over the bundled-fixture calls of sim-mix, which take well under a second."""

    def setUp(self):
        self.dir = Path(tempfile.mkdtemp())
        self.calls = [c for c in WORKLOADS["sim-mix"] if c.argv[0] == "classify"]

    def tearDown(self):
        shutil.rmtree(self.dir)

    def test_good_pass_then_doctored_outputs_fail(self):
        runner = Runner(self.calls, 0, self.dir)
        _, _, outs, ok = runner.run_pass()
        self.assertTrue(ok, runner.problems)
        out = outs[self.calls[0].label]
        self.assertEqual(runner._check_outputs(self.calls[0], out, 0), [])
        payload = json.loads((out / "classify.json").read_text())
        (out / "classify.json").write_text(json.dumps(payload, indent=1))
        problems = runner._check_outputs(self.calls[0], out, 0)
        self.assertTrue(any("bytes differ" in p for p in problems), problems)
        (out / "classify.json").unlink()
        problems = runner._check_outputs(self.calls[0], out, 0)
        self.assertTrue(any("missing output" in p for p in problems), problems)

    def test_wrong_label_fails(self):
        call = Call(["classify", "--input", "exemplar_no_arc.csv"], ["classify.json"],
                    self.calls[0].check)
        runner = Runner([call], 0, self.dir)
        self.assertFalse(runner.run_pass()[3])
        self.assertEqual((runner.attempted, runner.failed), (1, 1))

    def test_exception_out_of_main_is_counted_not_raised(self):
        ini = self.dir / "identity-dim0.ini"
        ini.write_text("[hessian]\nsource = identity\ndim = 0\n", encoding="utf-8")
        bad = Call(["calibrate-hessian", "--config", str(ini)], ["hessian_report.json"],
                   lambda out, seed: [])
        runner = Runner([bad] + self.calls[:1], 0, self.dir)
        _, _, _, ok = runner.run_pass()
        self.assertFalse(ok)
        self.assertEqual((runner.attempted, runner.failed), (2, 1))
        self.assertIn("exception out of main", runner.problems[0])


if __name__ == "__main__":
    unittest.main()
