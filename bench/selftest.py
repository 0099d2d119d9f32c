"""Test of the benchmark's checks: each passes on a real output of its
workload and fails once one number in that output is perturbed.

    python3 bench/selftest.py

Takes about half a minute: it runs one round of every workload (seed 0).
"""

import csv
import io
import shutil
import unittest

import run

run._import_package()

from checks import oracle_kappa_pass  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _scaled(text, row, column, factor):
    """CSV text with one numeric cell multiplied by factor."""
    rows = list(csv.reader(io.StringIO(text)))
    col = rows[0].index(column)
    rows[row + 1][col] = format(float(rows[row + 1][col]) * factor, ".17g")
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


class ChecksCatchPerturbations(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.dir = run.OUT / "selftest"
        cls.dir.mkdir(parents=True, exist_ok=True)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.dir)

    def one_round(self, name):
        workload = WORKLOADS[name](0, str(self.dir))
        outputs = [workload.run(op, None) for op in workload.ops]
        for op, out in zip(workload.ops, outputs):
            self.assertEqual(workload.check(op, out, None), [], f"{name} on {op}")
        return workload, outputs

    def assertCaught(self, workload, op, out, first=None):
        self.assertNotEqual(workload.check(op, out, first), [])

    def test_encounter_cold(self):
        w, outs = self.one_round("encounter_cold")
        navier, no_slip, inertial = zip(w.ops, outs)
        self.assertCaught(w, navier[0], navier[1] | {"t_coll": navier[1]["t_coll"] * (1 + 1e-4)})
        self.assertCaught(w, no_slip[0], no_slip[1] | {"min_h": no_slip[1]["min_h"] * 1.01})
        self.assertCaught(w, no_slip[0], no_slip[1] | {"termination": "collision"})
        lag = inertial[0].mass / oracle_kappa_pass(inertial[0].h0, inertial[0].bc.beta)
        self.assertCaught(w, inertial[0], inertial[1] | {"t_coll": inertial[1]["t_coll"] + 2 * lag})

    def test_squeeze_passive(self):
        w, outs = self.one_round("squeeze_passive")
        for op, out in zip(w.ops, outs):
            self.assertCaught(w, op, out | {"t_coll": out["t_coll"] * (1 + 1e-4)})

    def test_sweep_grid(self):
        w, (text,) = self.one_round("sweep_grid")
        (op,) = w.ops
        self.assertCaught(w, op, _scaled(text, 2, "t_coll", 1 + 1e-4))
        self.assertCaught(w, op, _scaled(text, 1, "kappa_pass_h0", 1.01))
        lines = text.splitlines(keepends=True)
        self.assertCaught(w, op, "".join(lines[:1] + lines[2:3] + lines[1:2] + lines[3:]))
        self.assertCaught(w, op, text.replace(",ok,", ",error,", 1))
        # a second run of the grid must match the first byte for byte
        self.assertEqual(w.check(op, text, text), [])
        self.assertCaught(w, op, text, _scaled(text, 0, "t_coll", 1 + 1e-12))

    def test_drag_table(self):
        w, outs = self.one_round("drag_table")
        no_slip = next(i for i, op in enumerate(w.ops) if op[0] == "no_slip")
        navier = next(i for i, op in enumerate(w.ops) if op[0] == "navier")
        for i in (no_slip, navier):
            op, text = w.ops[i], outs[i]
            for row in (0, 5, w.points - 1):
                self.assertCaught(w, op, _scaled(text, row, "kappa_pass", 1.01))
                self.assertCaught(w, op, _scaled(text, row, "kappa_prop", 1.01))
            self.assertCaught(w, op, text.replace("exact_series", "asymptotic_model", 1))


if __name__ == "__main__":
    unittest.main()
