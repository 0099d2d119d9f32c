#!/usr/bin/env python3
"""Write or compare the output corpus: every output of a fixed set of runs.

The corpus runs a fixed list of scenarios through `simulate` (massless and
inertial; Navier slip with beta in {0.1, 1e-3, 5} and no slip; active and
passive pairs; runs that end in collision, at the floor, at the horizon and
in reversal), the a priori results of a few massless scenarios, and the
four CLI commands (`drag`, `simulate`, `sweep`, `validate`) on fixed
arguments and configs. For each output it records:

  * for every column (a trajectory field, a CSV column, a report's text) a
    sha256 of the exact `repr` of its values, with the first, last, smallest
    and largest value at full precision;
  * summary values at full precision: termination, t_end, t_coll, min_h and
    the point count of a run, the fields of a quadrature report.

Digests hold only where they were written: numpy's exp, log and sinh may
differ in the last bit between numpy versions and CPUs. So the corpus
records the numpy and Python versions, the machine and numpy's CPU
features, and `tests/test_output_corpus.py` compares digests only where
all of those match; elsewhere it compares the summary values to a stated
tolerance.

Usage:

    python scripts/output_corpus.py                   # print the corpus
    python scripts/output_corpus.py --write FILE      # write it to FILE
    python scripts/output_corpus.py --compare OLD     # this tree against OLD

--compare prints, for each entry, "unchanged" when every digest and summary
value agrees, and otherwise each summary value and column that changed: a
number by its relative change, a count or a word by its old and new value,
a column by the largest relative change among its recorded values (0.0e+00
where only values inside it moved), and a text column as "changed".
"""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import sys
import tempfile

import numpy as np

from swimcollide import cli, dynamics
from swimcollide.drag import BoundaryCondition
from swimcollide.dynamics import Mode, SwimmerScenario
from swimcollide.series import SeriesTruncation

NAVIER = BoundaryCondition.navier(0.1)
SMALL = BoundaryCondition.navier(1e-3)
WIDE = BoundaryCondition.navier(5.0)
NO_SLIP = BoundaryCondition.no_slip()
BCS = {"navier_0.1": NAVIER, "navier_1e-3": SMALL, "navier_5": WIDE, "no_slip": NO_SLIP}


def _active(bc, **kw):
    return SwimmerScenario(mode=Mode.ACTIVE, bc=BCS[bc], **{"h0": 0.5, **kw})


def _passive(bc, **kw):
    return SwimmerScenario(mode=Mode.PASSIVE_FORCED, bc=BCS[bc], **{"h0": 0.5, "f_ext": 1.0, **kw})


# (name, scenario, t_max, simulate keywords). Names start with "massless" or
# "inertial" so that a report can be read by kind.
RUNS = [
    ("massless/active/navier_0.1", _active("navier_0.1"), 200.0, {}),
    ("massless/active/navier_1e-3", _active("navier_1e-3"), 200.0, {}),
    ("massless/active/navier_5", _active("navier_5"), 200.0, {}),
    ("massless/active/no_slip_floor", _active("no_slip"), 1e6, {}),
    ("massless/active/no_slip_horizon", _active("no_slip"), 50.0, {}),
    ("massless/active/navier_0.1_horizon", _active("navier_0.1"), 5.0, {}),
    ("massless/active/navier_0.1_reversal", _active("navier_0.1", f_p=0.0), 10.0, {}),
    ("massless/active/navier_0.1_lam_0.01", _active("navier_0.1", lam=0.01), 1e4, {}),
    ("massless/active/navier_0.1_lam_5", _active("navier_0.1", lam=5.0), 200.0, {}),
    ("massless/active/no_slip_lam_5", _active("no_slip", lam=5.0), 1e6, {}),
    ("massless/active/navier_0.1_floor_1e-3", _active("navier_0.1"), 200.0, {"h_floor": 1e-3}),
    ("massless/active/navier_0.1_h0_1.01beta", _active("navier_0.1", h0=0.101), 1e3, {}),
    ("massless/active/navier_0.1_h0_3", _active("navier_0.1", h0=3.0), 1e3, {}),
    (
        "massless/active/no_slip_tol_1e-12",
        _active("no_slip"),
        50.0,
        {"truncation": SeriesTruncation(tail_tol=1e-12)},
    ),
    ("massless/passive/navier_0.1", _passive("navier_0.1"), 200.0, {}),
    ("massless/passive/navier_1e-3", _passive("navier_1e-3"), 200.0, {}),
    ("massless/passive/navier_5", _passive("navier_5"), 200.0, {}),
    ("massless/passive/no_slip_floor", _passive("no_slip", h0=0.3), 1e6, {}),
    ("massless/passive/no_slip_horizon", _passive("no_slip"), 20.0, {}),
    ("inertial/active/navier_0.1", _active("navier_0.1", mass=0.1), 200.0, {}),
    ("inertial/active/navier_0.1_s0_1", _active("navier_0.1", mass=0.1, s0=1.0), 200.0, {}),
    ("inertial/active/navier_0.1_s0_5", _active("navier_0.1", mass=0.1, s0=5.0), 200.0, {}),
    ("inertial/active/navier_0.1_mass_10", _active("navier_0.1", mass=10.0), 200.0, {}),
    ("inertial/active/navier_0.1_horizon", _active("navier_0.1", mass=0.1), 5.0, {}),
    (
        "inertial/active/navier_0.1_floor_1e-3",
        _active("navier_0.1", mass=0.1),
        200.0,
        {"h_floor": 1e-3},
    ),
    ("inertial/active/navier_1e-3", _active("navier_1e-3", mass=0.1), 200.0, {}),
    ("inertial/active/navier_5", _active("navier_5", mass=0.1), 200.0, {}),
    ("inertial/active/no_slip_lam_5", _active("no_slip", mass=0.1, lam=5.0), 200.0, {}),
    ("inertial/active/no_slip_horizon", _active("no_slip", mass=0.1), 20.0, {}),
    ("inertial/active/navier_0.1_lam_0.01", _active("navier_0.1", mass=0.1, lam=0.01), 20.0, {}),
    (
        "inertial/active/navier_0.1_tol_1e-12",
        _active("navier_0.1", mass=0.1, lam=0.7),
        20.0,
        {"truncation": SeriesTruncation(tail_tol=1e-12)},
    ),
    ("inertial/active/no_slip_coast", _active("no_slip", mass=0.1, s0=1.0, f_p=0.0), 0.05, {}),
    ("inertial/passive/navier_0.1", _passive("navier_0.1", mass=0.1), 200.0, {}),
    ("inertial/passive/navier_1e-3", _passive("navier_1e-3", mass=0.1), 200.0, {}),
    ("inertial/passive/no_slip_horizon", _passive("no_slip", mass=0.1), 20.0, {}),
]

# Massless scenarios whose a priori results (quadrature time and its error
# estimate, decay-rate bound) are recorded.
A_PRIORI = [
    ("a_priori/active/navier_0.1", _active("navier_0.1")),
    ("a_priori/active/navier_1e-3", _active("navier_1e-3")),
    ("a_priori/passive/navier_0.1", _passive("navier_0.1")),
    ("a_priori/active/no_slip", _active("no_slip")),
]

_CONFIG = (
    "[scenario]\nmode = active\nbc = navier\nbeta = 0.1\nh0 = 0.5\n{extra}"
    "[integrator]\nt_max = {t_max}\n"
)

# (name, argv, config text or None); the config is written to run.cfg and
# --config points at it. Every command writes into its own directory.
COMMANDS = [
    ("cli/drag", ["drag"], None),
    ("cli/drag_navier", ["drag", "--bc", "navier", "--beta", "0.1", "--lam", "0.5"], None),
    ("cli/simulate", ["simulate"], _CONFIG.format(extra="", t_max=200.0)),
    ("cli/simulate_inertial", ["simulate"], _CONFIG.format(extra="mass = 0.1\n", t_max=200.0)),
    (
        "cli/sweep",
        ["sweep"],
        _CONFIG.format(extra="", t_max=200.0) + "[sweep]\nlambda = 0.5, 1.0\nh0 = 0.3, 0.5\n",
    ),
    ("cli/validate", ["validate"], None),
]


def _digest(values):
    return hashlib.sha256(repr(values).encode()).hexdigest()


def _column(values):
    """A column's record: its digest and, when it holds numbers, its first,
    last, smallest and largest value."""
    values = tuple(values)
    record = {"sha256": _digest(values), "n": len(values)}
    numbers = [v for v in values if isinstance(v, float)]
    if numbers and len(numbers) == len(values):
        record.update(first=values[0], last=values[-1], min=min(values), max=max(values))
    return record


def _run(scenario, t_max, kwargs):
    traj = dynamics.simulate(scenario, t_max, **kwargs)
    names = [f.name for f in dynamics.dataclasses.fields(dynamics.TrajectoryPoint)]
    return {
        "summary": {
            "termination": traj.termination.value,
            "t_end": traj.t_end,
            "t_coll": traj.t_coll,
            "min_h": traj.min_h,
            "points": len(traj.data[0]),
        },
        "columns": {name: _column(column) for name, column in zip(names, traj.data)},
    }


def _a_priori(scenario):
    report = dynamics.collision_time_quadrature(scenario)
    rate = dynamics.decay_rate_bound(scenario, report.h_floor)
    return {
        "summary": {
            "time_to_floor": report.time_to_floor,
            "abserr": report.abserr,
            "h_floor": report.h_floor,
            "decay_rate_bound": rate,
        },
        "columns": {},
    }


def _cell(text):
    """A CSV cell as a float where it reads as one, else as its text."""
    try:
        return float(text)
    except ValueError:
        return text


def _files(out):
    """The columns of every file a command wrote: one per CSV column, and
    each other file's lines as one column."""
    columns = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), encoding="utf-8") as fh:
            text = fh.read()
        if name.endswith(".csv"):
            header, *rows = list(csv.reader(io.StringIO(text)))
            for k, key in enumerate(header):
                columns[f"{name}:{key}"] = _column(_cell(row[k]) for row in rows)
        else:
            columns[name] = _column(text.splitlines())
    return columns


def _command(argv, config):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        args = list(argv)
        if config is not None:
            path = os.path.join(tmp, "run.cfg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(config)
            args += ["--config", path]
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            code = cli.main(args + ["--out", out])
        columns = _files(out)
    columns["stdout"] = _column(stdout.getvalue().replace(out, "OUT").splitlines())
    return {"summary": {"exit_code": code}, "columns": columns}


def platform_record():
    """What the digests depend on: numpy and Python versions, the machine,
    and the CPU features numpy dispatches on, where numpy says."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as features
    except ImportError:  # numpy < 2
        try:
            from numpy.core._multiarray_umath import __cpu_features__ as features
        except ImportError:
            features = {}
    return {
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_features": sorted(name for name, on in features.items() if on),
    }


def build():
    """The corpus of this tree: the platform record and one entry per output."""
    entries = {}
    for name, scenario, t_max, kwargs in RUNS:
        entries[name] = _run(scenario, t_max, kwargs)
    for name, scenario in A_PRIORI:
        entries[name] = _a_priori(scenario)
    for name, argv, config in COMMANDS:
        entries[name] = _command(argv, config)
    return {"platform": platform_record(), "entries": entries}


def _relative(old, new):
    """The relative change from old to new: 0 for equal values, inf where
    one is not a number or only one is None."""
    if old == new or (old != old and new != new):
        return 0.0
    if not (isinstance(old, float) and isinstance(new, float)):
        return math.inf
    scale = max(abs(old), abs(new))
    return abs(new - old) / scale if scale else 0.0


def compare(old, new):
    """Lines of the change report: per entry, each summary value and column
    that changed and by how much, or that the entry is unchanged."""
    lines = []
    for name in sorted(set(old["entries"]) | set(new["entries"])):
        a, b = old["entries"].get(name), new["entries"].get(name)
        if a is None or b is None:
            lines.append(f"{name}: {'added' if a is None else 'removed'}")
            continue
        changes = []
        for key in sorted(set(a["summary"]) | set(b["summary"])):
            x, y = a["summary"].get(key), b["summary"].get(key)
            if x != y:
                ints = isinstance(x, int) and isinstance(y, int)
                changes.append(f"{key} {x} -> {y}" if ints or isinstance(x, str) else
                               f"{key} {_relative(x, y):.1e}")
        for key in sorted(set(a["columns"]) | set(b["columns"])):
            x, y = a["columns"].get(key), b["columns"].get(key)
            if x is None or y is None:
                changes.append(f"{key} {'added' if x is None else 'removed'}")
            elif x["sha256"] != y["sha256"]:
                stats = [s for s in ("first", "last", "min", "max") if s in x and s in y]
                worst = max((_relative(x[s], y[s]) for s in stats), default=None)
                changes.append(f"{key} changed" if worst is None else f"{key} {worst:.1e}")
        lines.append(f"{name}: " + ("; ".join(changes) if changes else "unchanged"))
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", metavar="FILE", help="write the corpus to FILE")
    parser.add_argument("--compare", metavar="OLD", help="report the changes from corpus OLD")
    args = parser.parse_args(argv)
    corpus = build()
    if args.write:
        with open(args.write, "w", encoding="utf-8") as fh:
            json.dump(corpus, fh, indent=1, sort_keys=True)
            fh.write("\n")
    if args.compare:
        with open(args.compare, encoding="utf-8") as fh:
            old = json.load(fh)
        print("\n".join(compare(old, corpus)))
    elif not args.write:
        json.dump(corpus, sys.stdout, indent=1, sort_keys=True)
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
