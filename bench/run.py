"""Benchmark of swimcollide: one workload per invocation.

    python3 bench/run.py --workload encounter_cold --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; the package is imported from
./src and never from an installed copy, and outputs go to ./.bench_out.

A run sets up (imports the package and makes the inputs from the seed),
then runs whole rounds of the workload's operations, at least two and
until --seconds have passed, and checks every output against an oracle
built apart from the program. The last line of standard output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`.

With --trace 0 the metrics are end to end, each the median over the run:
  setup_s      import plus input generation, over this process and four
               fresh probe processes;
  wall_s       wall time of one round;
  cpu_s        user + system CPU time of one round, children included;
  peak_rss_mb  peak resident memory of this process.
With --trace 1 the rounds alternate untraced and traced, the public
functions of the package are wrapped (see tracing.py), and the per-layer
metrics are printed. Each run also writes its per-round times and its
result to .bench_out/{run,trace}_<workload>_<seed>.json.
"""

import time

_START = time.perf_counter()

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 4
MIN_ROUNDS = 2


def _import_package():
    """Import swimcollide from the checkout; exit non-zero when it is not there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import swimcollide
    except ImportError as exc:
        sys.exit(f"bench: cannot import swimcollide from {src}: {exc}")
    if Path(swimcollide.__file__).resolve().parent != src / "swimcollide":
        sys.exit(f"bench: swimcollide came from {swimcollide.__file__}, not {src}")


def _setup(name, seed):
    """Import the package and make the inputs.

    Returns the workload, the seconds since this script started, and the
    workload's scratch directory.
    """
    _import_package()
    from workloads import WORKLOADS

    if name not in WORKLOADS:
        sys.exit(f"bench: unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    out_dir = OUT / f"{name}_{seed}_{os.getpid()}"
    out_dir.mkdir(parents=True)
    workload = WORKLOADS[name](seed, str(out_dir))
    return workload, time.perf_counter() - _START, out_dir


def _probe_setup(name, seed):
    """Set-up time of a fresh interpreter, measured the same way."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", name, "--seed", str(seed)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"setup probe failed: {done.stderr.strip()}")
    return float(done.stdout.split()[-1])


def _cpu():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _run_round(workload, tracer):
    outputs, op_s, failed = [], [], 0
    cpu0 = _cpu()
    start = time.perf_counter()
    for op in workload.ops:
        t0 = time.perf_counter()
        try:
            outputs.append(workload.run(op, tracer))
        except Exception:
            traceback.print_exc(file=sys.stderr)
            outputs.append(None)
            failed += 1
        op_s.append(time.perf_counter() - t0)
    return {
        "wall": time.perf_counter() - start,
        "cpu": _cpu() - cpu0,
        "op_s": op_s,
        "outputs": outputs,
        "failed": failed,
        "traced": tracer is not None,
    }


def _run(workload, seconds, trace):
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
    rounds = []
    start = time.perf_counter()
    while True:
        traced = trace and len(rounds) % 2 == 1
        if traced:
            tracer.install()
        try:
            rounds.append(_run_round(workload, tracer if traced else None))
        finally:
            if traced:
                tracer.uninstall()
        enough = len(rounds) >= MIN_ROUNDS and time.perf_counter() - start >= seconds
        if enough and (traced or not trace):
            return rounds, tracer


def _check(workload, rounds):
    problems = []
    first = rounds[0]["outputs"]
    for r, rnd in enumerate(rounds):
        for i, (op, out) in enumerate(zip(workload.ops, rnd["outputs"])):
            if out is None:
                continue
            ref = first[i] if r else None
            try:
                found = workload.check(op, out, ref)
            except Exception as exc:  # an output the check cannot read is wrong
                found = [f"check raised {type(exc).__name__}: {exc}"]
            problems += [f"round {r} op {i}: {p}" for p in found]
    return problems


def _trace_metrics(tracer, rounds):
    from tracing import tail

    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    metrics = tracer.metrics(len(traced))
    op_s = [s for r in plain for s in r["op_s"]]
    pct, value = tail(op_s)
    metrics["op.samples"] = (len(op_s), "count")
    metrics["op.s_p50"] = (statistics.median(op_s), "s")
    metrics["op.tail_pct"] = (pct, "%")
    metrics["op.s_tail"] = (value, "s")
    metrics["trace.overhead_s"] = (
        statistics.median(r["wall"] for r in traced)
        - statistics.median(r["wall"] for r in plain),
        "s",
    )
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workload, own_setup, out_dir = _setup(args.workload, args.seed)
    if args.setup_probe:
        shutil.rmtree(out_dir)
        print(repr(own_setup))
        return 0
    setups = [own_setup]
    if not args.trace:
        setups += [_probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]

    rounds, tracer = _run(workload, args.seconds, bool(args.trace))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems = _check(workload, rounds)
    for p in problems:
        print(f"bench: check failed: {p}", file=sys.stderr)
    shutil.rmtree(out_dir)

    if args.trace:
        metrics = _trace_metrics(tracer, rounds)
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (statistics.median(r["wall"] for r in rounds), "s"),
            "cpu_s": (statistics.median(r["cpu"] for r in rounds), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    result = {
        "correct": not problems,
        "attempted": len(rounds) * len(workload.ops),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setups,
        "rounds": [{k: r[k] for k in ("wall", "cpu", "traced", "failed")} for r in rounds],
        "result": result,
    }
    kind = "trace" if args.trace else "run"
    (OUT / f"{kind}_{args.workload}_{args.seed}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
