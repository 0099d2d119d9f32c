"""Per-layer spans, recorded from outside the program.

`Tracer.install()` replaces public functions of the swimcollide modules with
timing wrappers, under the names their callers look them up at call time,
and `Tracer.uninstall()` puts the originals back. Nothing under `src/` knows
about it. A span's self time is its duration minus the time its child spans
cover; spans nest per thread, so the sweep's worker threads keep their own
stacks.

Wrapped call sites:

    drag.passive_drag      -> series.passive_drag     (cache misses of kappa_pass)
    drag.propulsion_drag   -> series.propulsion_drag  (cache misses of kappa_prop)
    series.frame_from_gap  -> geometry.frame_from_gap
    drag.kappa_pass, drag.kappa_prop, drag.coefficients
    dynamics.simulate
    cli.parse_config       -> config.parse_config

`command(name)` is a span the benchmark opens itself around `cli.main`.
"""

import contextlib
import functools
import math
import os
import statistics
import threading
import time
from collections import defaultdict

from swimcollide import cli, drag, dynamics, series

# Gap decades of the series spans: h1e1 is [10, 100), h1e-6 is [1e-6, 1e-5).
DECADES = tuple(range(1, -7, -1))
SERIES = ("series.passive_drag", "series.propulsion_drag")
DRAG = ("drag.kappa_pass", "drag.kappa_prop", "drag.coefficients")
SIMULATE = "dynamics.simulate"


def decade_name(exponent):
    return f"h1e{exponent}"


def gap_decade(h):
    return min(DECADES[0], max(DECADES[-1], math.floor(math.log10(h))))


def p50(values):
    return statistics.median(values) if values else 0.0


def tail(values):
    """(percentile, value) of the highest percentile with ten samples beyond
    it, which is the eleventh-largest sample; below forty samples that would
    be no tail, so the median stands in (percentile 50)."""
    n = len(values)
    if n < 40:
        return 50.0, p50(values)
    return 100.0 * (1.0 - 10.0 / n), sorted(values)[n - 11]


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved = []
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.durations = defaultdict(list)
        self.cpu = defaultdict(float)
        self.command_name = None

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, names, duration, child):
        with self._lock:
            for name in names:
                self.calls[name] += 1
                self.total[name] += duration
                self.self_time[name] += duration - child

    def _span(self, fn, name, labels):
        """Wrap fn; labels(args, result) gives extra names to count it under."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
            names = (name,) + labels(args, result)
            if name in SERIES and any(f[0] == SIMULATE for f in stack):
                names += ("series.in_simulate",)
            if name == "drag.kappa_pass" and stack and stack[-1][0] == SIMULATE:
                names += ("dynamics.rhs_evals",)
            tracer._record(names, duration, frame[1])
            if name == SIMULATE:
                with tracer._lock:
                    tracer.durations[name].append(duration)
                    tracer.calls["dynamics.points"] += len(result.points)
                    if tracer.command_name == "cli.sweep":
                        tracer.durations["cli.sweep.point"].append(duration)
            return result

        return wrapper

    def install(self):
        def by_dynamics(args, result):
            return ("dynamics.inertial" if args[0].mass else "dynamics.massless",)

        def none(args, result):
            return ()

        def decade_of(name):
            return lambda args, result: (f"{name}.{decade_name(gap_decade(args[0]))}",)

        targets = [
            (drag, "passive_drag", "series.passive_drag", decade_of("series.passive_drag")),
            (drag, "propulsion_drag", "series.propulsion_drag",
             decade_of("series.propulsion_drag")),
            (series, "frame_from_gap", "geometry.frame_from_gap", none),
            *((drag, name.split(".")[1], name, none) for name in DRAG),
            (dynamics, "simulate", SIMULATE, by_dynamics),
            (cli, "parse_config", "config.parse_config", none),
        ]
        for module, attr, name, extra in targets:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._span(original, name, extra))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    @contextlib.contextmanager
    def command(self, name):
        """Span around one `cli.main` call made by the benchmark."""
        self.command_name = name
        stack = self._stack()
        frame = [name, 0.0]
        stack.append(frame)
        cpu0 = _process_cpu()
        start = time.perf_counter()
        try:
            yield
        finally:
            duration = time.perf_counter() - start
            cpu = _process_cpu() - cpu0
            stack.pop()
            self._record((name,), duration, frame[1])
            with self._lock:
                self.durations[name].append(duration)
                self.cpu[name] += cpu
            self.command_name = None

    def metrics(self, rounds):
        """Per-layer metrics, averaged per traced round where they add up."""
        per = lambda x: x / rounds
        m = {}
        for name in SERIES:
            m[f"{name}.calls"] = (per(self.calls[name]), "count")
            m[f"{name}.s"] = (per(self.total[name]), "s")
            for exponent in DECADES:
                key = f"{name}.{decade_name(exponent)}"
                m[f"{name}.calls.{decade_name(exponent)}"] = (per(self.calls[key]), "count")
                m[f"{name}.s.{decade_name(exponent)}"] = (per(self.total[key]), "s")
        series_s = sum(self.total[name] for name in SERIES)
        m["geometry.frame_from_gap.calls"] = (
            per(self.calls["geometry.frame_from_gap"]), "count")
        for name in DRAG:
            m[f"{name}.calls"] = (per(self.calls[name]), "count")
            m[f"{name}.s"] = (per(self.total[name]), "s")
        m["drag.self_s"] = (per(sum(self.self_time[name] for name in DRAG)), "s")
        # every kappa_* call is one cache lookup, every series call one miss
        for kind, lookup, miss in zip(("pass", "prop"), DRAG, SERIES):
            lookups, misses = self.calls[lookup], self.calls[miss]
            m[f"drag.cache.{kind}_misses"] = (per(misses), "count")
            m[f"drag.cache.{kind}_hit_ratio"] = (
                1.0 - misses / lookups if lookups else 0.0, "ratio")
        sim = self.durations[SIMULATE]
        m["dynamics.simulate.calls"] = (per(self.calls[SIMULATE]), "count")
        m["dynamics.simulate.s_p50"] = (p50(sim), "s")
        m["dynamics.simulate.s"] = (per(self.total[SIMULATE]), "s")
        m["dynamics.rhs_evals"] = (per(self.calls["dynamics.rhs_evals"]), "count")
        m["dynamics.points"] = (per(self.calls["dynamics.points"]), "count")
        for kind in ("massless", "inertial"):
            m[f"dynamics.{kind}.self_s"] = (per(self.self_time[f"dynamics.{kind}"]), "s")
        sim_s = self.total[SIMULATE]
        m["dynamics.series_share"] = (
            self.total["series.in_simulate"] / sim_s if sim_s else 0.0, "ratio")
        m["config.parse_config.s"] = (per(self.total["config.parse_config"]), "s")
        m["cli.sweep.point_s_p50"] = (p50(self.durations["cli.sweep.point"]), "s")
        sweep_wall = self.total["cli.sweep"]
        m["cli.sweep.cores_used"] = (
            self.cpu["cli.sweep"] / sweep_wall if sweep_wall else 0.0, "cores")
        m["cli.drag.s_p50"] = (p50(self.durations["cli.drag"]), "s")
        m["cli.drag.self_s"] = (per(self.self_time["cli.drag"]), "s")
        m["series.s"] = (per(series_s), "s")
        return m


def _process_cpu():
    t = os.times()
    return t.user + t.system
