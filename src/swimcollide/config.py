"""Flat key-value run configuration.

The format is a plain INI dialect: [section] headers, key = value lines,
blank lines, and comments starting with # or ;. Parsing is strict so a typo
fails loudly: unknown sections or keys, duplicate keys, empty values, empty
elements of a list and unparsable values, non-finite floats included, all
raise ConfigError naming the offending key and line, after the file's path
when parse_config read it. So does a value the scenario rejects, a sweep
axis value included: each one is checked on its own as it is parsed, not
when its grid point runs. So does an integrator value simulate would
reject, a set floor at or above h0 included, checked against each sweep.h0
value when the sweep has an h0 axis. The parser is deliberately
hand-rolled; it is one function of under fifty lines and in exchange every
error carries an exact location, which the stdlib parser does not track
per key.

Each setting is declared once, in _KEYS, with its type and default. A key
the config leaves out takes its default: the config's own for mode, bc, h0
and t_max, and otherwise the default of the library class or function it
is passed to. RunConfig.resolved lists every setting with a value,
defaults included.

Example:

    [scenario]
    mode = active
    bc = navier
    beta = 0.1
    h0 = 0.5
    mass = 0.0
    f_p = 1.0
    lambda = 1.0

    [integrator]
    t_max = 200.0

    [sweep]
    lambda = 0.1, 0.5, 1.0, 2.0
"""

import dataclasses
import inspect
import math
from dataclasses import dataclass, field

from .drag import BoundaryCondition
from .dynamics import Mode, SwimmerScenario, _floor, _positive, _rtol, simulate
from .errors import ConfigError, DomainError
from .series import SeriesTruncation

__all__ = [
    "RunConfig",
    "parse_config",
    "parse_config_text",
    "SWEEP_AXES",
    "sweep_scenario",
]

# Axes a sweep may range over, in the order grid indices are generated.
SWEEP_AXES = ("lambda", "beta", "h0", "s0", "f_p", "f_ext", "mass")
# Scenario field of each sweep axis whose name differs from it.
_AXIS_FIELD = {"lambda": "lam"}

_SIMULATE = inspect.signature(simulate).parameters

# (section, key) -> (type, default), the one declaration of each setting. The
# config owns the defaults of the settings the library leaves to its caller
# (mode, bc, h0 and t_max); every other default is the one of the class or
# function the setting goes to. A None default is left out of the resolved
# lines.
_KEYS = {
    ("scenario", "mode"): (str, "active"),
    ("scenario", "bc"): (str, "no_slip"),
    ("scenario", "beta"): (float, BoundaryCondition.beta),
    ("scenario", "h0"): (float, 0.5),
    ("scenario", "s0"): (float, SwimmerScenario.s0),
    ("scenario", "mass"): (float, SwimmerScenario.mass),
    ("scenario", "f_p"): (float, SwimmerScenario.f_p),
    ("scenario", "f_ext"): (float, SwimmerScenario.f_ext),
    ("scenario", "lambda"): (float, SwimmerScenario.lam),
    ("series", "tail_tol"): (float, SeriesTruncation.tail_tol),
    ("integrator", "t_max"): (float, 100.0),
    ("integrator", "rtol"): (float, _SIMULATE["rtol"].default),
    ("integrator", "atol"): (float, _SIMULATE["atol"].default),
    ("integrator", "h_floor"): (float, _SIMULATE["h_floor"].default),
    **{("sweep", axis): ("floats", None) for axis in SWEEP_AXES},
}
_SECTIONS = {section for section, _ in _KEYS}


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run settings plus the sweep axes, if any."""

    scenario: SwimmerScenario
    truncation: SeriesTruncation
    t_max: float
    rtol: float
    atol: float
    h_floor: float  # None selects the model default
    sweep: dict = field(default_factory=dict)  # axis -> values, in SWEEP_AXES order
    resolved: tuple = ()  # sorted canonical key = value lines, hashed by config_hash

    def config_hash(self):
        import hashlib  # maps OpenSSL: only the reports that print a hash load it

        text = "\n".join(self.resolved) + "\n"
        return hashlib.sha256(text.encode()).hexdigest()


def _parse_scalar(raw, want, section, key, line_no):
    name = f"{section}.{key}"
    if not raw:
        raise ConfigError(f"line {line_no}: {name} has no value", key=name, line=line_no)

    def number(text, what):
        try:
            value = float(text)
        except ValueError:
            problem = "not a valid float"
        else:
            if math.isfinite(value):
                return value
            problem = "not a finite float"
        raise ConfigError(f"line {line_no}: {what} is {problem}", key=name, line=line_no)

    if want == "floats":
        parts = [p.strip() for p in raw.split(",")]
        if "" in parts:
            problem = f"line {line_no}: {name} has an empty element in {raw!r}"
            raise ConfigError(problem, key=name, line=line_no)
        return tuple(number(p, f"element {p!r} of {name}") for p in parts)
    if want is float:
        return number(raw, f"value {raw!r} for {name}")
    return raw


def parse_config_text(text):
    values = {}
    lines_of = {}
    section = None
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                raise ConfigError(
                    f"line {line_no}: unknown section [{section}]",
                    key=section,
                    line=line_no,
                )
            continue
        if "=" not in line:
            raise ConfigError(
                f"line {line_no}: expected key = value, got {line!r}",
                line=line_no,
            )
        if section is None:
            raise ConfigError(
                f"line {line_no}: key outside any [section]", line=line_no
            )
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if (section, key) not in _KEYS:
            raise ConfigError(
                f"line {line_no}: unknown key {key!r} in [{section}]",
                key=f"{section}.{key}",
                line=line_no,
            )
        if (section, key) in values:
            raise ConfigError(
                f"line {line_no}: duplicate key {section}.{key} "
                f"(first set on line {lines_of[(section, key)]})",
                key=f"{section}.{key}",
                line=line_no,
            )
        values[(section, key)] = _parse_scalar(
            raw, _KEYS[(section, key)][0], section, key, line_no
        )
        lines_of[(section, key)] = line_no
    return _build(values, lines_of)


def parse_config(path):
    """Parse and validate a config file into a RunConfig. A ConfigError
    names the file before the line."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    try:
        return parse_config_text(text)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}", key=exc.key, line=exc.line) from None


def _section(values, section):
    """{key: value} of every key of section, the default where values has none."""
    return {k: values.get((s, k), d) for (s, k), (_, d) in _KEYS.items() if s == section}


def _mode(raw):
    try:
        return Mode(raw)
    except ValueError:
        raise DomainError(f"mode must be one of {[m.value for m in Mode]}, got {raw!r}") from None


def _sweep_axis(scenario, axis, pts):
    # The scenario checks each field on its own, so one scenario per axis
    # value covers every grid point. The parser leaves no axis empty.
    for value in pts:
        sweep_scenario(scenario, {axis: value})


def _build(values, lines_of):
    def checked(section, keys, make, *args, **kwargs):
        """make(*args, **kwargs), with a ValueError turned into the
        ConfigError naming the first of section's keys that the config sets."""
        try:
            return make(*args, **kwargs)
        except ValueError as exc:
            for key in keys:
                if (section, key) in values:
                    line = lines_of[(section, key)]
                    raise ConfigError(
                        f"line {line}: {section}.{key}: {exc}",
                        key=f"{section}.{key}",
                        line=line,
                    ) from None
            raise ConfigError(str(exc)) from None

    # Each scenario value the config sets is checked on its own, as a sweep
    # axis value is, so that an error names its own key and line: the slip
    # length before the wall model, and the other values against the scenario
    # of the defaults, which is valid but for a passive pair's f_ext.
    given = {k: v for (s, k), v in values.items() if s == "scenario"}
    take = lambda key: given.pop(key, _KEYS[("scenario", key)][1])
    mode = checked("scenario", ["mode"], _mode, take("mode"))
    beta = take("beta")
    checked("scenario", ["beta"], BoundaryCondition.navier, beta)
    bc = checked("scenario", ["bc", "beta"], BoundaryCondition, take("bc"), beta)
    scenario = checked(
        "scenario",
        ["f_ext", "mode"],
        SwimmerScenario,
        mode,
        bc,
        _KEYS[("scenario", "h0")][1],
        f_ext=take("f_ext"),
    )
    for key, value in given.items():
        scenario = checked("scenario", [key], sweep_scenario, scenario, {key: value})

    series = _section(values, "series")
    truncation = checked("series", series, SeriesTruncation, **series)

    sweep = {axis: values[("sweep", axis)] for axis in SWEEP_AXES if ("sweep", axis) in values}
    for axis, pts in sweep.items():
        checked("sweep", [axis], _sweep_axis, scenario, axis, pts)

    # simulate's own rules: every value positive, rtol at least 100 eps, and
    # a floor the config sets below each h0 it runs from. Unset (None),
    # h_floor selects the model default, which each run checks when it
    # starts, so a grid point below it fails alone.
    integrator = _section(values, "integrator")
    for key, value in integrator.items():
        if value is not None:
            checked("integrator", [key], _positive, key, value)
    checked("integrator", ["rtol"], _rtol, integrator["rtol"])
    if integrator["h_floor"] is not None:
        for h0 in sweep.get("h0", [scenario.h0]):
            start = dataclasses.replace(scenario, h0=h0)
            checked("integrator", ["h_floor"], _floor, start, integrator["h_floor"])

    resolved = []
    for section, key in sorted(_KEYS):
        val = values.get((section, key), _KEYS[(section, key)][1])
        if val is not None:
            resolved.append(f"{section}.{key} = {_canon(val)}")

    return RunConfig(
        scenario=scenario,
        truncation=truncation,
        **integrator,
        sweep=sweep,
        resolved=tuple(resolved),
    )


def _canon(val):
    if isinstance(val, tuple):
        return ", ".join(_canon(v) for v in val)
    if isinstance(val, float):
        return format(val, ".17g")
    return str(val)


def sweep_scenario(base, point):
    """Scenario for one sweep grid point: base with each axis of point
    ({axis: value}) set to its value. Raises DomainError for a value the
    scenario rejects, and for a beta axis under a bc other than navier."""
    fields = {_AXIS_FIELD.get(axis, axis): value for axis, value in point.items()}
    if "beta" in fields:
        if base.bc.kind != "navier":
            raise DomainError("sweeping beta requires scenario bc = navier")
        fields["bc"] = BoundaryCondition.navier(fields.pop("beta"))
    return dataclasses.replace(base, **fields)
