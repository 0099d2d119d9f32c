"""Flat key-value run configuration.

The format is a plain INI dialect: [section] headers, key = value lines,
blank lines, and comments starting with # or ;. Parsing is strict so a typo
fails loudly: unknown sections or keys, duplicate keys, and unparsable
values, non-finite floats included, all raise ConfigError naming the
offending key and line. So does a sweep axis value the scenario rejects:
each one is checked as it is parsed, not when its grid point runs. The
parser is deliberately hand-rolled; it is thirty lines and in exchange every error
carries an exact location, which the stdlib parser does not track per key.

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
import hashlib
import math
from dataclasses import dataclass, field

from .drag import BoundaryCondition
from .dynamics import Mode, SwimmerScenario
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

_SCHEMA = {
    "scenario": {
        "mode": str,
        "bc": str,
        "beta": float,
        "h0": float,
        "s0": float,
        "mass": float,
        "f_p": float,
        "f_ext": float,
        "lambda": float,
    },
    "series": {"n_max": int, "tail_tol": float},
    "integrator": {
        "t_max": float,
        "rtol": float,
        "atol": float,
        "h_floor": float,
        "max_steps": int,
    },
    "sweep": {axis: "floats" for axis in SWEEP_AXES},
    "output": {"dir": str},
}

_DEFAULTS = {
    ("scenario", "mode"): "active",
    ("scenario", "bc"): "no_slip",
    ("scenario", "beta"): 0.0,
    ("scenario", "h0"): 0.5,
    ("scenario", "s0"): 0.0,
    ("scenario", "mass"): 0.0,
    ("scenario", "f_p"): 1.0,
    ("scenario", "f_ext"): 0.0,
    ("scenario", "lambda"): 1.0,
    ("series", "n_max"): 20,
    ("series", "tail_tol"): 1e-10,
    ("integrator", "t_max"): 100.0,
    ("integrator", "rtol"): 1e-8,
    ("integrator", "atol"): 1e-12,
    ("integrator", "h_floor"): None,
    ("integrator", "max_steps"): 400000,
    ("output", "dir"): None,
}


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run settings plus the sweep axes, if any."""

    scenario: SwimmerScenario
    truncation: SeriesTruncation
    t_max: float
    rtol: float
    atol: float
    h_floor: float  # None selects the model default
    max_steps: int
    sweep: dict = field(default_factory=dict)  # axis -> values, in SWEEP_AXES order
    out_dir: str = None
    resolved: tuple = ()  # sorted canonical key = value lines, hashed by config_hash

    def config_hash(self):
        text = "\n".join(self.resolved) + "\n"
        return hashlib.sha256(text.encode()).hexdigest()


def _parse_scalar(raw, want, section, key, line_no):
    name = f"{section}.{key}"

    def number(kind, text, what):
        try:
            value = kind(text)
        except ValueError:
            problem = f"not a valid {kind.__name__}"
        else:
            if kind is int or math.isfinite(value):
                return value
            problem = "not a finite float"
        raise ConfigError(f"line {line_no}: {what} is {problem}", key=name, line=line_no)

    if want == "floats":
        parts = [p.strip() for p in raw.split(",") if p.strip()]
        return tuple(number(float, p, f"element {p!r} of {name}") for p in parts)
    if want in (int, float):
        return number(want, raw, f"value {raw!r} for {name}")
    return raw


def parse_config_text(text, source="<string>"):
    values = {}
    lines_of = {}
    section = None
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SCHEMA:
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
        if key not in _SCHEMA[section]:
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
            raw, _SCHEMA[section][key], section, key, line_no
        )
        lines_of[(section, key)] = line_no
    return _build(values, lines_of, source)


def parse_config(path):
    """Parse and validate a config file into a RunConfig."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config_text(text, source=str(path))


def _get(values, section, key):
    return values.get((section, key), _DEFAULTS[(section, key)])


def _fail_from(exc, values, lines_of, *keys):
    """Re-raise a domain validation error naming the config location."""
    for section, key in keys:
        if (section, key) in values:
            line = lines_of[(section, key)]
            raise ConfigError(
                f"line {line}: {section}.{key}: {exc}",
                key=f"{section}.{key}",
                line=line,
            ) from None
    raise ConfigError(str(exc)) from None


def _build(values, lines_of, source):
    mode_raw = _get(values, "scenario", "mode")
    try:
        mode = Mode(mode_raw)
    except ValueError:
        _fail_from(
            f"mode must be one of {[m.value for m in Mode]}, got {mode_raw!r}",
            values,
            lines_of,
            ("scenario", "mode"),
        )

    bc_raw = _get(values, "scenario", "bc")
    beta = _get(values, "scenario", "beta")
    try:
        bc = BoundaryCondition(kind=bc_raw, beta=beta)
    except ValueError as exc:
        _fail_from(exc, values, lines_of, ("scenario", "bc"), ("scenario", "beta"))

    try:
        scenario = SwimmerScenario(
            mode=mode,
            bc=bc,
            h0=_get(values, "scenario", "h0"),
            s0=_get(values, "scenario", "s0"),
            mass=_get(values, "scenario", "mass"),
            f_p=_get(values, "scenario", "f_p"),
            lam=_get(values, "scenario", "lambda"),
            f_ext=_get(values, "scenario", "f_ext"),
        )
    except ValueError as exc:
        _fail_from(
            exc,
            values,
            lines_of,
            *[("scenario", k) for k in _SCHEMA["scenario"]],
        )

    try:
        truncation = SeriesTruncation(
            n_max=_get(values, "series", "n_max"),
            tail_tol=_get(values, "series", "tail_tol"),
        )
    except ValueError as exc:
        _fail_from(
            exc, values, lines_of, ("series", "n_max"), ("series", "tail_tol")
        )

    sweep = {}
    for axis in SWEEP_AXES:
        if ("sweep", axis) in values:
            pts = values[("sweep", axis)]
            # The scenario checks each field on its own, so one scenario per
            # axis value covers every grid point.
            try:
                if not pts:
                    raise DomainError("sweep axis needs at least one value")
                for value in pts:
                    sweep_scenario(scenario, {axis: value})
            except ValueError as exc:
                _fail_from(exc, values, lines_of, ("sweep", axis))
            sweep[axis] = pts

    # Every integrator setting must be positive; h_floor may stay unset (None),
    # which selects the model default.
    for key in _SCHEMA["integrator"]:
        value = _get(values, "integrator", key)
        if value is not None and value <= 0:
            _fail_from(
                f"{key} must be positive, got {value}",
                values,
                lines_of,
                ("integrator", key),
            )

    resolved = []
    for (section, key), default in sorted(_DEFAULTS.items()):
        val = values.get((section, key), default)
        if val is None:
            continue
        resolved.append(f"{section}.{key} = {_canon(val)}")
    for axis, pts in sorted(sweep.items()):
        resolved.append(f"sweep.{axis} = {_canon(pts)}")

    return RunConfig(
        scenario=scenario,
        truncation=truncation,
        t_max=_get(values, "integrator", "t_max"),
        rtol=_get(values, "integrator", "rtol"),
        atol=_get(values, "integrator", "atol"),
        h_floor=_get(values, "integrator", "h_floor"),
        max_steps=_get(values, "integrator", "max_steps"),
        sweep=sweep,
        out_dir=_get(values, "output", "dir"),
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
