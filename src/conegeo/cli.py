"""Command-line front end for scripted, reproducible runs.

Subcommands: generate, classify, integrate, develop, verify, crosscheck.
All outputs are plain CSV/JSON data files with shortest round-trip decimal
formatting, so identical configurations produce byte-identical artifacts.
Exit status: 0 success, 1 validation error, 2 numerical failure.
"""

import argparse
import functools
import json
import math
import os
import re
import sys

import numpy as np

from .classify import SlantAxisFit, classify_rectifying_or_spherical, fit_slant_axis
from .cones import (
    base_from_samples,
    chart_points,
    cone_from_descriptor,
    develop,
    json_float,
    json_keys,
    read_base_csv,
)
from .curves import (
    Record,
    SpaceCurve,
    read_curve_csv,
    sample_arclength,
    table_chunks,
    write_text,
)
from .errors import DegenerateFit, InvalidConfig
from .geodesics import (
    GATES,
    MAX_RK4_STEPS,
    GeodesicIVP,
    RectifyingParams,
    cross_check_circular_cone,
    generate_circular_geodesic,
    generate_rectifying,
    integrate_geodesic,
    verify_geodesic,
)


class RunConfig(Record):
    fields = ("command", "params")


# the most --samples any command takes, read before anything is allocated.
# Memory grows linearly with the grid; at this bound classify of a
# 1,000,000-row CSV peaks at 351 MB RSS on a 2-vCPU Xeon
MAX_SAMPLES = 10**6


# ----------------------------------------------------------------------
# deterministic text emitters (gnuplot-consumable columnar data)


def curve_csv_text(s, points):
    """The curve CSV as an iterator of text chunks (curves.table_chunks)."""
    return table_chunks("s,x,y,z", s, points)


def development_csv_text(s, planar):
    """The development CSV as an iterator of text chunks (curves.table_chunks)."""
    return table_chunks("s,px,py", s, planar)


def report_json_text(payload):
    return json.dumps(payload, indent=2) + "\n"


# ----------------------------------------------------------------------
# each option's own rule, rule(flag, value), applied to a given value only


def _check_nothing(flag, value):
    """No rule of its own: an input its loader checks, or any finite number."""


def _check_positive(flag, value):
    if not (value > 0):
        raise InvalidConfig(f"{flag} must be positive, got {value!r}")


def _check_non_negative(flag, value):
    if value < 0:
        raise InvalidConfig(f"{flag} must be non-negative, got {value!r}")


def _check_samples(least):
    """The rule keeping --samples in [least, MAX_SAMPLES]."""
    floor = "positive" if least == 1 else f"at least {least}"

    def check(flag, n):
        if n < least:
            raise InvalidConfig(f"{flag} must be {floor}, got {n!r}")
        if n > MAX_SAMPLES:
            raise InvalidConfig(f"{flag} must be at most {MAX_SAMPLES}, got {n!r}")

    return check


def _check_writable(flag, path):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    if not os.path.isdir(directory):
        raise InvalidConfig(f"{flag}: directory {directory!r} does not exist")


# ----------------------------------------------------------------------
# input loaders; any parse or IO failure here is a validation error


def _unique_keys(pairs):
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def _read_json(path, option):
    """The JSON object in the file given to --option: ASCII, without duplicate keys."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            data = json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise InvalidConfig(f"--{option}: cannot read {path!r}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deeply
        raise InvalidConfig(f"--{option}: not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InvalidConfig(f"--{option}: top level must be an object")
    return data


def _load_table(path, option, read, build=lambda *cols: cols):
    """build(*read(path)) for the CSV file given to --option."""
    try:
        return build(*read(path))
    except OSError as exc:
        raise InvalidConfig(f"--{option}: cannot read {path!r}: {exc}") from exc
    except ValueError as exc:
        raise InvalidConfig(f"--{option}: {exc}") from exc


def _load_curve(path):
    return _load_table(path, "in", read_curve_csv, SpaceCurve.from_samples)


def _load_cone(path):
    desc = _read_json(path, "cone")
    base_dir = os.path.dirname(os.path.abspath(path))
    try:
        # an absolute base_csv path replaces base_dir in the join
        return cone_from_descriptor(desc, resolve_path=lambda p: os.path.join(base_dir, p))
    except OSError as exc:
        raise InvalidConfig(f"--cone: cannot read base curve: {exc}") from exc
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        raise InvalidConfig(f"--cone: bad descriptor: {exc}") from exc


def _load_ivp(path):
    data = _read_json(path, "ivp")
    keys = ("t0", "u0", "dt0", "du0", "length")
    try:
        json_keys(data, keys, "an IVP")
        values = {k: json_float(k, data[k]) for k in keys}
        for key, value in values.items():
            if not math.isfinite(value):
                raise InvalidConfig(f"--ivp: {key} must be finite, got {value!r}")
        return GeodesicIVP(**values)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidConfig(f"--ivp: bad initial data: {exc}") from exc


# ----------------------------------------------------------------------
# command handlers: each takes the checked options, keeps the rules that join
# two options or read an input, and returns its artifact's text chunks, which
# run writes to the command's output option


def _cmd_generate(p):
    if (p["psi0"] is None) == (p["base"] is None):
        raise InvalidConfig("exactly one of --psi0 or --base is required")
    params = RectifyingParams(p["a"], p["b"], p["c"])
    s_domain = (p["smin"], p["smax"])
    if s_domain == (None, None):
        s_domain = None
    elif None in s_domain:
        raise InvalidConfig(f"missing required option --{'smin' if p['smin'] is None else 'smax'}")
    elif not p["smin"] < p["smax"]:
        raise InvalidConfig("--smin must be below --smax")
    if p["psi0"] is not None:
        curve = generate_circular_geodesic(params, p["psi0"], s_domain)
    else:
        base = _load_table(p["base"], "base", read_base_csv, base_from_samples)
        curve = generate_rectifying(params, base, s_domain)
    s = np.linspace(*curve.domain, p["samples"])
    return curve_csv_text(s, curve.evaluate(s))


def _cmd_classify(p):
    cs = sample_arclength(_load_curve(p["in"]), p["samples"])
    payload = classify_rectifying_or_spherical(cs, tol=p["tol"]).to_dict()
    try:
        payload.update(fit_slant_axis(cs).to_dict())
    except DegenerateFit:
        payload.update(dict.fromkeys(SlantAxisFit.fields),
                       slant_fit_error="DegenerateFit")
    return [report_json_text(payload)]


def _cmd_integrate(p):
    cone = _load_cone(p["cone"])
    ivp, h = _load_ivp(p["ivp"]), p["step"]
    if not (ivp.length / h <= MAX_RK4_STEPS):
        raise InvalidConfig(f"--step must be at least length/{MAX_RK4_STEPS} = "
                            f"{ivp.length / MAX_RK4_STEPS:.3g}, got {h!r}")
    chart = integrate_geodesic(cone, ivp, h=h)
    return curve_csv_text(chart.s, chart.u[:, None] * cone.base.evaluate(chart.t))


def _cmd_develop(p):
    cone = _load_cone(p["cone"])
    s, points = _load_table(p["in"], "in", read_curve_csv)
    return development_csv_text(s, develop(*chart_points(cone, points)))


def _cmd_verify(p):
    cone, curve = _load_cone(p["cone"]), _load_curve(p["in"])
    cs = sample_arclength(curve, p["samples"])
    # every row is charted, so a row between the sampled ones is read too;
    # the gates read the sampled rows' (t, u) from that one chart
    s_rows, rows = curve.nodes
    t, u = chart_points(cone, rows)
    sampled = np.searchsorted(s_rows, cs.s)
    chart = (t[sampled], u[sampled])
    limits = {name: p[option] for name, (option, _) in GATES.items()}
    return [report_json_text(verify_geodesic(cone, cs, limits, chart).to_dict())]


def _cmd_crosscheck(p):
    report = cross_check_circular_cone(p["a"], p["b"], p["c"], p["psi0"],
                                       seed=p["seed"], samples=p["samples"])
    return [report_json_text(report.to_dict())]


# command -> (handler, one-line help), in --help order
_COMMANDS = {
    "generate": (_cmd_generate, "emit closed-form geodesic samples as CSV"),
    "classify": (_cmd_classify, "classification + slant-axis report (JSON)"),
    "integrate": (_cmd_integrate, "integrate the geodesic equations (RK4)"),
    "develop": (_cmd_develop, "unroll a curve on a cone into the plane"),
    "verify": (_cmd_verify, "geodesy report for a curve on a cone"),
    "crosscheck": (_cmd_crosscheck, "rectifying + slant + geodesic consistency"),
}


# ----------------------------------------------------------------------
# argument parsing and config merging


# a dash-led token that is a value, not an option name.  argparse's own
# pattern misses exponent forms, so it would read a value such as -7.25e-05
# as an unknown option name.
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    # argparse exits with status 2 on bad usage; route through InvalidConfig
    # so validation errors consistently exit 1
    def error(self, message):
        raise InvalidConfig(message)


class _Option(Record):
    """An option's type, its value when absent (none if _REQUIRED), its rule and its help."""

    fields = ("type", "default", "rule", "help")


_REQUIRED = object()
_INPUT = _Option(str, _REQUIRED, _check_nothing, None)
_OUTPUT = _Option(str, _REQUIRED, _check_writable, None)
_SLOPE = _Option(float, _REQUIRED, _check_positive, None)
_OFFSET = _Option(float, 0.0, _check_nothing, None)
_ANY = _Option(float, None, _check_nothing, None)
_SAMPLES = _Option(int, 256, _check_samples(1), None)

# command -> {dest: _Option}, in --help order; option --kg-tol has dest kg_tol.
# Command-line values and --config values are both read as the row's type.
_OPTIONS = {
    "generate": {"a": _SLOPE, "b": _OFFSET, "c": _OFFSET,
                 "psi0": _Option(float, None, _check_nothing, "circular-cone half angle"),
                 "base": _Option(str, None, _check_nothing,
                                 "base curve CSV (t,x,y,z) for a general cone"),
                 "smin": _ANY, "smax": _ANY,
                 "samples": _Option(int, 1024, _check_samples(2), None), "out": _OUTPUT},
    "classify": {"in": _INPUT, "samples": _SAMPLES,
                 "tol": _Option(float, None, _check_positive, None), "report": _OUTPUT},
    "integrate": {"cone": _INPUT, "ivp": _INPUT,
                  "step": _Option(float, 1e-3, _check_positive, None), "out": _OUTPUT},
    "develop": {"cone": _INPUT, "in": _INPUT, "out": _OUTPUT},
    "verify": {"cone": _INPUT, "in": _INPUT, "samples": _SAMPLES,
               **{option: _Option(float, limit, _check_positive, None)
                  for option, limit in GATES.values()}, "report": _OUTPUT},
    "crosscheck": {"a": _SLOPE, "b": _OFFSET, "c": _OFFSET,
                   "psi0": _Option(float, _REQUIRED, _check_nothing, "circular-cone half angle"),
                   "seed": _Option(int, 0, _check_non_negative, None),
                   "samples": _SAMPLES, "report": _OUTPUT},
}


def _checked(command, params):
    """params checked by their rows, every missing one named first, then filled with defaults."""
    rows = _OPTIONS[command].items()
    for key, row in rows:
        if params[key] is None and row.default is _REQUIRED:
            raise InvalidConfig(f"missing required option --{key}")
    for key, row in rows:
        if params[key] is not None:
            row.rule("--" + key.replace("_", "-"), params[key])
    # a zero reads as the default, so --b=-0.0 runs as --b=0
    return {key: params[key] if row.default in (None, _REQUIRED) else params[key] or row.default
            for key, row in rows}


@functools.cache
def _top_parser():
    """Parser of everything before the command's own options, built once per process."""
    commands = "".join(f"  {name:<12}{text}\n" for name, (_, text) in _COMMANDS.items())
    parser = _Parser(
        prog="conegeo",
        description="Generate, classify, develop, and verify curves on cones.",
        epilog="commands:\n" + commands,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--config", help="JSON file with per-command option defaults")
    # nargs PARSER, as a subcommand's: the command and every token after it,
    # a `--` beside it included, which the command's own parser then reads
    command = parser.add_argument("command", nargs=argparse.PARSER, choices=tuple(_COMMANDS),
                                  help="one of the commands listed below, then its options; "
                                       "see conegeo COMMAND --help")
    command.required = False  # build_config names a missing command
    return parser


@functools.cache
def _command_parser(command):
    """Parser of one command's options, built once per process from its _OPTIONS rows."""
    parser = _Parser(prog=f"conegeo {command}", description=_COMMANDS[command][1])
    for dest, row in _OPTIONS[command].items():
        parser.add_argument("--" + dest.replace("_", "-"), dest=dest, type=row.type,
                            help=row.help)
    return parser


def _coerce(key, kind, value):
    # a --config JSON value as its option's type; null leaves the option unset,
    # and booleans and strings are not numbers ("psi0": true is not 1.0)
    if value is None or (kind is str and isinstance(value, str)):
        return value
    try:
        number = json_float(key, value)
        if kind is float:
            return number
        if kind is int and number.is_integer():
            return int(value)
    except (TypeError, OverflowError):
        pass
    raise InvalidConfig(f"--config: bad value for {key!r}: expected {kind.__name__}, "
                        f"got {value!r}")


def _merge_config(params, path, command):
    """Fill the options left unset on the command line from the command's section."""
    section = _read_json(path, "config").get(command, {})
    if not isinstance(section, dict):
        raise InvalidConfig(f"--config: section {command!r} must be an object")
    rows = _OPTIONS[command]
    for key, value in section.items():
        key = key.replace("-", "_")
        if key not in rows:
            raise InvalidConfig(f"--config: unknown option {key!r} for {command}")
        value = _coerce(key, rows[key].type, value)  # checked even where overridden
        if params[key] is None:
            params[key] = value


def build_config(argv):
    """The command and its options, read by argparse, the one writer of help and messages.

    Options left unset on the command line are filled from the --config
    section; every numeric value, from either source, must be finite.
    """
    top = _top_parser().parse_args(argv)
    if top.command is None:
        raise InvalidConfig("no command given; see --help")
    command, *args = top.command
    params = vars(_command_parser(command).parse_args(args))
    for dest, value in {"config": top.config, **params}.items():
        if isinstance(value, list):  # argparse reads `--name=--` as []
            raise InvalidConfig(f"argument --{dest.replace('_', '-')}: expected one argument")
    if top.config:
        _merge_config(params, top.config, command)
    for key, value in params.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise InvalidConfig(f"--{key.replace('_', '-')} must be finite, got {value!r}")
    return RunConfig(command=command, params=params)


def run(config: RunConfig):
    params = _checked(config.command, config.params)
    output = next(key for key, row in _OPTIONS[config.command].items() if row is _OUTPUT)
    write_text(params[output], _COMMANDS[config.command][0](params))
    return 0


def _print_error(name, exc):
    # one line whatever the message holds, e.g. a newline in an echoed argument
    print(f"error: {name}: {' '.join(str(exc).splitlines())}", file=sys.stderr)


def main(argv=None):
    config = None
    try:
        config = build_config(sys.argv[1:] if argv is None else list(argv))
        # an overflow or a NaN is a numerical failure: one error line, not
        # numpy's warning lines and an artifact that holds inf
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return run(config)
    except (InvalidConfig, OSError) as exc:
        _print_error("InvalidConfig" if isinstance(exc, InvalidConfig) else "IO", exc)
        return 1
    except Exception as exc:
        # numerical failures, and any other error a handler raises, exit 2
        name = type(exc).__name__
        _print_error(name, exc)
        report_path = config.params.get("report") if config else None
        if report_path:
            try:
                write_text(report_path, [report_json_text({"error": name, "message": str(exc)})])
            except (OSError, ValueError):
                pass
        return 2


if __name__ == "__main__":
    sys.exit(main())
