"""Command-line front end for scripted, reproducible runs.

Subcommands: generate, classify, integrate, develop, verify, crosscheck.
All outputs are plain CSV/JSON data files with shortest round-trip decimal
formatting, so identical configurations produce byte-identical artifacts.
Exit status: 0 success, 1 validation error, 2 numerical failure.
"""

import argparse
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
# Memory grows linearly with it; at this bound classify of a reparametrized
# 64-row CSV peaks at 305 MB RSS on a 2-vCPU Xeon
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


def _check_writable(path, key):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    if not os.path.isdir(directory):
        raise InvalidConfig(f"--{key}: directory {directory!r} does not exist")


def _require(params, *keys):
    for key in keys:
        if params.get(key) is None:
            raise InvalidConfig(f"missing required option --{key}")


def _positive(params, *keys):
    for key in keys:
        value = params.get(key)
        if value is not None and not (value > 0):
            raise InvalidConfig(f"--{key.replace('_', '-')} must be positive, got {value!r}")


def _samples(params, least):
    """Keep --samples in [least, MAX_SAMPLES], checked before anything is allocated."""
    n = params.get("samples")
    if n is None:
        return
    if n < least:
        floor = "positive" if least == 1 else f"at least {least}"
        raise InvalidConfig(f"--samples must be {floor}, got {n!r}")
    if n > MAX_SAMPLES:
        raise InvalidConfig(f"--samples must be at most {MAX_SAMPLES}, got {n!r}")


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
# command handlers


def _cmd_generate(p):
    _require(p, "a", "out")
    _positive(p, "a")
    _samples(p, 2)
    if (p.get("psi0") is None) == (p.get("base") is None):
        raise InvalidConfig("exactly one of --psi0 or --base is required")
    _check_writable(p["out"], "out")
    params = RectifyingParams(p["a"], p.get("b") or 0.0, p.get("c") or 0.0)
    s_domain = None
    if p.get("smin") is not None or p.get("smax") is not None:
        _require(p, "smin", "smax")
        if not p["smin"] < p["smax"]:
            raise InvalidConfig("--smin must be below --smax")
        s_domain = (p["smin"], p["smax"])
    if p.get("psi0") is not None:
        curve = generate_circular_geodesic(params, p["psi0"], s_domain)
    else:
        base = _load_table(p["base"], "base", read_base_csv, base_from_samples)
        curve = generate_rectifying(params, base, s_domain)
    n = int(p.get("samples") or 1024)
    s = np.linspace(*curve.domain, n)
    write_text(p["out"], curve_csv_text(s, curve.evaluate(s)))
    return 0


def _cmd_classify(p):
    _require(p, "in", "report")
    _samples(p, 1)
    _positive(p, "tol")
    _check_writable(p["report"], "report")
    cs = sample_arclength(_load_curve(p["in"]), int(p.get("samples") or 256))
    report = classify_rectifying_or_spherical(cs, tol=p.get("tol"))
    payload = report.to_dict()
    try:
        payload.update(fit_slant_axis(cs).to_dict())
    except DegenerateFit:
        payload.update(dict.fromkeys(SlantAxisFit.fields),
                       slant_fit_error="DegenerateFit")
    write_text(p["report"], [report_json_text(payload)])
    return 0


def _cmd_integrate(p):
    _require(p, "cone", "ivp", "out")
    _positive(p, "step")
    _check_writable(p["out"], "out")
    cone = _load_cone(p["cone"])
    ivp = _load_ivp(p["ivp"])
    h = p.get("step") or 1e-3
    if not (ivp.length / h <= MAX_RK4_STEPS):
        raise InvalidConfig(f"--step must be at least length/{MAX_RK4_STEPS} = "
                            f"{ivp.length / MAX_RK4_STEPS:.3g}, got {h!r}")
    chart = integrate_geodesic(cone, ivp, h=h)
    points = chart.u[:, None] * cone.base.evaluate(chart.t)
    write_text(p["out"], curve_csv_text(chart.s, points))
    return 0


def _cmd_develop(p):
    _require(p, "cone", "in", "out")
    _check_writable(p["out"], "out")
    cone = _load_cone(p["cone"])
    s, points = _load_table(p["in"], "in", read_curve_csv)
    planar = develop(*chart_points(cone, points))
    write_text(p["out"], development_csv_text(s, planar))
    return 0


def _cmd_verify(p):
    _require(p, "cone", "in", "report")
    _samples(p, 1)
    _positive(p, *(option for option, _ in GATES.values()))
    _check_writable(p["report"], "report")
    cone = _load_cone(p["cone"])
    curve = _load_curve(p["in"])
    cs = sample_arclength(curve, int(p.get("samples") or 256))
    # every row is charted, so a row between the sampled ones is read too;
    # the gates read the sampled rows' (t, u) from that one chart
    s_rows, rows = curve.nodes
    t, u = chart_points(cone, rows)
    chart = None
    if cs.curve is curve:  # sampled on its own rows, not reparametrized
        sampled = np.searchsorted(s_rows, cs.s)
        chart = (t[sampled], u[sampled])
    limits = {name: p[option] for name, (option, _) in GATES.items()
              if p.get(option) is not None}
    report = verify_geodesic(cone, cs, limits, chart)
    write_text(p["report"], [report_json_text(report.to_dict())])
    return 0


def _cmd_crosscheck(p):
    _require(p, "a", "psi0", "report")
    _positive(p, "a")
    _samples(p, 1)
    if p.get("seed") is not None and p["seed"] < 0:
        raise InvalidConfig(f"--seed must be non-negative, got {p['seed']!r}")
    _check_writable(p["report"], "report")
    report = cross_check_circular_cone(
        p["a"], p.get("b") or 0.0, p.get("c") or 0.0, p["psi0"],
        seed=int(p.get("seed") or 0), samples=int(p.get("samples") or 256),
    )
    write_text(p["report"], [report_json_text(report.to_dict())])
    return 0


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


# command -> {dest: type}; option --kg-tol has dest kg_tol.  Command-line
# values and --config values are both read as these types.
_OPTIONS = {
    "generate": {"a": float, "b": float, "c": float, "psi0": float, "base": str,
                 "smin": float, "smax": float, "samples": int, "out": str},
    "classify": {"in": str, "samples": int, "tol": float, "report": str},
    "integrate": {"cone": str, "ivp": str, "step": float, "out": str},
    "develop": {"cone": str, "in": str, "out": str},
    "verify": {"cone": str, "in": str, "samples": int,
               **{option: float for option, _ in GATES.values()}, "report": str},
    "crosscheck": {"a": float, "b": float, "c": float, "psi0": float, "seed": int,
                   "samples": int, "report": str},
}

_OPTION_HELP = {"psi0": "circular-cone half angle",
                "base": "base curve CSV (t,x,y,z) for a general cone"}


def _top_parser():
    """Parser of everything before the command's own options."""
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
    command.required = False  # _parse names a missing command
    return parser


def _command_parser(command):
    parser = _Parser(prog=f"conegeo {command}", description=_COMMANDS[command][1])
    for dest, kind in _OPTIONS[command].items():
        parser.add_argument("--" + dest.replace("_", "-"), dest=dest, type=kind,
                            help=_OPTION_HELP.get(dest))
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
    types = _OPTIONS[command]
    for key, value in section.items():
        key = key.replace("-", "_")
        if key not in types:
            raise InvalidConfig(f"--config: unknown option {key!r} for {command}")
        value = _coerce(key, types[key], value)  # checked even where overridden
        if params[key] is None:
            params[key] = value


def _is_value(token):
    # what argparse reads as an option's value rather than as an option name
    return not token.startswith("-") or _NEGATIVE_NUMBER.match(token)


def _read_plain(argv):
    """(config, command, params) read from the option table, or None.

    Reads `[--config PATH | --config=PATH] COMMAND` and then exact `--name
    value` or `--name=value` tokens, each value converted by its option's
    type, which argparse reads to the same result.  Any other argv is None:
    a help flag, an abbreviated or unknown option, a missing or dash-led
    value, a value its type refuses, a stray token or `--`.
    """
    config, rest = None, list(argv)
    if rest and rest[0].partition("=")[0] == "--config":
        _, eq, config = rest.pop(0).partition("=")
        if not eq:
            config = rest.pop(0) if rest else None
        if config is None or not _is_value(config):
            return None
    if not rest or rest[0] not in _OPTIONS:
        return None
    command, types = rest[0], _OPTIONS[rest[0]]
    flags = {"--" + dest.replace("_", "-"): dest for dest in types}
    params = dict.fromkeys(types)
    tokens = iter(rest[1:])
    for token in tokens:
        flag, eq, value = token.partition("=")
        if not eq:
            value = next(tokens, None)
        dest = flags.get(flag)
        if dest is None or value is None or not _is_value(value):
            return None
        try:
            params[dest] = types[dest](value)
        except ValueError:
            return None
    return config, command, params


def _parse(argv):
    """(config, command, params) by argparse, the one writer of help and messages."""
    top = _top_parser().parse_args(argv)
    if top.command is None:
        raise InvalidConfig("no command given; see --help")
    command, *args = top.command
    params = vars(_command_parser(command).parse_args(args))
    for dest, value in {"config": top.config, **params}.items():
        if isinstance(value, list):  # argparse reads `--name=--` as []
            raise InvalidConfig(f"argument --{dest.replace('_', '-')}: expected one argument")
    return top.config, command, params


def build_config(argv):
    config, command, params = _read_plain(argv) or _parse(argv)
    if config:
        _merge_config(params, config, command)
    for key, value in params.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise InvalidConfig(f"--{key.replace('_', '-')} must be finite, got {value!r}")
    return RunConfig(command=command, params=params)


def run(config: RunConfig):
    return _COMMANDS[config.command][0](config.params)


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
                write_text(report_path,
                              [report_json_text({"error": name, "message": str(exc)})])
            except (OSError, ValueError):
                pass
        return 2


if __name__ == "__main__":
    sys.exit(main())
