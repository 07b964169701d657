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
import tempfile
from dataclasses import dataclass

import numpy as np

from .classify import classify_rectifying_or_spherical, fit_slant_axis
from .cones import (
    base_from_samples,
    chart_curve,
    cone_from_descriptor,
    develop,
    read_base_csv,
)
from .curves import SpaceCurve, read_curve_csv, reparametrize_arclength, table_text
from .errors import ConeGeoError, DegenerateFit, InvalidConfig
from .geodesics import (
    GeodesicIVP,
    RectifyingParams,
    VerifyThresholds,
    cross_check_circular_cone,
    generate_circular_geodesic,
    generate_rectifying,
    integrate_geodesic,
    verify_geodesic,
)

_COMMANDS = ("generate", "classify", "integrate", "develop", "verify", "crosscheck")


@dataclass
class RunConfig:
    command: str
    params: dict


# ----------------------------------------------------------------------
# deterministic text emitters (gnuplot-consumable columnar data)


def curve_csv_text(s, points):
    return table_text("s,x,y,z", s, points)


def development_csv_text(s, planar):
    return table_text("s,px,py", s, planar)


def report_json_text(payload):
    return json.dumps(payload, indent=2) + "\n"


def _atomic_write(path, text):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".conegeo-")
    try:
        with os.fdopen(fd, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


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
            raise InvalidConfig(f"--{key} must be positive, got {value!r}")


# ----------------------------------------------------------------------
# input loaders; any parse or IO failure here is a validation error


def _load_curve(path):
    try:
        return SpaceCurve.from_samples(*read_curve_csv(path))
    except OSError as exc:
        raise InvalidConfig(f"--in: cannot read {path!r}: {exc}") from exc
    except ValueError as exc:
        raise InvalidConfig(f"--in: {exc}") from exc


def _load_cone(path):
    try:
        with open(path, "r", encoding="ascii") as fh:
            desc = json.load(fh)
    except OSError as exc:
        raise InvalidConfig(f"--cone: cannot read {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidConfig(f"--cone: {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(desc, dict):
        raise InvalidConfig(f"--cone: {path!r}: top level must be an object")
    base_dir = os.path.dirname(os.path.abspath(path))

    def resolve(p):
        return p if os.path.isabs(p) else os.path.join(base_dir, p)

    try:
        return cone_from_descriptor(desc, resolve_path=resolve)
    except OSError as exc:
        raise InvalidConfig(f"--cone: cannot read base curve: {exc}") from exc
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        raise InvalidConfig(f"--cone: bad descriptor: {exc}") from exc


def _load_ivp(path):
    try:
        with open(path, "r", encoding="ascii") as fh:
            data = json.load(fh)
        fields = {k: float(data[k]) for k in ("t0", "u0", "dt0", "du0", "length")}
        for key, value in fields.items():
            if not math.isfinite(value):
                raise InvalidConfig(f"--ivp: {key} must be finite, got {value!r}")
        return GeodesicIVP(**fields)
    except OSError as exc:
        raise InvalidConfig(f"--ivp: cannot read {path!r}: {exc}") from exc
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise InvalidConfig(f"--ivp: bad initial data: {exc}") from exc


# ----------------------------------------------------------------------
# command handlers


def _cmd_generate(p):
    _require(p, "a", "out")
    _positive(p, "a")
    if p.get("samples") is not None and p["samples"] < 2:
        raise InvalidConfig(f"--samples must be at least 2, got {p['samples']!r}")
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
        try:
            base = base_from_samples(*read_base_csv(p["base"]))
        except OSError as exc:
            raise InvalidConfig(f"--base: cannot read {p['base']!r}: {exc}") from exc
        except ValueError as exc:
            raise InvalidConfig(f"--base: {exc}") from exc
        curve = generate_rectifying(params, base, s_domain)
    n = int(p.get("samples") or 1024)
    s = np.linspace(*curve.domain, n)
    _atomic_write(p["out"], curve_csv_text(s, curve.evaluate(s)))
    return 0


def _cmd_classify(p):
    _require(p, "in", "report")
    _positive(p, "samples", "tol")
    _check_writable(p["report"], "report")
    curve = reparametrize_arclength(_load_curve(p["in"]))
    n = int(p.get("samples") or 256)
    report = classify_rectifying_or_spherical(curve, samples=n, tol=p.get("tol"))
    payload = report.to_dict()
    try:
        slant = fit_slant_axis(curve, samples=n)
        payload.update(slant.to_dict())
    except DegenerateFit:
        payload.update({"axis": None, "cos_angle_mean": None, "residual": None,
                        "slant_fit_error": "DegenerateFit"})
    _atomic_write(p["report"], report_json_text(payload))
    return 0


def _cmd_integrate(p):
    _require(p, "cone", "ivp", "out")
    _positive(p, "step")
    _check_writable(p["out"], "out")
    cone = _load_cone(p["cone"])
    ivp = _load_ivp(p["ivp"])
    chart = integrate_geodesic(cone, ivp, h=p.get("step") or 1e-3)
    s, t, u = chart.samples
    points = u[:, None] * cone.base.evaluate(t)
    _atomic_write(p["out"], curve_csv_text(s, points))
    return 0


def _cmd_develop(p):
    _require(p, "cone", "in", "out")
    _check_writable(p["out"], "out")
    cone = _load_cone(p["cone"])
    curve = _load_curve(p["in"])
    s = curve.nodes[0]
    chart = chart_curve(cone, curve, s=s)
    planar = develop(chart).point(s)
    _atomic_write(p["out"], development_csv_text(s, planar))
    return 0


def _cmd_verify(p):
    _require(p, "cone", "in", "report")
    _positive(p, "samples", "kg_tol", "clairaut_tol", "align_tol", "straight_tol")
    _check_writable(p["report"], "report")
    cone = _load_cone(p["cone"])
    curve = reparametrize_arclength(_load_curve(p["in"]))
    defaults = VerifyThresholds()
    thresholds = VerifyThresholds(
        max_abs_kg=p.get("kg_tol") or defaults.max_abs_kg,
        clairaut_relvar=p.get("clairaut_tol") or defaults.clairaut_relvar,
        normal_alignment=p.get("align_tol") or defaults.normal_alignment,
        straightness=p.get("straight_tol") or defaults.straightness,
    )
    report = verify_geodesic(cone, curve, samples=int(p.get("samples") or 256),
                             thresholds=thresholds)
    _atomic_write(p["report"], report_json_text(report.to_dict()))
    return 0


def _cmd_crosscheck(p):
    _require(p, "a", "psi0", "report")
    _positive(p, "a", "samples")
    _check_writable(p["report"], "report")
    report = cross_check_circular_cone(
        p["a"], p.get("b") or 0.0, p.get("c") or 0.0, p["psi0"],
        seed=int(p.get("seed") or 0), samples=int(p.get("samples") or 256),
    )
    _atomic_write(p["report"], report_json_text(report.to_dict()))
    return 0


_HANDLERS = {
    "generate": _cmd_generate,
    "classify": _cmd_classify,
    "integrate": _cmd_integrate,
    "develop": _cmd_develop,
    "verify": _cmd_verify,
    "crosscheck": _cmd_crosscheck,
}


# ----------------------------------------------------------------------
# argument parsing and config merging


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern misses exponent forms, so it would read a
        # value such as -7.25e-05 as an unknown option name
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    # argparse exits with status 2 on bad usage; route through InvalidConfig
    # so validation errors consistently exit 1
    def error(self, message):
        raise InvalidConfig(message)


def _build_parser():
    parser = _Parser(
        prog="conegeo",
        description="Generate, classify, develop, and verify curves on cones.",
    )
    parser.add_argument("--config", help="JSON file with per-command option defaults")
    sub = parser.add_subparsers(dest="command")

    g = sub.add_parser("generate", help="emit closed-form geodesic samples as CSV")
    g.add_argument("--a", type=float)
    g.add_argument("--b", type=float)
    g.add_argument("--c", type=float)
    g.add_argument("--psi0", type=float, help="circular-cone half angle")
    g.add_argument("--base", help="base curve CSV (t,x,y,z) for a general cone")
    g.add_argument("--smin", type=float)
    g.add_argument("--smax", type=float)
    g.add_argument("--samples", type=int)
    g.add_argument("--out")

    c = sub.add_parser("classify", help="classification + slant-axis report (JSON)")
    c.add_argument("--in", dest="in")
    c.add_argument("--samples", type=int)
    c.add_argument("--tol", type=float)
    c.add_argument("--report")

    i = sub.add_parser("integrate", help="integrate the geodesic equations (RK4)")
    i.add_argument("--cone")
    i.add_argument("--ivp")
    i.add_argument("--step", type=float)
    i.add_argument("--out")

    d = sub.add_parser("develop", help="unroll a curve on a cone into the plane")
    d.add_argument("--cone")
    d.add_argument("--in", dest="in")
    d.add_argument("--out")

    v = sub.add_parser("verify", help="geodesy report for a curve on a cone")
    v.add_argument("--cone")
    v.add_argument("--in", dest="in")
    v.add_argument("--samples", type=int)
    v.add_argument("--kg-tol", dest="kg_tol", type=float)
    v.add_argument("--clairaut-tol", dest="clairaut_tol", type=float)
    v.add_argument("--align-tol", dest="align_tol", type=float)
    v.add_argument("--straight-tol", dest="straight_tol", type=float)
    v.add_argument("--report")

    x = sub.add_parser("crosscheck", help="rectifying + slant + geodesic consistency")
    x.add_argument("--a", type=float)
    x.add_argument("--b", type=float)
    x.add_argument("--c", type=float)
    x.add_argument("--psi0", type=float)
    x.add_argument("--seed", type=int)
    x.add_argument("--samples", type=int)
    x.add_argument("--report")
    return parser


def build_config(argv):
    parser = _build_parser()
    ns = parser.parse_args(argv)
    if ns.command not in _COMMANDS:
        raise InvalidConfig("no command given; see --help")
    params = {k: v for k, v in vars(ns).items() if k not in ("command", "config")}
    if ns.config:
        try:
            with open(ns.config, "r", encoding="ascii") as fh:
                file_cfg = json.load(fh)
        except OSError as exc:
            raise InvalidConfig(f"--config: cannot read {ns.config!r}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise InvalidConfig(f"--config: not valid JSON: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise InvalidConfig("--config: top level must be an object")
        section = file_cfg.get(ns.command, {})
        if not isinstance(section, dict):
            raise InvalidConfig(f"--config: section {ns.command!r} must be an object")
        sub = parser._subparsers._group_actions[0].choices[ns.command]
        types = {a.dest: a.type for a in sub._actions}
        for key, value in section.items():
            key = key.replace("-", "_")
            if key not in params:
                raise InvalidConfig(f"--config: unknown option {key!r} for {ns.command}")
            if params[key] is None:
                coerce = types.get(key)
                try:
                    params[key] = coerce(value) if coerce and value is not None else value
                except (TypeError, ValueError) as exc:
                    raise InvalidConfig(f"--config: bad value for {key!r}: {exc}") from exc
    for key, value in params.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise InvalidConfig(f"--{key.replace('_', '-')} must be finite, got {value!r}")
    return RunConfig(command=ns.command, params=params)


def run(config: RunConfig):
    return _HANDLERS[config.command](config.params)


def main(argv=None):
    args = list(argv) if argv is not None else sys.argv[1:]
    try:
        config = build_config(args)
    except InvalidConfig as exc:
        print(f"error: InvalidConfig: {exc}", file=sys.stderr)
        return 1
    try:
        return run(config)
    except InvalidConfig as exc:
        print(f"error: InvalidConfig: {exc}", file=sys.stderr)
        return 1
    except (ConeGeoError, ValueError) as exc:
        name = type(exc).__name__
        print(f"error: {name}: {exc}", file=sys.stderr)
        report_path = config.params.get("report")
        if report_path:
            try:
                _atomic_write(report_path,
                              report_json_text({"error": name, "message": str(exc)}))
            except OSError:
                pass
        return 2
    except OSError as exc:
        print(f"error: IO: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
