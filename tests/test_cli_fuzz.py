"""Fuzzed command lines and input files through `main`: every run ends in a defined exit.

Argument vectors are built from the option table, in spaced and `=` forms,
with well-formed, non-finite, empty and garbage values, `--name=--` among
them.  Sample counts stay at or below 512 and RK4 steps at or above 1e-3,
so no run allocates much.  Input files are well-formed curve, base, cone
and IVP files with their bytes mutated.  No run may end in an exception
that only a fault of the program raises.
"""

import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conegeo import RectifyingParams, circular_base, generate_circular_geodesic
from conegeo.cli import _OPTIONS, main
from conegeo.curves import table_chunks

_ODD = ["-1E3", "-7.25e-05", "nan", "inf", "-inf", "1e400", "", "abc", "0x10", "1.5.2",
        "-", "--", "two\nlines", " 3 "]
_PATHS = ["curve.csv", "cone.json", "general.json", "ivp.json", "base.csv", "cfg.json",
          "out.csv", "rep.json", "missing.csv", "no-dir/out.csv", ".", "", "-x", "--",
          "nul\x00"]

# values a passing run would use, per option
_GOOD = {
    "a": st.floats(0.3, 4.0), "b": st.floats(-2.0, 2.0), "c": st.floats(-2.0, 2.0),
    "psi0": st.floats(0.2, 1.3), "smin": st.floats(-3.0, 0.0), "smax": st.floats(0.1, 3.0),
    "step": st.floats(1e-3, 3e-3), "samples": st.integers(2, 512),
    "seed": st.integers(0, 2**32), "base": st.just("base.csv"), "out": st.just("out.csv"),
    "report": st.just("rep.json"), "in": st.just("curve.csv"), "ivp": st.just("ivp.json"),
    "cone": st.sampled_from(["cone.json", "general.json"]),
}


def _value(dest, kind, mode):
    """A value for --dest: one a passing run would use, or anything of its kind."""
    if mode == "good":
        return _GOOD.get(dest, st.floats(1e-8, 1.0))  # the verify and classify tolerances
    if kind is str:
        return st.sampled_from(_PATHS)
    if dest == "step":
        return st.one_of(st.floats(1e-3, 5.0), st.sampled_from(_ODD))
    if kind is int:
        return st.one_of(st.integers(-3, 512), st.sampled_from(_ODD))
    return st.one_of(st.floats(-5.0, 5.0), st.sampled_from(_ODD))


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    options = _OPTIONS[command]
    argv = []
    if draw(st.integers(0, 3)) == 0:
        argv += ["--config", draw(st.sampled_from(["cfg.json", "bad-cfg.json", "missing.json"]))]
    argv.append(command)
    skip = set()
    if command == "generate":  # --psi0 excludes --base, and --smin needs --smax
        skip.add(draw(st.sampled_from(["psi0", "base"])))
        if draw(st.booleans()):
            skip |= {"smin", "smax"}
    for dest in draw(st.permutations(sorted(options))):
        # mostly well-formed, so that runs get past validation and do the work
        mode = draw(st.sampled_from(["good"] * 6 + ["odd", "omit"]))
        if mode == "omit" or dest in skip:
            continue
        flag = "--" + dest.replace("_", "-")
        value = draw(_value(dest, options[dest].type, mode))
        value = value if isinstance(value, str) else repr(value)
        if mode == "odd" and draw(st.booleans()):
            argv.append(f"{flag}=--")  # argparse reads this value as an empty list
        else:
            argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    return argv


# exceptions that only a fault of the program raises, never an input
_FORBIDDEN = tuple(f"error: {name}:" for name in
                   ("TypeError", "KeyError", "AttributeError", "IndexError"))


@pytest.fixture()
def inputs(tmp_path, monkeypatch):
    """A function that restores the input files, which a fuzzed --out may overwrite."""
    monkeypatch.chdir(tmp_path)
    curve = generate_circular_geodesic(RectifyingParams(1.3, 0.2, 0.1), 0.8)
    s = np.linspace(*curve.domain, 256)
    t = np.linspace(0.0, 2 * np.pi, 257)
    base = circular_base(0.8).evaluate(t)
    files = {
        "curve.csv": "".join(table_chunks("s,x,y,z", s, curve.evaluate(s))),
        "base.csv": "".join(table_chunks("t,x,y,z", t, base)),
        "cone.json": json.dumps({"kind": "circular", "psi0": 0.8}),
        "general.json": json.dumps({"kind": "general", "base_csv": "base.csv"}),
        "ivp.json": json.dumps({"t0": 0.0, "u0": 1.0, "dt0": 0.7, "du0": 0.7, "length": 1.0}),
        "cfg.json": json.dumps({"generate": {"psi0": 0.9, "samples": 64},
                                "verify": {"kg-tol": 1e-3}, "crosscheck": {"samples": 128}}),
        "bad-cfg.json": '{"generate": {"psi0": true}, "classify": [1]}',
    }

    def restore():
        for name in ("out.csv", "rep.json"):
            (tmp_path / name).unlink(missing_ok=True)
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        return tmp_path

    return restore


def _finite_artifact(path):
    text = path.read_text()
    if path.suffix == ".json":
        def refuse(name):
            raise AssertionError(f"{path.name} holds {name}")

        json.loads(text, parse_constant=refuse)
    else:
        rows = [line.split(",") for line in text.splitlines()[1:]]
        assert all(math.isfinite(float(v)) for row in rows for v in row), path.name


@settings(derandomize=True, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_argv())
def test_main_fuzz_ends_in_defined_exit(inputs, capsys, argv):
    work = inputs()
    capsys.readouterr()
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err
    assert not err.startswith(_FORBIDDEN), (argv, err)
    if code:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, err)
    else:
        assert err == "", argv
        for name in ("out.csv", "rep.json"):
            if (work / name).exists():
                _finite_artifact(work / name)


# ----------------------------------------------------------------------
# the bytes of the input files

def _command(name, cone="cone.json"):
    """A command line that reads the fixture's files and writes out.csv or rep.json."""
    return {
        "classify": ("classify", "--in", "curve.csv", "--report", "rep.json"),
        "verify": ("verify", "--cone", cone, "--in", "curve.csv", "--report", "rep.json"),
        "develop": ("develop", "--cone", cone, "--in", "curve.csv", "--out", "out.csv"),
        "integrate": ("integrate", "--cone", cone, "--ivp", "ivp.json", "--out", "out.csv"),
        "generate": ("generate", "--a=1.3", "--b=0.2", "--base", "base.csv", "--samples=64",
                     "--out", "out.csv"),
    }[name]


# (mutated file, command line reading it)
_FILE_RUNS = [
    ("curve.csv", _command("classify")),
    ("curve.csv", _command("verify")),
    ("curve.csv", _command("develop")),
    ("base.csv", _command("generate")),
    ("base.csv", _command("develop", "general.json")),
    ("base.csv", _command("integrate", "general.json")),
    ("cone.json", _command("develop")),
    ("cone.json", _command("verify")),
    ("cone.json", _command("integrate")),
    ("general.json", _command("integrate", "general.json")),
    ("ivp.json", _command("integrate")),
]
_NUMBER = re.compile(rb"-?\d+(\.\d+)?([eE][-+]?\d+)?")
# stand-ins for a number token, and bytes to splice in anywhere
_SPLICES = [b"1e308", b"-1e308", b"5e-324", b"0", b"-0.0", b"1e400", b"nan", b"NaN",
            b"Infinity", b"0x10", b"", b"true", b'"0.5"', b"\xef\xbb\xbf", b"\x00", b"\r",
            b",", b"\n", b" ", b"-", b"{", b"]", b"\xff"]
_MUTATION = st.tuples(st.sampled_from(["number", "number", "truncate", "insert", "replace",
                                       "duplicate"]),
                      st.integers(0, 10**5), st.sampled_from(_SPLICES))


def _mutate(data, how, at, splice):
    """data with one edit at position `at`, read modulo the file's length."""
    if how == "number":  # the at-th number token replaced
        tokens = list(_NUMBER.finditer(data))
        if tokens:
            token = tokens[at % len(tokens)]
            return data[:token.start()] + splice + data[token.end():]
    at %= len(data) + 1
    if how == "truncate":
        return data[:at]
    if how == "duplicate":  # the line around `at` written twice
        start = data.rfind(b"\n", 0, at) + 1
        end = data.find(b"\n", at) + 1 or len(data)
        return data[:end] + data[start:end] + data[end:]
    return data[:at] + splice + data[at + (how == "replace"):]


@settings(derandomize=True, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(run=st.sampled_from(_FILE_RUNS), mutations=st.lists(_MUTATION, min_size=1, max_size=2))
# x of base row 100 and of curve row 20 set to 1e308: finite, so the readers take them
@example(run=_FILE_RUNS[3], mutations=[("number", 4 * 100 + 1, b"1e308")])
@example(run=_FILE_RUNS[4], mutations=[("number", 4 * 100 + 1, b"1e308")])
@example(run=_FILE_RUNS[0], mutations=[("number", 4 * 20 + 1, b"1e308")])
@example(run=_FILE_RUNS[2], mutations=[("number", 4 * 20 + 1, b"1e308")])
def test_main_on_mutated_input_files_ends_in_defined_exit(inputs, capsys, run, mutations):
    work = inputs()
    name, argv = run
    data = (work / name).read_bytes()
    for mutation in mutations:
        data = _mutate(data, *mutation)
    (work / name).write_bytes(data)
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(list(argv))
    err = capsys.readouterr().err
    assert code in (0, 1, 2), (argv, data)
    assert not err.startswith(_FORBIDDEN), (argv, err)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], \
        [str(w.message) for w in caught]
    if code:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, err)
    else:
        assert err == "", argv
        for out in ("out.csv", "rep.json"):
            if (work / out).exists():
                _finite_artifact(work / out)
