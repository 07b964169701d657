"""Mutation check of the oracles: does the Tier-1 suite notice a one-line fault?

Each mutant replaces one piece of text in one module of src/conegeo.  The
repository is copied once to a scratch directory; each mutant is written
into the copy, `pytest -x -q` runs there in a fresh subprocess, and the
module is restored.  A mutant is killed when the suite fails on it (pytest
exit 1, or 2 on a collection error) and survives when the suite passes; any
other exit, or a failure of the unmutated copy, stops the run.

    python3 tools/mutants.py

Prints one line per mutant and a killed/survived table, and exits 1 when a
mutant survives.
Only the standard library is used; this file is not collected by pytest.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (label, module, text, replacement): one-line faults in the oracles
ORACLES = [
    ("gate max_abs_kg forced to pass", "geodesics.py",
     'max_kg < limit["max_abs_kg"]', "True"),
    ("gate clairaut_relvar forced to pass", "geodesics.py",
     'relvar < limit["clairaut_relvar"]', "True"),
    ("gate normal_alignment_min forced to pass", "geodesics.py",
     'align > 1.0 - limit["normal_alignment_min"]', "True"),
    ("gate development_straightness forced to pass", "geodesics.py",
     'straightness < limit["development_straightness_residual"]', "True"),
    ("RK4 drift guard removed", "geodesics.py",
     "if not (drift <= drift_tol):", "if False:"),
    ("RK4 vertex guard removed", "geodesics.py", "if u < u_min:", "if False:"),
    ("identity_ok = True", "geodesics.py",
     "identity_ok = max_e3 < IDENTITY_TOL and max_ru < IDENTITY_TOL", "identity_ok = True"),
    ("slant_ok = True", "geodesics.py",
     "slant_ok = slant.residual < SLANT_TOL", "slant_ok = True"),
    ("if rect_ok: for if rect_ok and not spher_ok:", "classify.py",
     "if rect_ok and not spher_ok:", "if rect_ok:"),
    ("sign = 1.0", "classify.py",
     "sign = 1.0 if float(np.mean(np.sum(cross * frames.normal, axis=-1))) >= 0 else -1.0",
     "sign = 1.0"),
    ("slant-axis gap floor removed", "classify.py",
     "if gap <= 1e-6 * max(float(evals[2]), 1e-12):", "if False:"),
    ("identity residual: / a for * a", "classify.py",
     "(1.0 + w**2) ** 1.5 / a * dg", "(1.0 + w**2) ** 1.5 * a * dg"),
    ("relative_spread zero rule returns 0", "classify.py",
     "return spread / ref if ref > 1e-14 else spread",
     "return spread / ref if ref > 1e-14 else 0.0"),
    ("unit_normal guard removed", "cones.py", "if np.any(nrm < 1e-6):", "if False:"),
    ("line_fit residual: np.max for np.mean", "cones.py",
     "residual = float(np.max(np.abs(centered @ normal)))",
     "residual = float(np.mean(np.abs(centered @ normal)))"),
    ("KAPPA_FLOOR 1e-9 -> 1e-5", "curves.py", "KAPPA_FLOOR = 1e-9", "KAPPA_FLOOR = 1e-5"),
    ("ON_CONE_RTOL x100", "cones.py", "ON_CONE_RTOL = 1e-8", "ON_CONE_RTOL = 1e-6"),
    ("chart range lets a NaN |point| through", "cones.py",
     "~((u >= U_MIN) & (u <= U_MAX))", "(u < U_MIN) | (u > U_MAX)"),
    ('UNIT_TOL["finite-difference"] x100', "curves.py",
     '"finite-difference": 1e-5}', '"finite-difference": 1e-3}'),
]

# (label, module, text, replacement): one-line faults in the CSV writer's
# digit selection and layout, each of which changes some value's text
WRITER = [
    ("writer ties round down, not to even", "floattext.py",
     "(vb + _U(1) + (s & _U(1))) >> _U(2)", "(vb + _U(1) + _U(0)) >> _U(2)"),
    ("writer never includes the interval ends", "floattext.py",
     "out = c & _U(1)", "out = _U(1)"),
    ("writer always includes the interval ends", "floattext.py",
     "out = c & _U(1)", "out = _U(0)"),
    ("writer drops the narrow interval's k", "floattext.py",
     "k = _floor_log10_pow2(q, narrow)", "k = _floor_log10_pow2(q, 0)"),
    ("writer tries the shorter candidate only for s >= 100", "floattext.py",
     "where=upin != wpin)", "where=(upin != wpin) & (s >= _U(100)))"),
    ("writer exponent from decpt <= -3", "floattext.py", "(decpt > -4)", "(decpt > -3)"),
    ("writer exponent from decpt > 15", "floattext.py", "(decpt <= 16)", "(decpt <= 15)"),
]

# (label, module, text, replacement): one-line faults in the memory bound of
# sample_curve, the file writer's cleanup, the wording of an RK4 error, the
# base's unit-speed check, the curve's arc-length refusal, a node table's
# stencil step, the option table's checker and the CSV reader
GUARDS = [
    ("sample_curve jet block unbounded", "curves.py", "_JET_BLOCK = 4096",
     "_JET_BLOCK = 10**12"),
    ("file writer leaves its temp file", "curves.py", "os.unlink(tmp)", "pass"),
    ("RK4 stage error names u_min, not the chart range", "geodesics.py",
     'below the chart range "\n                             f"[{u_min:.3g}, {U_MAX:.3g}], at s',
     'below u_min = {u_min:.3g}, "\n                             f"at s'),
    ("base speed check loosened to 1.0", "cones.py",
     "if not off[worst] <= UNIT_TOL[curve.derivative_mode]:", "if not off[worst] <= 1.0:"),
    ("curve speed refusal skipped", "curves.py",
     "if not off[worst] < UNIT_TOL[curve.derivative_mode]:", "if False:"),
    ("node-table step halved", "curves.py",
     "self._h = float(np.mean(np.diff(self._nodes[0])))",
     "self._h = 0.5 * float(np.mean(np.diff(self._nodes[0])))"),
    ("the length/100 cap restored", "curves.py",
     "self._h = float(np.mean(np.diff(self._nodes[0])))",
     "self._h = min(float(np.mean(np.diff(self._nodes[0]))), (s_max - s_min) / 100.0)"),
    ("positive-option rule lets 0 through", "cli.py",
     "not (value > 0)", "value < 0"),
    ("required rule skipped", "cli.py",
     "if params[key] is None and row.default is _REQUIRED:", "if False:"),
    ("generate samples floor off by one", "cli.py",
     '"samples": _Option(int, 1024, _check_samples(2), None)',
     '"samples": _Option(int, 1024, _check_samples(1), None)'),
    ("--step default dropped", "cli.py",
     '"step": _Option(float, 1e-3, _check_positive, None)',
     '"step": _Option(float, None, _check_positive, None)'),
    ("command parser built per call", "cli.py", "@functools.cache\ndef _command_parser",
     "def _command_parser"),
    ("CSV midpoint re-read skipped", "curves.py",
     "redo = (r != 0) & ((out + 2 * r) - out == 2 * r)", "redo = r != r"),
    ("CSV tiny and infinite values not read again", "curves.py",
     "redo |= ~((size > _TINY) & (size < np.inf))", "pass"),
    ("CSV block cut one byte off its newline", "curves.py",
     'block = block[:block.rfind(b"\\n") + 1]', 'block = block[:block.rfind(b"\\n")]'),
    ("CSV row-width check dropped", "curves.py",
     "if (seps.size != rows * width or np.count_nonzero(ends) != rows\n"
     "            or not ends[width - 1::width].all()):", "if False:"),
    ("CSV refusal counts data rows from 0", "curves.py",
     "row = len(before)\n", "row = len(before) - 1\n"),
    ("CSV refusal width check dropped", "curves.py",
     "if len(fields) != width:", "if False:"),
    ("CSV field grammar accepts a space", "curves.py",
     '_FIELD = re.compile(rb"[-+]?(', '_FIELD = re.compile(rb" ?[-+]?('),
    ("CSV refusal pass starts at the first row, not the declined block", "curves.py",
     "_refuse(path, fh, start, data[:done // width], width)",
     "_refuse(path, fh, len(head), data[:0], width)"),
    ("CSV refusal skips the values read before the declined block", "curves.py",
     '_check_values(path, before, np.isfinite(before), "non-finite value")\n    fh.seek',
     "fh.seek"),
    ("CSV fixed-point dot-in-own-field check dropped", "curves.py",
     "if not ((starts + minus < dots) & (dots < seps - 1)).all():", "if False:"),
    ("CSV fixed-point minus-count check dropped", "curves.py",
     "if np.count_nonzero(chars == 45) != np.count_nonzero(minus):", "if False:"),
    ("CSV fixed-point mantissa limit 10**18 raised to 10**19", "curves.py",
     "_MANTISSA_MAX = 10**18", "_MANTISSA_MAX = 10**19"),
    ("CSV fixed-point fraction digits limit 27 raised to 28", "curves.py",
     "if frac.max() > 27:", "if frac.max() > 28:"),
    ("CSV fixed-point -0.0 fix dropped", "curves.py",
     "values[minus & (m == 0)] = -0.0", "pass"),
]

# (label, module, text, replacement): one-line faults in the closed form and
# in the jet algebra every chart curve is built with
CLOSED_FORM = [
    ("closed form: sign of b in t(s)", "geodesics.py",
     "w = a * s + b\n        q = 1.0 + w * w", "w = a * s - b\n        q = 1.0 + w * w"),
    ("closed form: arctan off by a factor", "geodesics.py",
     "lambda: c + np.arctan(w),", "lambda: c + 1.01 * np.arctan(w),"),
    ("jet_product drops the u_0 y_k Leibniz term", "jets.py",
     "for j in range(k - 1, -1, -1):", "for j in range(k - 1, 0, -1):"),
]

# (name, module, text, its literal, the literal x10, the literal x0.1): every
# named limit, scaled both ways; MIN_SAMPLES counts nodes, so 0.7 rounds to 1
LIMITS = [
    ("GATES max_abs_kg", "geodesics.py", '"max_abs_kg": ("kg_tol", 1e-4)',
     "1e-4", "1e-3", "1e-5"),
    ("GATES clairaut_relvar", "geodesics.py", '"clairaut_relvar": ("clairaut_tol", 1e-5)',
     "1e-5", "1e-4", "1e-6"),
    ("GATES normal_alignment_min", "geodesics.py",
     '"normal_alignment_min": ("align_tol", 1e-5)', "1e-5", "1e-4", "1e-6"),
    ("GATES development_straightness_residual", "geodesics.py",
     '"development_straightness_residual": ("straight_tol", 1e-6)', "1e-6", "1e-5", "1e-7"),
    ("SLANT_TOL", "geodesics.py", "SLANT_TOL = 1e-5", "1e-5", "1e-4", "1e-6"),
    ("IDENTITY_TOL", "geodesics.py", "IDENTITY_TOL = 1e-4", "1e-4", "1e-3", "1e-5"),
    ("drift_tol default", "geodesics.py", "drift_tol = 1e-9 * max(1.0, L)",
     "1e-9", "1e-8", "1e-10"),
    ("ON_CONE_RTOL", "cones.py", "ON_CONE_RTOL = 1e-8", "1e-8", "1e-7", "1e-9"),
    ("_NEWTON_TOL", "cones.py", "_NEWTON_TOL = 1e-12", "1e-12", "1e-11", "1e-13"),
    ("U_MAX", "cones.py", "U_MAX = 1e6", "1e6", "1e7", "1e5"),
    ("U_MIN", "cones.py", "U_MIN = 1e-9 * U_MAX", "1e-9", "1e-8", "1e-10"),
    ('UNIT_TOL["analytic"]', "curves.py", '"analytic": 1e-12', "1e-12", "1e-11", "1e-13"),
    ('UNIT_TOL["finite-difference"]', "curves.py", '"finite-difference": 1e-5',
     "1e-5", "1e-4", "1e-6"),
    ("KAPPA_FLOOR", "curves.py", "KAPPA_FLOOR = 1e-9", "1e-9", "1e-8", "1e-10"),
    ("CURVE_VALUE_MAX", "curves.py", "CURVE_VALUE_MAX = 1e150", "1e150", "1e151", "1e149"),
    ("MIN_SAMPLES", "classify.py", "MIN_SAMPLES = 7", "7", "70", "1"),
    ("MAX_SAMPLES", "cli.py", "MAX_SAMPLES = 10**6", "10**6", "10**7", "10**5"),
]


def mutants():
    yield from ORACLES
    yield from WRITER
    yield from GUARDS
    yield from CLOSED_FORM
    for name, module, text, literal, up, down in LIMITS:
        for factor, value in (("x10", up), ("x0.1", down)):
            yield f"{name} {factor}", module, text, text.replace(literal, value)


def pytest(copy, env):
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
        cwd=copy, env=env, capture_output=True, text=True)


def run(workdir):
    copy = Path(workdir) / "repo"
    shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_*"))
    env = {**os.environ, "PYTHONPATH": str(copy / "src")}
    done = pytest(copy, env)
    if done.returncode != 0:
        raise SystemExit(f"the unmutated copy fails (exit {done.returncode}):\n"
                         f"{done.stdout}{done.stderr}")
    rows = []
    for label, module, text, replacement in mutants():
        path = copy / "src" / "conegeo" / module
        source = path.read_text()
        if source.count(text) != 1:
            raise SystemExit(f"{label}: {text!r} is not once in {module}; update the table")
        path.write_text(source.replace(text, replacement))
        start = time.perf_counter()
        try:
            done = pytest(copy, env)
        finally:
            path.write_text(source)
        if done.returncode not in (0, 1, 2):
            raise SystemExit(f"{label}: pytest exit {done.returncode}:\n"
                             f"{done.stdout}{done.stderr}")
        failed = [line.split(" - ")[0] for line in done.stdout.splitlines()
                  if line.startswith(("FAILED ", "ERROR "))]
        verdict = "survived" if done.returncode == 0 else "killed"
        by = failed[0].split(" ", 1)[1] if failed else f"exit {done.returncode}"
        rows.append((label, module, verdict, "" if done.returncode == 0 else by))
        print(f"{verdict:8} {time.perf_counter() - start:5.1f}s  {label}  {rows[-1][3]}",
              flush=True)
    print("\n| mutant | module | result | first failing test |\n|---|---|---|---|")
    for label, module, verdict, by in rows:
        print(f"| {label} | {module} | {verdict} | {by} |")
    survived = sum(verdict == "survived" for _, _, verdict, _ in rows)
    print(f"\n{len(rows) - survived} killed, {survived} survived")
    return 1 if survived else 0


if __name__ == "__main__":
    with tempfile.TemporaryDirectory(prefix="conegeo-mutants-") as workdir:
        sys.exit(run(workdir))
