"""Bit identity of the CSV reader with float() on random doubles, and its refusals.

    python3 tools/parse_identity.py [COUNT [SEED]]

The reader's twin of tools/repr_identity.py.  Draws COUNT (default
2,000,000) uniformly random 64-bit patterns, so every sign and exponent
turns up, subnormals among them; the non-finite ones are drawn again,
because the reader's grammar has no text for them.  Writes them with `%r`
as four-column bodies under the curve header, reads each file through
curves._read_rows, read_table's reader before its checks of the values,
and compares every value bitwise with float() of its text.

Then the decimal midpoint families of COUNT // 100 random finite doubles
v, written with the decimal module: the exact midpoint m of v and the next
double up, and m (1 - 1e-40) and m (1 + 1e-40).  A long double reads each
of these as m, so rounding it to float64 alone rounds half of the
perturbed ones the wrong way; the midpoint re-read must catch all of them.

Then the fixed-notation families, which the reader's fixed-point path
(curves._read_fixed) takes where every field of a block has the form
-?D+.D+: COUNT // 2 random doubles of both signs with 1e-4 <= |v| < 1e16,
which `%r` writes without an exponent, and COUNT // 100 exact midpoints
+-2**k (1 + j 2**-52) + 2**(k-53) for k = 51..59, written as N.25, N.5 or
N.0, one file per k.  From k = 56 on, mantissas (the digits without the
dot) reach 10**18, so those files' blocks are left to strtold.

Then bodies holding inf, -inf or nan must fail read_table with its
non-finite error.  Last, the refusal family: a 16,384-row file of random
doubles with one fault in a random data row R, one file for each of CRLF, a
blank line, a spaced field, hex, `1e` and a 70,000-byte row.  Each must
fail read_table with one line naming data row R.  Older numpy warns where
newer numpy raises on text np.fromstring cannot read to its end (as `1e`),
so this checks that such a half-read block is refused, not returned.

Prints the counts, with how many values the long double cast alone
rounded wrongly and how many blocks of each family the fixed-point path
and strtold read, or the first value that differs.  Exits 1 on a
difference, and when the fixed-notation families took the fixed-point
path in no block on a platform whose long double has it.
Only numpy, the standard library and the repository's src/
are used; this file is not collected by pytest.
"""

import re
import sys
import tempfile
from collections import Counter
from decimal import Context, Decimal
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from conegeo import curves  # noqa: E402
from conegeo.curves import _read_rows, read_table  # noqa: E402

HEADER = "s,x,y,z"
COLUMNS = 4
ROWS_PER_FILE = 16384
MIDPOINTS_PER_FILE = 1024  # three texts of up to 800 digits each
BLOCKS = Counter()  # "read": blocks the reader read; "fixed-point": by _read_fixed
# (name, fault): each takes a row of the refusal family's file and returns
# it with the fault, which is then in that row's place
REFUSALS = {
    "CRLF": lambda row: row + "\r",
    "blank line": lambda row: "\n" + row,
    "spaced field": lambda row: row.replace(",", ", ", 1),
    "hex": lambda row: row.split(",", 1)[0] + ",0x10," + row.split(",", 2)[2],
    "1e": lambda row: row.split(",", 1)[0] + ",1e," + row.split(",", 2)[2],
    "70,000-byte row": lambda row: row.replace(",", "," + "0" * 70000, 1),
}


def finite_doubles(rng, count):
    """count random float64 bit patterns, each non-finite one drawn again."""
    values = np.frombuffer(rng.bytes(count * 8), dtype=np.float64).copy()
    while not np.isfinite(values).all():
        bad = ~np.isfinite(values)
        values[bad] = np.frombuffer(rng.bytes(int(bad.sum()) * 8), dtype=np.float64)
    return values


def midpoint_texts(v):
    """Exact decimal midpoint of v and the next double up, and that midpoint +-1e-40 relative."""
    context = Context(prec=1200)  # a midpoint has at most 768 significant digits
    m = context.divide(context.add(Decimal(float(v)), Decimal(float(np.nextafter(v, np.inf)))), 2)
    return [str(context.add(m, context.multiply(m, Decimal(f"{k}e-40")))) for k in (0, -1, 1)]


def fixed_doubles(rng, count):
    """count random doubles of both signs, 1e-4 <= |v| < 1e16: %r writes them without exponent."""
    values = np.empty(0)
    while values.size < count:
        bits = (rng.integers(1023 - 14, 1023 + 54, count, dtype=np.uint64) << np.uint64(52)
                | rng.integers(0, 2**52, count, dtype=np.uint64)
                | rng.integers(0, 2, count, dtype=np.uint64) << np.uint64(63))
        drawn = bits.view(np.float64)
        drawn = drawn[(np.abs(drawn) >= 1e-4) & (np.abs(drawn) < 1e16)]
        values = np.concatenate([values, drawn])
    return values[:count]


def fixed_midpoint_texts(rng, k, count):
    """count exact midpoints +-2**k (1 + j 2**-52) + 2**(k-53), j random, in fixed notation."""
    texts = []
    for j, negative in zip(rng.integers(0, 2**52, count).tolist(),
                           rng.integers(0, 2, count).tolist()):
        odd = 2**53 + 2 * j + 1  # the midpoint is odd * 2**(k-53)
        if k >= 53:
            text = f"{odd << (k - 53)}.0"
        else:
            shift = 53 - k
            text = f"{odd >> shift}.{(odd & ((1 << shift) - 1)) * 5**shift:0{shift}d}"
        texts.append("-" * negative + text)
    return texts


def count_blocks():
    """Count in BLOCKS the blocks the reader reads, and those of its fixed-point path."""
    def counted(read, key):
        def wrapper(*args):
            out = read(*args)
            BLOCKS[key] += out is not None
            return out
        return wrapper

    curves._read_block = counted(curves._read_block, "read")
    curves._read_fixed = counted(curves._read_fixed, "fixed-point")


def check_texts(path, texts, label):
    """(values, cast misses) for one file of the texts; exits 1 on a difference."""
    texts = texts + ["0.0"] * (-len(texts) % COLUMNS)
    body = "\n".join(",".join(texts[i:i + COLUMNS]) for i in range(0, len(texts), COLUMNS))
    path.write_text(f"{HEADER}\n{body}\n", encoding="ascii")
    try:
        got = _read_rows(path, HEADER)
    except ValueError as exc:
        print(f"{label}: a body of the grammar was refused: {exc}")
        sys.exit(1)
    want = np.array([float(t) for t in texts])
    mismatch = np.flatnonzero(got.ravel().view(np.uint64) != want.view(np.uint64))
    if mismatch.size:
        i = mismatch[0]
        print(f"{label}: {texts[i]!r} read as {got.ravel()[i]!r}, float() reads {want[i]!r}")
        sys.exit(1)
    cast = np.fromstring(body.replace("\n", ","), sep=",", dtype=np.longdouble)
    with np.errstate(over="ignore"):
        cast = cast.astype(np.float64)
    return want.size, int(np.count_nonzero(cast.view(np.uint64) != want.view(np.uint64)))


def check_family(path, label, batches):
    """(values, cast misses, fixed-point blocks, strtold blocks) of the files of the batches."""
    before = BLOCKS.copy()
    values = misses = 0
    for texts in batches:
        done, missed = check_texts(path, texts, label)
        values += done
        misses += missed
    fixed = BLOCKS["fixed-point"] - before["fixed-point"]
    return values, misses, fixed, BLOCKS["read"] - before["read"] - fixed


def refusal(path):
    """How read_table's one-line error names path's fault: "data row R" or "non-finite value".

    None if read_table reads path, or its error is not one line naming path.
    """
    try:
        read_table(path, HEADER)
    except ValueError as exc:
        line = str(exc)
        named = re.search(r"non-finite value|data row \d+", line)
        if line.startswith(f"{path}: ") and "\n" not in line and named:
            return named.group()
    return None


def check(count, seed):
    rng = np.random.default_rng(seed)
    count_blocks()
    per_file = ROWS_PER_FILE * COLUMNS
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.csv"
        families = {}
        families["random"] = check_family(path, "random", (
            [repr(v) for v in finite_doubles(rng, min(per_file, count - done)).tolist()]
            for done in range(0, count, per_file)))
        middles = finite_doubles(rng, count // 100)
        families["midpoint"] = check_family(path, "midpoint", (
            [t for v in middles[start:start + MIDPOINTS_PER_FILE] for t in midpoint_texts(v)]
            for start in range(0, middles.size, MIDPOINTS_PER_FILE)))
        families["fixed-notation"] = check_family(path, "fixed-notation", (
            [repr(v) for v in fixed_doubles(rng, min(per_file, count // 2 - done)).tolist()]
            for done in range(0, count // 2, per_file)))
        families["fixed midpoint"] = check_family(path, "fixed midpoint", (
            fixed_midpoint_texts(rng, k, count // 900) for k in range(51, 60)))
        for bad in ("inf", "-inf", "nan"):
            path.write_text(f"{HEADER}\n0.0,1.0,{bad},2.0\n", encoding="ascii")
            if refusal(path) != "non-finite value":
                print(f"{bad}: read_table did not name a non-finite value")
                return 1
        table = finite_doubles(rng, per_file).reshape(-1, COLUMNS).tolist()
        rows = [",".join(map(repr, [float(k), *row[1:]])) for k, row in enumerate(table)]
        for name, fault in REFUSALS.items():
            row = int(rng.integers(len(rows)))
            path.write_text("\n".join([HEADER, *rows[:row], fault(rows[row]), *rows[row + 1:]])
                            + "\n", encoding="ascii")
            if refusal(path) != f"data row {row + 1}":
                print(f"{name} in data row {row + 1}: not named by read_table")
                return 1
        print(f"{len(REFUSALS)} refusal files: each fault named by its data row")
    for label, (values, misses, fixed, strtold) in families.items():
        print(f"{values} {label} values: {misses} rounded wrongly by the long double cast "
              f"alone; {fixed} blocks read by the fixed-point path, {strtold} by strtold")
    print(f"seed {seed}: bit-identical to float() (numpy {np.__version__})")
    if not curves._FIXED_POINT:
        print("this platform's long double has no fixed-point path: every block took strtold")
    elif not families["fixed-notation"][2] + families["fixed midpoint"][2]:
        print("the fixed-notation families took the fixed-point path in no block")
        return 1
    return 0


if __name__ == "__main__":
    args = [int(a) for a in sys.argv[1:3]]
    sys.exit(check(*(args + [2_000_000, 0][len(args):])))
