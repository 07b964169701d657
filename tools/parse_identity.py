"""Bit identity of the CSV reader's canonical route with float() on random doubles.

    python3 tools/parse_identity.py [COUNT [SEED]]

The reader's twin of tools/repr_identity.py.  Draws COUNT (default
2,000,000) uniformly random 64-bit patterns, so every sign and exponent
turns up, subnormals among them; the non-finite ones are drawn again,
because the canonical grammar has no text for them.  Writes them with `%r`
as four-column bodies under the curve header, reads each file through
curves._read_canonical, the canonical route of read_table, and compares
every value bitwise with float() of its text.

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

Last, bodies holding inf, -inf or nan must leave the canonical route and
fail read_table with its non-finite error.

Prints the counts, with how many values the long double cast alone
rounded wrongly and how many blocks of each family the fixed-point path
and strtold read, or the first value that differs.  Exits 1 on a
difference, and when the fixed-notation families took the fixed-point
path in no block on a platform whose long double has it.
Only numpy, the standard library and the repository's src/
are used; this file is not collected by pytest.
"""

import sys
import tempfile
from collections import Counter
from decimal import Context, Decimal
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from conegeo import curves  # noqa: E402
from conegeo.curves import _read_canonical, read_table  # noqa: E402

HEADER = "s,x,y,z"
COLUMNS = 4
ROWS_PER_FILE = 16384
MIDPOINTS_PER_FILE = 1024  # three texts of up to 800 digits each
BLOCKS = Counter()  # "read": blocks the canonical route read; "fixed-point": by _read_fixed


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
    """Count in BLOCKS the blocks the canonical route reads, and those of its fixed-point path."""
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
    got = _read_canonical(path, HEADER)
    if got is None:
        print(f"{label}: the canonical route declined a canonical body")
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
            if _read_canonical(path, HEADER) is not None:
                print(f"{bad}: the canonical route read a non-finite text")
                return 1
            try:
                read_table(path, HEADER)
            except ValueError as exc:
                if "non-finite value" not in str(exc):
                    raise
            else:
                print(f"{bad}: read_table accepted a non-finite value")
                return 1
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
