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

Last, bodies holding inf, -inf or nan must leave the canonical route and
fail read_table with its non-finite error.

Prints the counts, with how many values the long double cast alone
rounded wrongly, or the first value that differs, and exits 1 on a
difference.  Only numpy, the standard library and the repository's src/
are used; this file is not collected by pytest.
"""

import sys
import tempfile
from decimal import Context, Decimal
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from conegeo.curves import _read_canonical, read_table  # noqa: E402

HEADER = "s,x,y,z"
COLUMNS = 4
ROWS_PER_FILE = 16384
MIDPOINTS_PER_FILE = 1024  # three texts of up to 800 digits each


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


def check(count, seed):
    rng = np.random.default_rng(seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.csv"
        random_values = random_misses = 0
        while random_values < count:
            values = finite_doubles(rng, min(ROWS_PER_FILE * COLUMNS, count - random_values))
            done, misses = check_texts(path, [repr(v) for v in values.tolist()], "random")
            random_values += done
            random_misses += misses
        middles = finite_doubles(rng, count // 100)
        family_values = family_misses = 0
        for start in range(0, middles.size, MIDPOINTS_PER_FILE):
            texts = [t for v in middles[start:start + MIDPOINTS_PER_FILE]
                     for t in midpoint_texts(v)]
            done, misses = check_texts(path, texts, "midpoint")
            family_values += done
            family_misses += misses
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
    print(f"{random_values} random values from seed {seed} ({random_misses} rounded wrongly "
          f"by the long double cast alone) and {family_values} midpoint-family values "
          f"({family_misses} rounded wrongly by the cast alone): bit-identical to float() "
          f"(numpy {np.__version__})")
    return 0


if __name__ == "__main__":
    args = [int(a) for a in sys.argv[1:3]]
    sys.exit(check(*(args + [2_000_000, 0][len(args):])))
