"""Byte identity of the CSV writer with repr() on random float64 bit patterns.

    python3 tools/repr_identity.py [COUNT [SEED]]

Draws COUNT (default 2,000,000) uniformly random 64-bit patterns, so every
sign and exponent turns up, subnormals, infinities and NaNs among them.
Writes them with floattext.block_text in blocks of curves.TABLE_BLOCK_ROWS
four-column rows, as table_chunks does, and compares each block with the
`%r` text of the same values.  Prints the count checked, or the first
value that differs, and exits 1 on a difference.
Only numpy and the repository's src/ are used; this file is not collected
by pytest.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from conegeo.curves import TABLE_BLOCK_ROWS  # noqa: E402
from conegeo.floattext import block_text  # noqa: E402

COLUMNS = 4


def check(count, seed):
    rng = np.random.default_rng(seed)
    row = ",".join(["%r"] * COLUMNS) + "\n"
    checked = 0
    while checked < count:
        rows = min(TABLE_BLOCK_ROWS, -(-(count - checked) // COLUMNS))
        block = np.frombuffer(rng.bytes(rows * COLUMNS * 8), dtype=np.float64)
        block = block.reshape(rows, COLUMNS)
        values = block.ravel().tolist()
        got = block_text(block)
        want = (row * rows) % tuple(values)
        if got != want:
            got_values = got.replace("\n", ",").split(",")
            want_values = want.replace("\n", ",").split(",")
            i = next(i for i, (a, b) in enumerate(zip(got_values, want_values)) if a != b)
            bits = np.float64(values[i]).view(np.uint64)
            print(f"value {checked + i} (bits 0x{int(bits):016x}): "
                  f"wrote {got_values[i]!r}, repr is {want_values[i]!r}")
            return 1
        checked += block.size
    print(f"{checked} values from seed {seed}: byte-identical to repr "
          f"(numpy {np.__version__})")
    return 0


if __name__ == "__main__":
    args = [int(a) for a in sys.argv[1:3]]
    sys.exit(check(*(args + [2_000_000, 0][len(args):])))
