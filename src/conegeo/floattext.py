"""Shortest round-trip decimal text of float64 blocks, computed in numpy lanes.

`block_text` writes a 2-D float64 block as CSV rows, every value exactly as
`repr(float)` writes it.  The digits come from Schubfach (R. Giulietti,
"The Schubfach way to render doubles", 2020): each value's shortest
correctly rounded decimal, closest to the value, ties to even.  Two rules
of Giulietti's Java code are left out because `repr` has no use for them:
the subnormal path that forces two digits (`repr` writes `5e-324`) and the
`s >= 100` guard on the shorter candidate.

Each value's text is laid out in a row of _WIDTH slots and packed by
deleting NUL bytes.  The value's 17 digits, left-aligned, go in twice, once
for the part before the decimal point (A) and once for the part after it
(B); a template keyed by (sign, digit count, layout) keeps the slots that
belong to the value's text and writes its constant characters.  `repr`
uses an exponent when the decimal point position `decpt` is at most -4 or
above 16.  Every lane is 64-bit: uint64 for significands and products,
int64 for exponents and digits.  The tables are built on first use.
"""

from functools import cache

import numpy as np

_DIGITS = 17
# slots of one value's text; each digit string is _PAD zeros and 17 digits
_PAD = 3
_SIGN, _LEAD = 1, 2          # "-", and the "0" of "0.000ddd"
_A, _B = 0, 20               # the two digit strings, four slots per uint32
_DOT = _A + _PAD + 16        # A's 17th digit, which no fixed layout keeps
_EXP = 40                    # "e+dd" / "e-ddd", one uint64 of the exponent table
_SEP = 47                    # "," or "\n"
_WIDTH = 48

_FIXED = 20                  # layouts decpt + 3 for decpt -3..16, where repr writes no exponent
_LAYOUTS = _FIXED + 1        # and the exponent form
_SPECIAL = 2 * _DIGITS * _LAYOUTS  # first key of 0.0, -0.0, inf, -inf, nan
_SPECIALS = ("0.0", "-0.0", "inf", "-inf", "nan")

_U = np.uint64
_M32 = _U(0xFFFFFFFF)
_M63 = _U(2**63 - 1)
_K_MIN = -324                # the 10^-k table spans k = -324..292
_E_MIN = -324                # the exponent table spans e = -324..308
_POW10 = np.array([10**i for i in range(19)], dtype=np.uint64)


def _floor_log10_pow2(q, narrow):
    # floor(log10(2^q)), or floor(log10(3/4 2^q)) where narrow is 1
    return (q * 661971961083 - narrow * 274743187321) >> 41


def _floor_log2_pow10(e):
    return (e * 913124641741) >> 38


@cache
def _tables():
    """(g1, g0, quads, exponents, templates), built once.

    g = g1 2^63 + g0 is floor(10^-k 2^(125 - floor(log2 10^-k))) + 1 for
    k = -324..292.  quads holds "0000".."9999" as native uint32, and
    exponents the NUL-padded text "e-324".."e+308" as native uint64.
    """
    g1, g0 = [], []
    for k in range(_K_MIN, 293):
        shift = 125 - _floor_log2_pow10(-k)
        if k <= 0:
            g = 10**-k << shift if shift >= 0 else 10**-k >> -shift
        else:
            g = (1 << shift) // 10**k
        g1.append((g + 1) >> 63)
        g0.append((g + 1) & (2**63 - 1))
    pairs = np.frombuffer("".join(f"{r:02d}" for r in range(100)).encode(), dtype=np.uint8)
    quads = np.empty((100, 100, 4), dtype=np.uint8)
    quads[:, :, :2] = pairs.reshape(100, 1, 2)
    quads[:, :, 2:] = pairs.reshape(1, 100, 2)
    exponents = b"".join(f"e{e:+03d}".encode().ljust(8, b"\0") for e in range(_E_MIN, 309))
    return (np.array(g1, dtype=np.uint64), np.array(g0, dtype=np.uint64),
            quads.view(np.uint32).ravel(), np.frombuffer(exponents, dtype=np.uint64),
            _templates())


def _templates():
    """(keep, chars) rows of every key, shape (2, _SPECIAL + 5, _WIDTH), uint8.

    A value's text is its slot row ANDed with keep (0xFF where the value's
    own characters show) and ORed with chars (the constant characters).
    """
    sign, nd, layout = np.ix_(np.arange(2), np.arange(1, _DIGITS + 1), np.arange(_LAYOUTS))
    fixed = layout < _FIXED
    decpt = layout - 3                  # of the fixed layouts
    j = np.arange(_DIGITS)
    keep = np.zeros((2, _DIGITS, _LAYOUTS, _WIDTH), dtype=bool)
    chars = np.zeros(keep.shape, dtype=np.uint8)

    def each(mask):
        return mask[..., None]

    def fill(array, slots, mask, value):
        cells = array[..., slots]
        cells[np.broadcast_to(mask, cells.shape)] = value

    a = slice(_A + _PAD, _A + _PAD + _DIGITS)
    b = slice(_B + _PAD, _B + _PAD + _DIGITS)
    fill(chars, _SIGN, sign == 1, ord("-"))
    fill(chars, _LEAD, fixed & (decpt <= 0), ord("0"))
    fill(chars, _DOT, fixed | (nd > 1), ord("."))
    # fixed: A holds the digits before the point, with the string's trailing
    # zeros up to it, and B the digits after it; a point at or past the last
    # digit is followed by one of B's leading zeros, and "0." by up to three
    fill(keep, a, each(fixed) & (j < each(decpt)), True)
    fill(keep, b, each(fixed) & (j >= each(decpt)) & (j < each(nd)), True)
    fill(keep, _B + _PAD - 1, fixed & (decpt >= nd), True)
    fill(keep, slice(_B, _B + _PAD), each(fixed) & (np.arange(_PAD) >= _PAD + each(decpt)), True)
    # exponent form: one digit, the point, the other digits, the exponent
    fill(keep, a, each(~fixed) & (j == 0), True)
    fill(keep, b, each(~fixed) & (j >= 1) & (j < each(nd)), True)
    fill(keep, slice(_EXP, _EXP + 8), each(~fixed), True)
    special_chars = np.zeros((len(_SPECIALS), _WIDTH), dtype=np.uint8)
    for row, text in enumerate(_SPECIALS):
        special_chars[row, _PAD:_PAD + len(text)] = np.frombuffer(text.encode(), dtype=np.uint8)
    keep = np.concatenate([keep.reshape(-1, _WIDTH), np.zeros(special_chars.shape, dtype=bool)])
    chars = np.concatenate([chars.reshape(-1, _WIDTH), special_chars])
    keep[:, _SEP] = True
    return np.stack([np.where(keep, 0xFF, 0).astype(np.uint8), chars])


def block_text(block):
    """CSV text of a C-contiguous (rows, columns) float64 block, each value as repr()."""
    rows, cols = block.shape
    bits = block.reshape(-1).view(np.uint64)
    g1s, g0s, quads, exponents, templates = _tables()

    neg = (bits >> _U(63)).view(np.int64)
    bq = (bits >> _U(52)) & _U(0x7FF)
    frac = bits & _U(2**52 - 1)
    zero = (bits << _U(1)) == _U(0)
    special = bq == _U(0x7FF)
    nan = special & (frac != _U(0))
    # 0, inf and nan take the lanes of 1.0, so the arithmetic stays defined
    odd = zero | special
    bq[odd] = 1023
    frac[odd] = 0
    d, k = _shortest(bq, frac, g1s, g0s)

    # left-align the digits, then write them as quads into A and B;
    # d < 10^17, as c 2^q 10^-k < 10 2^53
    length = _POW10[1:17].searchsorted(d, side="right") + 1
    digits = (d * _POW10.take(_DIGITS - length)).view(np.int64)
    buffer = bytearray(bits.size * _WIDTH)
    text = np.frombuffer(buffer, dtype=np.uint8).reshape(bits.size, _WIDTH)
    words = text.view(np.uint32)
    for quad in range(4, -1, -1):
        high = digits // 10000
        digits -= high * 10000
        words[:, _A // 4 + quad] = words[:, _B // 4 + quad] = quads.take(digits)
        digits = high
    a_digits = text[:, _A + _PAD:_A + _PAD + _DIGITS]
    nd = _DIGITS - np.argmax(a_digits[:, ::-1] != ord("0"), axis=1)
    decpt = k + length
    text.view(np.uint64)[:, _EXP // 8] = exponents.take(decpt - 1 - _E_MIN)
    sep = np.full(cols, ord(","), dtype=np.uint8)
    sep[-1] = ord("\n")
    text.reshape(rows, cols, _WIDTH)[:, :, _SEP] = sep

    fixed = (decpt > -4) & (decpt <= 16)
    key = (neg * _DIGITS + nd - 1) * _LAYOUTS + np.where(fixed, decpt + 3, _FIXED)
    key[zero] = _SPECIAL + neg[zero]
    key[special] = _SPECIAL + 2 + neg[special]
    key[nan] = _SPECIAL + 4
    text &= templates[0].take(key, axis=0)
    text |= templates[1].take(key, axis=0)
    return buffer.translate(None, b"\0").decode("ascii")


def _shortest(bq, frac, g1s, g0s):
    """(d, k): d 10^k is the shortest decimal that rounds to the double (bq, frac).

    bq is the biased exponent, 0 for a subnormal, and frac the 52 fraction
    bits.  Of two shortest decimals d is the closer, and of two equally
    close the even one.
    """
    c = frac | ((bq != _U(0)).astype(np.uint64) << _U(52))
    q = np.maximum(bq, _U(1)).astype(np.int64) - 1075
    # the lower neighbour of a power of two is half as far away
    narrow = ((frac == _U(0)) & (bq > _U(1))).astype(np.int64)
    k = _floor_log10_pow2(q, narrow)
    h = (q + _floor_log2_pow10(-k) + 2).astype(np.uint64)
    g1 = g1s.take(k - _K_MIN)
    g0 = g0s.take(k - _K_MIN)

    # 4 c and the ends of its rounding interval, times 10^-k: one (3, n) pass
    cb = c << _U(2)
    cp = np.empty((3, c.size), dtype=np.uint64)
    cp[0] = cb
    np.subtract(cb, _U(2) - narrow.view(np.uint64), out=cp[1])
    np.add(cb, _U(2), out=cp[2])
    cp <<= h
    vb, vbl, vbr = _round_to_odd(g1, g0, cp)

    # the interval's ends belong to it when c is even
    out = c & _U(1)
    lower = vbl + out
    upper = vbr - out
    s = vb >> _U(2)
    sp10 = s // _U(10) * _U(10)
    # s or s + 1 when exactly one of them is in, else the closer, ties to even
    d = (vb + _U(1) + (s & _U(1))) >> _U(2)
    uin = lower <= s << _U(2)
    win = (s + _U(1)) << _U(2) <= upper
    np.copyto(d, s + win, where=uin != win)
    # one digit shorter when exactly one multiple of ten is in
    upin = lower <= sp10 << _U(2)
    wpin = (sp10 + _U(10)) << _U(2) <= upper
    np.copyto(d, sp10 + _U(10) * wpin, where=upin != wpin)
    return d, k


def _round_to_odd(g1, g0, cp):
    """Round-to-odd high part of g cp / 2^127, per row of cp (Giulietti's rop); spends cp.

    g1, g0 < 2^63 and cp < 2^60, so no 32-bit partial product overflows.
    """
    z = g1 * cp
    cp_hi = cp >> _U(32)
    cp_lo = cp
    cp_lo &= _M32
    x1 = _mul_high(g0 & _M32, g0 >> _U(32), cp_lo, cp_hi)
    vbp = _mul_high(g1 & _M32, g1 >> _U(32), cp_lo, cp_hi)
    z >>= _U(1)
    z += x1
    vbp += z >> _U(63)
    # the odd bit: set when the fraction below vbp is not zero
    z &= _M63
    z += _M63
    z >>= _U(63)
    vbp |= z
    return vbp


def _mul_high(a_lo, a_hi, b_lo, b_hi):
    """High 64 bits of (a_hi 2^32 + a_lo)(b_hi 2^32 + b_lo), for a_hi < 2^31, b_hi < 2^28."""
    mid = a_lo * b_lo
    mid >>= _U(32)
    mid += a_lo * b_hi
    mid += a_hi * b_lo
    mid >>= _U(32)
    mid += a_hi * b_hi
    return mid
