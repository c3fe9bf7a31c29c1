"""The bytes of one CSV field per value: ``%d`` for integers, ``%s`` for
text and ``%.17g`` (``config._FLOAT_FORMAT``) for floats, computed for
whole blocks of values with numpy.

Each filler writes a block's values into fixed slots, one row of slots per
value, and marks the slots that belong to its text; ``cli._write_table``
lays the fields of a row side by side and keeps the marked bytes.  Floats
with |x| in [1e-280, 1e300) get their 17 correctly rounded digits from
:func:`decimal17`, which proves them exact; every other float (nan, inf,
subnormals, magnitudes outside that range, values within 2**-40 of a
rounding tie) goes through ``%`` into the same slots.
"""

from __future__ import annotations

import functools

import numpy as np

from .config import _FLOAT_FORMAT

_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's factor, splits a double into 26-bit halves
_EXACT_RANGE = (1e-280, 1e300)  # |x| the exact float path takes
_Q0, _Q1 = -290, 300  # the powers 10**q it reads, with room for decpt's first guess
_TIE_MARGIN = 2.0**-40  # nearer to a rounding tie than this, a float falls back
# a float's 28 source bytes: 3 pad bytes and its 17 digits, "-.0e", then its
# exponent's sign and three digits; its text has at most 24 bytes
_SRC_DIGIT, _SRC_MINUS, _SRC_POINT, _SRC_ZERO, _SRC_E, _SRC_EXP = 3, 20, 21, 22, 23, 24
_SRC_WIDTH = 28
_FLOAT_WIDTH = 24


@functools.cache
def _powers_of_ten() -> tuple:
    """(hi, hi1, hi2, lo) over q = _Q0 .. _Q1: hi is 10**q and lo the rest
    10**q - hi, each correctly rounded, and hi1 + hi2 is hi's Veltkamp
    split.  Built on first use."""
    rows = []
    for q in range(_Q0, _Q1 + 1):
        if q >= 0:
            hi = float(10**q)
            lo = float(10**q - int(hi))
        else:  # an int quotient rounds correctly
            d = 10**-q
            hi = 1 / d
            m, s = hi.as_integer_ratio()
            lo = (s - m * d) / (d * s)
        c = _SPLIT * hi
        hi1 = c - (c - hi)
        rows.append((hi, hi1, hi - hi1, lo))
    return tuple(np.array(rows).T.copy())


@functools.cache
def _digit_tables() -> tuple:
    """(the four ASCII digits of 0 .. 9999 as one uint32 each, their
    trailing zeros with 4 for 0, "%+04d" of -400 .. 400 as one uint32 each)."""
    digits = np.frombuffer(b"".join(b"%04d" % i for i in range(10000)), np.uint32)
    zeros = np.array([4] + [len(s) - len(s.rstrip("0")) for s in map(str, range(1, 10000))])
    return digits, zeros, np.frombuffer(b"".join(b"%+04d" % e for e in range(-400, 401)), np.uint32)


def _groups(u: np.ndarray, n_groups: int) -> list:
    """Base-10000 digits of non-negative integers, most significant first."""
    out = []
    for _ in range(n_groups - 1):
        u, r = np.divmod(u, 10000)
        out.append(r)
    return [u] + out[::-1]


def _ascii(groups: list, out: np.ndarray) -> None:
    """The ASCII digits of each base-10000 group, one uint32 slot of ``out``
    each."""
    for i, g in enumerate(groups):
        out[..., i] = _digit_tables()[0][g]


def _scaled(a: np.ndarray, decpt: np.ndarray):
    """(p, t) with p + t = a * 10**(17 - decpt) to within 4e-15 and p the
    double nearest that product (see decimal17)."""
    i = 17 - _Q0 - decpt
    hi, hi1, hi2, lo = (v[i] for v in _powers_of_ten())
    p = a * hi
    c = a * _SPLIT
    a1 = c - (c - a)
    a2 = a - a1
    return p, ((a1 * hi1 - p) + a1 * hi2 + a2 * hi1) + a2 * hi2 + a * lo


def _frame(p: np.ndarray, t: np.ndarray) -> np.ndarray:
    """-1, 0 or 1 as p + t is below 1e16, in [1e16, 1e17) or above: p - 1e16
    is exact wherever it is near -t (Sterbenz), and a rounded sum keeps
    its sign, so (p - 1e16) + t < 0 says p + t < 1e16."""
    return ((p - 1e17) + t >= 0).astype(np.int64) - ((p - 1e16) + t < 0)


def decimal17(x: np.ndarray):
    """17 correctly rounded significant digits of each float in ``x``.

    Returns (n, decpt, exact): |x| rounds to n * 10**(decpt - 17) with
    10**16 <= n < 10**17 (n = 0 and decpt = 1 for a zero), and ``exact``
    is False where the result is not proven and ``_FLOAT_FORMAT`` must
    format the float instead: nan, inf, subnormals, |x| outside
    ``_EXACT_RANGE`` and near-ties.

    Why it is exact.  decpt starts as floor(log10|x|) + 1, which may be one
    off.  With q = 17 - decpt, hi + lo is 10**q to 2**-106 relative
    (hi and lo correctly rounded).  Dekker's product (Numer. Math. 18,
    1971) on Veltkamp's 26-bit splits of |x| and hi gives p + e = |x| * hi
    exactly: in range, every partial product is a normal double, so none
    rounds.  Then t = e + |x| * lo is the rest of y = |x| * 10**q beyond
    p.  For y near [1e16, 1e17], |e| <= ulp(p) / 2 <= 8 and |x * lo| <=
    2**-53 y <= 11.2, so the rounding of |x| * lo (at most 2**-50), of the
    sum (at most 2**-49) and the table's own error (at most 2**-106 y <
    1.3e-15) leave t within 4e-15 of y - p.  _frame reads the signs of
    (p - 1e16) + t and (p - 1e17) + t, whose differences are exact where
    the sums are small, so it places y in or beside [1e16, 1e17) unless
    y is within 4e-15 of a power of ten, and then either frame rounds to
    the same digits.  Elements outside the frame move decpt by one and are
    computed again; those still outside fall back.  In the frame p is a
    double above 2**53, so an integer, and n = p + rint(t) is y
    rounded to the nearest integer unless the fraction of t is within
    _TIE_MARGIN (2**-40, far above 4e-15) of one half, and those fall
    back, exact ties among them, which ``%`` rounds half to even.  An n of
    1e17 carries into the next decade (n = 1e16, decpt + 1), as C's %g
    does.  The domain bounds |x| in [1e-280, 1e300) keep decpt in
    [-281, 302], so q in [_Q0, _Q1], and every split and partial product
    normal and finite.
    """
    a = np.abs(x)
    zero = a == 0
    exact = (a >= _EXACT_RANGE[0]) & (a < _EXACT_RANGE[1])
    a = np.where(exact, a, 1.0)
    decpt = np.floor(np.log10(a)).astype(np.int64) + 1
    p, t = _scaled(a, decpt)
    shift = _frame(p, t)
    redo = np.nonzero(shift)
    if redo[0].size:
        decpt[redo] += shift[redo]
        p[redo], t[redo] = _scaled(a[redo], decpt[redo])
        exact[redo] &= _frame(p[redo], t[redo]) == 0
    exact &= np.abs(t - np.floor(t) - 0.5) > _TIE_MARGIN
    n = p.astype(np.int64) + np.rint(t).astype(np.int64)
    carry = n == 10**17
    n = np.where(zero, 0, np.where(carry, 10**16, n))
    decpt = np.where(zero, 1, decpt + carry)
    return n, decpt, exact | zero


@functools.cache
def _float_layouts() -> tuple:
    """(source, kept) of the float layouts of %.17g.

    A layout class is %g's fixed notation with decpt = class - 3 (classes
    0 to 20, decpt -3 to 17) or its exponential notation with two or three
    exponent digits (21, 22).  ``source[class]`` gives the source byte of
    each of the _FLOAT_WIDTH slots, laid out for the longest text of the
    class, and ``kept[(class * 2 + negative) * 18 + significant digits]``
    the slots of the text: the sign, the digits up to the last nonzero one
    and up to the point, the point when digits follow it, and the rest.
    """
    source = np.zeros((23, _FLOAT_WIDTH), np.intp)
    kept = np.zeros((23, 2, 18, _FLOAT_WIDTH), bool)
    for cls in range(23):
        decpt = cls - 3 if cls <= 20 else 1
        for sig in range(1, 18):
            # (source byte, kept) of each slot after the sign
            digits = [(_SRC_DIGIT + i, i < max(sig, decpt)) for i in range(17)]
            point = [(_SRC_POINT, sig > decpt)]
            if decpt <= 0:
                slots = [(_SRC_ZERO, True), (_SRC_POINT, True)] + [(_SRC_ZERO, True)] * -decpt
                slots += digits
            else:
                slots = digits[:decpt] + point + digits[decpt:]
            if cls > 20:
                slots += [(_SRC_E, True)] + [(_SRC_EXP + i, cls == 22 or i != 1) for i in range(4)]
            for neg in (False, True):
                src, keep = zip((_SRC_MINUS, neg), *slots)
                source[cls, :len(src)] = src
                kept[cls, int(neg), sig, :len(keep)] = keep
    # each row of kept as one item, so a gather copies whole rows
    return source, kept.reshape(-1, _FLOAT_WIDTH).view(np.dtype((np.void, _FLOAT_WIDTH)))[:, 0]


def fill_floats(x: np.ndarray, data: np.ndarray, keep: np.ndarray) -> None:
    """``_FLOAT_FORMAT`` (%.17g) of each float, in _FLOAT_WIDTH slots laid
    out by its layout class (_float_layouts) from its source bytes.  A
    float that decimal17 cannot prove goes through ``_FLOAT_FORMAT`` into
    the same slots."""
    x = x.astype(np.float64, copy=False)
    n, decpt, exact = decimal17(x)
    _, trailing, exponents = _digit_tables()
    groups = _groups(n, 5)
    src = np.empty(x.shape + (_SRC_WIDTH // 4,), np.uint32)
    _ascii(groups, src)
    src[..., 5] = np.frombuffer(b"-.0e", np.uint32)[0]
    src[..., 6] = exponents[decpt - 1 + 400]
    zeros = 0  # trailing zeros of n; the leading digit is nonzero
    run = True
    for g in groups[:0:-1]:
        zeros = zeros + np.where(run, trailing[g], 0)
        run = run & (g == 0)
    fixed = (decpt >= -3) & (decpt <= 17)  # %g: exponent -4 <= decpt - 1 < 17
    cls = np.where(fixed, decpt + 3, 21 + (np.abs(decpt - 1) >= 100))
    source, kept = _float_layouts()
    at = source[cls]
    at += np.arange(0, _SRC_WIDTH * x.size, _SRC_WIDTH).reshape(x.shape + (1,))
    data[...] = src.view(np.uint8).reshape(-1)[at]
    sig = np.where(n == 0, 1, 17 - zeros)
    keep[...] = kept[((cls * 2 + np.signbit(x)) * 18 + sig).ravel()].view(bool).reshape(keep.shape)
    for i in zip(*np.nonzero(~exact)):
        text = (_FLOAT_FORMAT % x[i]).encode()
        data[i][:len(text)] = np.frombuffer(text, np.uint8)
        keep[i] = np.arange(_FLOAT_WIDTH) < len(text)


def fill_ints(v: np.ndarray, data: np.ndarray, keep: np.ndarray) -> None:
    """%d of each integer (int64 or uint64), in 21 slots: "-" and 20
    digits, of which the row keeps those from the first nonzero one."""
    v = v.astype(np.uint64 if v.dtype.kind == "u" else np.int64)
    neg = v < 0
    digits = np.empty(v.shape + (5,), np.uint32)
    _ascii(_groups(np.where(neg, -v, v).astype(np.uint64), 5), digits)  # -(-2**63) reads 2**63
    digits = digits.view(np.uint8)
    slot = np.arange(20)
    first = np.argmax((digits != 48) | (slot == 19), axis=-1)
    data[..., 0] = 45  # "-"
    data[..., 1:] = digits
    keep[..., 0] = neg
    keep[..., 1:] = slot >= first[..., None]


def fill_text(v: np.ndarray, data: np.ndarray, keep: np.ndarray) -> None:
    """%s of each UTF-8 encoded string, in as many slots as the longest."""
    data[...] = v.view(np.uint8).reshape(data.shape)
    keep[...] = np.arange(v.itemsize) < np.char.str_len(v)[..., None]


# a field's slot count and filler by its column's dtype kind; text has as
# many slots as its longest UTF-8 encoding
FIELDS = {"f": (_FLOAT_WIDTH, fill_floats), "i": (21, fill_ints), "u": (21, fill_ints),
          "U": (None, fill_text)}
