"""Exact "%.17g" text of float64 blocks, in numpy: the CSV writer's kernel.

Per value, |v| * 10**s with s = 16 - floor(E log10 2), 2**E <= |v| <
2**(E+1), lies in [1e16, 1e18).  It is formed as a double-double with
Dekker's error-free product (Dekker 1971, Numer. Math. 18), so its integer
part is exact and its fraction is off by less than 2**-40; the 17-digit
significand is that integer part rounded to 17 digits.  A value whose
rounding decision lies within 2**-30 of a half goes to ``"%.17g" % v``
instead, as do zero, non-finite values and |v| outside [1e-280, 1e290]: a
fast path that detects what it cannot decide (Loitsch 2010, PLDI).

The text of each value is laid out in one canvas row, and a keep-mask row,
looked up per (layout form, last nonzero digit), drops the bytes that
"%.17g" does not print: the sign of a positive value, the "0." and leading
zeros of other forms, trailing zeros and the exponent suffix of fixed forms.
Imported on the first CSV write only, so importing tempsync does not
compile it.
"""

from __future__ import annotations

import functools

import numpy as np

# Each value gets one canvas row of _WIDTH bytes; a keep-mask row picks
# its text out of it.  Constant bytes are laid out once per buffer:
#   0       "-"
#   1..5    "0.000"         the "0." and leading zeros of fixed forms below 1
#   6..38   "d.d.d...d.d"   the 17 digits, a "." after each of the first 16
#   39..43  exponent suffix "e+dd" or "e+ddd" of scientific forms
#   44      "," or the row's final "\n"
_DIGITS, _SUFFIX, _WIDTH = 6, 39, 45
_ROW = f"V{_WIDTH}"  # one canvas or mask row as a single item
_S_MIN, _S_MAX = -274, 297  # 10**s for these s covers |v| in [1e-280, 1e290]
_X_MIN = -300  # decimal exponents [-300, 300] index the layout tables


@functools.cache
def _tables():
    """Tables of the "%.17g" kernel, built on first use: (hi, high and low
    Veltkamp halves of hi, lo) of each 10**s as an unevaluated sum hi + lo,
    each part correctly rounded from exact integers; 4-digit ASCII groups;
    their trailing-zero counts; per decimal exponent the layout form and
    suffix bytes; the keep-mask rows of each (form, last nonzero digit); and
    those of a fallback text of each length."""
    hi, lo = [], []
    for s in range(_S_MIN, _S_MAX + 1):
        if s >= 0:
            h = float(10 ** s)
            lo.append(float(10 ** s - int(h)))
        else:
            den = 10 ** -s
            h = 1 / den  # int / int is correctly rounded
            num, pow2 = h.as_integer_ratio()
            lo.append((pow2 - num * den) / (pow2 * den))
        hi.append(h)
    hi = np.array(hi)
    c = hi * 134217729.0  # 2**27 + 1
    hh = c - (c - hi)
    pow10 = (hi, hh, hi - hh, np.array(lo))
    groups = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    four = (groups + ord("0")).astype(np.uint8).view(np.uint32)[:, 0]
    tz4 = np.cumprod(groups[:, ::-1] == 0, axis=1).sum(axis=1)  # 4 for 0000
    xs = np.arange(_X_MIN, -_X_MIN + 1)
    # forms 0..20 are fixed with exponent x = form - 4; 21 and 22 are
    # scientific with a 2- and a 3-digit exponent
    form = np.where((xs < -4) | (xs > 16), 21 + (np.abs(xs) >= 100), xs + 4)
    suffix = np.frombuffer(b"".join(b"%-5s" % (b"e%+03d" % x) for x in xs.tolist()), "V5")
    keep = np.zeros((23, 17, _WIDTH), bool)
    keep[..., -1] = True  # the separator
    digit = _DIGITS + 2 * np.arange(17)  # the column of digit j
    for f in range(23):
        x = f - 4 if f < 21 else 0  # scientific: the point follows digit 0
        for last in range(17):
            row = keep[f, last]
            if x < 0:
                row[1:3] = True  # "0.", then -x - 1 zeros
                row[_DIGITS + x + 1:_DIGITS] = True
            row[digit[:max(last, x) + 1]] = True
            if 0 <= x < last:
                row[digit[x] + 1] = True
            if f >= 21:
                row[_SUFFIX:_SUFFIX + f - 17] = True
    keep = keep.reshape(23 * 17, _WIDTH).view(_ROW)[:, 0]
    text = np.arange(_WIDTH) <= np.arange(25)[:, None]  # columns 1..len, sign clear
    text[:, 0], text[:, -1] = False, True
    return pow10, four, tz4, form, suffix, keep, text.view(_ROW)[:, 0]


class G17Text:
    """Reusable buffers that render blocks of float64s as "%.17g" text.

    Built for blocks of rows x width values in row-major order; each value is
    followed by "," or, at the end of a row, by "\\n".  ``render(values)``
    takes the flat, contiguous values of up to ``rows`` whole rows and returns
    the text as a uint8 array, byte for byte ``"%.17g" % v`` per value.
    """

    def __init__(self, rows: int, width: int):
        self.rows = rows
        n = rows * width
        self._template = np.frombuffer(
            b"-0.000" + b"0." * 16 + b"0" + b" " * 5 + b",", np.uint8)
        self._canvas = np.tile(self._template, (n, 1))
        self._canvas[:, -1].reshape(rows, width)[:, -1] = ord("\n")
        self._mask = np.empty((n, _WIDTH), bool)
        self._digits = np.empty((n, 5), np.uint32)  # "000d" + 4 groups of 4

    def render(self, values: np.ndarray) -> np.ndarray:
        pow10, four, tz4, form, suffix, keep, text_keep = _tables()
        n = values.size
        a = np.abs(values)
        exact = (a >= 1e-280) & (a <= 1e290)  # false for 0, inf and nan
        a[~exact] = 1.0
        d = (((a.view(np.int64) >> 52) - 1023) * 78913) >> 18  # floor(E log10 2)
        hi, hh, hl, lo = (t.take(16 - d - _S_MIN) for t in pow10)
        c = a * 134217729.0
        ah = c - (c - a)
        al = a - ah
        p = a * hi  # a * 10**s = p + r, r from the exact product error and lo
        r = ((ah * hh - p) + ah * hl + al * hh) + al * hl + a * lo
        rf = np.floor(r)
        frac = r - rf
        i = p.astype(np.int64) + rf.astype(np.int64)
        big = i >= 10 ** 17  # 18 digits: round at the tens
        q = np.where(big, i // 10, i)
        frac = np.where(big, (i - 10 * q + frac) * 0.1, frac)
        fall = ~exact | (np.abs(frac - 0.5) < 2.0 ** -30)
        sig = q + (frac > 0.5)
        carry = sig == 10 ** 17
        sig[carry] = 10 ** 16
        x = d + big + carry - _X_MIN  # decimal exponent, as a table index

        u = sig // 10 ** 8
        w = sig - u * 10 ** 8
        g0 = u // 10 ** 8
        u -= g0 * 10 ** 8
        g1 = u // 10 ** 4
        g3 = w // 10 ** 4
        groups = (g0, g1, u - g1 * 10 ** 4, g3, w - g3 * 10 ** 4)
        D = self._digits[:n]
        for k, g in enumerate(groups):
            D[:, k] = four.take(g)
        canvas = self._canvas[:n]
        canvas[:, _DIGITS:_SUFFIX:2] = D.view(np.uint8)[:, 3:]
        last = 16 - tz4.take(groups[4])  # index of the last nonzero digit
        for k, g in zip((12, 8, 4), groups[3:0:-1]):  # a zero group: look left
            z = np.flatnonzero(last == k)
            if z.size == 0:
                break
            last[z] = k - tz4.take(g[z])
        f = form.take(x)
        sci = np.flatnonzero(f >= 21)
        canvas[:, _SUFFIX:-1].view("V5")[sci, 0] = suffix.take(x[sci])
        mask = self._mask[:n]
        rows = mask.view(_ROW)[:, 0]
        rows[:] = keep.take(f * 17 + last)
        mask[:, 0] = np.signbit(values)  # not out=: numpy 2.4 misplaces strided bool outputs

        slow = np.flatnonzero(fall)
        if slow.size:
            text = ["%.17g" % v for v in values.take(slow).tolist()]
            lens = np.array([len(t) for t in text])
            start = slow * _WIDTH + 1 - (np.cumsum(lens) - lens)
            canvas.reshape(-1)[np.repeat(start, lens) + np.arange(lens.sum())] = np.frombuffer(
                "".join(text).encode(), np.uint8)
            rows[slow] = text_keep.take(lens)
        out = np.compress(mask.reshape(-1), canvas.reshape(-1))
        if slow.size:
            canvas[slow, :-1] = self._template[:-1]
        return out
