"""CSV text of float arrays, each value written as ``"%.17g" % x`` writes it.

`format_rows` lays the values out with numpy, `BLOCK_ROWS` rows at a time,
and leaves to Python's own formatting only the values whose rounding it
cannot certify.

Digits. For a finite x with 1e-290 <= |x| <= 1e300, let k = floor(log10|x|)
and y = |x| 10^(16 - k), so that 10^16 <= y < 10^17. The 17 significant
digits of ``%.17g`` are the integer D nearest y, and its decimal exponent is
k; when D rounds up to 10^17 it is read as 10^16 and the exponent as k + 1.
y is formed as a double-double. 10^s is a table pair hi + lo (lo the
correctly rounded remainder, the pair within a relative 2^-107 of 10^s),
and |x| hi is split into its rounded product p and the exact error e by
Dekker's two-product: a mask on the mantissa bits splits |x| by truncation
into 26 + 27 bits and hi by rounding into 26 + 26 bits (the low half
signed), so the four partial products are exact, and so is each partial
sum of e. Then y = p + r with r = e + |x| lo, p an integer (p > 2^53) and
r within 1e-14 of exact, so D = p + round(r) whenever the fraction of r is
farther than `_TIE_MARGIN` from 1/2. Where log10 leaves k off by one
(y < 10^16 or y >= 10^17), k is moved and y formed again for those values
only.

Fallback. A value goes to ``"%.17g" % x`` when it is +-0, not finite or
outside [1e-290, 1e300] (subnormals included), or when the fraction of r
lies within `_TIE_MARGIN` of 1/2 (a possible tie).

Layout. Each value becomes a NUL-padded record of six 8-byte words: the
sign, a ``0.000`` prefix, the 17 digits each followed by a slot for the
decimal point, the ``e+XX`` suffix and the separator. The digits come in
four-digit groups from a 10 000-entry table, already spread to every other
byte. Which digits stay (trailing zeros go, integer digits stay), which
slot holds the point and what the prefix holds come from small tables
indexed by the notation and the digit count. One ``bytes.translate``
deletes the NULs of a block. The tables are built on the first call, from
Python's correctly rounded integer division and its own ``%`` formatting.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

__all__ = ["BLOCK_ROWS", "format_rows"]

#: rows formatted per numpy pass; scratch memory is O(BLOCK_ROWS * columns).
#: At 7 columns, 2048 rows raised the peak RSS of 14 preset runs by 1 MiB
#: over per-value formatting; 1024 rows did not, and ran as fast.
BLOCK_ROWS = 1024

# Magnitudes that take the numpy route.
_FAST_MIN = 1e-290
_FAST_MAX = 1e300
# r is within 1e-14 of exact, so a fraction farther than this from 1/2
# rounds as the exact y does.
_TIE_MARGIN = 1e-6

# Decimal exponents k of fast-route values, one either side of the range
# floor(log10) gives over [_FAST_MIN, _FAST_MAX], and the powers 10^(16 - k).
_K_MIN = -292
_K_MAX = 302
_S_MIN = 16 - _K_MAX

# Record bytes: sign at 0, prefix at 1..5, digit j at 6 + 2j and its point
# slot at 7 + 2j, exponent suffix at 40..44, separator at 45.
_RECORD_WORDS = 6
_PREFIX = 1
_DIGITS = 6
_SUFFIX = 40
_SEPARATOR = 45
# notation classes: 0 exponential, X + 5 fixed with exponent X in [-4, 16]
_CLASSES = 22

_SPLIT_ROUND = np.uint64(1 << 26)
_SPLIT_MASK = np.uint64(2**64 - 2**27)


class _Tables(NamedTuple):
    hi: np.ndarray  # 10^s = hi + lo, hi = hh + hl, indexed by s - _S_MIN
    hh: np.ndarray
    hl: np.ndarray
    lo: np.ndarray
    groups: np.ndarray  # spread digit words of 0..9999, then of 0..9 alone
    trailing: np.ndarray  # trailing zeros of a four-digit group
    keep: np.ndarray  # (5, rows) digit masks of words 0..4 per layout row
    literal: np.ndarray  # (5, rows) prefix and point bytes per layout row
    row: np.ndarray  # layout row of 17 digits per k - _K_MIN
    suffix: np.ndarray  # last record word per k - _K_MIN
    minus: np.ndarray  # first-word sign bytes of +x and -x


def _pow10() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """10^s for s in [_S_MIN, 16 - _K_MIN] as hi + lo, and hi as hh + hl.

    10^s is num / den with num = 10^max(s, 0) and den = 10^max(-s, 0). hi is
    num / den and, with hi = a / b, lo is the remainder
    (num b - a den) / (den b), each rounded correctly by Python's int / int
    division, so hi + lo is within a relative 2^-107 of 10^s.
    """
    pairs, num, den = [], 1, 10**-_S_MIN
    for s in range(_S_MIN, 17 - _K_MIN):
        hi = num / den
        a, b = hi.as_integer_ratio()
        pairs.append((hi, (num * b - a * den) / (den * b)))
        num, den = (num * 10, den) if s >= 0 else (num, den // 10)
    hi, lo = np.array(pairs).T
    hh = ((hi.view(np.uint64) + _SPLIT_ROUND) & _SPLIT_MASK).view(np.float64)
    return hi, hh, hi - hh, lo


def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """Digit words of four-digit groups and of the leading digit; trailing zeros.

    Entry g < 10^4 holds the digits of g at bytes 0, 2, 4, 6 of a word;
    entry 10^4 + d holds the digit d at the first word's digit byte.
    """
    g = np.arange(10_000)
    spread = np.zeros((10_010, 8), np.uint8)
    for i, scale in enumerate((1000, 100, 10, 1)):
        spread[:10_000, 2 * i] = 48 + g // scale % 10
    spread[10_000:, _DIGITS] = 48 + np.arange(10)
    trailing = np.where(g == 0, 4, (g % 10 == 0) * 1 + (g % 100 == 0) + (g % 1000 == 0))
    return spread.view(np.uint64)[:, 0], trailing.astype(np.int8)


def _layout_tables() -> tuple[np.ndarray, np.ndarray]:
    """Digit masks and literal bytes of words 0..4, per (class c, digits n).

    Row 17 c + n - 1 serves n significant digits in class c, one notation
    case each: exponential notation keeps the n digits and puts the point
    after the first; fixed notation with X >= 0 keeps the X + 1 integer
    digits too and puts the point after them; fixed notation with X < 0
    writes ``0.`` and -X - 1 zeros before the n digits. The point is
    dropped when no digit follows it.
    """
    mask = np.zeros((_CLASSES * 17, 40), np.uint8)
    literal = np.zeros_like(mask)
    for c in range(_CLASSES):
        x = c - 5
        for n in range(1, 18):
            row = 17 * c + n - 1
            if c == 0:
                keep, point = n, 0
            elif x >= 0:
                keep, point = max(n, x + 1), x
            else:
                keep, point = n, -1
                literal[row, _PREFIX : _PREFIX + 1 - x] = list(b"0." + b"0" * (-x - 1))
            mask[row, _DIGITS : _DIGITS + 2 * keep : 2] = 255
            if 0 <= point < n - 1:
                literal[row, _DIGITS + 1 + 2 * point] = ord(".")
    return mask.view(np.uint64).T.copy(), literal.view(np.uint64).T.copy()


def _suffix_tables() -> tuple[np.ndarray, np.ndarray]:
    """Per decimal exponent X: the layout row of 17 digits, the last word.

    The last word holds the ``e+XX`` or ``e-XXX`` that ``"e%+03d" % X``
    writes in exponential notation (X < -4 or X > 16), and nothing in
    fixed notation.
    """
    rows, words = [], []
    for x in range(_K_MIN, _K_MAX + 1):
        fixed = -4 <= x <= 16
        rows.append(17 * (x + 5 if fixed else 0) + 16)
        words.append(b"" if fixed else b"e%+03d" % x)
    return np.array(rows), np.frombuffer(b"".join(w.ljust(8, b"\0") for w in words), np.uint64)


@functools.cache
def _tables() -> _Tables:
    minus = np.frombuffer(bytes(8) + b"-" + bytes(7), np.uint64)
    return _Tables(*_pow10(), *_digit_tables(), *_layout_tables(), *_suffix_tables(), minus)


def _scaled(t: _Tables, a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """y = a 10^(16 - k) as p + r: p the rounded product a hi, r the rest."""
    i = 16 - _S_MIN - k
    hi, hh, hl = np.take(t.hi, i), np.take(t.hh, i), np.take(t.hl, i)
    ah = (a.view(np.uint64) & _SPLIT_MASK).view(np.float64)
    al = a - ah
    p = a * hi
    r = ah * hh
    r -= p
    r += ah * hl
    r += al * hh
    r += al * hl
    r += a * np.take(t.lo, i)
    return p, r


def _format_block(t: _Tables, x: np.ndarray, seps: np.ndarray, rec: np.ndarray) -> str:
    """The text of the values x (rows of the block, row-major); rec is scratch."""
    a = np.abs(x)
    fast = (a >= _FAST_MIN) & (a <= _FAST_MAX)
    a[~fast] = 1.0
    k = np.floor(np.log10(a)).astype(np.intp)
    p, r = _scaled(t, a, k)
    low = (p < 1e16) | ((p == 1e16) & (r < 0))
    high = (p > 1e17) | ((p == 1e17) & (r >= 0))
    off = np.flatnonzero(low | high)
    if off.size:
        k[off] += np.where(high[off], 1, -1)
        p[off], r[off] = _scaled(t, a[off], k[off])
    whole = np.rint(r)
    r -= whole
    tie = np.abs(np.abs(r) - 0.5) < _TIE_MARGIN
    slow = np.flatnonzero(~fast | tie)
    d = p.astype(np.int64)
    d += whole.astype(np.int64)
    carry = d == 10**17
    d[carry] = 10**16
    k += carry

    # the 17 digits as a leading digit and four groups of four
    upper = (d // 10**8).astype(np.int32)
    lower = (d - upper * np.int64(10**8)).astype(np.int32)
    g = np.empty((5, x.size), np.intp)
    g[0] = upper // 10**8
    upper -= g[0].astype(np.int32) * 10**8
    g[1] = upper // 10_000
    g[2] = upper % 10_000
    g[3] = lower // 10_000
    g[4] = lower % 10_000
    g[0] += 10_000
    tz = np.take(t.trailing, g[1:])
    zero = tz == 4
    trailing = tz[3] + zero[3] * (tz[2] + zero[2] * (tz[1] + zero[1] * tz[0]))

    k -= _K_MIN  # from here an index into the per-exponent tables
    row = np.take(t.row, k)
    row -= trailing
    word = np.take(t.groups, g[0])
    word |= np.take(t.literal[0], row)
    word |= np.take(t.minus, np.signbit(x).view(np.uint8))
    rec[:, 0] = word
    for w in range(1, 5):
        word = np.take(t.groups, g[w])
        word &= np.take(t.keep[w], row)
        word |= np.take(t.literal[w], row)
        rec[:, w] = word
    last = rec[:, 5].reshape(-1, seps.size)
    np.bitwise_or(np.take(t.suffix, k).reshape(last.shape), seps, out=last)

    if slow.size:  # each at most 24 bytes, NUL-padded up to the separator
        text = b"".join(("%.17g" % v).encode().ljust(_SEPARATOR, b"\0") for v in x[slow].tolist())
        cells = np.frombuffer(text, np.uint8).reshape(-1, _SEPARATOR)
        rec.view(np.uint8)[slow, :_SEPARATOR] = cells
    return rec.tobytes().translate(None, b"\0").decode("ascii")


def format_rows(values: np.ndarray) -> str:
    """CSV text of a 2-D float array, ``\\n`` after every row.

    Each cell is exactly ``"%.17g" % x`` and cells are joined by ``,``.
    Rows are formatted `BLOCK_ROWS` at a time; see the module docstring for
    the certified fast route and when a value falls back to ``%``.
    """
    values = np.asarray(values, dtype=np.float64)
    rows, cols = values.shape
    t = _tables()
    seps = np.zeros((cols, 8), np.uint8)
    seps[:, _SEPARATOR - _SUFFIX] = ord(",")
    seps[-1, _SEPARATOR - _SUFFIX] = ord("\n")
    seps = seps.view(np.uint64)[:, 0]
    rec = np.empty((min(rows, BLOCK_ROWS) * cols, _RECORD_WORDS), np.uint64)
    blocks = []
    for start in range(0, rows, BLOCK_ROWS):
        x = np.ascontiguousarray(values[start : start + BLOCK_ROWS]).ravel()
        blocks.append(_format_block(t, x, seps, rec[: x.size]))
    return "".join(blocks)
