"""Decimal digits and doubles in numpy, exactly.

The CSV writer prints each double's 17 significant digits from
:func:`mantissa`, an exact (Dekker) product.  The CSV reader parses a block
of rows back with :class:`Reader`: it reads the file as bytes into one
buffer, takes each cell's span from the separators, converts eight digits
per word operation with SWAR arithmetic, and proves each candidate double
correctly rounded with :func:`mantissa` (see :func:`_nearest_doubles`).
A cell with a negative exponent, as ``%.17g`` writes a double below 1e-4,
reads as a decimal whose point the exponent shifts.  A block with any
other cell, or with a value below 10^-6, it leaves to the caller.
"""
from __future__ import annotations

import numpy as np

# 10^k, exact as a double for k <= 22, and its Veltkamp split into halves
_POW10 = np.array([float(10**k) for k in range(23)])
_SPLIT = 2.0**27 + 1


def _halves(a):
    c = a * _SPLIT
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _halves(_POW10)


def mantissa(a, e):
    """``a * 10^(16 - e)`` rounded half-even to an integer, exactly: the
    product is Dekker's (1971) unevaluated sum ``hi + lo``, in which ``hi``
    is an even integer (it is at least 2^53), so rounding ``lo`` alone
    rounds the sum."""
    k = 16 - e
    p, p_hi, p_lo = (np.take(t, k) for t in (_POW10, _POW10_HI, _POW10_LO))
    hi = a * p
    a_hi, a_lo = _halves(a)
    lo = ((a_hi * p_hi - hi) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64)


# bytes before a piece of CSV in the reader's buffer, so that the 24 bytes
# that end any cell lie in it
_PAD = 24
# the top bytes of word j of a run of l = 0..24 characters, j = 0 its last
# 8 bytes: the characters of the run in it
_KEEP = np.array([[(2**64 - 1) << 8 * (8 - min(max(k - 8 * j, 0), 8))
                   & (2**64 - 1) for k in range(25)] for j in range(3)],
                 dtype=np.uint64)
_TEN = np.array([10**k for k in range(18)], dtype=np.uint64)


def _digit_run(buf: np.ndarray, words: np.ndarray, end: np.ndarray,
               length: np.ndarray):
    """The value of each run of ``length <= 24`` digits that ends
    (exclusive) at buffer position ``end``, and whether it is under 10^17.

    ``words[p]`` is the little-endian word of ``buf[p:p + 8]``.  A word's
    bytes before the run become zero bytes, which read as leading zeros,
    and each word's eight digits are converted at once, with the SWAR
    steps of Lemire's fast_float.
    """
    low, top = int(length.min()), int(length.max())
    if low == top == 1:     # a digit each: no words
        return (buf[end - 1] - ord("0")).astype(np.uint64), True
    value, ok = np.zeros(len(end), dtype=np.uint64), True
    for j in range(-(-top // 8)):   # word j: digits 8j..8j+7 from the end
        w = words[end - 8 * (j + 1)]
        if low < 8 * (j + 1):       # not all digits of the run
            w = w & np.take(_KEEP[j], length)
        w = (w & 0x0F0F0F0F0F0F0F0F) * 2561 >> 8
        w = (w & 0x00FF00FF00FF00FF) * 6553601 >> 16
        w = (w & 0x0000FFFF0000FFFF) * 42949672960001 >> 32
        if j == 2:
            ok = w < 10
        value += w * _TEN[8 * j]
    return value, ok


def _integers(buf: np.ndarray, words: np.ndarray, start: np.ndarray,
              end: np.ndarray, top: int):
    """The integers of the digit cells ``[start, end)``, or None unless
    each is 1 to 16 digits, at most ``top``."""
    length = end - start
    if length.min() < 1 or length.max() > 16:
        return None
    value, _ = _digit_run(buf, words, end, length)
    return value if int(value.max()) <= top else None


def _nearest_doubles(n: np.ndarray, k: np.ndarray):
    """The double nearest ``n / 10^k`` for each integer ``0 <= n < 10^17``,
    or None unless each is proven so.

    The floating-point quotient ``x = n / 10^k``, or failing that the next
    double towards the decimal, is proven the nearest if its ``%.17g``
    digits, from the exact :func:`mantissa`, are the decimal's.
    For a double lies within half a unit in the 17th digit of its 17
    digits, less than half its own spacing, so no other double is as near
    them.  A decimal halfway between two such roundings is never proven,
    nor is one outside ``1e-6 <= x < 1e17``.
    """
    e = np.searchsorted(_TEN, n, side="right")      # the digits of n
    target = (n * np.take(_TEN, 17 - e)).view(np.int64)
    e -= k + 1          # the decimal exponent of n / 10^k
    if not ((e >= -6) & (e <= 16)).all():      # 10^(16 - e) is in _POW10
        return None
    x = n.astype(np.float64) / np.take(_POW10, k)
    m = mantissa(x, e)
    miss = np.flatnonzero(m != target)
    if len(miss):       # the next double towards the decimal
        aim = target[miss]
        x[miss] = np.nextafter(x[miss], np.where(m[miss] < aim, np.inf, 0.0))
        if not np.array_equal(mantissa(x[miss], e[miss]), aim):
            return None
    return x


def _decimal(buf: np.ndarray, words: np.ndarray, start: np.ndarray,
             end: np.ndarray, dots: np.ndarray, exps: np.ndarray):
    """``(n, k)``, each unsigned cell ``[start, end)`` being the decimal
    ``n / 10^k``, or None unless each is digits with at most one ``.``,
    perhaps followed by a negative exponent (``e-`` and one or two digits,
    which only shift the point), at most 17 significant digits in all, and
    the cells hold all of the piece's ``dots`` and its ``e`` bytes
    ``exps``.  Only ``n`` and ``k`` outlive the call."""
    if len(exps):       # the cells with an exponent, each ending one
        cell = np.searchsorted(end, exps, side="right")
        if cell[-1] >= len(end) or (np.diff(cell) < 1).any():
            return None
        tail = end[cell]
        length = tail - exps - 2
        if not ((start[cell] <= exps) & (buf[exps + 1] == ord("-"))
                & (length >= 1) & (length <= 2)).all():
            return None
        shift, _ = _digit_run(buf, words, tail, length)
        end = end.copy()
        end[cell] = exps    # the digits before the exponent
    if len(dots) == len(start) and ((dots >= start) & (dots < end)).all():
        dot = dots      # one in each cell
    else:
        first = np.searchsorted(dots, start)
        inside = np.searchsorted(dots, end) - first
        if inside.max() > 1 or inside.sum() != len(dots):
            return None
        dot = np.where(inside == 1, np.take(dots, first, mode="clip"), end) \
            if len(dots) else end
    whole, frac = dot - start, np.maximum(end - dot - 1, 0)
    digits = whole + frac
    if max(whole.max(), frac.max()) > 24 or digits.min() < 1:
        return None
    high, ok_high = _digit_run(buf, words, dot, whole)
    low, ok = _digit_run(buf, words, end, frac)
    # at most 17 digits from the first nonzero one: high * 10^frac + low
    # < 10^17
    if digits.max() > 17 and not (
            ok & ok_high
            & (high < np.take(_TEN, np.maximum(17 - frac, 0)))).all():
        return None
    high *= np.take(_TEN, np.minimum(frac, 17))
    high += low
    if len(exps):
        frac[cell] += shift.astype(frac.dtype)
    return high, frac


def _decimals(buf: np.ndarray, words: np.ndarray, start: np.ndarray,
              end: np.ndarray, dots: np.ndarray, exps: np.ndarray,
              minus: int):
    """The doubles of the cells ``[start, end)``, as a correctly rounded
    parser reads them, or None unless each is an optional ``-`` and a
    :func:`_decimal` whose double :func:`_nearest_doubles` proves, and the
    cells hold all of the piece's ``minus`` signs: one before a cell and
    one in each exponent."""
    neg = buf[start] == ord("-")
    if np.count_nonzero(neg) + len(exps) != minus:
        return None
    decimal = _decimal(buf, words, start + neg, end, dots, exps)
    x = None if decimal is None else _nearest_doubles(*decimal)
    if x is not None:
        np.negative(x, out=x, where=neg)
    return x


class Reader:
    """A CSV file read as bytes, a piece at a time, into one buffer after
    ``_PAD`` bytes, which the window ``words`` views as a 64-bit word at
    every byte.  ``pos`` is the file offset of the unread byte ``head``.  A
    last line without a line end gets a ``\\n`` in the buffer."""

    def __init__(self, f, size: int, piece: int):
        self.f, self.size = f, size
        self._alloc(_PAD + min(piece, size) + 8)
        self.restart(0)

    def _alloc(self, size: int) -> None:
        self.buf = np.zeros(size, dtype=np.uint8)
        self.words = np.ndarray((size - 7,), dtype="<u8", buffer=self.buf,
                                strides=(1,))

    def restart(self, pos: int) -> None:
        """Drop the buffer, the file being at offset ``pos``."""
        self.head = self.tail = _PAD
        self.pos, self.eof = pos, False

    def skip(self, n: int) -> None:
        self.head += n
        self.pos += n

    def fill(self) -> bool:
        """Read more of the file after the unread bytes; False at its end."""
        if self.eof:
            return False
        unread = self.tail - self.head
        if _PAD + unread + 16 > len(self.buf):     # a line past the buffer
            old, self.buf = self.buf, None
            self._alloc(2 * len(old))
            self.buf[_PAD:_PAD + unread] = old[self.head:self.tail]
        else:
            self.buf[_PAD:_PAD + unread] = self.buf[self.head:self.tail]
        self.head, self.tail = _PAD, _PAD + unread
        got = self.f.readinto(memoryview(self.buf)[self.tail:-8])
        self.tail += got
        if not got:
            self.eof = True
            if unread and self.buf[self.tail - 1] != ord("\n"):
                self.buf[self.tail] = ord("\n")
                self.tail += 1
        return bool(got)

    def header(self) -> bytes | None:
        """The first line, or None for an empty file."""
        while not len(ends := np.flatnonzero(
                np.isin(self.buf[self.head:self.tail], (10, 13)))):
            if not self.fill():
                return None
        line = self.buf[self.head:self.head + ends[0]].tobytes()
        self.skip(ends[0] + 1)
        return line

    def block_start(self) -> int | None:
        """Skip empty lines; the offset of the next line, or None."""
        while True:
            while self.head < self.tail and self.buf[self.head] in (10, 13):
                self.skip(1)
            if self.head < self.tail or not self.fill():
                return self.pos if self.head < self.tail else None

    def rows(self, dtype: np.dtype, count: int):
        """The next ``count`` lines parsed as rows of ``dtype``, each a row
        of CSV cells without blanks, or None unless every line is one and
        every cell a plain decimal (floats) or 1 to 16 digits that fit
        (integers)."""
        columns = []    # a row takes at least 4 bytes: '0,0\n'
        rows = np.empty(min(count, (self.size - self.pos) // 4 + 1), dtype)
        for name in dtype.names:
            field = rows[name]
            columns += [field] if field.ndim == 1 else list(field.T)
        done = 0
        while done < len(rows):
            got = self._piece(columns, done, len(rows) - done)
            if got is None:
                return None
            if not got:
                break
            done += got
        return rows[:done]

    def _piece(self, columns: list, at: int, want: int):
        """Parse the whole lines in the buffer, at most ``want`` of them,
        into ``columns`` at row ``at``: how many, 0 at the end of the file,
        or None."""
        c = len(columns)
        while True:
            data = self.buf[self.head:self.tail]
            # ',', '\\n' and any other byte below '-', which no cell holds
            sep = np.flatnonzero(data < ord("-"))
            lines = min(len(sep) // c, want)
            if lines:
                break
            if (data[sep] == ord("\n")).any():  # a line that is not a row
                return None
            if not self.fill():
                return 0
        sep = sep[:lines * c]
        ends = data[sep].reshape(lines, c)     # ',' after each cell but
        if not ((ends[:, :-1] == ord(",")).all()    # the last, '\n' after it
                and (ends[:, -1] == ord("\n")).all()):
            return None
        # only digits, '-', '.' and 'e' between the separators
        text = data[:sep[-1] + 1]
        exps = np.empty(0, dtype=np.intp)
        if text.max() > ord("9"):
            exps = np.flatnonzero(text > ord("9"))
            if (text[exps] != ord("e")).any():
                return None
            exps += self.head
        if (text == ord("/")).any():
            return None
        minus = np.count_nonzero(text == ord("-"))
        dots = np.flatnonzero(text == ord(".")) + self.head
        # a float column checks that its cells hold every '-', '.' and 'e'
        if (minus or len(dots) or len(exps)) and all(
                column.dtype.kind != "f" for column in columns):
            return None
        sep += self.head
        end = sep.reshape(lines, c)
        for k, column in enumerate(columns):
            start = end[:, k - 1] + 1 if k else np.concatenate(
                ([self.head], end[:-1, -1] + 1))
            if column.dtype.kind == "f":
                x = _decimals(self.buf, self.words, start, end[:, k], dots,
                              exps, minus)
            else:
                x = _integers(self.buf, self.words, start, end[:, k],
                              np.iinfo(column.dtype).max)
            if x is None:
                return None
            column[at:at + lines] = x
            del x       # not held while the next column is parsed
        self.skip(len(text))
        return lines
