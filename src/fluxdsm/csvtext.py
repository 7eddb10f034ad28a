"""How every artifact spells a value, the CSV writer, and the one
function that writes an artifact file.

A float, Python or numpy, is spelled as repr spells it (the shortest
digits that read back as the same float64, so equal values are equal
bytes), an integer as its decimal digits, a bool as 1 or 0, and
anything else as str gives it. spell() spells each report.txt value
and each CSV cell; cells are joined by ',' and each row ends in '\\n'.

write_csv routes a table by the kind of its columns alone: where each
column is a 1-d float64, int64 or bool numpy array, numpy encodes the
table column-wise, in the bytes spell gives; any other table is
written cell by cell through spell. Both write CSV_CHUNK_ROWS rows at
a time. A Ryu run costs as much as about 600 cells before its first
cell, so where the float columns of a chunk hold at most CSV_RUN_CELLS
cells together, one run encodes them all.

Every artifact, CSV or report.txt, is written by write_artifact, as a
new file.

Column-wise, each row is laid out in 8-byte words, with NUL bytes
wherever a cell is shorter than its words, and the NULs are dropped in
one bytes.translate. A word is a uint64 whose byte k is character k,
kept in a little-endian array, so its bytes read in order. The first
two characters of a cell's first word are kept free for the ',' before
it and its sign; a float's exponent suffix takes one more word, in
each Ryu run where some float needs one; a row ends with a '\\n' word.

The shortest round-trip digits of a float come from Ryu's d2d (Adams,
"Ryu: fast float-to-string conversion", PLDI 2018) run on whole
arrays, its 128-bit products built from 32-bit halves in uint64
arithmetic. A run's bit patterns are sorted once and counted. Where
at least a quarter of them repeat, each distinct pattern is encoded
once and its words are gathered back into the columns' rows, so a
column of few distinct values, such as a telegraph series (about 30
of 16,384 distinct) or a superconducting slab's profile (59 %), costs
Ryu's work per value, not per cell. Otherwise the run is encoded as it
stands, with no gather: the shipped spectra, PSDs and comparator
curves are all but entirely distinct, the junction curves and a normal
slab's profile 87-100 %, and there the gather would cost more than
the repeats save. Dedupe pays below about half distinct for 17-digit
values and below about three quarters for short ones. uint64 and int64
arrays never meet in one operation: numpy < 2 promotes that mix to
float64.
"""

import functools
import os
from itertools import islice

import numpy as np

_U = np.uint64
_M32 = _U(0xFFFFFFFF)
# _FROM[c] keeps the characters c .. 7 of a word and clears the rest
_FROM = np.array([0xFFFFFFFFFFFFFFFF << 8 * c & 0xFFFFFFFFFFFFFFFF
                  for c in range(9)], dtype=np.uint64)
_MANT_BITS = 52
_MANT_MASK = _U((1 << _MANT_BITS) - 1)
# 10^0 .. 10^19, every power of ten below 2^64
_P10 = np.array([10**k for k in range(20)], dtype=np.uint64)
# 5^0 .. 5^21: Ryu tests the trailing zeros of 5^q for q <= 21 only
_P5 = np.array([5**k for k in range(22)], dtype=np.uint64)
# the bits of Ryu's multipliers
_POW5_BITS = 125
_MINUS, _PLUS = _U(ord("-")), _U(ord("+"))


@functools.cache
def _exponent_tables():
    """What Ryu's d2d derives from the biased binary exponent alone,
    as arrays indexed by it (0 .. 2046):

    e10, dist, mul_lo, mul_hi: the decimal exponent of vr, vp, vm
        before digits are dropped, and the 125-bit multiplier (two
        uint64 words) and the shift that form them
    low_bits: for e2 < 0, vr dropped only zeros where mv & low_bits
        is 0 (low_bits is 0 where that always holds, all ones where it
        never does)
    q_small: q where e2 >= 0 and q <= 21 (the trailing zeros are then
        tested against 5^q), else -1
    """
    ebits = np.arange(2047)
    e2 = np.maximum(ebits, 1) - (1023 + _MANT_BITS + 2)
    pos = e2 >= 0
    q_pos = np.where(pos, ((e2 * 78913) >> 18) - (e2 > 3), 0)
    q_neg = ((-e2 * 732923) >> 20) - (e2 < -1)
    i_neg = np.where(pos, 0, -e2 - q_neg)
    q = np.where(pos, q_pos, q_neg)
    # 2^k / 5^q rounded up for e2 >= 0; 5^i cut to 125 bits for e2 < 0
    inverse, power, p = [], [], 1
    q_top = int(q_pos.max())
    for k in range(max(q_top, int(i_neg.max())) + 1):
        bits = p.bit_length()
        if k <= q_top:
            inverse.append((1 << (bits - 1 + _POW5_BITS)) // p + 1)
        power.append(p >> (bits - _POW5_BITS) if bits >= _POW5_BITS
                     else p << (_POW5_BITS - bits))
        p *= 5
    mul_lo, mul_hi = (
        np.where(pos, np.array([m >> shift & 0xFFFFFFFFFFFFFFFF
                                for m in inverse], dtype=np.uint64)[q_pos],
                 np.array([m >> shift & 0xFFFFFFFFFFFFFFFF
                           for m in power], dtype=np.uint64)[i_neg])
        for shift in (0, 64))
    e10 = np.where(pos, q_pos, q_neg + e2)
    j = np.where(pos, q_pos - e2 + _POW5_BITS - 1 + _pow5bits(q_pos),
                 q_neg - _pow5bits(i_neg) + _POW5_BITS)
    low_bits = np.where(pos | (q >= 63), -1,
                        np.where(q <= 1, 0, (1 << np.minimum(q, 62)) - 1))
    q_small = np.where(pos & (q <= 21), q, -1)
    return _read_only(e10, (j - 64).astype(np.uint64), mul_lo, mul_hi,
                      low_bits.astype(np.uint64), q_small)


@functools.cache
def _text_tables():
    """Lookup words: the four ASCII digits of 0 .. 9999, and the masks
    that put a float's text into its words (see _float_cells)."""
    digit2 = np.array([0x3030 + (k // 10) + (k % 10 << 8) for k in range(100)],
                      dtype=np.uint64)
    digit4 = (digit2[:, None] | (digit2[None, :] << _U(16))).ravel()

    def chars_from(c):
        """Masks of the characters at index >= c (an array) of a float
        cell's words 1, 2, 3, one row per word."""
        return _FROM[np.clip(c[None, :] - 8 * np.arange(1, 4)[:, None], 0, 8)]

    # by frac (0 .. 20) and text length (1 .. 21), for each word: the
    # integer part's characters, the '.' and the fraction's characters
    frac = np.arange(21)
    at, after = chars_from(31 - frac), chars_from(32 - frac)
    int_mask = chars_from(31 - np.arange(22))[:, None, :] & ~at[:, :, None]
    dot = np.where(frac > 0, _U(0x2E2E2E2E2E2E2E2E) & at & ~after, _U(0))
    return _read_only(digit4, int_mask.reshape(3, -1), after, dot)


def _read_only(*tables):
    """The cached tables, which every caller shares, locked."""
    for table in tables:
        table.setflags(write=False)
    return tables


def _digits8(v):
    """Words of the eight ASCII digits of v < 10^8, zero-padded."""
    digit4 = _text_tables()[0]
    hi = v // _U(10**4)
    return digit4[hi] | (digit4[v - hi * _U(10**4)] << _U(32))


def _umul128(a_lo, a_hi, b):
    """(low, high) 64-bit words of the 128-bit products a * b, where
    a = a_hi * 2^32 + a_lo."""
    b_lo, b_hi = b & _M32, b >> _U(32)
    b00 = a_lo * b_lo
    mid1 = a_hi * b_lo + (b00 >> _U(32))
    mid2 = a_lo * b_hi + (mid1 & _M32)
    high = a_hi * b_hi + (mid1 >> _U(32)) + (mid2 >> _U(32))
    return (mid2 << _U(32)) | (b00 & _M32), high


def _mul_shifts(mv, mm_shift, mul_lo, mul_hi, dist):
    """(m * mul) >> (64 + dist) for m = mv, mv + 2 and mv - 1 - mm_shift
    (Ryu's vr, vp, vm), where mv < 2^56, mul < 2^125 and dist < 64.
    The product for mv is formed once, in 64-bit words w0 w1 w2; the
    other two add 2 mul or subtract (1 + mm_shift) mul, carrying by hand."""
    a_lo, a_hi = mv & _M32, mv >> _U(32)
    w0, high0 = _umul128(a_lo, a_hi, mul_lo)
    low1, w2 = _umul128(a_lo, a_hi, mul_hi)
    w1 = high0 + low1
    w2 += (w1 < low1).astype(np.uint64)
    back = _U(64) - dist

    def shifted(x1, x2):
        return (x2 << back) | (x1 >> dist)

    def add(x0, x1):
        s0 = w0 + x0
        s1 = w1 + x1
        carry = (s1 < x1).astype(np.uint64)
        s1 += (s0 < x0).astype(np.uint64)
        carry |= (s1 == _U(0)) & (s0 < x0)
        return shifted(s1, w2 + carry)

    def sub(x0, x1):
        borrow = (w1 < x1).astype(np.uint64)
        d1 = w1 - x1
        low = (w0 < x0).astype(np.uint64)
        borrow |= (d1 < low).astype(np.uint64)
        return shifted(d1 - low, w2 - borrow)

    top = mul_lo >> _U(63)
    vr = shifted(w1, w2)
    vp = add(mul_lo << _U(1), (mul_hi << _U(1)) | top)
    vm = sub(mul_lo << mm_shift, (mul_hi << mm_shift) | (top & mm_shift))
    return vr, vp, vm


def _pow5bits(e):
    return ((e * 1217359) >> 19) + 1


def _shortest(bits):
    """Ryu's d2d on finite nonzero float64 bit patterns (uint64).

    Returns (digits, exp10): the shortest uint64 digits whose value
    digits * 10**exp10 reads back as the same float, the closest to it
    when several are that short, halfway cases to even digits.
    """
    mant = bits & _MANT_MASK
    ebits = ((bits >> _U(_MANT_BITS)) & _U(0x7FF)).astype(np.intp)
    m2 = np.where(ebits == 0, mant, mant | _U(1 << _MANT_BITS))
    accept = (m2 & _U(1)) == _U(0)
    mv = m2 << _U(2)
    mm_shift = ((mant != _U(0)) | (ebits <= 1)).astype(np.uint64)
    mm = mv - _U(1) - mm_shift
    e10, dist, mul_lo, mul_hi, low_bits, q_small = (
        table[ebits] for table in _exponent_tables())
    vr, vp, vm = _mul_shifts(mv, mm_shift, mul_lo, mul_hi, dist)

    # whether vr and vm dropped only zeros of the exact products
    vr_tz = (mv & low_bits) == _U(0)
    always = low_bits == _U(0)
    vm_tz = always & accept & (mm_shift == _U(1))
    vp -= (always & ~accept).astype(np.uint64)
    small = np.flatnonzero(q_small >= 0)
    if small.size:
        p5, sv = _P5[q_small[small]], mv[small]
        five = sv % _U(5) == _U(0)
        vr_tz[small] = five & (sv % p5 == _U(0))
        vm_tz[small] = ~five & accept[small] & (mm[small] % p5 == _U(0))
        vp[small] -= (~five & ~accept[small]
                      & ((sv + _U(2)) % p5 == _U(0))).astype(np.uint64)

    # drop the digits that vp and vm still disagree on: `removed` is
    # the largest r with vp // 10^r > vm // 10^r
    removed = np.zeros(bits.size, dtype=np.int64)
    live = np.flatnonzero(vp // _U(10) > vm // _U(10))
    r = 1
    while live.size:
        removed[live] = r
        r += 1
        live = live[vp[live] // _P10[r] > vm[live] // _P10[r]]
    below = _P10[np.maximum(removed - 1, 0)]
    scale = _P10[removed]
    head = vr // below
    vr_tz &= vr - head * below == _U(0)
    vr = head // _U(10)
    last = head - vr * _U(10)
    kept = removed == 0
    vr[kept], last[kept] = head[kept], _U(0)
    cut = vm // scale
    vm_tz &= vm - cut * scale == _U(0)
    vm = cut
    # where vm dropped only zeros, it drops its trailing zeros too
    live = np.flatnonzero(vm_tz & (vm % _U(10) == _U(0)) & (vm != _U(0)))
    while live.size:
        vr_tz[live] &= last[live] == _U(0)
        last[live] = vr[live] % _U(10)
        vr[live] //= _U(10)
        vm[live] //= _U(10)
        removed[live] += 1
        live = live[(vm[live] % _U(10) == _U(0)) & (vm[live] != _U(0))]

    last[vr_tz & (last == _U(5)) & (vr & _U(1) == _U(0))] = _U(4)
    up = ((vr == vm) & ~(accept & vm_tz)) | (last >= _U(5))
    return vr + up.astype(np.uint64), e10 + removed


def _float_cells(x):
    """The words of the repr of each float64 of x, without its sign,
    and the sign characters.

    The bit patterns of x are sorted once and counted. Where at least
    a quarter of them repeat, each distinct pattern is encoded once and
    its words are gathered back into x's order; otherwise x is encoded
    as it stands, with no gather. Of the shipped runs, a telegraph
    series (about 30 of 16,384 distinct) and a superconducting slab's
    profile (59 %) dedupe; the rest are 87-100 % distinct, where the
    gather would cost more than the repeats save. The patterns are
    keyed as uint64, not compared as floats, so 0.0 and -0.0 stay
    apart, and so do nans of either sign and payload."""
    keys = x.view(np.uint64)
    order = np.sort(keys)
    new = order[1:] != order[:-1]
    distinct = 1 + np.count_nonzero(new)
    if 4 * distinct > 3 * keys.size:
        return _float_words(keys)
    bits = np.concatenate((order[:1], order[1:][new]))
    index = np.searchsorted(bits, keys)
    words, sign = _float_words(bits)
    return [word[index] for word in words], sign[index]


def _float_words(bits):
    """_float_cells' words and sign characters of float64 bit patterns
    (uint64), one per pattern."""
    n = bits.size
    special = (bits & _U(0x7FF << _MANT_BITS)) == _U(0x7FF << _MANT_BITS)
    zero = (bits << _U(1)) == _U(0)
    plain = ~(special | zero)
    # _shortest takes 1.0 (its bits) in place of each zero, inf and
    # nan, whose digits are then the single 0 of '0.0'; the inf and nan
    # words are set below
    digits, exp10 = _shortest(np.where(plain, bits, _U(0x3FF << _MANT_BITS)))
    ndig = np.searchsorted(_P10, digits, side="right").astype(np.int64)
    blank = np.flatnonzero(~plain)
    digits[blank], exp10[blank], ndig[blank] = 0, 0, 1
    point = exp10 + ndig
    positional = (point > -4) & (point <= 16)
    # the text T is the digits, zero-padded in front up to the point
    # and zero-extended up to one place after it; a '.' goes in front
    # of its last `frac` characters (none: '1e+16')
    frac = np.where(positional, np.maximum(ndig - point, 1), ndig - 1)
    length = np.where(positional, np.maximum(point, 1), 1) + frac
    extend = np.flatnonzero(positional & (point >= ndig))
    digits[extend] *= _P10[point[extend] - ndig[extend] + 1]

    # T right-aligned in the 24 characters of t0 t1 t2 (T has at most
    # 21, so their first three are free). The cell's three words hold
    # T's integer part shifted one character left of where t0 t1 t2
    # hold it, then the '.', then the fraction where t0 t1 t2 hold it.
    digit4, int_mask, frac_mask, dot = _text_tables()
    upper = digits // _U(10**8)
    t2 = _digits8(digits - upper * _U(10**8))
    top = upper // _U(10**8)
    t1 = _digits8(upper - top * _U(10**8))
    t0 = _U(0x30303030) | (digit4[top] << _U(32))
    key = frac * 22 + length
    shifted = ((t0 >> _U(8)) | (t1 << _U(56)), (t1 >> _U(8)) | (t2 << _U(56)),
               t2 >> _U(8))
    words = [(left & int_mask[j][key]) | dot[j][frac]
             | (right & frac_mask[j][frac])
             for j, (left, right) in enumerate(zip(shifted, (t0, t1, t2)))]

    sign = (bits >> _U(63)) * _MINUS
    sci = np.flatnonzero(~positional)
    if sci.size:
        power = point[sci] - 1
        mag = np.abs(power)
        # 'e', the exponent's sign, then its last two or three digits
        digits3 = digit4[mag] >> np.where(mag >= 100, _U(8), _U(16))
        suffix = np.zeros(n, dtype=np.uint64)
        suffix[sci] = _U(ord("e")) | (np.where(power < 0, _MINUS, _PLUS)
                                      << _U(8)) | (digits3 << _U(16))
        words.append(suffix)
    odd = np.flatnonzero(special)
    if odd.size:
        nan = (bits[odd] & _MANT_MASK) != _U(0)
        words[0][odd] = words[1][odd] = _U(0)
        # 'nan' or 'inf' in the last three characters of the third word
        words[2][odd] = np.where(nan, _U(0x6E616E << 40), _U(0x666E69 << 40))
        sign[odd[nan]] = _U(0)
    return words, sign


def _int_cells(v):
    """The words of the decimal digits of each int64 or bool of v,
    right-aligned and as few as leave two characters free, and the
    sign characters."""
    v = v.astype(np.int64, copy=False)
    # |-2^63| wraps to -2^63, whose uint64 bits are 2^63
    mag = np.abs(v).view(np.uint64)
    # the digits of each magnitude, counted against the powers of ten
    # up to the largest magnitude's
    top = len(str(int(mag.max())))
    ndig = np.ones(mag.size, dtype=np.int8)
    for power in _P10[1:top]:
        ndig += mag >= power
    width = (top + 2 + 7) // 8
    # leading zeros become NUL
    blank = width * 8 - ndig
    words = []
    for j in range(width - 1, -1, -1):
        upper = mag // _U(10**8)
        word = _digits8(mag - upper * _U(10**8))
        words.insert(0, word & _FROM[np.clip(blank - 8 * j, 0, 8)])
        mag = upper
    return words, (v < 0) * _MINUS


def _encode_rows(cells) -> bytes:
    """CSV lines of equal-length columns, given as the (words, sign) of
    their cells."""
    rows = np.empty((cells[0][1].size, sum(len(w) for w, _ in cells) + 1),
                    dtype="<u8")
    at = 0
    for index, (words, sign) in enumerate(cells):
        rows[:, at] = words[0] | (sign << _U(8)) | _U(ord(",") if index else 0)
        for word in words[1:]:
            at += 1
            rows[:, at] = word
        at += 1
    rows[:, at] = _U(ord("\n"))
    return rows.tobytes().translate(None, b"\0")


def _encode_chunk(columns, encoders) -> bytes:
    """CSV lines of a chunk of equal-length 1-d numpy columns, each with
    its column-wise encoder. Where the float columns hold at most
    CSV_RUN_CELLS cells together, one _float_cells run encodes them
    all; any other column is encoded on its own."""
    floats = [i for i, encode in enumerate(encoders) if encode is _float_cells]
    m = columns[0].size
    if len(floats) < 2 or m * len(floats) > CSV_RUN_CELLS:
        return _encode_rows([encode(c) for c, encode in zip(columns, encoders)])
    cells = [None if encode is _float_cells else encode(c)
             for c, encode in zip(columns, encoders)]
    words, sign = _float_cells(np.concatenate([columns[i] for i in floats]))
    for k, i in enumerate(floats):
        own = slice(k * m, (k + 1) * m)
        cells[i] = [word[own] for word in words], sign[own]
    return _encode_rows(cells)


# the column-wise encoders, by the dtype of a 1-d array (the dtypes
# the runners write)
_ENCODERS = {np.dtype(np.float64): _float_cells,
             np.dtype(np.int64): _int_cells, np.dtype(np.bool_): _int_cells}


def _encoder(column):
    """column's column-wise encoder, or None where it has none."""
    if isinstance(column, np.ndarray) and column.ndim == 1:
        return _ENCODERS.get(column.dtype)
    return None


# rows per write: bounds the text held in memory on long tables
CSV_CHUNK_ROWS = 1 << 14
# the most float cells of a chunk that one Ryu run encodes together: a
# run's fixed cost outweighs its cost per cell on small columns, but a
# larger run costs more per cell than one run per column
CSV_RUN_CELLS = 1 << 12


def write_artifact(path: str, chunks) -> None:
    """Write the bytes of chunks, an iterable, to path as a new file.
    An existing file at path is unlinked first, so a hard link or a
    symlink there is replaced, not written through: rewriting a file in
    place costs several times more on file systems that flush on
    truncation, such as ext4."""
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
    with open(path, "xb") as fh:
        for chunk in chunks:
            fh.write(chunk)


def write_csv(path: str, header, columns) -> None:
    """CSV of one header row, then one row per index of columns, an
    iterable (read once) of equal-length columns, each a numpy array or
    a sequence of Python values, spelled as the module docstring says."""
    columns = list(columns)
    n = len(columns[0]) if columns else 0
    if any(len(c) != n for c in columns):
        raise ValueError("CSV columns differ in length")
    write_artifact(path, _csv_lines(header, columns, n))


def _csv_lines(header, columns, n):
    """The bytes of write_csv's file, chunk by chunk."""
    yield (",".join(header) + "\n").encode()
    encoders = [_encoder(c) for c in columns]
    if all(encoders):
        for start in range(0, n, CSV_CHUNK_ROWS):
            yield _encode_chunk([c[start:start + CSV_CHUNK_ROWS]
                                 for c in columns], encoders)
        return
    rows = zip(*(map(spell, c) for c in columns))
    while chunk := "".join(",".join(row) + "\n"
                           for row in islice(rows, CSV_CHUNK_ROWS)):
        yield chunk.encode()


def spell(value) -> str:
    """One value as report.txt spells it (a bool as 1 or 0)."""
    if isinstance(value, (int, np.integer, np.bool_)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)
