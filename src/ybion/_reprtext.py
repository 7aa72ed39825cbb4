"""The rows of the Monte Carlo run table, formatted by numpy a block at a time.

rows(first, event_time_s, attempt_windows) returns the text that
``"".join(f"{i}\\t{t}\\t{k}\\n" ...)`` gives for trials first, first + 1, ...,
with t = repr(event time) or "NA" for NaN, byte for byte, without a Python
step per row.

Event times. repr prints the shortest decimal that rounds back to the
float (ties broken toward an even last digit) and writes it positionally
for magnitudes in [1e-4, 1e16). Those digits are found here with Schubfach
(R. Giulietti, "The Schubfach way to render doubles", 2020; the same
output as Ryu, U. Adams, PLDI 2018), one numpy operation over all rows at
a time: the value c * 2**q (c the 53-bit significand) is scaled by 10**-k
through a 126-bit approximation g of 10**-k, built exactly from Python
ints when this module is first imported, with the 64 x 64 -> 128-bit
products formed from 32-bit limbs in uint64, and exact ties broken as
repr breaks them. Rows outside [1e-4, 1e16) (zeros, subnormals,
infinities, exponent notation) are printed by repr itself. NaN rows are
"NA" and never enter the kernel.

Layout. Each row is a fixed number of little-endian uint64 words holding
its characters in order, with NUL bytes in every unused position; one
``bytes.translate`` per block deletes the NULs. An integer is written
right-aligned with its leading zeros as NUL, in as many words (one to
three) as the block's largest value needs. An event time is a sign byte,
then the 17 significant digits behind four zeros, with "." inserted after
the integer digits; NUL then covers the zeros ahead of the first integer
digit and behind the last significant digit, keeping one digit on each
side of the point.
"""

from ._numpy import np

_u, _i = np.uint64, np.int64
# Constants are numpy scalars: a Python int operand makes each uint64
# operation on a 4096-row block about 60% slower.
_ZEROS = _u(0x3030_3030_3030_3030)  # eight ASCII "0"
_ALL = _u(0xFFFF_FFFF_FFFF_FFFF)
_M32 = _u(0xFFFF_FFFF)
_M52 = _u(0x000F_FFFF_FFFF_FFFF)
_M11 = _u(0x7FF)
_M63 = _u(0x7FFF_FFFF_FFFF_FFFF)
_BIT52 = _u(1 << 52)
_0, _1, _2, _4, _8, _9, _10, _100 = (_u(i) for i in (0, 1, 2, 4, 8, 9, 10, 100))
_32, _40, _52, _56, _63 = (_u(i) for i in (32, 40, 52, 56, 63))
_E6, _E7, _E8, _E16 = _u(10**6), _u(10**7), _u(10**8), _u(10**16)
_TAB, _NL, _MINUS, _DOT = _u(0x09), _u(0x0A), _u(0x2D), _u(0x2E)
_NA = 0x414E  # "NA" as the first two bytes of a word
_TIME_WORDS = 3
_WORD_BITS = np.array([[0], [64], [128]], dtype=np.int64)  # of the time words

# The kernel covers the biased exponents of [1e-4, 1e16).
_E_LO = np.float64(1e-4).view(np.uint64) >> _52
_E_HI = np.nextafter(1e16, 0.0).view(np.uint64) >> _52


def _tables():
    """Schubfach's k, h and g1 (with its 32-bit limbs) per biased exponent
    and c == 2**52, the case whose lower half-interval is narrower.

    flog10pow2, flog10threeQuartersPow2 and flog2pow10 are Schubfach's
    integer forms of floor(q log10 2), floor(q log10 2 + log10 3/4) and
    floor(e log2 10); g = floor(10**-k * 2**(125 - flog2pow10(-k))) + 1 =
    g1 * 2**63 + g0. Over this range -k lies in [0, 20], so 10**-k is
    5**-k * 2**-k with 5**-k < 2**47, and the floor is that integer shifted
    left by at least 78 bits: g0 = 1 everywhere.
    """
    rows = []
    for e in range(int(_E_LO), int(_E_HI) + 1):
        q = e - 1075
        for even_power in (0, 1):
            k = (q * 661_971_961_083 - even_power * 274_743_187_321) >> 41
            r = (-k * 913_124_641_741) >> 38
            g = (10**-k << (125 - r)) + 1
            assert k <= 0 and g & (2**63 - 1) == 1
            g1 = g >> 63
            rows.append((k, q + r + 2, g1, g1 >> 32, g1 & 0xFFFF_FFFF))
    k, h, *g1 = zip(*rows)
    return (np.array(k, dtype=np.int64), np.array(h, dtype=np.uint64),
            *(np.array(col, dtype=np.uint64) for col in g1))


_K, _H, _G1, _G1_HI, _G1_LO = _tables()

# The four decimal digits of 0..9999 as byte values, the leading digit in
# the lowest byte.
_DIGITS4 = sum((np.arange(10_000, dtype=np.uint64) // 10 ** (3 - j) % 10) << (8 * j)
               for j in range(4))
_E4 = _u(10_000)


def _digits8(v):
    """The 8 decimal digits of each v < 10**8 as byte values, the leading
    digit in the lowest byte."""
    hi = v // _E4
    return _DIGITS4[hi.view(np.intp)] | (_DIGITS4[(v - hi * _E4).view(np.intp)] << _32)


def _rop(g, cp):
    """Schubfach's rop(g1, g0, cp) at g0 = 1: floor(g1 * cp / 2**64), its
    lowest bit set when the low 64 bits of the product exceed 1. The
    high half is summed from 32-bit limbs; g is (g1, g1_hi, g1_lo)."""
    g1, a_hi, a_lo = g
    b_hi, b_lo = cp >> _32, cp & _M32
    lo_hi = a_lo * b_hi
    hi_lo = a_hi * b_lo
    mid = ((a_lo * b_lo) >> _32) + (lo_hi & _M32) + (hi_lo & _M32)
    high = a_hi * b_hi + (lo_hi >> _32) + (hi_lo >> _32) + (mid >> _32)
    return high | ((((g1 * cp) >> _1) + _M63) >> _63)


def _shortest(bits):
    """Shortest round-trip significand d (10**15 <= d < 10**17) and exponent
    k (the value is d * 10**k) for the float64 bit patterns of normal
    values in [1e-4, 1e16)."""
    fraction = bits & _M52
    even_power = (fraction - _1) >> _63  # 1 when c = 2**52
    i = ((((bits >> _52) & _M11) - _E_LO) * _2 + even_power).view(np.intp)
    h = _H[i]
    g1 = (_G1[i], _G1_HI[i], _G1_LO[i])
    cb = (fraction | _BIT52) << _2
    vb = _rop(g1, cb << h)
    # An interval end belongs to the interval when c is even.
    odd = fraction & _1
    vbl = _rop(g1, (cb - _2 + even_power) << h) + odd
    vbr = _rop(g1, (cb + _2) << h) - odd
    # Candidates, in units of 10**k (vb, vbl, vbr are 4 times the value and
    # the interval ends): s = floor(v) and s + 1, and one digit shorter,
    # s rounded down to a multiple of 10 and that plus 10. A shorter one
    # wins when exactly one lies in the interval; otherwise s or s + 1,
    # whichever lies in it, the nearer to v when both do (the even one at a tie).
    s = vb >> _2
    s4 = s << _2
    sp40 = s // _10 * _40
    up_in = vbl <= sp40
    wp_in = sp40 + _40 <= vbr
    u_in = vbl <= s4
    w_in = s4 + _4 <= vbr
    ten = up_in ^ wp_in  # exactly one multiple of 10 lies in the interval
    d = s + (~u_in | (w_in & (vb + (s & _1) > s4 + _2)))
    np.copyto(d, (sp40 >> _2) + wp_in * _10, where=ten)
    return d, _K[i]


def _time_words(x):
    """The three words of each event time (x float64, no NaN) as a
    (3, len(x)) array, and the positions whose text repr must give."""
    fallback = ~((np.abs(x) >= 1e-4) & (np.abs(x) < 1e16))
    if fallback.any():
        x = np.where(fallback, 1.0, x)
    bits = x.view(np.uint64)
    d, k = _shortest(bits)
    short = (d - _E16) >> _63  # 1 below 10**16
    d *= short * _9 + _1  # now exactly 17 digits
    # Bytes of the field: 0 sign, 1-4 zeros, 5-21 the digits; "." goes
    # in front of byte dot, after the integer digits.
    dot = k + (_i(22) - short.view(np.int64))
    words = np.empty((_TIME_WORDS, len(d)), dtype=np.uint64)
    top = d // _E6
    np.floor_divide(top, _E8, out=words[0])
    np.subtract(top, words[0] * _E8, out=words[1])
    np.multiply(d - top * _E6, _100, out=words[2])
    words = _digits8(words)
    # Byte of the last nonzero digit: the float exponent of each word
    # gives its highest set bit.
    last = ((words.astype(np.float64).view(np.int64) >> _i(52))
            + (_WORD_BITS - 1023)).max(axis=0) >> _i(3)
    # Kept: from the first integer digit (one "0" when there is none) to
    # the last nonzero digit, or the first digit behind the point.
    first_kept = (np.minimum(dot - _i(1), _i(5)) << _i(3)).view(np.uint64)
    end = (np.maximum(last, dot) + _i(2)) << _i(3)
    at = (dot << _i(3)) - _WORD_BITS  # bit offset of the point in each word
    words += _ZEROS
    low = words & ((_1 << np.maximum(at, _i(0)).view(np.uint64)) - _1)
    high = words - low
    text = low | (high << _8) | (_DOT << at.view(np.uint64))
    text[1:] |= high[:-1] >> _56
    keep = (_1 << np.maximum(end - _WORD_BITS, _i(0)).view(np.uint64)) - _1
    keep[0] &= _ALL << first_kept
    text &= keep
    text[0] |= (bits >> _63) * _MINUS
    return text, np.flatnonzero(fallback)


def _int_words(u, width, head, tail):
    """width words holding the digits of u (uint64) right-aligned and
    followed by the byte tail, leading zeros as NUL except the units
    digit; head (bytes that are always leading zeros) is ORed into the
    first word."""
    rest = u // _E7
    chunks = [(u - rest * _E7) * _10]
    for _ in range(width - 1):
        top = rest // _E8
        chunks.append(rest - top * _E8)
        rest = top
    words = []
    for j, chunk in enumerate(reversed(chunks)):
        digits = probe = _digits8(chunk)
        if j:  # a nonzero digit ahead of this word keeps all of its bytes
            probe = probe | (u >= _u(10 ** (8 * (width - j) - 1)))
        zeros = _ZEROS
        if j == width - 1:
            probe = probe | _BIT52  # always keep the units digit
            zeros = (_ZEROS >> _8) | (tail << _56)
        lowest = probe & (_0 - probe)
        words.append(digits + (zeros & ~(lowest - _1)))
    words[0] |= head
    return words


def _width(top, head_bytes):
    """Words that hold every integer <= top behind head_bytes and a tail."""
    return next(w for w in (1, 2, 3) if top < 10 ** (8 * w - 1 - head_bytes))


def rows(first, event_time_s, attempt_windows) -> str:
    """Rows "trial<TAB>event time or NA<TAB>windows<LF>" for trials first,
    first + 1, ... of 1-D float64 event times and int64 window counts."""
    event_time_s = np.asarray(event_time_s, dtype=np.float64)
    attempt_windows = np.asarray(attempt_windows, dtype=np.int64)
    n = len(event_time_s)
    negative = (attempt_windows >> 63).view(np.uint64)  # all ones below 0
    windows = (attempt_windows.view(np.uint64) ^ negative) - negative
    trial = _int_words(np.arange(first, first + n, dtype=np.uint64),
                       _width(first + n - 1, 0), 0, _TAB)
    count = _int_words(windows, _width(int(windows.max()), 2),
                       _TAB | (negative & (_MINUS << _8)), _NL)
    time_at = len(trial)
    table = np.empty((n, time_at + _TIME_WORDS + len(count)), dtype=np.uint64)
    for column, word in enumerate(trial):
        table[:, column] = word
    for column, word in enumerate(count, time_at + _TIME_WORDS):
        table[:, column] = word
    valid = ~np.isnan(event_time_s)
    if valid.all():
        valid = slice(None)
    else:
        table[:, time_at:time_at + _TIME_WORDS] = (_NA, 0, 0)
        valid = np.flatnonzero(valid)
    times = event_time_s[valid]
    words, fallback = _time_words(times)
    for column, word in enumerate(words, time_at):
        table[valid, column] = word
    if len(fallback):
        text = b"".join(repr(t).encode().ljust(8 * _TIME_WORDS, b"\0")
                        for t in times[fallback].tolist())
        table[np.arange(n)[valid][fallback], time_at:time_at + _TIME_WORDS] = (
            np.frombuffer(text, np.uint64).reshape(-1, _TIME_WORDS))
    return table.tobytes().translate(None, b"\0").decode("ascii")
