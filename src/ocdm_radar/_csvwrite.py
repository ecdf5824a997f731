"""The CSV writer behind rxproc.write_csv: '%.12g' text for a block of floats at a time."""

import numpy as np

from .rxproc import _RowWindow

# write_table formats a block of values at a time.  A finite nonzero |x| scales
# to s = |x| * 10**(11 - e), e = floor(log10|x|) corrected once, with one
# correctly rounded multiply or divide by an exact power of ten.  D = rint(s)
# is then the correctly rounded 12-digit significand, and e (e + 1 where D
# carries to 10**12) the exponent X of '%.12g'.  Python's own '%.12g' formats
# the rest: NaN and +-inf, |11 - e| > 22 (no exact power of ten), and s within
# one ulp of a half integer, where rint(s) and the exact product may round
# apart.
#
# Each value owns a slot holding every character its text can use, in text
# order (_CSV_SLOT).  The text depends only on the value's sign, X and the
# number of digits D keeps after stripping its trailing zeros: its layout.  A
# per-layout keep mask picks the text's bytes, and one compaction of the
# block's slots makes the block's text.

# Values per block: the block's buffers stay a few MiB.
_CSV_BLOCK = 1 << 14
# Slot bytes: sign, the "0.000" of -4 <= X < 0, D's 12 digits each followed by
# a '.', "e+XX", the terminator (',' or a newline); the blanks are never kept.
_CSV_SLOT = b"  -0.000" + b"0." * 12 + b"e+00" + b",   "
_SIGN, _PREFIX, _DIGITS, _EXPONENT, _END = 2, 3, 8, 32, 36
# Exponents X of the scaled values: e in [-11, 33], plus one on a carry.
_X_MIN, _X_MAX = -11, 34
# Layout 0 is a value Python formats (only its terminator is kept), 1 and 2
# are +0 and -0, and the scaled values follow.
_LAYOUT_SCALED = 3
# One ulp of s < 2**40: a fractional part this close to 0.5 goes to Python.
_TIE_ULP = 2.0**-13


def _kept_bytes(x: int, digits: int) -> list[int]:
    """Slot bytes of a positive scaled value's text, terminator excluded."""
    digit = [_DIGITS + 2 * j for j in range(12)]  # digit j's '.' is at digit[j] + 1
    if not -4 <= x < 12:
        point = [digit[0] + 1] if digits > 1 else []
        return digit[:1] + point + digit[1:digits] + list(range(_EXPONENT, _EXPONENT + 4))
    if x < 0:
        return list(range(_PREFIX, _PREFIX + 1 - x)) + digit[:digits]
    point = [digit[x] + 1] if digits > x + 1 else []
    return sorted(digit[: max(digits, x + 1)] + point)


def _csv_tables():
    """Keep masks and text lengths by layout, and the digit, exponent and power tables."""
    texts = [[], [_PREFIX], [_SIGN, _PREFIX]]
    for x in range(_X_MIN, _X_MAX + 1):
        for digits in range(1, 13):
            kept = _kept_bytes(x, digits)
            texts += [kept, [_SIGN] + kept]
    keep = np.zeros((len(texts), len(_CSV_SLOT)), dtype=bool)
    for row, kept in zip(keep, texts):
        row[kept + [_END]] = True
    numbers = np.arange(10_000)
    # Each 4-digit group as the uint64 "d.d.d.d.": a third of a slot's digit bytes.
    pairs = np.full((10_000, 8), ord("."), dtype=np.uint8)
    for j in range(4):
        pairs[:, 2 * j] = numbers // 10 ** (3 - j) % 10 + ord("0")
    # places[i, g]: digits D keeps up to its 4-digit group i when that group is g (0 if g is 0).
    trailing = np.zeros(10_000, dtype=np.intp)
    for p in range(1, 4):
        trailing[numbers % 10**p == 0] = p
    places = np.where(numbers > 0, np.arange(4, 13, 4)[:, None] - trailing, 0).astype(np.uint8)
    exponents = np.frombuffer(b"".join(b"e%+03d" % x for x in range(_X_MIN, _X_MAX + 1)), dtype=np.uint32)
    powers = np.array([float(10**p) for p in range(23)])
    tables = keep, keep.sum(axis=1), pairs.view(np.uint64).ravel(), places, exponents, powers
    for table in tables:  # shared by every call
        table.flags.writeable = False
    return tables


_CSV_TABLES = _csv_tables()


def _scale(a: np.ndarray, k: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """a * 10**k with one correctly rounded operation (|k| <= 22, so 10**|k| is exact)."""
    return a * powers.take(np.maximum(k, 0)) / powers.take(np.maximum(-k, 0))


def _format_block(values: np.ndarray, slots: np.ndarray) -> bytes:
    """The '%.12g' texts of values, each with the terminator of its slot."""
    keep, lengths, pairs, places, exponents, powers = _CSV_TABLES
    a = np.abs(values)
    negative = np.signbit(values)
    # Zeros and non-finite values run through the arithmetic unscaled; it is not used for them.
    with np.errstate(divide="ignore", invalid="ignore"):
        k = 11.0 - np.floor(np.log10(a))  # inf at 0, nan at nan and inf
        scaled = np.abs(k) <= 22
        k = np.where(scaled, k, 0.0).astype(np.intp)
        s = _scale(a, k, powers)
        # Correct e once where log10 rounded across a power of ten.
        step = (s < 1e11).astype(np.intp) - (s >= 1e12)
        moved = np.flatnonzero(step & scaled)
        if moved.size:
            k[moved] += step[moved]
            scaled[moved] = np.abs(k[moved]) <= 22
            k[moved] *= scaled[moved]
            s[moved] = _scale(a[moved], k[moved], powers)
        d = np.rint(s)
        scaled &= np.abs(s - np.floor(s) - 0.5) > _TIE_ULP
    carry = d == 1e12
    x = 11 - k + carry
    d = np.where(scaled & ~carry, d, 1e11).astype(np.intp)
    g0 = d // 10**8
    rest = d - g0 * 10**8
    g1 = rest // 10**4
    g2 = rest - g1 * 10**4
    digits = np.maximum(np.maximum(places[0].take(g0), places[1].take(g1)), places[2].take(g2))
    layout = _LAYOUT_SCALED + 2 * (12 * (x - _X_MIN) + digits - 1) + negative
    layout = np.where(scaled, layout, (a == 0) * (1 + negative))

    block = slots[: values.size]
    words = block.view(np.uint64)
    for j, group in enumerate((g0, g1, g2)):
        words[:, _DIGITS // 8 + j] = pairs.take(group)
    block.view(np.uint32)[:, _EXPONENT // 4] = exponents.take(x - _X_MIN)
    text = np.extract(keep.take(layout, axis=0), block).tobytes()

    python = np.flatnonzero(layout == 0)
    if not python.size:
        return text
    ends = np.cumsum(lengths.take(layout))
    pieces, done = [], 0
    for i, start in zip(python.tolist(), (ends[python] - 1).tolist()):
        pieces += [text[done:start], b"%.12g" % values[i]]
        done = start
    pieces.append(text[done:])
    return b"".join(pieces)


def write_table(path, array, header: str = "") -> None:
    """rxproc.write_csv, which documents the arguments and the bytes."""
    columns = [np.asarray(c) for c in array] if isinstance(array, (list, tuple)) else None
    if columns is None:
        table = np.asarray(array, dtype=np.float64)
        if table.ndim not in (1, 2):
            raise ValueError(f"expected a 1-D or 2-D array, got {table.ndim}-D")
        n_rows, n_cols = len(table), table.shape[1] if table.ndim == 2 else 1
        table = table.reshape(n_rows, n_cols)  # a view, whatever the strides
    else:
        n_rows, n_cols = len(columns[0]), len(columns)
    with open(path, "wb") as fh:
        if header:
            fh.write(header.encode() + b"\n")
        if not n_cols:  # an empty line per row, as numpy writes a zero-column table
            fh.write(b"\n" * n_rows)
            return
        rows_per_block = max(1, min(n_rows, _CSV_BLOCK // n_cols))
        span = rows_per_block * n_cols
        slots = np.frombuffer(_CSV_SLOT * span, dtype=np.uint8).reshape(span, len(_CSV_SLOT)).copy()
        slots[n_cols - 1 :: n_cols, _END] = ord("\n")
        rows = None if columns is not None else _RowWindow(table, rows_per_block)
        for start in range(0, n_rows, rows_per_block):
            stop = min(start + rows_per_block, n_rows)
            if columns is None:
                block = rows[start:stop].reshape(-1)
            else:
                block = np.column_stack([c[start:stop] for c in columns]).astype(np.float64, copy=False).ravel()
            fh.write(_format_block(block, slots))
