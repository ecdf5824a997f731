"""Receiver chain: receive DFnT, range-velocity imaging, the peak report and the CSV writer.

The corrected receive frame of a pilot transmission is directly the stack of
M consecutive radar CIR estimates.  A row-wise DFT across the symbols then
turns the per-symbol Doppler phases into velocity information.  Which rows
of the frame hold a CIR (a MIMO transmitter's slice, the RadCom radar
sector) is a frame layout, defined in ``framing``.

Velocity axis: the row-wise DFT peak for a Doppler progression of d cycles
per M symbols sits at raw bin d; after centering, bin offset j - M//2 maps to
velocity -(j - M//2) * delta_v so that negative normalized Doppler shifts
(the default mapping of positive radial velocity) read out as positive
velocities.  The two half-rate edges +/- v_max,ua alias onto the same bin.

The module owns the image statistics and the noise floor: estimate_peak
reports the peak and its margin over that floor, which detection reads.
write_csv writes every CSV of the package, '%.12g' text a block of values at
a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import SUM_LEAF, pairwise_sum
from .fresnel import dfnt_fast, phase_fold_correct
from .framing import C0, CHANNEL_BLOCK, MimoConfig, WaveformParams, from_stream

# Values per staged window of _RowWindow: two 1 MiB float buffers.
_WINDOW_VALUES = 1 << 17

__all__ = [
    "RangeVelocityImage",
    "PeakReport",
    "RadarParams",
    "receive_frame",
    "doppler_process",
    "compute_radar_params",
    "estimate_peak",
    "image_to_csv",
    "write_csv",
]


@dataclass(frozen=True)
class RangeVelocityImage:
    """Magnitude image with physical axes; rows = range bins, cols = Doppler bins."""

    magnitude: np.ndarray
    range_axis_m: np.ndarray
    velocity_axis_mps: np.ndarray


@dataclass(frozen=True)
class PeakReport:
    """The image's peak cell and power, and the peak's margin over the noise floor (inf on a zero floor)."""

    range_m: float
    velocity_mps: float
    power_db: float
    noise_margin_db: float


@dataclass(frozen=True)
class RadarParams:
    """Closed-form performance parameters of the configured numerology."""

    processing_gain_db: float
    range_resolution_m: float
    max_unambiguous_range_m: float
    velocity_resolution_mps: float
    max_unambiguous_velocity_mps: float
    max_cp_range_m: float | None = None
    mimo_max_unambiguous_range_m: float | None = None


def receive_frame(stream: np.ndarray, params: WaveformParams, out: np.ndarray | None = None) -> np.ndarray:
    """CP removal, column-wise fast Fresnel transform, phase-fold correction.

    With a pilot transmission the corrected output holds the radar CIR
    estimates.  The fold correction is its own inverse, so applying it again
    gives the plain transform.

    Works on blocks of CHANNEL_BLOCK symbols: the DFnT acts column by
    column, so each block is transformed on its own, fold-corrected in place
    on the transform's output and written into its columns of ``out`` (an
    N x M complex128 array) when given, else of a new F-ordered one, which
    is returned.  ``out`` may be ``from_stream(stream, params)``: a block's
    symbols are transformed before they are overwritten, so the stream's own
    buffer ends as the Fresnel frame and no second frame-sized array is built.
    """
    time_frame = from_stream(stream, params)
    if out is None:
        out = np.empty((params.N, params.M), dtype=np.complex128, order="F")
    elif out.shape != (params.N, params.M) or out.dtype != np.complex128:
        raise ValueError(f"out must be a complex128 array of shape {(params.N, params.M)}")
    for start in range(0, params.M, CHANNEL_BLOCK):
        block = slice(start, start + CHANNEL_BLOCK)
        out[:, block] = phase_fold_correct(dfnt_fast(time_frame[:, block]))
    return out


def doppler_process(cir: np.ndarray, params: WaveformParams, out: np.ndarray | None = None) -> RangeVelocityImage:
    """Row-wise DFT across symbols (no taper), centered, converted to physical axes.

    Works in blocks of rows holding about CHANNEL_BLOCK * N elements: the
    magnitudes of each block's spectrum go straight into their fftshift
    columns of the image, ``out`` (a float64 array of the CIR's shape) when
    given, else a new one.  abs is elementwise and fftshift a permutation, so
    this is abs(fftshift(fft)) bit for bit, and no complex spectrum of the
    whole frame is built.  ``out`` may be ``cir.real``: a block's rows are
    transformed before their real parts are overwritten, so the image is a
    float view into the CIR's own buffer and no image-sized array is built.
    A frame of at most CHANNEL_BLOCK symbols is one block.
    """
    cir = np.asarray(cir, dtype=np.complex128)
    if cir.ndim != 2 or cir.shape[1] < 2:
        raise ValueError("need a (range bins x M>=2) CIR matrix")
    n_rows, m = cir.shape
    if out is None:
        out = np.empty((n_rows, m))
    elif out.shape != cir.shape or out.dtype != np.float64:
        raise ValueError(f"out must be a float64 array of shape {cir.shape}")
    step, shift = max(1, CHANNEL_BLOCK * params.N // m), m // 2
    for start in range(0, n_rows, step):
        block = slice(start, start + step)
        spectrum = np.fft.fft(cir[block], axis=1)
        # fftshift: bin j lands in column (j + m // 2) % m.
        np.abs(spectrum[:, : m - shift], out=out[block, shift:])
        np.abs(spectrum[:, m - shift :], out=out[block, :shift])
    return with_axes(out, params)


def with_axes(image: np.ndarray, params: WaveformParams) -> RangeVelocityImage:
    """A (range bins x centered Doppler bins) magnitude image with its physical axes."""
    n_rows, m = image.shape
    rp = compute_radar_params(params)
    range_axis = np.arange(n_rows) * rp.range_resolution_m
    velocity_axis = -(np.arange(m) - m // 2) * rp.velocity_resolution_mps
    return RangeVelocityImage(image, range_axis, velocity_axis)


def compute_radar_params(params: WaveformParams, num_tx: int | None = None) -> RadarParams:
    """Processing gain, resolutions and ambiguity limits of the numerology.

    The CP-limited range applies to the RadCom sector layout (N_CP > 0); the
    MIMO range reduction applies when num_tx is given.
    """
    gp_db = 10.0 * np.log10(params.N * params.M)
    delta_r = C0 / (2.0 * params.B)
    r_max = params.N * C0 / (2.0 * params.B)
    delta_v = params.B * C0 / (2.0 * params.fc * (params.N + params.N_CP) * params.M)
    v_max = params.B * C0 / (4.0 * params.fc * (params.N + params.N_CP))
    r_cp = params.N_CP * C0 / (2.0 * params.B) if params.N_CP > 0 else None
    r_mimo = None
    if num_tx is not None:
        rows = MimoConfig(num_tx).slice_rows(params.N, 0)
        r_mimo = (rows.stop - rows.start) * C0 / (2.0 * params.B)
    return RadarParams(gp_db, delta_r, r_max, delta_v, v_max, r_cp, r_mimo)


def estimate_peak(image: RangeVelocityImage) -> PeakReport:
    """Global magnitude peak in physical units, and its margin over the noise floor.

    Ties resolve to the lowest range, then the lowest absolute velocity, then
    the negative velocity.  The floor is the mean power of every other cell:
    the squared image summed with its first maximum in C order zeroed (sum
    minus peak would cancel to 0 on a noise-free image).  One pass reads the
    image in C order through _RowWindow, a leaf of at most SUM_LEAF cells at a
    time split as numpy splits its pairwise sum, so the floor is ndarray.sum's
    bit for bit and no image-sized array is built.  Each leaf keeps its
    magnitude maximum, power sum and first power maximum; only the leaves
    holding the peak are read again.
    """
    magnitude = image.magnitude
    if magnitude.size == 0:
        raise ValueError("empty image")
    m = magnitude.shape[1]
    rows = _RowWindow(magnitude, SUM_LEAF // m + 2)
    power = np.empty(min(SUM_LEAF, magnitude.size))
    # Per leaf start: (stop, magnitude maximum, offset of the first power maximum, that maximum), and the power sum.
    leaves, sums = {}, {}

    def cells(start: int, stop: int) -> np.ndarray:
        first = start // m
        return rows[first : -(-stop // m)].reshape(-1)[start - first * m : stop - first * m]

    def squares(start: int, stop: int) -> np.ndarray:
        return np.square(cells(start, stop), out=power[: stop - start])

    def leaf_sum(start: int, stop: int) -> float:
        largest, leaf = np.max(cells(start, stop)), squares(start, stop)
        top = int(np.argmax(leaf))
        leaves[start], sums[start] = (stop, largest, top, leaf[top]), np.add.reduce(leaf)
        return sums[start]

    pairwise_sum(leaf_sum, 0, magnitude.size)  # visits every leaf in order
    peak = float(np.max([leaf[1] for leaf in leaves.values()]))
    if not np.isfinite(peak):
        raise ValueError("image magnitudes are not finite")
    if peak == 0.0:
        raise ValueError("all-zero image has no peak")
    hits = [start + np.flatnonzero(cells(start, leaf[0]) == peak) for start, leaf in leaves.items() if leaf[1] == peak]
    ranges, velocities = image.range_axis_m, image.velocity_axis_mps
    r, c = min(
        zip(*np.divmod(np.concatenate(hits), m)),
        key=lambda cell: (ranges[cell[0]], abs(velocities[cell[1]]), velocities[cell[1]]),
    )
    # The first leaf holding the power maximum, as np.argmax finds it, summed again with that cell zeroed.
    peak_start = max(leaves, key=lambda start: leaves[start][3])
    stop, _, top, peak_power = leaves[peak_start]
    zeroed = squares(peak_start, stop)
    zeroed[top] = 0.0
    sums[peak_start] = np.add.reduce(zeroed)
    total = pairwise_sum(lambda start, stop: sums[start], 0, magnitude.size)
    floor = float(total) / (magnitude.size - 1) if magnitude.size > 1 else 0.0
    return PeakReport(
        range_m=float(ranges[r]),
        velocity_mps=float(velocities[c]),
        power_db=float(20.0 * np.log10(peak)),
        noise_margin_db=float(10.0 * np.log10(peak_power / floor)) if floor > 0 else np.inf,
    )


def image_to_csv(image: RangeVelocityImage, prefix) -> list[str]:
    """Write magnitude matrix plus the two axis files; returns written names."""
    prefix = str(prefix)
    names = [f"{prefix}_image.csv", f"{prefix}_range_axis.csv", f"{prefix}_velocity_axis.csv"]
    for name, values in zip(names, (image.magnitude, image.range_axis_m, image.velocity_axis_mps)):
        write_csv(name, values)
    return names


class _RowWindow:
    """A 2-D float table's rows as C-ordered arrays, for reads that mostly move forward.

    A C-contiguous table's rows are views into it.  Any other table (an image
    viewed in a column-major stream buffer) is staged a window of rows at a
    time, at least _WINDOW_VALUES values and ``max_rows`` rows: first copied
    into a column-major buffer, which reads such a table in its memory order,
    then into a C-ordered one.  A read of up to ``max_rows`` rows that leaves
    the window restages it from the read's first row, so no copy of the whole
    table is built.
    """

    def __init__(self, table: np.ndarray, max_rows: int):
        self.table, self.first, self.last = table, 0, 0
        if not table.flags.c_contiguous:
            rows = min(len(table), max(max_rows, _WINDOW_VALUES // table.shape[1]))
            self.staged = np.empty((rows, table.shape[1]), order="F")
            self.rows = np.empty(self.staged.shape)

    def __getitem__(self, rows: slice) -> np.ndarray:
        """Rows ``rows.start`` to ``rows.stop`` (a slice with both set, no step), C-ordered."""
        if self.table.flags.c_contiguous:
            return self.table[rows]
        if rows.start < self.first or rows.stop > self.last:
            self.first, self.last = rows.start, min(rows.start + len(self.rows), len(self.table))
            count = self.last - self.first
            self.staged[:count] = self.table[self.first : self.last]
            self.rows[:count] = self.staged[:count]
        return self.rows[rows.start - self.first : rows.stop - self.first]


# write_csv formats a block of values at a time.  A finite nonzero |x| scales
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


def write_csv(path, array, header: str = "") -> None:
    """Write a table of floats as CSV: '%.12g' values, ',' between them, '\\n' after each row.

    A non-empty header goes first, on a line of its own.  These are the
    bytes numpy's text writer gives for delimiter=",", fmt="%.12g" and
    comments="".  ``array`` is a 1-D (one value per row) or 2-D table, or a
    list of equal-length 1-D columns, joined as np.column_stack would join
    them but one block of rows at a time.
    """
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
