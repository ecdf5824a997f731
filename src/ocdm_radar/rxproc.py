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

write_csv writes every CSV of the package from one float table, as the bytes
numpy's text writer gives for it: '%.12g' text, a block of values at a time.
numpy rounds each value to its 12 significant digits exactly, which fixes the
layout of its text (sign, exponent, digits shown); each layout's texts are
its constant template with the value's digits copied in, written at their
byte offsets.  Python's own '%.12g' formats the few values the arithmetic
cannot round exactly.
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


def receive_frame(stream: np.ndarray, params: WaveformParams) -> np.ndarray:
    """CP removal, column-wise fast Fresnel transform, phase-fold correction, in place.

    With a pilot transmission the corrected output holds the radar CIR
    estimates.  The fold correction is its own inverse, so applying it again
    gives the plain transform.

    Works on blocks of CHANNEL_BLOCK symbols: the DFnT acts column by column,
    so each block is transformed on its own, fold-corrected in place on the
    transform's output and written over those symbols' samples.  The stream
    (a contiguous complex128 array, else ValueError) ends as the Fresnel
    frame, which is returned as ``from_stream(stream, params)``; no second
    frame-sized array is built.
    """
    if not isinstance(stream, np.ndarray) or stream.dtype != np.complex128 or not stream.flags.c_contiguous:
        raise ValueError("the frame is received in place on a contiguous complex128 stream")
    frame = from_stream(stream, params)
    for start in range(0, params.M, CHANNEL_BLOCK):
        block = slice(start, start + CHANNEL_BLOCK)
        frame[:, block] = phase_fold_correct(dfnt_fast(frame[:, block]))
    return frame


def doppler_process(cir: np.ndarray, params: WaveformParams) -> RangeVelocityImage:
    """Row-wise DFT across symbols (no taper), centered, with physical axes, in place.

    The CIR is a complex128 array of any strides (else ValueError), such as a
    slice of rows of the Fresnel frame.  In blocks of rows of about
    CHANNEL_BLOCK * N elements, each block is transformed, then its spectrum's
    magnitudes go straight into their fftshift columns of ``cir.real``.  abs is
    elementwise and fftshift a permutation, so the image is abs(fftshift(fft))
    bit for bit and a float view into the CIR's own buffer; no image-sized or
    whole-frame spectrum array is built.  A frame of at most CHANNEL_BLOCK
    symbols is one block.
    """
    if not isinstance(cir, np.ndarray) or cir.dtype != np.complex128:
        raise ValueError("the image is written in place into a complex128 CIR")
    if cir.ndim != 2 or cir.shape[1] < 2:
        raise ValueError("need a (range bins x M>=2) CIR matrix")
    n_rows, m = cir.shape
    out = cir.real
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
        """Rows ``rows.start`` to ``rows.stop`` (a slice with both set, no step) or the table's end, C-ordered."""
        start, stop = rows.start, min(rows.stop, len(self.table))
        if self.table.flags.c_contiguous:
            return self.table[start:stop]
        if start < self.first or stop > self.last:
            self.first, self.last = start, min(start + len(self.rows), len(self.table))
            count = self.last - self.first
            self.staged[:count] = self.table[self.first : self.last]
            self.rows[:count] = self.staged[:count]
        return self.rows[start - self.first : stop - self.first]


# write_csv formats a block of values at a time.  A finite nonzero |x| scales
# to s = |x| * 10**(11 - e), e = floor(log10|x|) corrected once, with one
# correctly rounded multiply or divide by an exact power of ten (10**22 is the
# largest), so s is within half an ulp of the exact product.  D = rint(s) is
# then the correctly rounded 12-digit significand, and e (e + 1 where D
# carries to 10**12) the exponent X of '%.12g', unless the exact product lies
# that close to a half integer.  Python's own '%.12g' formats those values
# (s within one ulp of a half integer), NaN and +-inf, and |11 - e| > 22.
#
# The text depends only on the value's sign, X and the number of digits D
# keeps after stripping its trailing zeros: its layout.  A layout's text has a
# fixed length and fixed bytes (the sign, the "0.000" of -4 <= X < 0, the
# point, "e+XX", the ','), with D's leading digits at fixed places.  A value's
# text starts at the sum of the lengths before it.  D's 12 ASCII digits form a
# 16-byte row per value (three 4-digit table words side by side), and one
# stable sort groups the block's values, with their digit rows, by layout.
# Each layout present fills one text row per value with its constant template,
# then copies in at most two runs of digits as fixed-width items: those before
# the point and those after it.  One assignment puts the rows at their offsets,
# through a view of the output with an item of the text's length at every
# byte.  A value Python formats has only its terminator there, and its text is
# spliced in.  The ',' of each row's last value becomes its newline.

# Values per block: the block's buffers stay a few MiB.
_CSV_BLOCK = 1 << 15
# Exponents X of the scaled values: e in [-11, 33], plus one on a carry.
_X_MIN, _X_MAX = -11, 34
# Layout 0 is a value Python formats (only its terminator is written), 1 and 2
# are +0 and -0, and the scaled values follow.
_LAYOUT_SCALED = 3
# One ulp of s < 2**40: a fractional part this close to 0.5 goes to Python.
_TIE_ULP = 2.0**-13
# Bytes of a text row: any layout's text fits, and a row is a value's three words |x|, s and offset.
_ROW = 24


def _scaled_text(x: int, digits: int) -> tuple[bytes, int, int, int]:
    """A positive scaled value's text with a zero byte for each digit of D shown.

    Also returns where those digits start, the digit the point precedes (none
    of them when it is ``shown`` or more) and how many are shown.
    """
    if not -4 <= x < 12:  # d.ddde+XX
        head, point, shown, tail = b"", 1, digits, b"e%+03d" % x
    elif x < 0:  # 0.000ddd
        head, point, shown, tail = b"0." + b"0" * (-x - 1), 12, digits, b""
    else:  # ddd.ddd, or ddd with D's own zeros up to the units digit
        head, point, shown, tail = b"", x + 1, max(digits, x + 1), b""
    text = bytearray(head) + bytearray(shown + (shown > point)) + tail
    if shown > point:
        text[len(head) + point] = ord(".")
    return bytes(text), len(head), point, shown


def _csv_tables():
    """Text lengths, templates and digit runs by layout; the digit, trailing-digit and scale tables."""
    texts = [(b",", 0, 0, 0), (b"0,", 0, 0, 0), (b"-0,", 0, 0, 0)]
    for x in range(_X_MIN, _X_MAX + 1):
        for digits in range(1, 13):
            text, head, point, shown = _scaled_text(x, digits)
            texts += [(text + b",", head, point, shown), (b"-" + text + b",", head + 1, point, shown)]
    lengths = np.array([len(text) for text, *_ in texts])
    templates = np.frombuffer(b"".join(text.ljust(_ROW, b"\0") for text, *_ in texts), dtype=f"V{_ROW}")
    # Per layout, (place, first digit, count) of D's digits shown before the point and after it.
    runs = [
        [run for run in ((head, 0, min(point, shown)), (head + point + 1, point, shown - point)) if run[2] > 0]
        for _, head, point, shown in texts
    ]
    numbers = np.arange(10_000)
    # Each 4-digit group's ASCII digits, the first digit in the first byte.
    quads = np.empty((10_000, 4), dtype=np.uint8)
    for j in range(4):
        quads[:, j] = numbers // 10 ** (3 - j) % 10 + ord("0")
    quads = quads.view(np.uint32).ravel()
    # places[i, g]: digits D keeps up to its 4-digit group i when that group is g (0 if g is 0).
    trailing = np.zeros(10_000, dtype=np.intp)
    for p in range(1, 4):
        trailing[numbers % 10**p == 0] = p
    places = np.where(numbers > 0, np.arange(4, 13, 4)[:, None] - trailing, 0).astype(np.uint8)
    # a * 10**k for |k| <= 22 is a * up[k + 22] / down[k + 22]: one factor is 1, the other exact.
    up = np.array([float(10 ** max(k, 0)) for k in range(-22, 23)])
    down = up[::-1].copy()
    for table in (lengths, quads, places, up, down):  # shared by every call
        table.flags.writeable = False
    return lengths, templates, runs, quads, places, up, down


_CSV_TABLES = _csv_tables()


def _texts(buffer: np.ndarray, length: int, count: int, stride: int, offset: int = 0) -> np.ndarray:
    """``count`` items of ``length`` bytes in the contiguous ``buffer`` from byte ``offset``, ``stride`` bytes apart."""
    return np.ndarray((count,), dtype=f"V{length}", buffer=buffer, offset=offset, strides=(stride,))


class _BlockFormatter:
    """The '%.12g' texts of blocks of up to ``span`` values, built in buffers allocated once.

    Every step of a block writes into these buffers; a block allocates only
    its sort order and arrays the size of its layouts and rare cases.  Each
    gather is a take with mode="clip", which fills ``out`` in place where
    "raise" stages a copy (no index is out of range).  A new block-sized
    array per step gets fresh pages whenever the allocator has handed the
    last block's memory back to the system, and faulting them in doubled the
    writer's time per value in a full-scale run.
    """

    def __init__(self, span: int):
        # Buffers are shared by values spent before the next use: the unsorted digit rows take the
        # memory of |x| and s, the sorted ones that of the layouts and the first digit group, and
        # the text rows that of |x|, s and the unsorted offsets.
        self.words = np.empty((3, span))
        self.rows = self.words.reshape(-1).view(f"V{_ROW}")
        self.floats = np.empty((2, span))
        self.ints = np.empty((4, span), dtype=np.intp)
        self.flags = np.empty((4, span), dtype=bool)
        self.digits = np.empty((2, span), dtype=np.uint8)
        self.key = np.empty(span, dtype=np.uint16)
        self.text = np.empty(span * int(_CSV_TABLES[0].max()), dtype=np.uint8)
        # Per text length, the rows' texts and the text-wide items of the output, one at every byte.
        text_lengths = set(_CSV_TABLES[0].tolist())
        self.row_texts = {length: _texts(self.rows, length, span, _ROW) for length in text_lengths}
        self.texts = {length: _texts(self.text, length, self.text.size - length + 1, 1) for length in text_lengths}

    def __call__(self, values: np.ndarray, n_cols: int):
        """The texts of a block of whole rows of ``n_cols`` values, each followed by ',' or a row's newline.

        They are returned in pieces, mostly views of the formatter's buffer,
        valid until its next call.
        """
        lengths, templates, runs, quads, places, up, down = _CSV_TABLES
        n = values.size
        a, s = self.words[:2, :n]
        i1 = self.words[2, :n].view(np.intp)
        f1, f2 = self.floats[:, :n]
        k, g0, g1, g2 = self.ints[:, :n]
        negative, scaled, b1, b2 = self.flags[:, :n]
        d0, d1 = self.digits[:, :n]
        np.abs(values, out=a)
        np.signbit(values, out=negative)
        # Zeros and non-finite values run through the arithmetic unscaled; it is not used for them.
        with np.errstate(divide="ignore", invalid="ignore"):
            np.log10(a, out=f1)
            np.subtract(11.0, np.floor(f1, out=f1), out=f1)  # k: inf at 0, nan at nan and inf
            np.less_equal(np.abs(f1, out=f2), 22, out=scaled)
            np.copyto(f1, 0.0, where=np.logical_not(scaled, out=b1))
            np.copyto(k, f1, casting="unsafe")
            np.add(k, 22, out=i1)
            np.multiply(a, np.take(up, i1, out=f1, mode="clip"), out=s)
            np.divide(s, np.take(down, i1, out=f1, mode="clip"), out=s)
            # Correct e once where log10 rounded across a power of ten.
            np.logical_or(np.less(s, 1e11, out=b1), np.greater_equal(s, 1e12, out=b2), out=b1)
            moved = np.flatnonzero(np.logical_and(b1, scaled, out=b1))
            if moved.size:
                k[moved] += (s[moved] < 1e11).astype(np.intp) - (s[moved] >= 1e12)
                scaled[moved] = np.abs(k[moved]) <= 22
                k[moved] *= scaled[moved]
                s[moved] = a[moved] * up.take(k[moved] + 22) / down.take(k[moved] + 22)
            tie = np.subtract(np.subtract(s, np.floor(s, out=f1), out=f1), 0.5, out=f1)
            scaled &= np.greater(np.abs(tie, out=f1), _TIE_ULP, out=b1)
        d = np.rint(s, out=s)
        carry = np.equal(d, 1e12, out=b2)
        np.copyto(d, 1e11, where=np.logical_or(np.logical_not(scaled, out=b1), carry, out=b1))
        # D's 4-digit groups, and the digits it keeps after stripping its trailing zeros.
        np.copyto(g2, d, casting="unsafe")
        np.floor_divide(g2, 10**8, out=g0)
        g2 -= np.multiply(g0, 10**8, out=i1)
        np.floor_divide(g2, 10**4, out=g1)
        g2 -= np.multiply(g1, 10**4, out=i1)
        np.take(places[0], g0, out=d0, mode="clip")
        np.maximum(d0, np.take(places[1], g1, out=d1, mode="clip"), out=d0)
        np.maximum(d0, np.take(places[2], g2, out=d1, mode="clip"), out=d0)
        # layout = _LAYOUT_SCALED + 2 * (12 * (X - _X_MIN) + digits - 1) + negative, X = 11 - k + carry
        layout = k
        np.subtract(11 - _X_MIN, k, out=layout)
        layout += carry
        layout *= 12
        layout += d0
        layout *= 2
        layout += _LAYOUT_SCALED - 2
        layout += negative
        np.copyto(layout, 0, where=np.logical_not(scaled, out=b1))
        zeros = np.flatnonzero(np.equal(a, 0.0, out=b1))
        layout[zeros] = 1 + negative[zeros]

        # Each text's offset, and D's digit rows: its three 4-digit groups and 4 unused bytes.
        size = np.take(lengths, layout, out=i1, mode="clip")
        ends = np.cumsum(size, out=f1.view(np.intp))
        starts = np.subtract(ends, size, out=i1)
        groups = self.words[:2].reshape(-1).view(np.uint32).reshape(-1, 4)[:n]
        for column, group in zip(groups.T, (g0, g1, g2)):
            np.take(quads, group, out=column, mode="clip")
        # Grouped by layout, each group's texts go out as one row per value.
        counts = np.bincount(layout, minlength=len(lengths))
        present = np.flatnonzero(counts)
        # The sort key is each layout's rank among those present: a byte, so one radix pass, where it fits.
        key = self.key.view(np.uint8)[:n] if len(present) < 256 else self.key[:n]
        ranks = np.cumsum(counts > 0).astype(key.dtype)
        order = np.argsort(np.take(ranks, layout, out=key, mode="clip"), kind="stable")
        starts = np.take(starts, order, out=f2.view(np.intp), mode="clip")
        digits = np.take(groups.view("V16").ravel(), order, out=self.ints[:2].reshape(-1).view("V16")[:n], mode="clip")
        first = 0
        for kind, last in zip(present.tolist(), np.cumsum(counts[present]).tolist()):
            # The layout's template, then its runs of digits copied in.
            self.rows[first:last] = templates[kind]
            for place, digit, count in runs[kind]:
                copy = _texts(digits, count, last - first, 16, 16 * first + digit)
                _texts(self.rows, count, last - first, _ROW, _ROW * first + place)[...] = copy
            length = int(lengths[kind])
            self.texts[length][starts[first:last]] = self.row_texts[length][first:last]
            first = last
        text = self.text[: ends[-1]]
        text[ends[n_cols - 1 :: n_cols] - 1] = ord("\n")

        # The values Python formats are layout 0: the first in the sort, in their block order.
        pieces, done = [], 0
        if counts[0]:
            python = order[: counts[0]]
            for i, start in zip(python.tolist(), (ends[python] - 1).tolist()):
                pieces += [text[done:start], b"%.12g" % values[i]]
                done = start
        pieces.append(text[done:])
        return pieces


def write_csv(path, table, header: str = "") -> None:
    """Write a float table as CSV: '%.12g' values, ',' between them, '\\n' after each row.

    A non-empty header goes first, on a line of its own.  ``table`` is what
    numpy reads as a 1-D (one value per row) or 2-D float array, with any
    strides (a list of 1-D arrays is a table of rows), and the bytes are
    those numpy's text writer gives for it with delimiter=",", fmt="%.12g"
    and comments="".
    """
    table = np.asarray(table, dtype=np.float64)
    if table.ndim not in (1, 2):
        raise ValueError(f"expected a 1-D or 2-D array, got {table.ndim}-D")
    n_rows, n_cols = len(table), table.shape[1] if table.ndim == 2 else 1
    table = table.reshape(n_rows, n_cols)  # a view, whatever the strides
    with open(path, "wb") as fh:
        if header:
            fh.write(header.encode() + b"\n")
        if not n_cols:  # an empty line per row, as numpy writes a zero-column table
            fh.write(b"\n" * n_rows)
            return
        rows_per_block = max(1, min(n_rows, _CSV_BLOCK // n_cols))
        formatter = _BlockFormatter(rows_per_block * n_cols)
        rows = _RowWindow(table, rows_per_block)
        for start in range(0, n_rows, rows_per_block):
            fh.writelines(formatter(rows[start : start + rows_per_block].reshape(-1), n_cols))
