"""Point-target radar channel and frequency-selective comm channel.

Both channels are sums of paths acting per OCDM symbol.  By the DFnT
convolution theorem a path is a response over the N DFT bins of the useful
part (CP rebuilt afterwards), then a Doppler ramp and a complex gain: target
(n_delta, k_delta, A) is the path (delay phase, k_delta, A) and the comm
channel the one path (CFR, 0, 1).  One block pass, _echoes, runs both.

Conventions
-----------
Delay is applied at complex baseband as a linear phase over discrete-frequency
bins ordered [-B/2, B/2).  In the time domain this equals circular convolution
with the kernel

    g_nu = (1/N) e^{-i pi (nu - n_delta)} D(nu - n_delta),

where D is the length-N Dirichlet kernel.  For integer n_delta the kernel is a
plain circular shift; for fractional n_delta it carries the alternating-sign
fold that the receiver's phase-fold correction removes.  Doppler is a
per-sample phase ramp over the serialized stream, so symbol m accumulates
phi_m = 2 pi k_delta [m (N + N_CP) + N_CP] / N relative to the symbol start.
The ramp e^{2 pi i k_delta [m (N + N_CP) + r] / N} is applied as an in-symbol
factor over the rows r in [0, N + N_CP), CP rows included, times a per-symbol
factor, a block of symbols at a time; no stream-length ramp is built.

Velocity maps to the normalized Doppler shift with the fixed sign
DOPPLER_SIGN = -1, which pairs positive radial velocity with negative k_delta,
matching the reference range-velocity maps.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .framing import C0, CHANNEL_BLOCK, WaveformParams, from_stream

__all__ = [
    "Target",
    "CommChannelConfig",
    "normalize_target",
    "apply_shift_channel",
    "apply_comm_channel",
    "two_tap_tilt_cir",
    "load_cfr_csv",
]

DOPPLER_SIGN = -1.0

# Samples per noise draw in _add_awgn: a 512 KiB float buffer.
_NOISE_CHUNK = 1 << 16
# Values per np.add.reduce call of pairwise_sum: a 512 KiB float buffer.
SUM_LEAF = 1 << 16


@dataclass(frozen=True)
class Target:
    """Point target: range (m), relative radial velocity (m/s), complex gain."""

    range_m: float
    velocity_mps: float = 0.0
    amplitude: complex = 1.0 + 0.0j

    def __post_init__(self):
        if self.range_m < 0:
            raise ValueError(f"target range must be >= 0, got {self.range_m}")


@dataclass(frozen=True)
class CommChannelConfig:
    """Static frequency-selective channel given by its CIR taps (length <= N_CP + 1)."""

    cir: np.ndarray
    snr_db: float | None = None
    rng_seed: int = 0

    def __post_init__(self):
        cir = np.asarray(self.cir, dtype=np.complex128)
        if not np.isfinite(cir).all():
            raise ValueError("CIR taps are not finite")
        if not cir.any():
            raise ValueError("CIR is all zero")

    @property
    def delay_spread(self) -> int:
        """Delay of the last tap above 1e-12 of the strongest one (what counts as a tap)."""
        mag = np.abs(np.asarray(self.cir, dtype=np.complex128))
        return int(np.max(np.nonzero(mag > 1e-12 * np.max(mag))[0]))


def normalize_target(target: Target, params: WaveformParams):
    """Map (range, velocity) to the normalized shift pair (n_delta, k_delta).

    n_delta = 2 R B / c0 range bins; k_delta = DOPPLER_SIGN * (2 v fc / c0) /
    (B / N) Doppler bins, so positive velocities produce negative k_delta.
    """
    n_delta = 2.0 * target.range_m * params.B / C0
    f_doppler = 2.0 * target.velocity_mps * params.fc / C0
    k_delta = DOPPLER_SIGN * f_doppler / params.delta_f
    return n_delta, k_delta


def _delay_phase(n: int, n_delta: float) -> np.ndarray:
    # Signed bin frequencies [0 .. N/2-1, -N/2 .. -1].
    k_signed = np.fft.fftfreq(n, d=1.0 / n)
    return np.exp(-2j * np.pi * k_signed * n_delta / n)


def pairwise_sum(leaf_sum, start: int, n: int) -> float:
    """The np.add.reduce sum of n float64 values from index ``start``, without holding them all.

    numpy sums a contiguous run pairwise: a run of more than 128 values splits
    at half its length, rounded down to a multiple of 8, and the two halves'
    sums add.  Split the same way down to runs of at most SUM_LEAF values,
    each summed by ``leaf_sum(start, stop)`` with np.add.reduce, the sum is
    numpy's bit for bit.  A module-level function, so the recursion holds no
    closure cycle that would keep leaf_sum's arrays alive past the call.
    """
    if n <= SUM_LEAF:
        return leaf_sum(start, start + n)
    half = n // 2 - n // 2 % 8
    return pairwise_sum(leaf_sum, start, half) + pairwise_sum(leaf_sum, start + half, n - half)


def _mean_power(x: np.ndarray) -> float:
    """np.mean(np.abs(x) ** 2) bit for bit, a leaf of at most SUM_LEAF values at a time."""
    power = np.empty(min(SUM_LEAF, x.size))

    def leaf_sum(start: int, stop: int) -> float:
        leaf = np.abs(x[start:stop], out=power[: stop - start])
        leaf *= leaf
        return np.add.reduce(leaf)

    return float(pairwise_sum(leaf_sum, 0, x.size) / x.size)


def _add_awgn(signal: np.ndarray, snr_db: float, rng_seed: int, tx_power: float | None) -> None:
    """Add complex AWGN at snr_db below the signal's mean power, in place.

    A zero signal (a zero-target scene) is referenced to tx_power, the mean
    power of the transmit stream, so a pure-noise stream is still produced;
    with tx_power None it is rejected.

    One generator draws every real part, then every imaginary part, in
    _NOISE_CHUNK pieces; each piece is scaled by sqrt(sigma2 / 2) and added
    straight into the signal.  That is the draw order and the arithmetic of
    signal + sqrt(sigma2 / 2) * (re + 1j*im) with whole-stream re and im, so
    the noisy signal is equal to it, without a stream-sized noise array.  The
    signal's mean power is np.mean's, summed a leaf at a time by _mean_power,
    so no stream-length power array is built either: beside the signal the
    noise takes two 512 KiB float buffers, one after the other.
    """
    power = _mean_power(signal) or tx_power
    if power is None:
        raise ValueError("the echo is silent, and no transmit power was measured to reference its noise to")
    try:
        sigma2 = power * 10.0 ** (-snr_db / 10.0)
    except OverflowError:
        raise ValueError(f"snr_db={snr_db} puts the noise power out of float range") from None
    scale = np.sqrt(sigma2 / 2.0)
    rng = np.random.default_rng(rng_seed)
    draws = np.empty(min(_NOISE_CHUNK, signal.size))
    for part in (signal.real, signal.imag):
        for start in range(0, part.size, _NOISE_CHUNK):
            chunk = draws[: min(_NOISE_CHUNK, part.size - start)]
            rng.standard_normal(out=chunk)
            chunk *= scale
            part[start : start + chunk.size] += chunk


def apply_shift_channel(
    stream: np.ndarray,
    params: WaveformParams,
    shifts: list[tuple[float, float, complex]],
    snr_db: float | None = None,
    rng_seed: int = 0,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Channel in normalized coordinates: list of (n_delta, k_delta, amplitude).

    Per scatterer: per-symbol circular fractional delay of the useful part
    (CP rebuilt afterwards), then the per-sample Doppler phase ramp over the
    serialized stream, then the complex gain.  Scatterer contributions add;
    AWGN at snr_db relative to the noise-free received power comes last.

    Works on blocks of CHANNEL_BLOCK symbols in (N + N_CP, width) form: the
    Doppler ramp is the in-symbol factor e^{2 pi i k_delta r / N} over every row
    r, CP rows included (so each keeps its phase e^{-2 pi i k_delta} relative to
    its tail), times the per-symbol factor A e^{2 pi i k_delta m (N + N_CP) / N}.

    The received stream is written into ``out`` (a complex128 array of the
    stream's length) when given, else into a new array, and returned.  ``out``
    may be ``stream`` itself: a block's symbols are read before they are
    overwritten, so the result is the same bit for bit.

    The transmit power is the noise reference of a silent echo only.  It is
    measured, before the first write, where the shifts can silence the echo
    (see _can_be_silent); a noisy echo silenced otherwise (a zero stream,
    amplitudes that underflow) raises ValueError.
    """
    stream = np.asarray(stream, dtype=np.complex128)
    for n_delta, _, _ in shifts:
        if not 0 <= n_delta < params.N:
            raise ValueError(
                f"n_delta={n_delta} violates the unambiguous range [0, N={params.N})"
            )
    tx_power = _mean_power(stream) if snr_db is not None and _can_be_silent(shifts) else None
    paths = [(_delay_phase(params.N, n_delta), k_delta, amplitude) for n_delta, k_delta, amplitude in shifts]
    return _multipath(stream, params, paths, snr_db, rng_seed, tx_power, out)


def _multipath(stream, params: WaveformParams, paths, snr_db, rng_seed, tx_power, out) -> np.ndarray:
    """The echoes of ``paths`` into ``out`` (a new stream when None), then AWGN at snr_db
    with ``tx_power`` as a silent echo's reference, measured before ``out`` is written."""
    frame = from_stream(stream, params)
    if out is None:
        out = np.empty(params.stream_len, dtype=np.complex128)
    elif out.shape != (params.stream_len,) or out.dtype != np.complex128 or not out.flags.c_contiguous:
        raise ValueError(f"out must be a contiguous complex128 array of shape {(params.stream_len,)}")
    _echoes(frame, params, paths, out.reshape((params.symbol_len, params.M), order="F"))
    if snr_db is not None:
        _add_awgn(out, snr_db, rng_seed, tx_power)
    return out


def _can_be_silent(shifts) -> bool:
    """Whether the shifts alone can give a zero echo: no nonzero amplitude, or two
    at one (n_delta, k_delta), whose echoes differ only by the amplitude and can cancel."""
    live = [(n_delta, k_delta) for n_delta, k_delta, amplitude in shifts if amplitude != 0]
    return not live or len(set(live)) < len(live)


def _echoes(frame: np.ndarray, params: WaveformParams, paths, received: np.ndarray) -> None:
    """The noise-free received symbols of ``paths`` into ``received``, (N + N_CP, M), a block at a time.

    A path is (response, k_delta, amplitude): each symbol's spectrum times the
    response over the N DFT bins, back to time with its CP rows, then the
    Doppler ramp of k_delta and the gain, as apply_shift_channel describes.
    Each block's spectrum is taken before the block's columns of ``received``
    are written, so ``frame`` may be a view into the same buffer.  Per path,
    the symbols go into one F-ordered (N + N_CP) x CHANNEL_BLOCK echo buffer:
    the response multiply and the IDFT in place in its last N rows, the CP
    rows copied from its tail, then the in-symbol and per-symbol factors over
    every row, and the add onto the block.  The spectrum and echo block
    buffers are built once per call and are gone before the noise is added.
    """
    n, n_cp, rows = params.N, params.N_CP, params.symbol_len
    r, m = np.arange(rows), np.arange(params.M)
    factors = [
        (response[:, None], np.exp(2j * np.pi * k_delta * r / n)[:, None],
         complex(amplitude) * np.exp(2j * np.pi * k_delta * m * rows / n))
        for response, k_delta, amplitude in paths
    ]
    spectrum_buffer = np.empty((n, min(CHANNEL_BLOCK, params.M)), dtype=np.complex128, order="F")
    echo_buffer = np.empty((rows, spectrum_buffer.shape[1]), dtype=np.complex128, order="F")

    for start in range(0, params.M, CHANNEL_BLOCK):
        stop = min(start + CHANNEL_BLOCK, params.M)
        width = stop - start
        spectrum, echo = spectrum_buffer[:, :width], echo_buffer[:, :width]
        body = echo[n_cp:]
        np.fft.fft(frame[:, start:stop], axis=0, out=spectrum)
        block = received[:, start:stop]
        block.fill(0.0)  # the echoes add onto zeros, as into a fresh np.zeros buffer
        for response, in_symbol, per_symbol in factors:
            np.multiply(spectrum, response, out=body)
            np.fft.ifft(body, axis=0, out=body)
            echo[:n_cp] = echo[n:]
            echo *= in_symbol
            echo *= per_symbol[start:stop]
            block += echo


def two_tap_tilt_cir(tilt_db: float) -> np.ndarray:
    """Two-tap CIR whose CFR magnitude spans tilt_db from best to worst bin."""
    try:
        ratio = 10.0 ** (tilt_db / 20.0)
    except OverflowError:
        raise ValueError(f"tilt_db={tilt_db} overflows the tap ratio 10**(tilt_db/20)") from None
    a = (ratio - 1.0) / (ratio + 1.0)
    return np.array([1.0, a], dtype=np.complex128)


def cfr_from_cir(cir: np.ndarray, n: int) -> np.ndarray:
    cir = np.asarray(cir, dtype=np.complex128)
    if cir.size > n:
        raise ValueError(f"CIR length {cir.size} exceeds N={n}")
    return np.fft.fft(cir, n)


def load_cfr_csv(path, n: int) -> np.ndarray:
    """Read a CFR from CSV rows (bin index, Re, Im); each of the N bins exactly once.

    Rejects a file without rows, non-finite values, non-integer or repeated
    bin indices and an all-zero response.
    """
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")  # rejected below
        raw = np.loadtxt(path, delimiter=",", ndmin=2)
    if raw.size == 0:
        raise ValueError("CFR CSV holds no rows")
    if raw.shape[1] != 3:
        raise ValueError("CFR CSV must have columns (bin, Re, Im)")
    if not np.isfinite(raw).all():
        raise ValueError("CFR CSV holds a non-finite value")
    bins = raw[:, 0]
    for idx in bins:
        if idx != int(idx):
            raise ValueError(f"CFR bin index {idx} is not an integer")
        if not 0 <= idx < n:
            raise ValueError(f"CFR bin index {int(idx)} outside [0, {n})")
    bins = bins.astype(int)
    counts = np.bincount(bins, minlength=n)
    if counts.max() > 1:
        raise ValueError(f"CFR bin index {int(np.argmax(counts))} is listed twice")
    if counts.min() == 0:
        raise ValueError("CFR CSV does not cover all N bins")
    cfr = np.zeros(n, dtype=np.complex128)
    cfr[bins] = raw[:, 1] + 1j * raw[:, 2]
    if not cfr.any():
        raise ValueError("CFR is all zero")
    return cfr


def apply_comm_channel(
    stream: np.ndarray, cfg: CommChannelConfig, params: WaveformParams, out: np.ndarray | None = None
) -> np.ndarray:
    """Per-symbol circular convolution with the configured CIR, plus AWGN.

    A valid channel model only while the delay spread fits the CP; the caller
    checks that rule (radcom requires CommChannelConfig.delay_spread < N_CP).

    The channel is the one path (CFR, 0.0, 1.0) through the shift channel's
    block pass, so ``out`` takes the same arrays as in apply_shift_channel and
    may be ``stream`` itself.

    A silent echo has its noise referenced to the transmit power.  Where the
    CFR has a zero bin that power is measured before the first write; where
    it has none, only a zero stream, of power 0.0, gives a silent echo.
    """
    stream = np.asarray(stream, dtype=np.complex128)
    cfr = cfr_from_cir(cfg.cir, params.N)
    tx_power = _mean_power(stream) if cfg.snr_db is not None and not cfr.all() else 0.0
    return _multipath(stream, params, [(cfr, 0.0, 1.0)], cfg.snr_db, cfg.rng_seed, tx_power, out)
