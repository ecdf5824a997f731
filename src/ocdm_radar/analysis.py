"""Radar-quality metrics, Doppler-tolerance sweeps, and PAPR statistics.

Metric definitions (applied identically to every compared waveform so the
relative comparisons stay valid):

* range cut: the image column magnitude at the Doppler bin of the global peak
* mainlobe: peak bin plus/minus MAINLOBE_HALFWIDTH = 1 bins (circular)
* PPLR: peak power over the zero-Doppler reference peak power
* PSLR: strongest sidelobe power over the mainlobe peak power
* ISLR: integrated sidelobe power over integrated mainlobe power

PAPR CCDFs are evaluated on the fixed PAPR_THRESHOLDS_DB grid, 0 to 18 dB in
0.1 dB steps.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .channel import apply_shift_channel
from .comms import ofdm_grid, ofdm_modulate, ofdm_pilot_mask
from .framing import (
    MimoConfig,
    RadComFrameSpec,
    WaveformParams,
    build_mimo_pilot_frame,
    build_pilot_frame,
    build_radcom_frame,
    draw_payload_bits,
    modulate,
    qpsk_map,
)
from .rxproc import RangeVelocityImage, receive_frame, with_axes

__all__ = [
    "RangeCutMetrics",
    "PaprCcdf",
    "SweepResult",
    "received_frame",
    "mimo_leakage_db",
    "doppler_tolerance_sweep",
    "papr_ccdf",
    "pilot_symbol_builder",
    "radcom_symbol_builder",
    "ofdm_symbol_builder",
]

MAINLOBE_HALFWIDTH = 1
PAPR_THRESHOLDS_DB = np.arange(0.0, 18.0 + 1e-9, 0.1)
PAPR_THRESHOLDS_DB.flags.writeable = False  # shared by every caller


@dataclass(frozen=True)
class RangeCutMetrics:
    pplr_db: float
    pslr_db: float
    islr_db: float
    mainlobe_bins: tuple[int, ...]


@dataclass(frozen=True)
class PaprCcdf:
    exceedance: np.ndarray
    papr_samples_db: np.ndarray

    @property
    def mean_papr_db(self) -> float:
        return float(np.mean(self.papr_samples_db))

    def papr_at_probability(self, probability: float) -> float:
        """PAPR level whose exceedance probability equals the given value."""
        return float(np.quantile(self.papr_samples_db, 1.0 - probability))


@dataclass(frozen=True)
class SweepResult:
    n_grid: np.ndarray
    k_grid: np.ndarray
    pplr_db: np.ndarray
    pslr_db: np.ndarray
    islr_db: np.ndarray


def range_cut_metrics(image: RangeVelocityImage, reference_peak_power: float) -> RangeCutMetrics:
    """Mainlobe/sidelobe metrics of the range cut through the global peak."""
    if reference_peak_power <= 0:
        raise ValueError("reference peak power must be positive")
    mag = image.magnitude
    if mag.size == 0:
        raise ValueError("empty image")
    peak_row, peak_col = np.unravel_index(int(np.argmax(mag)), mag.shape)
    cut_power = mag[:, peak_col] ** 2
    n_bins = cut_power.size
    lobe = [(peak_row + d) % n_bins for d in range(-MAINLOBE_HALFWIDTH, MAINLOBE_HALFWIDTH + 1)]
    lobe_set = sorted(set(lobe))
    side_mask = np.ones(n_bins, dtype=bool)
    side_mask[lobe_set] = False
    peak_power = float(cut_power[peak_row])
    side_power = cut_power[side_mask]
    pplr = 10.0 * np.log10(peak_power / reference_peak_power)
    with np.errstate(divide="ignore"):
        pslr = (
            10.0 * np.log10(float(side_power.max()) / peak_power)
            if side_power.size
            else -np.inf
        )
        islr = (
            10.0 * np.log10(float(side_power.sum()) / float(cut_power[lobe_set].sum()))
            if side_power.size
            else -np.inf
        )
    return RangeCutMetrics(float(pplr), float(pslr), float(islr), tuple(lobe_set))


def received_frame(frame: np.ndarray, params: WaveformParams, shifts, snr_db=None, rng_seed: int = 0) -> np.ndarray:
    """The received, fold-corrected Fresnel frame of one Fresnel-domain (N x M) transmit frame, which it consumes.

    modulate, apply_shift_channel with (n_delta, k_delta, amplitude) shifts and
    AWGN at snr_db, then receive_frame.  With a pilot transmission the rows
    are the CIR estimates, and doppler_process images a slice of them: every
    ``MimoConfig.slice_rows`` slice of a superposed MIMO frame,
    ``RadComFrameSpec.radar_rows``, or every row.

    The frame is a builder's, the body of its own (N + N_CP) M complex stream,
    and every stage works in place on that stream: modulate turns the frame
    into the tx stream, the channel overwrites it with the rx stream, and
    receive_frame with the Fresnel frame, returned as the ``from_stream`` view
    of that stream.  doppler_process writes a slice's magnitudes into the real
    parts of the slice's rows, so each image is a float view into the same
    buffer and keeps it alive, and slices imaged one after another must not
    overlap.  The buffer is the only frame-sized array: the chain peaks at
    about (N + N_CP) 16 M bytes, with block temporaries of a few MiB.
    """
    stream = modulate(frame, params)
    apply_shift_channel(stream, params, shifts, snr_db, rng_seed, out=stream)
    return receive_frame(stream, params)


def mimo_leakage_db(params: WaveformParams, mimo: MimoConfig, shifts) -> list[float | None]:
    """Cross-slice leakage of each transmitter's slice, 10 log10(E_other / E_own), in dB.

    On the noise-free symbol 0 of the pilot frames, E_own is the energy of
    transmitter p's echo in its own slice rows and E_other the energy there of
    the other transmitters' echoes, summed as they add in the superposed frame.
    Each echo is one single-symbol received_frame, as in _pilot_imager.  The
    value is None where E_other is nothing at float64 precision (E_own +
    E_other == E_own): integer n_delta and k_delta keep every echo on one row,
    and the other rows hold only the transforms' rounding residue, about 1e-30
    of E_own.  A fractional pair spreads it even where n_delta + k_delta is an
    integer.
    """
    single = replace(params, M=1)
    echoes = [
        received_frame(build_mimo_pilot_frame(single, mimo, p), single, shifts)[:, 0] for p in range(mimo.num_tx)
    ]
    total = np.sum(echoes, axis=0)
    leakage = []
    for p, own in enumerate(echoes):
        rows = mimo.slice_rows(params.N, p)
        e_own = np.sum(np.abs(own[rows]) ** 2)
        e_other = np.sum(np.abs(total[rows] - own[rows]) ** 2)
        leakage.append(None if e_own + e_other == e_own else float(10.0 * np.log10(e_other / e_own)))
    return leakage


def _pilot_imager(params: WaveformParams):
    """The noise-free pilot-frame image of one unit scatterer, as a function of (n_delta, k_delta).

    It equals doppler_process on the received_frame of the pilot frame, with
    M - 1 of its M symbol chains left out: each call receives one pilot
    symbol.  The pilot frame's M columns are equal, and the channel gives
    symbol m the received symbol 0 times the per-symbol factor
    p[m] = e^{2 pi i k_delta m (N + N_CP) / N} of channel._echoes.  The receive
    DFnT and the fold correction act column by column, so the Fresnel frame is
    exactly d p^T, with d the Fresnel column of one symbol (DFnT linearity),
    and its Doppler image is the outer product of |d| and |fftshift(fft(p))|.
    """
    if params.M < 2:
        raise ValueError("need M >= 2 symbols for a Doppler axis")
    single = replace(params, M=1)
    m = np.arange(params.M)

    def image(n_delta: float, k_delta: float) -> RangeVelocityImage:
        d = received_frame(build_pilot_frame(single), single, [(n_delta, k_delta, 1.0)])[:, 0]
        p = np.exp(2j * np.pi * k_delta * m * params.symbol_len / params.N)
        return with_axes(np.outer(np.abs(d), np.abs(np.fft.fftshift(np.fft.fft(p)))), params)

    return image


def doppler_tolerance_sweep(params: WaveformParams, n_grid, k_grid) -> SweepResult:
    """Metric surfaces over the (n_delta, k_delta) grid, noise-free.

    The PPLR reference for each n_delta is that target's own zero-Doppler
    peak power, so the k_delta = 0 column of the PPLR surface is exactly
    0 dB.  Every cell receives one pilot symbol of its own, in the rank-1
    form of _pilot_imager; the k_delta = 0 cells reuse the reference image.
    """
    n_grid = np.asarray(n_grid, dtype=float)
    k_grid = np.asarray(k_grid, dtype=float)
    if np.any((n_grid < 0) | (n_grid >= params.N)):
        raise ValueError("n_delta grid must lie within [0, N)")
    if np.any(np.abs(k_grid) > 0.5 + 1e-12):
        raise ValueError("k_delta grid must lie within [-0.5, 0.5]")

    image = _pilot_imager(params)
    values = np.empty((n_grid.size, k_grid.size, 3))
    for i, n_delta in enumerate(n_grid.tolist()):
        reference = image(n_delta, 0.0)
        power = float(reference.magnitude.max() ** 2)
        for j, k_delta in enumerate(k_grid.tolist()):
            metrics = range_cut_metrics(reference if k_delta == 0 else image(n_delta, k_delta), power)
            values[i, j] = metrics.pplr_db, metrics.pslr_db, metrics.islr_db
    return SweepResult(n_grid, k_grid, values[:, :, 0], values[:, :, 1], values[:, :, 2])


def _papr_meter(n: int, oversample: int):
    """PAPR in dB of n-sample symbols after zero-padded spectral interpolation.

    The spectrum is split at N/2 so both signal halves keep their band
    position, matching a DAC-style reconstruction at oversample x rate.
    The zero-padded spectral interpolation is evaluated in polyphase form:
    sample q * oversample + r of the upsampled symbol is
    ifft_n(X e^{2 pi i s r / (n oversample)})[q], with X the symbol's spectrum
    and s the signed bin index, so oversample n-point inverse transforms
    replace one (n oversample)-point transform.  The twiddle, phase and power
    buffers (40 n oversample bytes) are built once and reused by every call.
    """
    if oversample < 1:
        raise ValueError("oversampling factor must be >= 1")
    if n < 2 or n % 2:
        raise ValueError(f"symbol length must be a positive even number, got {n}")
    signed = np.fft.fftfreq(n, d=1.0 / n)
    twiddle = np.exp(2j * np.pi * np.arange(oversample)[:, None] * signed / (n * oversample))
    spectrum = np.empty(n, dtype=np.complex128)
    phased = np.empty((oversample, n), dtype=np.complex128)
    power = np.empty((oversample, n))

    def meter(time_symbol) -> float:
        np.fft.fft(np.asarray(time_symbol, dtype=np.complex128).ravel(), out=spectrum)
        np.multiply(twiddle, spectrum, out=phased)
        np.fft.ifft(phased, axis=1, out=phased)
        np.abs(phased, out=power)
        np.multiply(power, power, out=power)
        return float(10.0 * np.log10(power.max() / power.mean()))

    return meter


def papr_ccdf(symbol_builder, trials: int, oversample: int = 20, rng_seed: int = 0) -> PaprCcdf:
    """Empirical PAPR CCDF over random payload realizations.

    ``symbol_builder(rng)`` must return one discrete-time symbol (no CP); every
    symbol has the first one's length and goes through one PAPR meter.  A
    symbol equal bit for bit to the trial before's (the fixed pilot) reuses that
    trial's PAPR instead of being metered again.  It is compared, as 64-bit
    words, against a copy of the last metered symbol, so a builder that refills
    one buffer is still metered every trial.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = np.random.default_rng(rng_seed)
    samples = np.empty(trials)
    meter = previous = None
    for t in range(trials):
        symbol = np.asarray(symbol_builder(rng), dtype=np.complex128).ravel()
        if meter is None:
            meter = _papr_meter(symbol.size, oversample)
        if previous is not None and np.array_equal(symbol.view(np.uint64), previous.view(np.uint64)):
            samples[t] = samples[t - 1]
        else:
            samples[t] = meter(symbol)
            previous = symbol.copy()  # the builder may refill one buffer
    exceedance = np.array([(samples > t).mean() for t in PAPR_THRESHOLDS_DB])
    return PaprCcdf(exceedance, samples)


def pilot_symbol_builder(params: WaveformParams):
    """Single active subchirp: a constant-envelope chirp in time."""
    single = replace(params, M=1, N_CP=0)
    symbol = modulate(build_pilot_frame(single), single)

    def build(rng):
        return symbol

    return build


def radcom_symbol_builder(params: WaveformParams, spec: RadComFrameSpec):
    """Sector-modulated symbol with a fresh random QPSK payload per trial."""
    single = replace(params, M=1, N_CP=0)

    def build(rng):
        return modulate(build_radcom_frame(single, spec, draw_payload_bits(rng, single, spec)), single)

    return build


def ofdm_symbol_builder(params: WaveformParams):
    """Comb-pilot OFDM symbol with a fresh random QPSK payload per trial."""
    single = replace(params, M=1, N_CP=0)
    n_data = params.N - int(ofdm_pilot_mask(params.N).sum())

    def build(rng):
        bits = rng.integers(0, 2, size=2 * n_data)
        grid = ofdm_grid(qpsk_map(bits).reshape(n_data, 1), single)
        return ofdm_modulate(grid, single)

    return build
