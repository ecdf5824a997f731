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
    RadComFrameSpec,
    WaveformParams,
    build_pilot_frame,
    build_radcom_frame,
    modulate,
    qpsk_map,
)
from .fresnel import idfnt_fast
from .rxproc import RangeVelocityImage, doppler_process, receive_frame

__all__ = [
    "RangeCutMetrics",
    "PaprCcdf",
    "SweepResult",
    "range_cut_metrics",
    "radar_image",
    "single_point_image",
    "doppler_tolerance_sweep",
    "oversampled_papr_db",
    "papr_ccdf",
    "pilot_symbol_builder",
    "radcom_symbol_builder",
    "ofdm_symbol_builder",
]

MAINLOBE_HALFWIDTH = 1
PAPR_THRESHOLDS_DB = np.arange(0.0, 18.0 + 1e-9, 0.1)
PAPR_THRESHOLDS_DB.flags.writeable = False  # shared by every PaprCcdf


@dataclass(frozen=True)
class RangeCutMetrics:
    pplr_db: float
    pslr_db: float
    islr_db: float
    mainlobe_bins: tuple[int, ...]


@dataclass(frozen=True)
class PaprCcdf:
    thresholds_db: np.ndarray
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


def radar_image(
    stream: np.ndarray, params: WaveformParams, shifts, snr_db=None, rng_seed: int = 0, extract=None
) -> RangeVelocityImage:
    """The radar chain after the transmitter, on one (reusable) transmit stream.

    apply_shift_channel with (n_delta, k_delta, amplitude) shifts and AWGN at
    snr_db, receive_frame, ``extract`` when given (a mimo_demux or
    radcom_extract_cir partial keeping the rows to image), doppler_process.
    """
    fresnel = receive_frame(apply_shift_channel(stream, params, shifts, snr_db, rng_seed), params)
    return doppler_process(fresnel if extract is None else extract(fresnel), params)


def single_point_image(params: WaveformParams, n_delta: float, k_delta: float) -> RangeVelocityImage:
    """Noise-free single-scatterer pilot-frame pipeline run."""
    return radar_image(modulate(build_pilot_frame(params), params), params, [(n_delta, k_delta, 1.0)])


def doppler_tolerance_sweep(params: WaveformParams, n_grid, k_grid) -> SweepResult:
    """Metric surfaces over the (n_delta, k_delta) grid, noise-free.

    The PPLR reference for each n_delta is that target's own zero-Doppler
    peak power, so the k_delta = 0 column of the PPLR surface is exactly
    0 dB.  Every cell runs radar_image on one pilot stream built per call;
    the k_delta = 0 cells reuse the reference image.
    """
    n_grid = np.asarray(n_grid, dtype=float)
    k_grid = np.asarray(k_grid, dtype=float)
    if np.any((n_grid < 0) | (n_grid >= params.N)):
        raise ValueError("n_delta grid must lie within [0, N)")
    if np.any(np.abs(k_grid) > 0.5 + 1e-12):
        raise ValueError("k_delta grid must lie within [-0.5, 0.5]")

    stream = modulate(build_pilot_frame(params), params)
    values = np.empty((n_grid.size, k_grid.size, 3))
    for i, n_delta in enumerate(n_grid.tolist()):
        reference = radar_image(stream, params, [(n_delta, 0.0, 1.0)])
        power = float(reference.magnitude.max() ** 2)
        for j, k_delta in enumerate(k_grid.tolist()):
            metrics = range_cut_metrics(
                reference if k_delta == 0 else radar_image(stream, params, [(n_delta, k_delta, 1.0)]),
                power,
            )
            values[i, j] = metrics.pplr_db, metrics.pslr_db, metrics.islr_db
        del reference  # so that at most one reference image is alive at a time
    return SweepResult(n_grid, k_grid, values[:, :, 0], values[:, :, 1], values[:, :, 2])


def oversampled_papr_db(time_symbol: np.ndarray, oversample: int = 20) -> float:
    """PAPR of one symbol after zero-padded spectral interpolation.

    The spectrum is split at N/2 so both signal halves keep their band
    position, matching a DAC-style reconstruction at oversample x rate.
    """
    x = np.asarray(time_symbol, dtype=np.complex128).ravel()
    n = x.size
    if oversample < 1:
        raise ValueError("oversampling factor must be >= 1")
    spectrum = np.fft.fft(x)
    padded = np.zeros(n * oversample, dtype=np.complex128)
    padded[: n // 2] = spectrum[: n // 2]
    padded[n * oversample - n // 2 :] = spectrum[n // 2 :]
    upsampled = np.fft.ifft(padded) * oversample
    power = np.abs(upsampled) ** 2
    return float(10.0 * np.log10(power.max() / power.mean()))


def papr_ccdf(symbol_builder, trials: int, oversample: int = 20, rng_seed: int = 0) -> PaprCcdf:
    """Empirical PAPR CCDF over random payload realizations.

    ``symbol_builder(rng)`` must return one discrete-time symbol (no CP).
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = np.random.default_rng(rng_seed)
    samples = np.array(
        [oversampled_papr_db(symbol_builder(rng), oversample) for _ in range(trials)]
    )
    exceedance = np.array([(samples > t).mean() for t in PAPR_THRESHOLDS_DB])
    return PaprCcdf(PAPR_THRESHOLDS_DB, exceedance, samples)


def pilot_symbol_builder(params: WaveformParams):
    """Single active subchirp: a constant-envelope chirp in time."""
    symbol = idfnt_fast(build_pilot_frame(replace(params, M=1)))[:, 0]

    def build(rng):
        return symbol

    return build


def radcom_symbol_builder(params: WaveformParams, spec: RadComFrameSpec):
    """Sector-modulated symbol with a fresh random QPSK payload per trial."""
    single = replace(params, M=1)
    n_data = spec.num_data_subchirps(params.N)
    scale = np.sqrt(spec.symbol_energy)

    def build(rng):
        bits = rng.integers(0, 2, size=2 * n_data)
        symbols = (scale * qpsk_map(bits)).reshape(n_data, 1)
        return idfnt_fast(build_radcom_frame(single, spec, symbols))[:, 0]

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
