"""Communication receiver for sector-modulated RadCom and an OFDM baseline.

The RadCom receiver reuses the unmodulated pilot subchirp for channel
estimation: the radar rows of the (uncorrected) receive Fresnel frame hold
the CIR, zero-padding rejects trailing noise, and a length-N DFT gives
the CFR.  Equalization is single-tap zero-forcing on the Fresnel coefficients:
an even-length DFnT is circulant, so it commutes with the channel's per-symbol
circular convolution (the DFnT convolution theorem) and the subchirps see the
same CFR as the time samples; an MMSE variant would slot in at the same place.

The OFDM baseline uses a uniform comb-pilot layout; its spacing of 8 yields
the reference payload data rate for the full-scale numerology.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .framing import CHANNEL_BLOCK, RadComFrameSpec, WaveformParams, from_stream, qpsk_map, to_stream
from .rxproc import RangeVelocityImage, doppler_process

__all__ = [
    "CommReport",
    "estimate_comm_cfr",
    "equalize_and_extract",
    "evm_and_snr",
    "ofdm_grid",
    "ofdm_pilot_mask",
    "ofdm_modulate",
    "ofdm_demodulate",
    "estimate_ofdm_cfr",
    "ofdm_equalize",
    "ofdm_radar_process",
    "data_rate_radcom",
    "data_rate_comb_pilot",
]

EVM_FLOOR_DB = -120.0

DEFAULT_PILOT_SPACING = 8


@dataclass(frozen=True)
class CommReport:
    evm_mean_db: float
    evm_std_db: float
    est_snr_db: float


def estimate_comm_cfr(fresnel_frame: np.ndarray, spec: RadComFrameSpec, avg_symbols: int) -> np.ndarray:
    """CFR estimate from the radar sector of a sector-modulated transmission.

    Takes ``spec.radar_rows`` (the pilot-sector CIR), averages them over the
    first avg_symbols columns, divides out the pilot amplitude
    sqrt(pilot_energy), zero-pads to N and transforms to the frequency
    domain.  Averaging over K symbols cuts the estimation error variance by K
    since the pilot repeats in every symbol.
    """
    frame = np.asarray(fresnel_frame, dtype=np.complex128)
    if not 0 < avg_symbols <= frame.shape[1]:
        raise ValueError(f"avg_symbols={avg_symbols} outside (0, M={frame.shape[1]}]")
    cir = frame[spec.radar_rows, :avg_symbols].mean(axis=1) / np.sqrt(spec.pilot_energy)
    return np.fft.fft(cir, frame.shape[0])


def equalize_and_extract(
    fresnel_frame: np.ndarray, cfr: np.ndarray, spec: RadComFrameSpec
) -> np.ndarray:
    """Zero-forcing equalization, then the data-sector rows of every symbol.

    Per symbol: DFT of the Fresnel coefficients, divide by the CFR, inverse
    DFT, keep ``spec.data_rows``.  By the convolution theorem this equals
    going to time (IDFnT), equalizing there and coming back (DFnT).

    Works on blocks of CHANNEL_BLOCK symbols in one reused F-ordered
    N x CHANNEL_BLOCK buffer; only the data rows of each block go into the
    returned (n_data, M) array, so no frame-sized temporary is built.  That
    array takes the frame's memory order, as the whole-frame quotient did (a
    receive frame's columns are contiguous), so reductions over it sum in the
    same order.
    """
    frame = np.asarray(fresnel_frame, dtype=np.complex128)
    cfr = np.asarray(cfr, dtype=np.complex128)
    n, m = frame.shape
    if cfr.shape != (n,):
        raise ValueError(f"CFR must have {n} bins, got {cfr.shape}")
    if np.any(cfr == 0):
        raise ValueError("zero CFR bin: zero-forcing equalizer is singular")
    rows = spec.data_rows(n)
    out = np.empty_like(frame, shape=(rows.stop - rows.start, m))
    spectrum_buffer = np.empty((n, min(CHANNEL_BLOCK, m)), dtype=np.complex128, order="F")
    for start in range(0, m, CHANNEL_BLOCK):
        stop = min(start + CHANNEL_BLOCK, m)
        spectrum = spectrum_buffer[:, : stop - start]
        np.fft.fft(frame[:, start:stop], axis=0, out=spectrum)
        spectrum /= cfr[:, None]
        np.fft.ifft(spectrum, axis=0, out=spectrum)
        out[:, start:stop] = spectrum[rows]
    return out


def evm_and_snr(rx_symbols: np.ndarray, ref_symbols: np.ndarray) -> CommReport:
    """Error-vector statistics per subchirp row, aggregated over the frame.

    EVM per row is the error RMS over that row's symbols relative to the
    overall reference RMS; the report carries the mean and standard deviation
    across rows plus the error-power-based SNR estimate.
    """
    rx = np.atleast_2d(np.asarray(rx_symbols, dtype=np.complex128))
    ref = np.atleast_2d(np.asarray(ref_symbols, dtype=np.complex128))
    if rx.shape != ref.shape or rx.size == 0:
        raise ValueError("rx/ref symbol matrices must match and be non-empty")
    ref_power = float(np.mean(np.abs(ref) ** 2))
    if ref_power == 0:
        raise ValueError("reference symbols have zero power")
    err_power_rows = np.mean(np.abs(rx - ref) ** 2, axis=1)
    with np.errstate(divide="ignore"):
        evm_rows = 10.0 * np.log10(err_power_rows / ref_power)
    evm_rows = np.maximum(evm_rows, EVM_FLOOR_DB)
    total_err = float(np.mean(err_power_rows))
    est_snr = (
        10.0 * np.log10(ref_power / total_err) if total_err > 0 else -EVM_FLOOR_DB
    )
    return CommReport(
        evm_mean_db=float(np.mean(evm_rows)),
        evm_std_db=float(np.std(evm_rows)),
        est_snr_db=float(est_snr),
    )


def ofdm_pilot_mask(n: int) -> np.ndarray:
    """True at comb-pilot subcarriers (every DEFAULT_PILOT_SPACING-th bin)."""
    if n < DEFAULT_PILOT_SPACING:
        raise ValueError(f"comb-pilot layout needs N >= {DEFAULT_PILOT_SPACING}, got N={n}")
    mask = np.zeros(n, dtype=bool)
    mask[::DEFAULT_PILOT_SPACING] = True
    return mask


@lru_cache(maxsize=8)
def _ofdm_pilot_values(n: int) -> np.ndarray:
    """Deterministic pseudo-random QPSK comb values known to both link ends.

    A constant-valued comb would collapse to a periodic impulse train in time
    and wreck the PAPR statistics, so the comb carries scrambled phases.  The
    values are built once per N and are read-only, shared by every caller.
    """
    count = int(ofdm_pilot_mask(n).sum())
    rng = np.random.default_rng(0x0FD)
    values = qpsk_map(rng.integers(0, 2, size=2 * count))
    values.flags.writeable = False
    return values


def ofdm_grid(data_symbols: np.ndarray, params: WaveformParams) -> np.ndarray:
    """Subcarrier matrix with a uniform pilot comb and data on the rest."""
    mask = ofdm_pilot_mask(params.N)
    n_data = params.N - int(mask.sum())
    data_symbols = np.asarray(data_symbols, dtype=np.complex128)
    if data_symbols.shape != (n_data, params.M):
        raise ValueError(
            f"data symbol matrix must be {(n_data, params.M)}, got {data_symbols.shape}"
        )
    grid = np.empty((params.N, params.M), dtype=np.complex128)
    grid[mask, :] = _ofdm_pilot_values(params.N)[:, None]
    grid[~mask, :] = data_symbols
    return grid


def ofdm_modulate(grid: np.ndarray, params: WaveformParams) -> np.ndarray:
    """Column-wise IDFT to the sample stream; rejects a grid that is not (N x M)."""
    return to_stream(np.fft.ifft(np.asarray(grid, dtype=np.complex128), axis=0), params)


def ofdm_demodulate(stream: np.ndarray, params: WaveformParams) -> np.ndarray:
    """CP removal and column-wise DFT back to the subcarrier matrix."""
    return np.fft.fft(from_stream(stream, params), axis=0)


def estimate_ofdm_cfr(rx_grid: np.ndarray, params: WaveformParams) -> np.ndarray:
    """LS estimate at the pilot comb, averaged over all symbols, linearly interpolated to all bins."""
    rx = np.asarray(rx_grid, dtype=np.complex128)
    mask = ofdm_pilot_mask(params.N)
    pilot_bins = np.nonzero(mask)[0]
    ls = rx[mask].mean(axis=1) / _ofdm_pilot_values(params.N)
    # Periodic extension keeps interpolation valid past the last pilot.
    bins_ext = np.concatenate([pilot_bins, [pilot_bins[0] + params.N]])
    ls_ext = np.concatenate([ls, [ls[0]]])
    k = np.arange(params.N)
    return np.interp(k, bins_ext, ls_ext.real) + 1j * np.interp(k, bins_ext, ls_ext.imag)


def ofdm_equalize(rx_grid: np.ndarray, cfr: np.ndarray, params: WaveformParams) -> np.ndarray:
    """Zero-forcing per subcarrier; returns the data-bin rows only."""
    cfr = np.asarray(cfr, dtype=np.complex128)
    if np.any(cfr == 0):
        raise ValueError("zero CFR bin: zero-forcing equalizer is singular")
    mask = ofdm_pilot_mask(params.N)
    eq = np.asarray(rx_grid, dtype=np.complex128) / cfr[:, None]
    return eq[~mask]


def ofdm_radar_process(tx_grid: np.ndarray, rx_grid: np.ndarray, params: WaveformParams) -> RangeVelocityImage:
    """Spectral-division OFDM radar: divide, IDFT over bins, DFT over symbols."""
    tx = np.asarray(tx_grid, dtype=np.complex128)
    rx = np.asarray(rx_grid, dtype=np.complex128)
    if tx.shape != rx.shape:
        raise ValueError("tx/rx grids must have identical shape")
    if np.any(tx == 0):
        raise ValueError("zero transmit symbol: spectral division is singular")
    profiles = np.fft.ifft(rx / tx, axis=0)
    return doppler_process(profiles, params)


def data_rate_radcom(params: WaveformParams) -> float:
    """Payload bit rate of the sector-modulated frame with QPSK data; the sector is N_CP wide."""
    n_data = RadComFrameSpec(params.N_CP).num_data_subchirps(params.N)
    return 2.0 * n_data * params.B / params.symbol_len


def data_rate_comb_pilot(params: WaveformParams) -> float:
    """Payload bit rate of the comb-pilot OFDM (or conventional OCDM) frame."""
    n_data = params.N - int(ofdm_pilot_mask(params.N).sum())
    return 2.0 * n_data * params.B / params.symbol_len
