"""Communication receiver for sector-modulated RadCom and an OFDM baseline.

The RadCom receiver reuses the unmodulated pilot subchirp for channel
estimation: the first N_CP rows of the (uncorrected) receive Fresnel frame
hold the CIR, zero-padding rejects trailing noise, and a length-N DFT gives
the CFR.  Equalization is single-tap zero-forcing in the discrete-frequency
domain; an MMSE variant would slot in at the same place.

The OFDM baseline uses a uniform comb-pilot layout; its default spacing of 8
yields the reference payload data rate for the full-scale numerology.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fresnel import dfnt_fast, idfnt_fast
from .framing import (
    RadComFrameSpec,
    WaveformParams,
    add_cp,
    deserialize,
    qpsk_map,
    remove_cp,
    serialize,
)
from .rxproc import RangeVelocityImage, doppler_process

__all__ = [
    "CommReport",
    "estimate_comm_cfr",
    "equalize_and_extract",
    "evm_and_snr",
    "ofdm_grid",
    "ofdm_pilot_mask",
    "ofdm_pilot_values",
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
    bit_errors: int = 0
    data_rate_bps: float = 0.0


def estimate_comm_cfr(
    fresnel_frame: np.ndarray,
    n_cp: int,
    avg_symbols: int,
    pilot_amplitude: float = 1.0,
) -> np.ndarray:
    """CFR estimate from the radar sector of a sector-modulated transmission.

    Takes rows 0..N_CP-1 (the pilot-sector CIR), averages them over the first
    avg_symbols columns, zero-pads to N and transforms to the frequency
    domain.  Averaging over K symbols cuts the estimation error variance by K
    since the pilot repeats in every symbol.
    """
    frame = np.asarray(fresnel_frame, dtype=np.complex128)
    n = frame.shape[0]
    if not 0 < n_cp <= n:
        raise ValueError(f"N_CP={n_cp} outside (0, {n}]")
    if not 0 < avg_symbols <= frame.shape[1]:
        raise ValueError(f"avg_symbols={avg_symbols} outside (0, M={frame.shape[1]}]")
    cir = frame[:n_cp, :avg_symbols].mean(axis=1) / pilot_amplitude
    return np.fft.fft(cir, n)


def equalize_and_extract(
    fresnel_frame: np.ndarray, cfr: np.ndarray, spec: RadComFrameSpec
) -> np.ndarray:
    """Zero-forcing equalization, then the data-sector rows of every symbol.

    Per symbol: inverse Fresnel transform to time, DFT, divide by the CFR,
    inverse DFT, forward Fresnel transform, slice rows N_CP..N-N_CP.
    """
    frame = np.asarray(fresnel_frame, dtype=np.complex128)
    cfr = np.asarray(cfr, dtype=np.complex128)
    n = frame.shape[0]
    if cfr.shape != (n,):
        raise ValueError(f"CFR must have {n} bins, got {cfr.shape}")
    if np.any(cfr == 0):
        raise ValueError("zero CFR bin: zero-forcing equalizer is singular")
    time = idfnt_fast(frame)
    spectrum = np.fft.fft(time, axis=0) / cfr[:, None]
    equalized = dfnt_fast(np.fft.ifft(spectrum, axis=0))
    return equalized[spec.N_CP : n - spec.N_CP + 1]


def evm_and_snr(
    rx_symbols: np.ndarray,
    ref_symbols: np.ndarray,
    bit_errors: int = 0,
    data_rate_bps: float = 0.0,
) -> CommReport:
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
        bit_errors=int(bit_errors),
        data_rate_bps=float(data_rate_bps),
    )


def ofdm_pilot_mask(n: int, pilot_spacing: int = DEFAULT_PILOT_SPACING) -> np.ndarray:
    """True at comb-pilot subcarriers (every pilot_spacing-th bin)."""
    if not 1 < pilot_spacing <= n:
        raise ValueError(f"pilot spacing must be in (1, {n}], got {pilot_spacing}")
    mask = np.zeros(n, dtype=bool)
    mask[::pilot_spacing] = True
    return mask

def ofdm_pilot_values(n: int, pilot_spacing: int = DEFAULT_PILOT_SPACING) -> np.ndarray:
    """Deterministic pseudo-random QPSK comb values known to both link ends.

    A constant-valued comb would collapse to a periodic impulse train in time
    and wreck the PAPR statistics, so the comb carries scrambled phases.
    """
    count = int(ofdm_pilot_mask(n, pilot_spacing).sum())
    rng = np.random.default_rng(0x0FD)
    return qpsk_map(rng.integers(0, 2, size=2 * count))


def ofdm_grid(
    data_symbols: np.ndarray, params: WaveformParams, pilot_spacing: int = DEFAULT_PILOT_SPACING
) -> np.ndarray:
    """Subcarrier matrix with a uniform pilot comb and data on the rest."""
    mask = ofdm_pilot_mask(params.N, pilot_spacing)
    n_data = params.N - int(mask.sum())
    data_symbols = np.asarray(data_symbols, dtype=np.complex128)
    if data_symbols.shape != (n_data, params.M):
        raise ValueError(
            f"data symbol matrix must be {(n_data, params.M)}, got {data_symbols.shape}"
        )
    grid = np.empty((params.N, params.M), dtype=np.complex128)
    grid[mask, :] = ofdm_pilot_values(params.N, pilot_spacing)[:, None]
    grid[~mask, :] = data_symbols
    return grid


def ofdm_modulate(grid: np.ndarray, params: WaveformParams) -> np.ndarray:
    """Column-wise IDFT plus CP, serialized to a sample stream."""
    grid = np.asarray(grid, dtype=np.complex128)
    if grid.shape != (params.N, params.M):
        raise ValueError(f"grid must be {(params.N, params.M)}, got {grid.shape}")
    time = np.fft.ifft(grid, axis=0)
    return serialize(add_cp(time, params.N_CP))


def ofdm_demodulate(stream: np.ndarray, params: WaveformParams) -> np.ndarray:
    """CP removal and column-wise DFT back to the subcarrier matrix."""
    frame_cp = deserialize(np.asarray(stream, dtype=np.complex128), params)
    return np.fft.fft(remove_cp(frame_cp, params.N_CP), axis=0)


def estimate_ofdm_cfr(
    rx_grid: np.ndarray,
    params: WaveformParams,
    pilot_spacing: int = DEFAULT_PILOT_SPACING,
    avg_symbols: int | None = None,
) -> np.ndarray:
    """LS estimate at the pilot comb, linearly interpolated to all bins."""
    rx = np.asarray(rx_grid, dtype=np.complex128)
    avg = rx.shape[1] if avg_symbols is None else avg_symbols
    if not 0 < avg <= rx.shape[1]:
        raise ValueError(f"avg_symbols={avg} outside (0, M={rx.shape[1]}]")
    mask = ofdm_pilot_mask(params.N, pilot_spacing)
    pilot_bins = np.nonzero(mask)[0]
    ls = rx[mask, :avg].mean(axis=1) / ofdm_pilot_values(params.N, pilot_spacing)
    # Periodic extension keeps interpolation valid past the last pilot.
    bins_ext = np.concatenate([pilot_bins, [pilot_bins[0] + params.N]])
    ls_ext = np.concatenate([ls, [ls[0]]])
    k = np.arange(params.N)
    return np.interp(k, bins_ext, ls_ext.real) + 1j * np.interp(k, bins_ext, ls_ext.imag)


def ofdm_equalize(
    rx_grid: np.ndarray, cfr: np.ndarray, params: WaveformParams, pilot_spacing: int = DEFAULT_PILOT_SPACING
) -> np.ndarray:
    """Zero-forcing per subcarrier; returns the data-bin rows only."""
    cfr = np.asarray(cfr, dtype=np.complex128)
    if np.any(cfr == 0):
        raise ValueError("zero CFR bin: zero-forcing equalizer is singular")
    mask = ofdm_pilot_mask(params.N, pilot_spacing)
    eq = np.asarray(rx_grid, dtype=np.complex128) / cfr[:, None]
    return eq[~mask]


def ofdm_radar_process(
    tx_grid: np.ndarray, rx_grid: np.ndarray, params: WaveformParams, window: np.ndarray | None = None
) -> RangeVelocityImage:
    """Spectral-division OFDM radar: divide, IDFT over bins, DFT over symbols."""
    tx = np.asarray(tx_grid, dtype=np.complex128)
    rx = np.asarray(rx_grid, dtype=np.complex128)
    if tx.shape != rx.shape:
        raise ValueError("tx/rx grids must have identical shape")
    if np.any(tx == 0):
        raise ValueError("zero transmit symbol: spectral division is singular")
    profiles = np.fft.ifft(rx / tx, axis=0)
    return doppler_process(profiles, params, window, mode="OFDM")


def data_rate_radcom(params: WaveformParams, n_cp: int | None = None) -> float:
    """Payload bit rate of the sector-modulated frame with QPSK data."""
    cp = params.N_CP if n_cp is None else n_cp
    n_data = params.N - 2 * cp + 1
    if n_data <= 0:
        raise ValueError("sector layout leaves no data subchirps")
    return 2.0 * n_data * params.B / (params.N + cp)


def data_rate_comb_pilot(
    params: WaveformParams, n_cp: int | None = None, pilot_spacing: int = DEFAULT_PILOT_SPACING
) -> float:
    """Payload bit rate of the comb-pilot OFDM (or conventional OCDM) frame."""
    cp = params.N_CP if n_cp is None else n_cp
    n_data = params.N - int(ofdm_pilot_mask(params.N, pilot_spacing).sum())
    return 2.0 * n_data * params.B / (params.N + cp)
