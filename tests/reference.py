"""References the tests compare the package against and no command runs: the O(N^2)
inverse DFnT, the Dirichlet kernel and the closed-form CIRs of point-target shifts built
on it, the comb-pilot OFDM receiver with its spectral-division radar, and the rank-1
single-scatterer image.
"""

from __future__ import annotations

import numpy as np

from ocdm_radar.analysis import _pilot_imager
from ocdm_radar.comms import _ofdm_pilot_values, ofdm_pilot_mask
from ocdm_radar.framing import WaveformParams, from_stream
from ocdm_radar.fresnel import _check_even_length, _chirp_kernel, _length
from ocdm_radar.rxproc import RangeVelocityImage, doppler_process

# Below this distance from a multiple of N the Dirichlet ratio switches to its
# limit value N; keeps the double-precision ratio error under ~1e-6.
_DIRICHLET_SINGULARITY = 1e-9


def idfnt_direct(x: np.ndarray) -> np.ndarray:
    """Inverse Fresnel transform by per-definition O(N^2) summation."""
    x = np.asarray(x, dtype=np.complex128)
    n = _length(x)
    _check_even_length(n)
    kernel = np.conj(_chirp_kernel(n))
    return np.exp(1j * np.pi / 4) / n * (kernel @ x)


def dirichlet_kernel(a, n: int):
    """Closed form of the geometric series sum_{l=0}^{N-1} e^{i 2 pi a l / N}.

    Evaluates ``(e^{i 2 pi a} - 1) / (e^{i 2 pi a / N} - 1)`` and switches to
    the limit value N when ``a`` is within 1e-9 of a multiple of N. Accepts a
    scalar or an array; N must be positive.
    """
    if n <= 0:
        raise ValueError(f"kernel length must be positive, got {n}")
    a_arr = np.asarray(a, dtype=float)
    r = np.mod(a_arr, n)
    near_zero = np.minimum(r, n - r) < _DIRICHLET_SINGULARITY
    safe = np.where(near_zero, 0.25 * n, r)
    num = np.exp(2j * np.pi * safe) - 1.0
    den = np.exp(2j * np.pi * safe / n) - 1.0
    out = np.where(near_zero, complex(n), num / den)
    if np.isscalar(a) or a_arr.ndim == 0:
        return complex(out)
    return out


def _phi_m(params: WaveformParams, k_delta: float) -> np.ndarray:
    m = np.arange(params.M)
    return 2.0 * np.pi * k_delta * (m * (params.N + params.N_CP) + params.N_CP) / params.N


def ideal_cir_from_shifts(shifts, params: WaveformParams) -> np.ndarray:
    """Fold-free CIR matrix: Dirichlet peak at n_delta, Doppler phases only.

    Normalized so an integer n_delta gives a unit Kronecker delta (the
    unnormalized closed form would carry an extra factor N).
    """
    n = np.arange(params.N)
    out = np.zeros((params.N, params.M), dtype=np.complex128)
    for n_delta, k_delta, amplitude in shifts:
        column = (
            dirichlet_kernel(n_delta - n, params.N)
            / params.N
            * np.exp(2j * np.pi * k_delta * n / params.N)
        )
        out += complex(amplitude) * np.outer(column, np.exp(1j * _phi_m(params, k_delta)))
    return out


def biased_cir_from_shifts(shifts, params: WaveformParams) -> np.ndarray:
    """Closed-form fold-corrected CIR including delay-Doppler coupling.

    Evaluates, per scatterer,

        h_corr[n, m] = A e^{i phi_m} e^{i pi n} (1/N^2)
                       sum_kappa e^{-i pi (kappa - n_delta)} D(kappa - n_delta)
                                 e^{i pi (n^2 - kappa^2)/N} D(k_delta - n + kappa)

    which is the receive-chain output for the pilot frame.  For integer
    n_delta and k_delta it collapses to a delta at <n_delta + k_delta>_N with
    phase e^{i (pi/N) [2 n k_delta - k_delta^2 + N (n_delta + k_delta)]}.
    """
    n_len = params.N
    n = np.arange(n_len)
    kappa = np.arange(n_len)
    quad = np.exp(1j * np.pi * ((n * n % (2 * n_len))[:, None] - (kappa * kappa % (2 * n_len))[None, :]) / n_len)
    out = np.zeros((n_len, params.M), dtype=np.complex128)
    for n_delta, k_delta, amplitude in shifts:
        delay_kernel = np.exp(-1j * np.pi * (kappa - n_delta)) * dirichlet_kernel(
            kappa - n_delta, n_len
        )
        doppler_kernel = dirichlet_kernel(k_delta - n[:, None] + kappa[None, :], n_len)
        column = (
            np.exp(1j * np.pi * n)
            / n_len**2
            * np.sum(delay_kernel[None, :] * quad * doppler_kernel, axis=1)
        )
        out += complex(amplitude) * np.outer(column, np.exp(1j * _phi_m(params, k_delta)))
    return out


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


def single_point_image(params: WaveformParams, n_delta: float, k_delta: float) -> RangeVelocityImage:
    """Noise-free single-scatterer pilot-frame image, in its exact rank-1 form."""
    return _pilot_imager(params)(n_delta, k_delta)
