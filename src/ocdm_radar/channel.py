"""Point-target radar channel, frequency-selective comm channel, CIR oracles.

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

from dataclasses import dataclass, replace

import numpy as np

from .fresnel import dirichlet_kernel
from .framing import C0, WaveformParams, from_stream, to_stream

__all__ = [
    "Target",
    "CommChannelConfig",
    "normalize_target",
    "apply_shift_channel",
    "ideal_cir_from_shifts",
    "biased_cir_from_shifts",
    "apply_comm_channel",
    "two_tap_tilt_cir",
    "load_cfr_csv",
    "cfr_from_cir",
]

DOPPLER_SIGN = -1.0

# Symbols per channel block.  Any width from 16 to 256 runs a full-scale frame
# (N=2048, M=5120, 3 targets) in 0.8-0.9 s on 2 vCPUs, 1024 takes 1.2 s; at 64
# the block temporaries (2 MiB per array) add 8 MiB to the 160 MiB output.
_CHANNEL_BLOCK = 64


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


def _add_awgn(signal: np.ndarray, snr_db: float, rng_seed: int, stream: np.ndarray) -> np.ndarray:
    power = float(np.mean(np.abs(signal) ** 2))
    if power == 0.0:
        # Zero-target scenes: reference the transmit stream's power so a
        # pure-noise stream is still produced.
        power = float(np.mean(np.abs(stream) ** 2))
    try:
        sigma2 = power * 10.0 ** (-snr_db / 10.0)
    except OverflowError:
        raise ValueError(f"snr_db={snr_db} puts the noise power out of float range") from None
    # All real parts, then all imaginary parts: signal + sqrt(sigma2/2) * (re + 1j*im).
    rng = np.random.default_rng(rng_seed)
    noise = np.empty_like(signal)
    noise.real = rng.standard_normal(signal.shape)
    noise.imag = rng.standard_normal(signal.shape)
    noise *= np.sqrt(sigma2 / 2.0)
    signal += noise
    return signal


def apply_shift_channel(
    stream: np.ndarray,
    params: WaveformParams,
    shifts: list[tuple[float, float, complex]],
    snr_db: float | None = None,
    rng_seed: int = 0,
) -> np.ndarray:
    """Channel in normalized coordinates: list of (n_delta, k_delta, amplitude).

    Per scatterer: per-symbol circular fractional delay of the useful part
    (CP rebuilt afterwards), then the per-sample Doppler phase ramp over the
    serialized stream, then the complex gain.  Scatterer contributions add;
    AWGN at snr_db relative to the noise-free received power comes last.

    Works on blocks of _CHANNEL_BLOCK symbols in (N + N_CP, width) form: the
    Doppler ramp is the in-symbol factor e^{2 pi i k_delta r / N} over every row
    r, CP rows included (so each keeps its phase e^{-2 pi i k_delta} relative to
    its tail), times the per-symbol factor A e^{2 pi i k_delta m (N + N_CP) / N}.
    """
    stream = np.asarray(stream, dtype=np.complex128)
    frame = from_stream(stream, params)
    for n_delta, _, _ in shifts:
        if not 0 <= n_delta < params.N:
            raise ValueError(
                f"n_delta={n_delta} violates the unambiguous range [0, N={params.N})"
            )
    n, rows = params.N, params.symbol_len
    r, m = np.arange(rows), np.arange(params.M)
    factors = [
        (_delay_phase(n, n_delta)[:, None], np.exp(2j * np.pi * k_delta * r / n)[:, None],
         complex(amplitude) * np.exp(2j * np.pi * k_delta * m * rows / n))
        for n_delta, k_delta, amplitude in shifts
    ]

    received = np.zeros((rows, params.M), dtype=np.complex128, order="F")
    for start in range(0, params.M, _CHANNEL_BLOCK):
        stop = min(start + _CHANNEL_BLOCK, params.M)
        block_params = replace(params, M=stop - start)
        spectrum = np.fft.fft(frame[:, start:stop], axis=0)
        for phase, in_symbol, per_symbol in factors:
            s = to_stream(np.fft.ifft(spectrum * phase, axis=0), block_params)
            s = s.reshape((rows, block_params.M), order="F")
            s *= in_symbol
            s *= per_symbol[start:stop]
            received[:, start:stop] += s

    received = received.ravel(order="F")
    if snr_db is not None:
        received = _add_awgn(received, snr_db, rng_seed, stream)
    return received


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


def two_tap_tilt_cir(tilt_db: float) -> np.ndarray:
    """Two-tap CIR whose CFR magnitude spans tilt_db from best to worst bin."""
    ratio = 10.0 ** (tilt_db / 20.0)
    a = (ratio - 1.0) / (ratio + 1.0)
    return np.array([1.0, a], dtype=np.complex128)


def cfr_from_cir(cir: np.ndarray, n: int) -> np.ndarray:
    cir = np.asarray(cir, dtype=np.complex128)
    if cir.size > n:
        raise ValueError(f"CIR length {cir.size} exceeds N={n}")
    return np.fft.fft(cir, n)


def load_cfr_csv(path, n: int) -> np.ndarray:
    """Read a CFR from CSV rows (bin index, Re, Im); each of the N bins exactly once.

    Rejects non-finite values, non-integer or repeated bin indices and an
    all-zero response.
    """
    raw = np.loadtxt(path, delimiter=",", ndmin=2)
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


def _resolve_comm_cir(cfg: CommChannelConfig, params: WaveformParams) -> np.ndarray:
    cir = np.asarray(cfg.cir, dtype=np.complex128)
    if cir.size > params.N:
        raise ValueError("CIR longer than the symbol length")
    spread = int(np.max(np.nonzero(np.abs(cir) > 1e-12 * np.max(np.abs(cir)))[0]))
    if spread > params.N_CP:
        raise ValueError(
            f"channel delay spread {spread} exceeds the CP length {params.N_CP}"
        )
    return cir


def apply_comm_channel(stream: np.ndarray, cfg: CommChannelConfig, params: WaveformParams) -> np.ndarray:
    """Per-symbol circular convolution with the configured CIR, plus AWGN.

    Valid channel model only while the delay spread fits the CP, which
    _resolve_comm_cir enforces.
    """
    stream = np.asarray(stream, dtype=np.complex128)
    cir = _resolve_comm_cir(cfg, params)
    cfr = cfr_from_cir(cir, params.N)
    spectrum = np.fft.fft(from_stream(stream, params), axis=0) * cfr[:, None]
    received = to_stream(np.fft.ifft(spectrum, axis=0), params)
    if cfg.snr_db is not None:
        received = _add_awgn(received, cfg.snr_db, cfg.rng_seed, stream)
    return received
