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

Velocity maps to the normalized Doppler shift with a configurable sign whose
default (-1) pairs positive radial velocity with negative k_delta, matching
the reference range-velocity maps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fresnel import dirichlet_kernel
from .framing import C0, WaveformParams, add_cp, deserialize, remove_cp, serialize

__all__ = [
    "Target",
    "RadarChannelConfig",
    "CommChannelConfig",
    "normalize_target",
    "apply_radar_channel",
    "apply_shift_channel",
    "ideal_cir_from_shifts",
    "biased_cir_from_shifts",
    "apply_comm_channel",
    "two_tap_tilt_cir",
    "load_cfr_csv",
    "cfr_from_cir",
]


@dataclass(frozen=True)
class Target:
    """Point target: range (m), relative radial velocity (m/s), complex gain."""

    range_m: float
    velocity_mps: float = 0.0
    amplitude: complex = 1.0 + 0.0j

    def __post_init__(self):
        if self.range_m < 0:
            raise ValueError(f"target range must be >= 0, got {self.range_m}")


@dataclass
class RadarChannelConfig:
    targets: list[Target] = field(default_factory=list)
    snr_db: float | None = None
    rng_seed: int = 0
    doppler_sign: float = -1.0


@dataclass
class CommChannelConfig:
    """Static frequency-selective channel given by short CIR taps or a CFR.

    Exactly one of ``cir`` (time-domain taps, length <= N_CP + 1) or ``cfr``
    (length-N frequency response over unshifted DFT bins) must be set.
    """

    cir: np.ndarray | None = None
    cfr: np.ndarray | None = None
    snr_db: float | None = None
    rng_seed: int = 0


def normalize_target(target: Target, params: WaveformParams, doppler_sign: float = -1.0):
    """Map (range, velocity) to the normalized shift pair (n_delta, k_delta).

    n_delta = 2 R B / c0 range bins; k_delta = sign * (2 v fc / c0) / (B / N)
    Doppler bins.  The default sign makes positive velocities produce negative
    k_delta.
    """
    n_delta = 2.0 * target.range_m * params.B / C0
    f_doppler = 2.0 * target.velocity_mps * params.fc / C0
    k_delta = doppler_sign * f_doppler / params.delta_f
    return n_delta, k_delta


def _delay_phase(n: int, n_delta: float) -> np.ndarray:
    # Signed bin frequencies [0 .. N/2-1, -N/2 .. -1].
    k_signed = np.fft.fftfreq(n, d=1.0 / n)
    return np.exp(-2j * np.pi * k_signed * n_delta / n)


def _doppler_ramp(num_samples: int, k_delta: float, n: int) -> np.ndarray:
    i = np.arange(num_samples)
    return np.exp(2j * np.pi * k_delta * i / n)


def _add_awgn(signal: np.ndarray, snr_db: float, rng_seed: int, ref_power: float) -> np.ndarray:
    power = float(np.mean(np.abs(signal) ** 2))
    if power == 0.0:
        # Zero-target scenes: reference the configured fallback power so a
        # pure-noise stream is still produced.
        power = ref_power
    try:
        sigma2 = power * 10.0 ** (-snr_db / 10.0)
    except OverflowError:
        raise ValueError(f"snr_db={snr_db} puts the noise power out of float range") from None
    rng = np.random.default_rng(rng_seed)
    noise = np.sqrt(sigma2 / 2.0) * (
        rng.standard_normal(signal.shape) + 1j * rng.standard_normal(signal.shape)
    )
    return signal + noise


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
    """
    stream = np.asarray(stream, dtype=np.complex128)
    frame_cp = deserialize(stream, params)
    useful = remove_cp(frame_cp, params.N_CP)
    spectrum = np.fft.fft(useful, axis=0)

    received = np.zeros_like(stream)
    for n_delta, k_delta, amplitude in shifts:
        if not 0 <= n_delta < params.N:
            raise ValueError(
                f"n_delta={n_delta} violates the unambiguous range [0, N={params.N})"
            )
        delayed = np.fft.ifft(spectrum * _delay_phase(params.N, n_delta)[:, None], axis=0)
        s = serialize(add_cp(delayed, params.N_CP))
        s *= _doppler_ramp(s.size, k_delta, params.N)
        received += complex(amplitude) * s

    if snr_db is not None:
        received = _add_awgn(
            received, snr_db, rng_seed, ref_power=float(np.mean(np.abs(stream) ** 2))
        )
    return received


def apply_radar_channel(stream: np.ndarray, cfg: RadarChannelConfig, params: WaveformParams) -> np.ndarray:
    """Propagate a transmit stream past the configured point targets."""
    shifts = []
    for t in cfg.targets:
        n_delta, k_delta = normalize_target(t, params, cfg.doppler_sign)
        shifts.append((n_delta, k_delta, t.amplitude))
    return apply_shift_channel(stream, params, shifts, cfg.snr_db, cfg.rng_seed)


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
    """Read a CFR from CSV rows (bin index, Re, Im); all N bins required."""
    raw = np.loadtxt(path, delimiter=",", ndmin=2)
    if raw.shape[1] != 3:
        raise ValueError("CFR CSV must have columns (bin, Re, Im)")
    cfr = np.zeros(n, dtype=np.complex128)
    seen = np.zeros(n, dtype=bool)
    for row in raw:
        idx = int(row[0])
        if not 0 <= idx < n:
            raise ValueError(f"CFR bin index {idx} outside [0, {n})")
        cfr[idx] = row[1] + 1j * row[2]
        seen[idx] = True
    if not seen.all():
        raise ValueError("CFR CSV does not cover all N bins")
    return cfr


def _resolve_comm_cir(cfg: CommChannelConfig, params: WaveformParams) -> np.ndarray:
    if (cfg.cir is None) == (cfg.cfr is None):
        raise ValueError("exactly one of cir or cfr must be configured")
    if cfg.cir is not None:
        cir = np.asarray(cfg.cir, dtype=np.complex128)
        if cir.size > params.N:
            raise ValueError("CIR longer than the symbol length")
    else:
        cfr = np.asarray(cfg.cfr, dtype=np.complex128)
        if cfr.size != params.N:
            raise ValueError(f"CFR must have N={params.N} bins, got {cfr.size}")
        cir = np.fft.ifft(cfr)
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
    frame_cp = deserialize(stream, params)
    useful = remove_cp(frame_cp, params.N_CP)
    cfr = cfr_from_cir(cir, params.N)
    filtered = np.fft.ifft(np.fft.fft(useful, axis=0) * cfr[:, None], axis=0)
    received = serialize(add_cp(filtered, params.N_CP))
    if cfg.snr_db is not None:
        received = _add_awgn(
            received, cfg.snr_db, cfg.rng_seed, ref_power=float(np.mean(np.abs(stream) ** 2))
        )
    return received
