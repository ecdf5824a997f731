"""Receiver chain: Fresnel-domain CIR extraction and range-velocity imaging.

The corrected receive frame of a pilot transmission is directly the stack of
M consecutive radar CIR estimates.  A row-wise DFT across the symbols then
turns the per-symbol Doppler phases into velocity information.

Velocity axis: the row-wise DFT peak for a Doppler progression of d cycles
per M symbols sits at raw bin d; after centering, bin offset j - M//2 maps to
velocity -(j - M//2) * delta_v so that negative normalized Doppler shifts
(the default mapping of positive radial velocity) read out as positive
velocities.  The two half-rate edges +/- v_max,ua alias onto the same bin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fresnel import dfnt_fast, phase_fold_correct
from .framing import C0, MimoConfig, WaveformParams, deserialize, remove_cp

__all__ = [
    "RangeVelocityImage",
    "PeakReport",
    "RadarParams",
    "receive_frame",
    "mimo_demux",
    "radcom_extract_cir",
    "doppler_process",
    "compute_radar_params",
    "estimate_peak",
    "image_to_csv",
]


@dataclass(frozen=True)
class RangeVelocityImage:
    """Magnitude image with physical axes; rows = range bins, cols = Doppler bins."""

    magnitude: np.ndarray
    range_axis_m: np.ndarray
    velocity_axis_mps: np.ndarray
    mode: str = "SISO"


@dataclass(frozen=True)
class PeakReport:
    range_m: float
    velocity_mps: float
    power_db: float


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


def receive_frame(stream: np.ndarray, params: WaveformParams, correct_fold: bool = True) -> np.ndarray:
    """CP removal, column-wise fast Fresnel transform, phase-fold correction.

    With a pilot transmission the corrected output holds the radar CIR
    estimates.  Communication receivers pass correct_fold=False: their
    channel carries no fold to undo.
    """
    frame_cp = deserialize(np.asarray(stream, dtype=np.complex128), params)
    fresnel = dfnt_fast(remove_cp(frame_cp, params.N_CP))
    return phase_fold_correct(fresnel) if correct_fold else fresnel


def mimo_demux(fresnel_frame: np.ndarray, mimo: MimoConfig, tx: int | None = None) -> np.ndarray:
    """Slice the N/P rows belonging to one transmitter out of a receive frame.

    Leakage past a slice boundary (from fractional shifts or delay-Doppler
    coupling) stays in the neighbouring slices; it is a measured property of
    the multiplexing, not an error condition.
    """
    frame = np.asarray(fresnel_frame)
    return frame[mimo.slice_rows(frame.shape[0], tx)].copy()


def radcom_extract_cir(fresnel_frame: np.ndarray, n_cp: int) -> np.ndarray:
    """First N_CP rows of the corrected frame: the radar sector of a RadCom symbol.

    Valid while every target delay plus its Doppler coupling stays below N_CP
    bins; beyond that the data sector wraps into the radar rows.
    """
    frame = np.asarray(fresnel_frame)
    if not 0 < n_cp <= frame.shape[0]:
        raise ValueError(f"N_CP={n_cp} outside (0, {frame.shape[0]}]")
    return frame[:n_cp].copy()


def doppler_process(cir: np.ndarray, params: WaveformParams, window: np.ndarray | None = None, mode: str = "SISO") -> RangeVelocityImage:
    """Row-wise DFT across symbols, centered, converted to physical axes.

    No window is applied by default; pass an M-length taper to override.
    """
    cir = np.asarray(cir, dtype=np.complex128)
    if cir.ndim != 2 or cir.shape[1] < 2:
        raise ValueError("need a (range bins x M>=2) CIR matrix")
    m = cir.shape[1]
    if window is not None:
        window = np.asarray(window, dtype=np.float64)
        if window.shape != (m,):
            raise ValueError(f"window must have length {m}")
        cir = cir * window[None, :]
    image = np.fft.fftshift(np.fft.fft(cir, axis=1), axes=1)
    rp = compute_radar_params(params)
    range_axis = np.arange(cir.shape[0]) * rp.range_resolution_m
    velocity_axis = -(np.arange(m) - m // 2) * rp.velocity_resolution_mps
    return RangeVelocityImage(np.abs(image), range_axis, velocity_axis, mode)


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
        rows = MimoConfig(num_tx).slice_rows(params.N)
        r_mimo = (rows.stop - rows.start) * C0 / (2.0 * params.B)
    return RadarParams(gp_db, delta_r, r_max, delta_v, v_max, r_cp, r_mimo)


def estimate_peak(image: RangeVelocityImage) -> PeakReport:
    """Global magnitude peak in physical units; deterministic tie-breaking.

    Ties resolve to the lowest range, then the lowest absolute velocity.
    """
    mag = image.magnitude
    if mag.size == 0:
        raise ValueError("empty image")
    peak = float(mag.max())
    if not np.isfinite(peak):
        raise ValueError("image magnitudes are not finite")
    if peak == 0.0:
        raise ValueError("all-zero image has no peak")
    rows, cols = np.nonzero(mag == peak)
    order = sorted(
        range(rows.size),
        key=lambda i: (
            image.range_axis_m[rows[i]],
            abs(image.velocity_axis_mps[cols[i]]),
            image.velocity_axis_mps[cols[i]],
        ),
    )
    r, c = rows[order[0]], cols[order[0]]
    return PeakReport(
        range_m=float(image.range_axis_m[r]),
        velocity_mps=float(image.velocity_axis_mps[c]),
        power_db=float(20.0 * np.log10(peak)),
    )


def image_to_csv(image: RangeVelocityImage, prefix) -> list[str]:
    """Write magnitude matrix plus the two axis files; returns written names."""
    prefix = str(prefix)
    names = [f"{prefix}_image.csv", f"{prefix}_range_axis.csv", f"{prefix}_velocity_axis.csv"]
    np.savetxt(names[0], image.magnitude, delimiter=",", fmt="%.12g")
    np.savetxt(names[1], image.range_axis_m, delimiter=",", fmt="%.12g")
    np.savetxt(names[2], image.velocity_axis_mps, delimiter=",", fmt="%.12g")
    return names
