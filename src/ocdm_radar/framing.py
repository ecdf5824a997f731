"""Transmit frame construction, QPSK mapping, CP handling and serialization.

Frames are plain (N x M) complex ndarrays: rows index subchirps in the
Fresnel domain (or samples in the time domain), columns index OCDM symbols.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .fresnel import idfnt_fast

__all__ = [
    "C0",
    "WaveformParams",
    "MimoConfig",
    "RadComFrameSpec",
    "build_pilot_frame",
    "build_mimo_pilot_frame",
    "build_radcom_frame",
    "qpsk_map",
    "qpsk_demap",
    "to_time_frame",
    "add_cp",
    "remove_cp",
    "serialize",
    "deserialize",
]

# Propagation speed used throughout; the rounded value reproduces the
# reference numerology tables exactly (307.20 m, 463.56 m/s, ...).
C0 = 3.0e8


@dataclass(frozen=True)
class WaveformParams:
    """OCDM numerology: subchirps N, symbols M, CP length, bandwidth, carrier."""

    N: int
    M: int
    N_CP: int = 0
    B: float = 1e9
    fc: float = 79e9

    def __post_init__(self):
        if self.N <= 0 or self.N % 2:
            raise ValueError(f"N must be a positive even integer, got {self.N}")
        if self.M <= 0:
            raise ValueError(f"M must be positive, got {self.M}")
        if not 0 <= self.N_CP < self.N:
            raise ValueError(f"N_CP must satisfy 0 <= N_CP < N, got {self.N_CP}")
        if self.B <= 0:
            raise ValueError(f"bandwidth must be positive, got {self.B}")
        if self.fc <= self.B:
            raise ValueError(f"carrier must exceed the bandwidth, got fc={self.fc}")

    @property
    def symbol_len(self) -> int:
        return self.N + self.N_CP

    @property
    def stream_len(self) -> int:
        return self.M * (self.N + self.N_CP)

    @property
    def delta_f(self) -> float:
        return self.B / self.N

    @property
    def symbol_duration(self) -> float:
        return (self.N + self.N_CP) / self.B

    @property
    def frame_duration(self) -> float:
        return self.M * self.symbol_duration


@dataclass(frozen=True)
class MimoConfig:
    """Fresnel-domain multiplexing layout: num_tx transmitters, num_rx receivers."""

    num_tx: int
    tx: int = 0
    num_rx: int = 1
    rx: int = 0

    def __post_init__(self):
        if self.num_tx < 1:
            raise ValueError(f"num_tx must be >= 1, got {self.num_tx}")
        if not 0 <= self.tx < self.num_tx:
            raise ValueError(f"tx index {self.tx} outside [0, {self.num_tx})")
        if not 0 <= self.rx < self.num_rx:
            raise ValueError(f"rx index {self.rx} outside [0, {self.num_rx})")

    def slice_rows(self, n: int, tx: int | None = None) -> slice:
        """Rows of transmitter tx (default self.tx) in an n-row Fresnel-domain frame."""
        mimo = self if tx is None else replace(self, tx=tx)
        if n % mimo.num_tx:
            raise ValueError(f"N={n} is not divisible by num_tx={mimo.num_tx}")
        width = n // mimo.num_tx
        return slice(mimo.tx * width, (mimo.tx + 1) * width)


@dataclass(frozen=True)
class RadComFrameSpec:
    """Sector-modulated symbol layout: pilot sector, data sector, guard nulls.

    pilot_energy is the energy put on the single unmodulated subchirp,
    symbol_energy the mean constellation energy of the data subchirps.
    """

    N_CP: int
    pilot_energy: float = 1.0
    symbol_energy: float = 1.0

    def __post_init__(self):
        if self.N_CP < 1:
            raise ValueError(f"RadCom N_CP must be >= 1, got {self.N_CP}")
        if self.pilot_energy <= 0 or self.symbol_energy <= 0:
            raise ValueError("sector energies must be positive")

    def num_data_subchirps(self, n: int) -> int:
        if 2 * self.N_CP - 1 >= n:
            raise ValueError(
                f"sector layout needs 2*N_CP-1 < N, got N_CP={self.N_CP}, N={n}"
            )
        return n - 2 * self.N_CP + 1


def build_pilot_frame(params: WaveformParams) -> np.ndarray:
    """Radar pilot frame: only subchirp 0 active, every column identical.

    All M symbols are equal, so the serialized stream is M-fold periodic and
    the frame needs no CP.
    """
    frame = np.zeros((params.N, params.M), dtype=np.complex128)
    frame[0, :] = 1.0
    return frame


def build_mimo_pilot_frame(params: WaveformParams, mimo: MimoConfig, tx: int | None = None) -> np.ndarray:
    """Pilot frame of one transmitter: subchirp tx*N/num_tx active."""
    row = mimo.slice_rows(params.N, tx).start
    frame = np.zeros((params.N, params.M), dtype=np.complex128)
    frame[row, :] = 1.0
    return frame


def build_radcom_frame(params: WaveformParams, spec: RadComFrameSpec, symbols: np.ndarray) -> np.ndarray:
    """Sector-modulated frame: sqrt(E_rad) pilot, data at rows N_CP..N-N_CP, null guard.

    The modulated range follows the symbol-count N - 2*N_CP + 1 (the
    alternative off-by-one prose reading would not leave N_CP - 1 guard
    nulls). ``symbols`` carries the constellation points as transmitted.
    """
    n_data = spec.num_data_subchirps(params.N)
    symbols = np.asarray(symbols, dtype=np.complex128)
    if symbols.shape != (n_data, params.M):
        raise ValueError(
            f"symbol matrix must be {(n_data, params.M)}, got {symbols.shape}"
        )
    frame = np.zeros((params.N, params.M), dtype=np.complex128)
    frame[0, :] = np.sqrt(spec.pilot_energy)
    frame[spec.N_CP : params.N - spec.N_CP + 1, :] = symbols
    return frame


_QPSK_SCALE = 1.0 / np.sqrt(2.0)


def qpsk_map(bits: np.ndarray) -> np.ndarray:
    """Gray-coded unit-energy QPSK: bits 00 -> (1+1j)/sqrt(2).

    The first bit of each pair selects the sign of the real part, the second
    the sign of the imaginary part (0 -> +).
    """
    bits = np.asarray(bits)
    if bits.size % 2:
        raise ValueError(f"bit count must be even, got {bits.size}")
    pairs = bits.reshape(-1, 2).astype(np.float64)
    return ((1.0 - 2.0 * pairs[:, 0]) + 1j * (1.0 - 2.0 * pairs[:, 1])) * _QPSK_SCALE


def qpsk_demap(symbols: np.ndarray) -> np.ndarray:
    """Minimum-distance hard decisions back to bits (inverse of qpsk_map)."""
    s = np.asarray(symbols).ravel()
    bits = np.empty((s.size, 2), dtype=np.uint8)
    bits[:, 0] = s.real < 0
    bits[:, 1] = s.imag < 0
    return bits.ravel()


def to_time_frame(fresnel_frame: np.ndarray) -> np.ndarray:
    """Column-wise inverse Fresnel transform into the discrete-time domain."""
    return idfnt_fast(np.asarray(fresnel_frame, dtype=np.complex128))


def add_cp(time_frame: np.ndarray, n_cp: int) -> np.ndarray:
    """Prepend the last n_cp samples of every symbol as its cyclic prefix."""
    if n_cp == 0:
        return np.array(time_frame, dtype=np.complex128)
    n = time_frame.shape[0]
    if not 0 <= n_cp < n:
        raise ValueError(f"CP length {n_cp} outside [0, {n})")
    return np.concatenate([time_frame[n - n_cp :], time_frame], axis=0)


def remove_cp(time_frame_cp: np.ndarray, n_cp: int) -> np.ndarray:
    return np.asarray(time_frame_cp)[n_cp:]


def serialize(time_frame_cp: np.ndarray) -> np.ndarray:
    """Concatenate symbol columns (CP included) into one sample stream."""
    return np.asarray(time_frame_cp, dtype=np.complex128).flatten(order="F")


def deserialize(stream: np.ndarray, params: WaveformParams) -> np.ndarray:
    """Inverse of serialize; rejects streams of the wrong length."""
    stream = np.asarray(stream, dtype=np.complex128)
    if stream.ndim != 1 or stream.size != params.stream_len:
        raise ValueError(
            f"stream length must be M*(N+N_CP) = {params.stream_len}, got {stream.size}"
        )
    return stream.reshape((params.symbol_len, params.M), order="F")
