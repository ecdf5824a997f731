"""Transmit frame construction, QPSK mapping and the sample-stream format.

Frames are plain (N x M) complex ndarrays: rows index subchirps in the
Fresnel domain (or samples in the time domain), columns index OCDM symbols.
A sample stream is a 1-D array holding the M symbols one after another,
each preceded by its last N_CP samples as cyclic prefix; only ``to_stream``
and ``from_stream`` build or take apart that layout, and ``modulate`` is the
one place a Fresnel-domain frame becomes a transmit stream.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    "to_stream",
    "from_stream",
    "modulate",
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
        if self.B / self.N == 0:  # normalize_target divides by the bin width
            raise ValueError(f"bandwidth {self.B} leaves a zero bin width B/N")
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


@dataclass(frozen=True)
class MimoConfig:
    """Fresnel-domain multiplexing layout: num_tx transmitters on disjoint subchirp slices."""

    num_tx: int

    def __post_init__(self):
        if self.num_tx < 1:
            raise ValueError(f"num_tx must be >= 1, got {self.num_tx}")

    def slice_rows(self, n: int, tx: int) -> slice:
        """Rows of transmitter tx in an n-row Fresnel-domain frame."""
        if not 0 <= tx < self.num_tx:
            raise ValueError(f"tx index {tx} outside [0, {self.num_tx})")
        if n % self.num_tx:
            raise ValueError(f"N={n} is not divisible by num_tx={self.num_tx}")
        width = n // self.num_tx
        return slice(tx * width, (tx + 1) * width)


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


def build_mimo_pilot_frame(params: WaveformParams, mimo: MimoConfig, tx: int) -> np.ndarray:
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


def to_stream(time_frame: np.ndarray, params: WaveformParams) -> np.ndarray:
    """Discrete-time (N x M) frame to its sample stream, cyclic prefixes included."""
    time_frame = np.asarray(time_frame)
    if time_frame.shape != (params.N, params.M):
        raise ValueError(
            f"time frame must be {(params.N, params.M)}, got {time_frame.shape}"
        )
    frame_cp = np.empty((params.symbol_len, params.M), dtype=np.complex128, order="F")
    frame_cp[: params.N_CP] = time_frame[params.N - params.N_CP :]
    frame_cp[params.N_CP :] = time_frame
    return frame_cp.ravel(order="F")


def from_stream(stream: np.ndarray, params: WaveformParams) -> np.ndarray:
    """Sample stream to its (N x M) time frame, cyclic prefixes dropped (a view)."""
    stream = np.asarray(stream, dtype=np.complex128)
    if stream.ndim != 1 or stream.size != params.stream_len:
        raise ValueError(
            f"stream length must be M*(N+N_CP) = {params.stream_len}, got {stream.size}"
        )
    return stream.reshape((params.symbol_len, params.M), order="F")[params.N_CP :]


def modulate(frame: np.ndarray, params: WaveformParams) -> np.ndarray:
    """OCDM transmitter: Fresnel-domain (N x M) frame to its sample stream (IDFnT, then CP)."""
    return to_stream(idfnt_fast(frame), params)
