"""Transmit frame construction, QPSK mapping and the sample-stream format.

Frames are plain (N x M) complex ndarrays: rows index subchirps in the
Fresnel domain (or samples in the time domain), columns index OCDM symbols.
``MimoConfig`` and ``RadComFrameSpec`` own the row layouts of a Fresnel-domain
frame: which rows a transmitter, the radar sector or the data sector uses.
A sample stream is a 1-D array holding the M symbols one after another,
each preceded by its last N_CP samples as cyclic prefix; ``to_stream`` and
``from_stream`` build or take apart that layout, and ``modulate``, which
writes it a block of symbols at a time, is the one place a Fresnel-domain
frame becomes a transmit stream (and the only caller of the inverse DFnT).
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
    "build_superposed_pilot_frame",
    "build_radcom_frame",
    "draw_payload_bits",
    "qpsk_map",
    "qpsk_demap",
    "to_stream",
    "from_stream",
    "modulate",
]

# Propagation speed used throughout; the rounded value reproduces the
# reference numerology tables exactly (307.20 m, 463.56 m/s, ...).
C0 = 3.0e8

# Symbols per block of the radar and comm chains: modulate, both channels' echo pass,
# rxproc.receive_frame and comms.equalize_and_extract work on this many columns at a
# time, and rxproc.doppler_process sizes its row blocks to as many elements.  Any width
# from 16 to 256 runs a full-scale channel (N=2048, M=5120, 3 targets) in
# 0.8-0.9 s on 2 vCPUs, 1024 takes 1.2 s; at 64 each block temporary is 2 MiB,
# a few MiB in all beside the frame-sized stream buffer.
CHANNEL_BLOCK = 64

# Data symbols per band of a RadCom payload: build_radcom_frame maps whole data rows
# of at most this many symbols at a time (at least one row), so a band's float pairs
# and complex symbols take 1 MiB each and no payload-sized one is built.
_PAYLOAD_BAND = 1 << 16


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


@dataclass(frozen=True)
class MimoConfig:
    """Fresnel-domain multiplexing layout: num_tx transmitters on disjoint subchirp slices."""

    num_tx: int

    def __post_init__(self):
        if self.num_tx < 1:
            raise ValueError(f"num_tx must be >= 1, got {self.num_tx}")

    def slice_rows(self, n: int, tx: int) -> slice:
        """Rows of transmitter tx in an n-row Fresnel-domain frame.

        Leakage past a slice boundary (from fractional shifts or delay-Doppler
        coupling) stays in the neighbouring slices; it is a measured property
        of the multiplexing, not an error condition.
        """
        if not 0 <= tx < self.num_tx:
            raise ValueError(f"tx index {tx} outside [0, {self.num_tx})")
        if n % self.num_tx:
            raise ValueError(f"N={n} is not divisible by num_tx={self.num_tx}")
        width = n // self.num_tx
        return slice(tx * width, (tx + 1) * width)


@dataclass(frozen=True)
class RadComFrameSpec:
    """Sector-modulated symbol layout: pilot sector, data sector, guard nulls.

    An n-row Fresnel-domain frame holds ``radar_rows``, then ``data_rows(n)``,
    then N_CP - 1 guard nulls.  pilot_energy is the energy put on the single
    unmodulated subchirp (row 0), symbol_energy the mean constellation energy
    of the data subchirps.
    """

    N_CP: int
    pilot_energy: float = 1.0
    symbol_energy: float = 1.0

    def __post_init__(self):
        if self.N_CP < 1:
            raise ValueError(f"RadCom N_CP must be >= 1, got {self.N_CP}")
        if self.pilot_energy <= 0 or self.symbol_energy <= 0:
            raise ValueError("sector energies must be positive")

    @property
    def radar_rows(self) -> slice:
        """Rows 0..N_CP-1, the pilot sector: the radar CIR of a received symbol.

        Valid while every target delay plus its Doppler coupling stays below
        N_CP bins; beyond that the data sector wraps into these rows.
        """
        return slice(0, self.N_CP)

    def data_rows(self, n: int) -> slice:
        """Rows N_CP..n-N_CP of an n-row frame, the data sector.

        The range follows the symbol count n - 2*N_CP + 1 (the alternative
        off-by-one prose reading would not leave N_CP - 1 guard nulls).
        """
        if 2 * self.N_CP - 1 >= n:
            raise ValueError(
                f"sector layout needs 2*N_CP-1 < N, got N_CP={self.N_CP}, N={n}"
            )
        return slice(self.N_CP, n - self.N_CP + 1)

    def num_data_subchirps(self, n: int) -> int:
        rows = self.data_rows(n)
        return rows.stop - rows.start


def build_pilot_frame(params: WaveformParams) -> np.ndarray:
    """Radar pilot frame: only subchirp 0 active, every column identical (one transmitter).

    All M symbols are equal, so the serialized stream is M-fold periodic and
    the frame needs no CP.
    """
    return build_mimo_pilot_frame(params, MimoConfig(1), 0)


def build_mimo_pilot_frame(params: WaveformParams, mimo: MimoConfig, tx: int) -> np.ndarray:
    """Pilot frame of one transmitter: subchirp tx*N/num_tx active."""
    return _pilot_rows_frame(params, [mimo.slice_rows(params.N, tx).start])


def build_superposed_pilot_frame(params: WaveformParams, mimo: MimoConfig) -> np.ndarray:
    """The num_tx transmitters' pilot frames summed, as they add on air: subchirps p*N/num_tx active."""
    return _pilot_rows_frame(params, [mimo.slice_rows(params.N, p).start for p in range(mimo.num_tx)])


def _pilot_rows_frame(params: WaveformParams, rows: list[int]) -> np.ndarray:
    # Only the pilot rows are written; np.zeros leaves the other pages untouched.
    frame = np.zeros((params.N, params.M), dtype=np.complex128)
    frame[rows, :] = 1.0
    return frame


def build_radcom_frame(params: WaveformParams, spec: RadComFrameSpec, bits: np.ndarray) -> np.ndarray:
    """Sector-modulated frame: sqrt(E_rad) pilot, QPSK data on ``spec.data_rows``, null guard.

    ``bits`` is the payload, two bits per data symbol with the data rows one
    after another (as ``draw_payload_bits`` draws it).  The data rows get
    sqrt(E_s) * qpsk_map(bits), mapped a band of rows at a time, so no
    payload-sized symbol matrix is built.
    """
    n_data, m = spec.num_data_subchirps(params.N), params.M
    bits = np.asarray(bits)
    if bits.shape != (2 * n_data * m,):
        raise ValueError(f"payload must be {2 * n_data * m} bits, got shape {bits.shape}")
    frame = np.zeros((params.N, m), dtype=np.complex128)
    frame[0, :] = np.sqrt(spec.pilot_energy)
    data, row_bits = frame[spec.data_rows(params.N)], bits.reshape(n_data, 2 * m)
    scale, band = np.sqrt(spec.symbol_energy), max(1, _PAYLOAD_BAND // m)
    for start in range(0, n_data, band):
        rows = slice(start, start + band)
        data[rows] = (scale * qpsk_map(row_bits[rows])).reshape(-1, m)
    return frame


def draw_payload_bits(rng: np.random.Generator, params: WaveformParams, spec: RadComFrameSpec) -> np.ndarray:
    """Random payload of a RadCom frame: ``build_radcom_frame``'s bits, as uint8.

    One call, ``rng.integers(0, 2, size=2 * n_data * M)``, cast down.
    """
    count = 2 * spec.num_data_subchirps(params.N) * params.M
    return rng.integers(0, 2, size=count).astype(np.uint8)


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
    """OCDM transmitter: Fresnel-domain (N x M) frame to its sample stream (IDFnT, then CP).

    Equal to ``to_stream(idfnt_fast(frame), params)`` bit for bit: the IDFnT acts
    column by column, so each block of CHANNEL_BLOCK columns is transformed on
    its own and written straight into its symbols of the stream, CP rows copied
    from the block's tail.  Only the stream and one block's transform are built.
    """
    frame = np.asarray(frame)
    if frame.shape != (params.N, params.M):
        raise ValueError(f"frame must be {(params.N, params.M)}, got {frame.shape}")
    n, n_cp = params.N, params.N_CP
    stream = np.empty(params.stream_len, dtype=np.complex128)
    symbols = stream.reshape((params.symbol_len, params.M), order="F")  # a view
    for start in range(0, params.M, CHANNEL_BLOCK):
        block = slice(start, start + CHANNEL_BLOCK)
        time_block = idfnt_fast(frame[:, block])
        symbols[:n_cp, block] = time_block[n - n_cp :]
        symbols[n_cp:, block] = time_block
    return stream
