"""Discrete Fresnel transform pair and related kernels for OCDM processing.

The forward transform maps a discrete-time OCDM symbol onto its subchirp
coefficients, the inverse builds the time-domain symbol from them:

    forward:  Y_k = e^{-i pi/4}       sum_n y_n e^{ i pi (n - k)^2 / N}
    inverse:  x_n = e^{+i pi/4} (1/N) sum_k X_k e^{-i pi (n - k)^2 / N}

Scaling keeps the 1/N on the inverse only, so ``dfnt(idfnt(X)) == X`` and the
forward transform grows total signal energy by a factor N.  White Gaussian
noise is therefore *not* variance-preserving under this convention (a unitary
variant would need 1/sqrt(N) on both sides).  The SNR needs no correction for
it: each channel adds its noise at its SNR below the echo it adds it to.  The
radar channel's echo is the time-domain stream, which the receive DFnT scales
alike with its noise; the RadCom comm channel's is the Fresnel frame itself.

All transforms require an even length: the fast paths factor the chirp kernel
as DFT -> quadratic-phase multiply -> IDFT, which relies on the kernel being
N-periodic, true only for even N.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "dfnt_direct",
    "dfnt_fast",
    "idfnt_fast",
    "phase_fold_correct",
]


def _check_even_length(n: int) -> None:
    if n <= 0 or n % 2:
        raise ValueError(f"transform length must be a positive even integer, got {n}")


def _length(x: np.ndarray) -> int:
    if x.ndim not in (1, 2):
        raise ValueError("expected a vector or a (rows x symbols) matrix")
    return x.shape[0]


@lru_cache(maxsize=8)
def _gammas(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gamma, the length-n vector exp(-i pi k^2 / n), and its conjugate; built on the first
    call for n and read-only, shared by every transform of length n."""
    _check_even_length(n)
    k = np.arange(n, dtype=np.int64)
    # k^2 mod 2N keeps the phase argument small; exact for even N.
    q = (k * k) % (2 * n)
    gamma = np.exp(-1j * np.pi * q / n)
    conj = np.conj(gamma)
    gamma.flags.writeable = conj.flags.writeable = False
    return gamma, conj


def _chirp_kernel(n: int) -> np.ndarray:
    idx = np.arange(n, dtype=np.int64)
    diff = idx[:, None] - idx[None, :]
    q = (diff * diff) % (2 * n)
    return np.exp(1j * np.pi * q / n)


def dfnt_direct(x: np.ndarray) -> np.ndarray:
    """Forward Fresnel transform by per-definition O(N^2) summation.

    Reference implementation used as the oracle for the fast path. Operates
    along axis 0, so an (N x M) frame is transformed column by column.
    """
    x = np.asarray(x, dtype=np.complex128)
    n = _length(x)
    _check_even_length(n)
    kernel = _chirp_kernel(n)
    return np.exp(-1j * np.pi / 4) * (kernel @ x)


def dfnt_fast(x: np.ndarray) -> np.ndarray:
    """Forward Fresnel transform in O(N log N).

    Factorization: ``sqrt(N) * IDFT( Gamma * DFT(x) )``.  The chirp kernel is
    a circulant for even N, and the DFT of ``exp(i pi j^2/N)`` equals
    ``sqrt(N) e^{i pi/4} Gamma`` by the quadratic Gauss sum, which gives the
    receiver structure: DFT, element-wise Gamma multiply, IDFT.
    """
    out = _chirp_filter(x, conjugate=False)
    return np.multiply(np.sqrt(out.shape[0]), out, out=out)


def idfnt_fast(x: np.ndarray) -> np.ndarray:
    """Inverse Fresnel transform in O(N log N); exact inverse of dfnt_fast."""
    out = _chirp_filter(x, conjugate=True)
    out /= np.sqrt(out.shape[0])
    return out


def _chirp_filter(x: np.ndarray, conjugate: bool) -> np.ndarray:
    """IDFT(g * DFT(x)) along axis 0, g = Gamma or its conjugate, in one new F-ordered array.

    The DFT writes its output column-contiguous whatever the layout of x, so
    the multiply and the IDFT run in place on contiguous columns: on a
    C-ordered frame block they would run strided, about twice as slow at
    N = 2048.
    """
    x = np.asarray(x, dtype=np.complex128)
    gamma = _gammas(_length(x))[conjugate]
    if x.ndim == 2:
        gamma = gamma[:, None]
    out = np.fft.fft(x, axis=0, out=np.empty(x.shape, dtype=np.complex128, order="F"))
    np.multiply(gamma, out, out=out)
    return np.fft.ifft(out, axis=0, out=out)


def phase_fold_correct(y: np.ndarray) -> np.ndarray:
    """Undo the N/2 discrete-frequency fold of a received Fresnel frame, in place.

    Multiplies element (k, m) of the complex128 array y by e^{i pi k}, i.e.
    flips the sign of odd rows, and returns y.  The operation is its own
    inverse. It converts the baseband-folded channel estimate into the plain
    interpolation-kernel form, so fractional-delay peaks reconstruct at their
    true position.
    """
    if not isinstance(y, np.ndarray) or y.dtype != np.complex128:
        raise TypeError("the fold is undone in place on a complex128 array")
    y[1::2] *= -1.0
    return y

