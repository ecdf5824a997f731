"""Quick transform and property self-checks behind the CLI selftest command."""

from __future__ import annotations

import numpy as np

from .fresnel import dfnt_direct, dfnt_fast, idfnt_fast

__all__ = ["run_selftest"]


def run_selftest() -> list[tuple[str, bool, str]]:
    """Run every check; returns one (name, ok, detail) tuple per check, in order."""
    rng = np.random.default_rng(0)
    checks = []

    for n in (4, 64, 256):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        err = np.max(np.abs(dfnt_fast(idfnt_fast(x)) - x))
        checks.append((f"round trip N={n}", bool(err <= 1e-9), f"max err {err:.2e}"))

    x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    err = np.max(np.abs(dfnt_fast(x) - dfnt_direct(x)))
    checks.append(("fast vs direct N=64", bool(err <= 1e-9), f"max err {err:.2e}"))

    n = 64
    X = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    h = np.zeros(n, dtype=complex)
    h[:2] = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    want = np.fft.ifft(np.fft.fft(X) * np.fft.fft(h))
    got = dfnt_fast(np.fft.ifft(np.fft.fft(idfnt_fast(X)) * np.fft.fft(h)))
    err = np.max(np.abs(got - want))
    checks.append(("convolution theorem N=64", bool(err <= 1e-9), f"max err {err:.2e}"))

    k = np.arange(n)
    for k_delta in (-5, 1, 17):
        shifted = np.roll(X, k_delta) * np.exp(
            1j * np.pi / n * (2 * k * k_delta - k_delta**2)
        )
        got = dfnt_fast(np.exp(2j * np.pi * k_delta * k / n) * idfnt_fast(X))
        err = np.max(np.abs(got - shifted))
        checks.append((f"frequency-shift theorem k_delta={k_delta}", bool(err <= 1e-9), f"max err {err:.2e}"))

    return checks
