"""Transform-pair correctness against per-definition oracles."""

import time

import numpy as np
import pytest

from ocdm_radar.fresnel import (
    _gammas,
    dfnt_direct,
    dfnt_fast,
    dirichlet_kernel,
    idfnt_fast,
    phase_fold_correct,
)
from reference import idfnt_direct


def random_complex(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def test_dfnt_delta_n4():
    y = dfnt_direct(np.array([1.0, 0.0, 0.0, 0.0], dtype=complex))
    expected = np.array([np.exp(-1j * np.pi / 4), 1.0, np.exp(1j * 3 * np.pi / 4), 1.0])
    assert np.max(np.abs(y - expected)) < 1e-12


def test_dfnt_zero_input():
    assert np.all(dfnt_direct(np.zeros(4, dtype=complex)) == 0)


def test_idfnt_delta_constant_envelope():
    n = 16
    x = idfnt_direct(np.eye(n, 1, dtype=complex).ravel())
    k = np.arange(n)
    expected = np.exp(1j * np.pi / 4) * np.exp(-1j * np.pi * k * k / n) / n
    assert np.max(np.abs(x - expected)) < 1e-12
    assert np.max(np.abs(np.abs(x) - 1.0 / n)) < 1e-12


@pytest.mark.parametrize("n", [4, 8, 64, 256])
def test_fast_matches_direct(n):
    rng = np.random.default_rng(n)
    x = random_complex(rng, n)
    assert np.max(np.abs(dfnt_fast(x) - dfnt_direct(x))) < 1e-9
    assert np.max(np.abs(idfnt_fast(x) - idfnt_direct(x))) < 1e-9


def test_idfnt_fast_matches_direct_n16():
    rng = np.random.default_rng(16)
    x = random_complex(rng, 16)
    assert np.max(np.abs(idfnt_fast(x) - idfnt_direct(x))) < 1e-10


@pytest.mark.parametrize("n", [2, 4, 6, 8, 64, 250, 256, 1000, 2048, 4096])
def test_round_trip(n):
    rng = np.random.default_rng(n)
    x = random_complex(rng, n)
    assert np.max(np.abs(dfnt_fast(idfnt_fast(x)) - x)) < 1e-9
    assert np.max(np.abs(idfnt_fast(dfnt_fast(x)) - x)) < 1e-9


def test_direct_round_trip_small():
    rng = np.random.default_rng(7)
    x = random_complex(rng, 8)
    assert np.max(np.abs(dfnt_direct(idfnt_direct(x)) - x)) < 1e-10


def test_matrix_input_transforms_columns():
    rng = np.random.default_rng(3)
    frame = random_complex(rng, (32, 5))
    got = dfnt_fast(frame)
    for m in range(5):
        assert np.max(np.abs(got[:, m] - dfnt_fast(frame[:, m]))) < 1e-12


@pytest.mark.parametrize("n", [0, 3, 7, -2])
def test_odd_or_invalid_length_rejected(n):
    with pytest.raises(ValueError):
        dfnt_direct(np.zeros(max(n, 1), dtype=complex) if n > 0 else np.zeros(0))
    if n > 0:
        with pytest.raises(ValueError):
            dfnt_fast(np.zeros(n, dtype=complex))
        with pytest.raises(ValueError):
            idfnt_fast(np.zeros(n, dtype=complex))


def test_gamma_vector_properties():
    g = _gammas(8)[0]
    assert g[0] == 1.0
    assert np.max(np.abs(np.abs(g) - 1.0)) < 1e-15


@pytest.mark.parametrize("n", [8, 2048])
def test_gamma_is_built_once_per_length_and_read_only(n):
    k = np.arange(n, dtype=np.int64)
    fresh = np.exp(-1j * np.pi * ((k * k) % (2 * n)) / n)
    assert _gammas(n) is _gammas(n)
    assert _gammas(n)[0].tobytes() == fresh.tobytes()
    assert _gammas(n)[1].tobytes() == np.conj(fresh).tobytes()
    for constant in _gammas(n):
        with pytest.raises(ValueError, match="read-only"):
            constant[0] = 0.0


def test_energy_scaling():
    rng = np.random.default_rng(11)
    x = random_complex(rng, 128)
    ratio = np.sum(np.abs(dfnt_fast(x)) ** 2) / np.sum(np.abs(x) ** 2)
    assert abs(ratio - 128) < 1e-9


def test_fast_speedup_over_direct():
    n = 2048
    rng = np.random.default_rng(n)
    x = random_complex(rng, n)
    dfnt_fast(x)  # warm-up

    t0 = time.perf_counter()
    dfnt_direct(x)
    direct_time = time.perf_counter() - t0

    t0 = time.perf_counter()
    for _ in range(10):
        dfnt_fast(x)
    fast_time = (time.perf_counter() - t0) / 10

    assert direct_time / fast_time > 100


def test_phase_fold_rows():
    frame = np.ones((4, 3), dtype=complex)
    out = phase_fold_correct(frame)
    assert np.all(out[0] == 1) and np.all(out[2] == 1)
    assert np.all(out[1] == -1) and np.all(out[3] == -1)


def test_phase_fold_is_in_place_on_complex128_only():
    rng = np.random.default_rng(6)
    frame = random_complex(rng, (9, 4))
    want = np.where((np.arange(9) % 2 == 1)[:, None], -frame, frame)
    assert phase_fold_correct(frame) is frame
    assert frame.tobytes() == want.tobytes()
    for other in (np.ones((4, 3)), np.ones((4, 3), dtype=np.complex64), [[1j], [1j]]):
        with pytest.raises(TypeError, match="complex128"):
            phase_fold_correct(other)


def test_phase_fold_involution():
    # The fold works in place, so a copy is folded twice and compared with the original.
    rng = np.random.default_rng(5)
    frame = random_complex(rng, (16, 4))
    folded = phase_fold_correct(frame.copy())
    assert not np.array_equal(folded, frame)
    assert np.array_equal(phase_fold_correct(folded), frame)


def test_dirichlet_limit_and_zero():
    assert dirichlet_kernel(0.0, 8) == 8
    assert abs(dirichlet_kernel(4.0, 8)) < 1e-12
    assert abs(dirichlet_kernel(8.0, 8) - 8) < 1e-12
    assert abs(dirichlet_kernel(-16.0, 8) - 8) < 1e-12


def test_dirichlet_matches_explicit_sum():
    n = 8
    for a in (0.5, -3.3, 1.0, 7.9, 0.1):
        explicit = sum(np.exp(2j * np.pi * a * l / n) for l in range(n))
        assert abs(dirichlet_kernel(a, n) - explicit) < 1e-12


def test_dirichlet_near_singularity_stable():
    val = dirichlet_kernel(1e-12, 64)
    assert abs(val - 64) < 1e-6
    val = dirichlet_kernel(64 - 1e-12, 64)
    assert abs(val - 64) < 1e-6


def test_dirichlet_invalid_length():
    with pytest.raises(ValueError):
        dirichlet_kernel(1.0, 0)


def test_convolution_theorem():
    n = 64
    rng = np.random.default_rng(19)
    for taps in (2, 5, n):
        x_fres = random_complex(rng, n)
        h = np.zeros(n, dtype=complex)
        h[:taps] = random_complex(rng, taps)
        time_domain = np.fft.ifft(np.fft.fft(idfnt_fast(x_fres)) * np.fft.fft(h))
        got = dfnt_fast(time_domain)
        want = np.fft.ifft(np.fft.fft(x_fres) * np.fft.fft(h))
        assert np.max(np.abs(got - want)) < 1e-9


def test_frequency_shift_theorem_integer():
    n = 64
    rng = np.random.default_rng(23)
    x_fres = random_complex(rng, n)
    time_domain = idfnt_fast(x_fres)
    idx = np.arange(n)
    for k_delta in (-32, -7, 0, 1, 13, 31):
        got = dfnt_fast(time_domain * np.exp(2j * np.pi * k_delta * idx / n))
        want = np.roll(x_fres, k_delta) * np.exp(
            1j * np.pi / n * (2 * idx * k_delta - k_delta**2)
        )
        assert np.max(np.abs(got - want)) < 1e-9


@pytest.mark.parametrize("shape", [(64,), (256, 7), (2048, 133)], ids=["vector", "frame", "wide frame"])
def test_fast_transforms_equal_their_out_of_place_expressions(shape):
    # One output array goes through fft, the Gamma multiply, ifft and the scaling;
    # the result must be the expression's bit for bit (Gamma stays the left operand).
    rng = np.random.default_rng(shape[0])
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    n = shape[0]
    gamma = _gammas(n)[0] if x.ndim == 1 else _gammas(n)[0][:, None]
    forward = np.sqrt(n) * np.fft.ifft(gamma * np.fft.fft(x, axis=0), axis=0)
    inverse = np.fft.ifft(np.conj(gamma) * np.fft.fft(x, axis=0), axis=0) / np.sqrt(n)
    assert dfnt_fast(x).tobytes() == forward.tobytes()
    assert idfnt_fast(x).tobytes() == inverse.tobytes()
