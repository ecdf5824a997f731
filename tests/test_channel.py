"""Radar/comm channel models against brute-force and closed-form oracles."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from ocdm_radar.channel import (
    _NOISE_CHUNK,
    SUM_LEAF,
    CommChannelConfig,
    _add_awgn,
    _mean_power,
    Target,
    apply_comm_channel,
    apply_shift_channel,
    cfr_from_cir,
    load_cfr_csv,
    normalize_target,
    pairwise_sum,
    two_tap_tilt_cir,
)
from ocdm_radar.framing import CHANNEL_BLOCK, WaveformParams, build_pilot_frame, from_stream, to_stream
from ocdm_radar.fresnel import dfnt_fast, idfnt_fast
from ocdm_radar.rxproc import receive_frame
from reference import biased_cir_from_shifts, dirichlet_kernel, ideal_cir_from_shifts


def pilot_stream(params):
    return to_stream(idfnt_fast(build_pilot_frame(params)), params)


def test_normalize_target_range():
    params = WaveformParams(N=2048, M=2, B=1e9, fc=79e9)
    n_delta, k_delta = normalize_target(Target(range_m=30.0), params)
    assert abs(n_delta - 200.0) < 1e-9
    assert k_delta == 0.0


def test_normalize_target_doppler_sign_and_magnitude():
    params = WaveformParams(N=2048, M=2, B=1e9, fc=79e9)
    _, k_delta = normalize_target(Target(range_m=0.0, velocity_mps=92.71), params)
    assert abs(abs(k_delta) - 0.1) < 1e-3
    assert k_delta < 0  # convention: positive velocity -> negative shift


def test_integer_delay_equals_circular_shift():
    params = WaveformParams(N=32, M=3)
    rng = np.random.default_rng(0)
    frame = rng.standard_normal((32, 3)) + 1j * rng.standard_normal((32, 3))
    stream = to_stream(frame, params)
    for n_delta in (0, 1, 5, 17, 31):
        out = apply_shift_channel(stream, params, [(float(n_delta), 0.0, 1.0)])
        want = to_stream(np.roll(frame, n_delta, axis=0), params)
        assert np.max(np.abs(out - want)) < 1e-10


def test_fractional_delay_matches_dirichlet_convolution():
    # Time-domain kernel identity: g_nu = (1/N) e^{-i pi (nu - nd)} D(nu - nd).
    params = WaveformParams(N=32, M=1)
    rng = np.random.default_rng(1)
    x = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    for n_delta in (0.5, 2.7, 13.25):
        nu = np.arange(32)
        kernel = (
            np.exp(-1j * np.pi * (nu - n_delta))
            * dirichlet_kernel(nu - n_delta, 32)
            / 32
        )
        want = np.fft.ifft(np.fft.fft(x) * np.fft.fft(kernel))
        got = apply_shift_channel(x, params, [(n_delta, 0.0, 1.0)])
        assert np.max(np.abs(got - want)) < 1e-11


def test_zero_targets_zero_output():
    params = WaveformParams(N=16, M=2)
    out = apply_shift_channel(pilot_stream(params), params, [])
    assert np.all(out == 0)


def test_range_ambiguity_rejected():
    params = WaveformParams(N=16, M=2, B=1e9, fc=79e9)
    # n_delta = 2 R B / c0 = 16 exactly at R = 2.4 m
    shifts = [(*normalize_target(Target(range_m=2.4), params), 1.0)]
    with pytest.raises(ValueError):
        apply_shift_channel(pilot_stream(params), params, shifts)


def test_brute_force_received_frame_oracle():
    # Term-by-term evaluation of the delayed+Doppler-shifted frame.
    params = WaveformParams(N=256, M=4)
    n_delta, k_delta = 50.0, 0.25
    stream = pilot_stream(params)
    got = apply_shift_channel(stream, params, [(n_delta, k_delta, 1.0)])

    x = idfnt_fast(build_pilot_frame(params))
    n_idx = np.arange(params.N)
    kernel = (
        np.exp(-1j * np.pi * (n_idx - n_delta))
        * dirichlet_kernel(n_idx - n_delta, params.N)
        / params.N
    )
    want = np.empty_like(x)
    for m in range(params.M):
        delayed = np.array(
            [np.sum(x[(n - n_idx) % params.N, m] * kernel) for n in n_idx]
        )
        phi = 2 * np.pi * k_delta * (m * params.N + n_idx) / params.N
        want[:, m] = delayed * np.exp(1j * phi)
    got_frame = from_stream(got, params)
    assert np.max(np.abs(got_frame - want)) < 1e-9


def test_multi_target_linearity():
    params = WaveformParams(N=64, M=4)
    stream = pilot_stream(params)
    shifts = [(10.0, 0.2, 1.0), (33.5, -0.4, 0.5 - 0.5j)]
    combined = apply_shift_channel(stream, params, shifts)
    separate = sum(apply_shift_channel(stream, params, [s]) for s in shifts)
    assert np.max(np.abs(combined - separate)) < 1e-10


def test_noise_determinism_and_snr():
    params = WaveformParams(N=64, M=32)
    stream = pilot_stream(params)
    shifts = [(5.0, 0.0, 1.0)]
    a = apply_shift_channel(stream, params, shifts, snr_db=10.0, rng_seed=123)
    b = apply_shift_channel(stream, params, shifts, snr_db=10.0, rng_seed=123)
    assert np.array_equal(a, b)
    clean = apply_shift_channel(stream, params, shifts)
    noise = a - clean
    measured = 10 * np.log10(np.mean(np.abs(clean) ** 2) / np.mean(np.abs(noise) ** 2))
    assert abs(measured - 10.0) < 0.5


def _stream_form_channel(stream, params, shifts):
    # Per target: delay the CP-free frame, re-serialize it (CP rebuilt from
    # the delayed tail), then apply the Doppler ramp over the whole stream.
    spectrum = np.fft.fft(from_stream(stream, params), axis=0)
    bins = np.fft.fftfreq(params.N, d=1.0 / params.N)
    i = np.arange(params.stream_len)
    received = np.zeros(params.stream_len, dtype=np.complex128)
    for n_delta, k_delta, amplitude in shifts:
        phase = np.exp(-2j * np.pi * bins * n_delta / params.N)
        s = to_stream(np.fft.ifft(spectrum * phase[:, None], axis=0), params)
        received += amplitude * s * np.exp(2j * np.pi * k_delta * i / params.N)
    return received


@pytest.mark.parametrize("n_cp", [0, 16])
def test_block_channel_matches_stream_form_cp_included(n_cp):
    # Every stream sample, CP rows included: a CP row carries e^{-2 pi i k_delta}
    # relative to its tail.  M leaves a partial last block.
    params = WaveformParams(N=64, M=CHANNEL_BLOCK + 3, N_CP=n_cp)
    rng = np.random.default_rng(7)
    frame = rng.standard_normal((params.N, params.M)) + 1j * rng.standard_normal((params.N, params.M))
    stream = to_stream(frame, params)
    shifts = [(3.3, 0.27, 0.8 - 0.3j), (17.6, -0.41, 0.2 + 0.1j), (40.25, 1.5, -0.5j)]
    want = _stream_form_channel(stream, params, shifts)
    got = apply_shift_channel(stream, params, shifts)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("shifts", [[], [(12.5, -0.3, 0.6 + 0.2j)]], ids=["no target", "one target"])
def test_noise_realization_is_pinned(shifts):
    # All real parts are drawn before all imaginary parts, as by one call each.
    params = WaveformParams(N=64, M=70, N_CP=8)
    stream = pilot_stream(params)
    snr_db, seed = 6.0, 42
    clean = apply_shift_channel(stream, params, shifts)
    reference = clean if shifts else stream
    sigma2 = np.mean(np.abs(reference) ** 2) * 10.0 ** (-snr_db / 10.0)
    rng = np.random.default_rng(seed)
    re = rng.standard_normal(clean.shape)
    im = rng.standard_normal(clean.shape)
    want = clean + np.sqrt(sigma2 / 2.0) * (re + 1j * im)
    got = apply_shift_channel(stream, params, shifts, snr_db=snr_db, rng_seed=seed)
    assert np.array_equal(got, want)


def _whole_stream_awgn(signal, snr_db, rng_seed, stream):
    # The noise as one stream-sized complex array, added at once.
    power = float(np.mean(np.abs(signal) ** 2))
    if power == 0.0:
        power = float(np.mean(np.abs(stream) ** 2))
    sigma2 = power * 10.0 ** (-snr_db / 10.0)
    rng = np.random.default_rng(rng_seed)
    noise = np.empty_like(signal)
    noise.real = rng.standard_normal(signal.shape)
    noise.imag = rng.standard_normal(signal.shape)
    noise *= np.sqrt(sigma2 / 2.0)
    return signal + noise


@pytest.mark.parametrize("zero_signal", [False, True], ids=["signal power", "tx power fallback"])
def test_chunked_awgn_equals_whole_stream_noise(zero_signal):
    # More than 2.5 noise chunks, so a full chunk, another and a partial one per part.
    size = 2 * _NOISE_CHUNK + _NOISE_CHUNK // 2 + 1001
    rng = np.random.default_rng(21)
    stream = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    signal = np.zeros(size, dtype=complex) if zero_signal else 0.3j * stream[::-1].copy()
    want = _whole_stream_awgn(signal, 7.5, 11, stream)
    _add_awgn(signal, 7.5, 11, float(np.mean(np.abs(stream) ** 2)))
    assert np.array_equal(signal, want)


@pytest.mark.parametrize(
    "size",
    [1, 7, 8, 127, 128, 129, SUM_LEAF - 1, SUM_LEAF, SUM_LEAF + 1, 2 * SUM_LEAF + 1001, 2560 * 512],
)
def test_pairwise_sum_is_numpys_bit_for_bit(size):
    # If numpy ever changes its reduction order, this is the alarm: the noise level
    # and the peak reports' floor are summed leaf by leaf in the order pinned here.
    rng = np.random.default_rng(size)
    x = (rng.standard_normal(size) + 1j * rng.standard_normal(size)) * 10.0 ** rng.uniform(-4, 4, size)
    assert _mean_power(x) == np.mean(np.abs(x) ** 2)
    values = np.abs(x)
    assert pairwise_sum(lambda start, stop: np.add.reduce(values[start:stop]), 0, size) == values.sum()


def test_pairwise_sum_of_an_image_with_a_zeroed_cell():
    rng = np.random.default_rng(8)
    image = rng.standard_normal((517, 389)) ** 2 * 10.0 ** rng.uniform(-4, 4, (517, 389))
    image[301, 77] = 0.0
    cells = image.reshape(-1)
    assert pairwise_sum(lambda start, stop: np.add.reduce(cells[start:stop]), 0, cells.size) == image.sum()


@pytest.mark.parametrize(
    "shifts, snr_db",
    [
        ([(3.3, 0.27, 0.8 - 0.3j), (40.25, -1.5, 0.2j)], 9.0),
        ([(3.3, 0.27, 0.8 - 0.3j), (40.25, -1.5, 0.2j)], None),
        ([], 9.0),
        ([(12.0, 0.5, 0.0)], 9.0),
    ],
    ids=["noisy", "noise-free", "no target", "zero amplitude"],
)
def test_in_place_channel_equals_out_of_place(shifts, snr_db):
    # out=stream: every block is read before it is overwritten, and the zero-target
    # noise is referenced to the transmit power measured before the first write.
    params = WaveformParams(N=64, M=2 * CHANNEL_BLOCK + 5, N_CP=16)
    stream = pilot_stream(params) + 0.1 * to_stream(np.eye(params.N, params.M), params)
    want = apply_shift_channel(stream, params, shifts, snr_db, rng_seed=5)
    buffer = stream.copy()
    got = apply_shift_channel(buffer, params, shifts, snr_db, rng_seed=5, out=buffer)
    assert got is buffer
    assert got.tobytes() == want.tobytes()


def _per_target_echoes(stream, params, shifts):
    # The block channel's per-target formula, kept as its byte reference: per block of
    # CHANNEL_BLOCK symbols and per target, to_stream(ifft(spectrum * phase)), times the
    # in-symbol factor, times the per-symbol factor, added onto zeros.
    n, rows = params.N, params.symbol_len
    frame = from_stream(stream, params)
    bins = np.fft.fftfreq(n, d=1.0 / n)
    r, m = np.arange(rows), np.arange(params.M)
    received = np.zeros((rows, params.M), dtype=np.complex128, order="F")
    for start in range(0, params.M, CHANNEL_BLOCK):
        stop = min(start + CHANNEL_BLOCK, params.M)
        spectrum = np.fft.fft(frame[:, start:stop], axis=0)
        for n_delta, k_delta, amplitude in shifts:
            phase = np.exp(-2j * np.pi * bins * n_delta / n)[:, None]
            s = to_stream(np.fft.ifft(spectrum * phase, axis=0), replace(params, M=stop - start))
            s = s.reshape((rows, stop - start), order="F")
            s *= np.exp(2j * np.pi * k_delta * r / n)[:, None]
            s *= (complex(amplitude) * np.exp(2j * np.pi * k_delta * m * rows / n))[start:stop]
            received[:, start:stop] += s
    return received.ravel(order="F")


@pytest.mark.parametrize("n_cp", [0, 24])
@pytest.mark.parametrize("snr_db", [None, 8.0], ids=["noise-free", "noisy"])
def test_shift_channel_equals_the_per_target_formula(n_cp, snr_db):
    params = WaveformParams(N=64, M=2 * CHANNEL_BLOCK + 5, N_CP=n_cp)
    rng = np.random.default_rng(n_cp)
    frame = rng.standard_normal((params.N, params.M)) + 1j * rng.standard_normal((params.N, params.M))
    stream = to_stream(frame, params)
    shifts = [(3.3, 0.27, 0.8 - 0.3j), (17.6, -0.41, 0.2 + 0.1j), (40.25, 1.5, -0.5j)]
    want = _per_target_echoes(stream, params, shifts)
    if snr_db is not None:
        want = _whole_stream_awgn(want, snr_db, 13, stream)
    assert apply_shift_channel(stream, params, shifts, snr_db, rng_seed=13).tobytes() == want.tobytes()


@pytest.mark.parametrize("in_place", [False, True], ids=["out of place", "in place"])
def test_cancelling_targets_leave_the_zero_target_noise(in_place):
    # Opposite amplitudes at one (n_delta, k_delta) cancel exactly: the noise is then
    # referenced to the transmit power, measured before the stream is overwritten.
    params = WaveformParams(N=64, M=CHANNEL_BLOCK + 5, N_CP=16)
    stream = pilot_stream(params)
    want = apply_shift_channel(stream, params, [], snr_db=9.0, rng_seed=5)
    shifts = [(12.5, 0.3, 0.7 - 0.2j), (12.5, 0.3, -0.7 + 0.2j)]
    buffer = stream.copy()
    got = apply_shift_channel(buffer, params, shifts, 9.0, rng_seed=5, out=buffer if in_place else None)
    assert got.tobytes() == want.tobytes()


def test_noisy_echo_silenced_by_a_zero_stream_is_rejected():
    # Distinct shifts cannot cancel, so no transmit power is measured to reference the noise to.
    params = WaveformParams(N=16, M=3, N_CP=4)
    with pytest.raises(ValueError, match="echo is silent"):
        apply_shift_channel(np.zeros(params.stream_len, complex), params, [(1.0, 0.0, 1.0)], snr_db=10.0)


def test_shift_channel_out_must_fit_the_stream():
    params = WaveformParams(N=16, M=3, N_CP=4)
    stream = pilot_stream(params)
    short, real = np.empty(params.stream_len - 1, complex), np.empty(params.stream_len)
    strided = np.empty(2 * params.stream_len, complex)[::2]
    for out in (short, real, strided):
        with pytest.raises(ValueError, match="out must be"):
            apply_shift_channel(stream, params, [(1.0, 0.0, 1.0)], out=out)


def test_comm_channel_equals_out_of_place_product():
    params = WaveformParams(N=64, M=5, N_CP=8)
    rng = np.random.default_rng(12)
    stream = rng.standard_normal(params.stream_len) + 1j * rng.standard_normal(params.stream_len)
    cfg = CommChannelConfig(cir=np.array([0.9 + 0.1j, 0.0, -0.4j]), snr_db=12.0, rng_seed=5)
    spectrum = np.fft.fft(from_stream(stream, params), axis=0) * np.fft.fft(cfg.cir, params.N)[:, None]
    clean = to_stream(np.fft.ifft(spectrum, axis=0), params)
    want = _whole_stream_awgn(clean, cfg.snr_db, cfg.rng_seed, stream)
    assert np.array_equal(apply_comm_channel(stream, cfg, params), want)


@pytest.mark.parametrize("snr_db", [None, 12.0], ids=["noise-free", "noisy"])
def test_block_comm_channel_in_place_equals_the_whole_frame_product(snr_db):
    # M = 130 leaves a partial last block; out=stream overwrites each block after reading it.
    params = WaveformParams(N=64, M=2 * CHANNEL_BLOCK + 2, N_CP=8)
    rng = np.random.default_rng(31)
    stream = rng.standard_normal(params.stream_len) + 1j * rng.standard_normal(params.stream_len)
    cfg = CommChannelConfig(cir=np.array([0.9 + 0.1j, 0.0, -0.4j, 0.05]), snr_db=snr_db, rng_seed=5)
    spectrum = np.fft.fft(from_stream(stream, params), axis=0) * cfr_from_cir(cfg.cir, params.N)[:, None]
    want = to_stream(np.fft.ifft(spectrum, axis=0), params)
    if snr_db is not None:
        want = _whole_stream_awgn(want, snr_db, cfg.rng_seed, stream)
    got = apply_comm_channel(stream, cfg, params, out=stream)
    assert got is stream
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("d", [0, 3, 8])
@pytest.mark.parametrize("snr_db", [None, 11.0], ids=["noise-free", "noisy"])
def test_comm_channel_with_a_delta_cir_is_the_shift_channel(d, snr_db):
    # The CIR delta[n - d] is the one zero-Doppler, unit-gain path of a target at n_delta = d.
    params = WaveformParams(N=64, M=CHANNEL_BLOCK + 3, N_CP=8)
    rng = np.random.default_rng(d)
    stream = rng.standard_normal(params.stream_len) + 1j * rng.standard_normal(params.stream_len)
    cir = np.zeros(d + 1, dtype=complex)
    cir[d] = 1.0
    got = apply_comm_channel(stream, CommChannelConfig(cir=cir, snr_db=snr_db, rng_seed=6), params)
    want = apply_shift_channel(stream, params, [(d, 0.0, 1.0)], snr_db, rng_seed=6)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_comm_channel_out_must_fit_the_stream():
    params = WaveformParams(N=16, M=3, N_CP=4)
    stream = pilot_stream(params)
    short, real = np.empty(params.stream_len - 1, complex), np.empty(params.stream_len)
    strided = np.empty(2 * params.stream_len, complex)[::2]
    for out in (short, real, strided):
        with pytest.raises(ValueError, match="out must be"):
            apply_comm_channel(stream, CommChannelConfig(cir=np.ones(1)), params, out=out)


@pytest.mark.parametrize("in_place", [False, True], ids=["out of place", "in place"])
def test_comm_echo_silenced_by_a_zero_cfr_bin_gets_the_tx_power_noise(in_place):
    # CIR [1, -1] nulls bin 0, the only bin of a constant symbol: the echo is exactly
    # zero, and its noise is referenced to the transmit power, measured before any write.
    params = WaveformParams(N=64, M=CHANNEL_BLOCK + 3, N_CP=8)
    stream = np.full(params.stream_len, 0.6 - 0.8j)
    cfg = CommChannelConfig(cir=np.array([1.0, -1.0]), snr_db=9.0, rng_seed=4)
    assert not apply_comm_channel(stream, replace(cfg, snr_db=None), params).any()
    want = _whole_stream_awgn(np.zeros(params.stream_len, complex), cfg.snr_db, cfg.rng_seed, stream)
    buffer = stream.copy()
    got = apply_comm_channel(buffer, cfg, params, out=buffer if in_place else None)
    assert got.tobytes() == want.tobytes()


def test_noisy_comm_channel_leaves_a_zero_stream_zero():
    # No CFR bin is zero, so only a zero stream is silent, and its power 0.0 sets no noise.
    params = WaveformParams(N=16, M=3, N_CP=4)
    cfg = CommChannelConfig(cir=np.array([0.9 + 0.1j, -0.4j]), snr_db=10.0)
    got = apply_comm_channel(np.zeros(params.stream_len, complex), cfg, params)
    assert np.array_equal(got, np.zeros(params.stream_len, complex))


def test_comm_channel_memory_is_bounded():
    # In place, beside the stream: the echo pass's three block buffers (N x CHANNEL_BLOCK
    # spectrum and body, N_CP x CHANNEL_BLOCK CP), the noise level's leaf buffer and the
    # noise chunk, measured 0.19x the stream bytes; a half-stream power array, a
    # frame-sized spectrum or a second stream would exceed the bound.
    params = WaveformParams(N=256, M=1024, N_CP=16)
    stream = pilot_stream(params)
    cfg = CommChannelConfig(cir=two_tap_tilt_cir(10.0), snr_db=20.0, rng_seed=3)
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        apply_comm_channel(stream, cfg, params, out=stream)
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    assert peak <= 0.3 * stream.nbytes


@pytest.mark.parametrize("n_cp", [0, 16])
def test_shift_channel_memory_is_bounded(n_cp):
    # The received buffer and block buffers: measured 1.1x the stream bytes, against
    # 1.6x with a float power array for the noise level, 2.6-2.8x with a stream-sized
    # noise buffer and 6.4-6.5x when each target built a stream-length Doppler ramp.
    params = WaveformParams(N=256, M=1024, N_CP=n_cp)
    stream = pilot_stream(params)
    shifts = [(10.5, 0.2, 1.0), (60.25, -0.35, 0.3j), (130.0, 0.05, 0.2 - 0.1j)]
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        apply_shift_channel(stream, params, shifts, snr_db=15.0, rng_seed=3)
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    assert peak <= 2.0 * stream.nbytes


@pytest.mark.parametrize("n_cp", [0, 16])
def test_noisy_shift_channel_builds_no_power_array(n_cp):
    # The noise level is summed a leaf at a time: beside the received buffer only block
    # buffers; a half-stream float power array would exceed the quarter-stream allowance.
    params = WaveformParams(N=256, M=1024, N_CP=n_cp)
    stream = pilot_stream(params)
    shifts = [(10.5, 0.2, 1.0), (60.25, -0.35, 0.3j)]
    apply_shift_channel(stream, params, shifts, snr_db=15.0, rng_seed=3)  # FFT caches, outside the count
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        apply_shift_channel(stream, params, shifts, snr_db=15.0, rng_seed=3)
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * stream.nbytes


def test_ideal_oracle_integer_delta():
    params = WaveformParams(N=16, M=3)
    cir = ideal_cir_from_shifts([(3.0, 0.0, 1.0)], params)
    want = np.zeros((16, 3), dtype=complex)
    want[3, :] = 1.0
    assert np.max(np.abs(cir - want)) < 1e-12


def test_ideal_oracle_zero_targets():
    params = WaveformParams(N=16, M=3)
    assert np.all(ideal_cir_from_shifts([], params) == 0)


def test_ideal_oracle_linearity():
    params = WaveformParams(N=32, M=2)
    shifts = [(4.5, 0.3, 1.0), (9.25, -0.1, 0.3 + 0.1j)]
    combined = ideal_cir_from_shifts(shifts, params)
    separate = sum(ideal_cir_from_shifts([s], params) for s in shifts)
    assert np.max(np.abs(combined - separate)) < 1e-12


def test_biased_oracle_specializations():
    params = WaveformParams(N=64, M=2)
    # k_delta = 0, integer n_delta: ideal column up to the global phase e^{i pi n_delta}
    for n_delta in (6.0, 7.0):
        biased = biased_cir_from_shifts([(n_delta, 0.0, 1.0)], params)
        ideal = ideal_cir_from_shifts([(n_delta, 0.0, 1.0)], params)
        assert np.max(np.abs(biased - ideal * np.exp(1j * np.pi * n_delta))) < 1e-10
    # integer k_delta = 1 displaces the peak by one range bin
    biased = biased_cir_from_shifts([(50.0, 1.0, 1.0)], params)
    assert np.argmax(np.abs(biased[:, 0])) == 51


def test_biased_oracle_matches_pipeline_fractional():
    params = WaveformParams(N=64, M=4)
    shifts = [(20.0, 0.3, 1.0)]
    rx = apply_shift_channel(pilot_stream(params), params, shifts)
    got = receive_frame(rx, params)
    want = biased_cir_from_shifts(shifts, params)
    assert np.max(np.abs(got - want)) < 1e-8


def test_doppler_only_channel_obeys_frequency_shift_theorem():
    # H=1, n_delta=0, integer k_delta: uncorrected receive frame equals the
    # shifted/phase-rotated pilot column exactly.
    params = WaveformParams(N=32, M=3)
    k_delta = 5.0
    rx = apply_shift_channel(pilot_stream(params), params, [(0.0, k_delta, 1.0)])
    frame = dfnt_fast(from_stream(rx, params))
    pilot = build_pilot_frame(params)
    k = np.arange(params.N)
    phase = np.exp(1j * np.pi / params.N * (2 * k * k_delta - k_delta**2))
    m = np.arange(params.M)
    phi_m = np.exp(2j * np.pi * k_delta * m * params.N / params.N)
    want = np.roll(pilot, int(k_delta), axis=0) * phase[:, None] * phi_m[None, :]
    assert np.max(np.abs(frame - want)) < 1e-10


def test_comm_channel_identity():
    params = WaveformParams(N=32, M=4, N_CP=4)
    rng = np.random.default_rng(9)
    stream = rng.standard_normal(params.stream_len) + 1j * rng.standard_normal(params.stream_len)
    cfg = CommChannelConfig(cir=np.ones(1, dtype=complex))
    out = apply_comm_channel(stream, cfg, params)
    # CP is rebuilt from the filtered useful part; with identity filtering the
    # stream comes back with each symbol's own tail as its CP.
    assert np.max(np.abs(out - to_stream(from_stream(stream, params), params))) < 1e-12


def test_comm_channel_matches_time_domain_convolution():
    params = WaveformParams(N=64, M=3, N_CP=8)
    rng = np.random.default_rng(10)
    useful = rng.standard_normal((64, 3)) + 1j * rng.standard_normal((64, 3))
    stream = to_stream(useful, params)
    cir = np.array([0.9 + 0.1j, -0.4j])
    out = apply_comm_channel(stream, CommChannelConfig(cir=cir), params)
    out_useful = from_stream(out, params)
    for m in range(3):
        want = cir[0] * useful[:, m] + cir[1] * np.roll(useful[:, m], 1)
        assert np.max(np.abs(out_useful[:, m] - want)) < 1e-10


def test_comm_channel_delay_spread_flagged():
    # CommChannelConfig reports the delay of its last tap; radcom checks it against its
    # N_CP, and apply_comm_channel leaves that rule to its caller.  Taps below 1e-12 of
    # the strongest do not count.
    cir = np.zeros(8, dtype=complex)
    cir[0] = 1.0
    cir[5] = 0.5
    cir[7] = 1e-13
    assert CommChannelConfig(cir=cir).delay_spread == 5


@pytest.mark.parametrize(
    "cir, reason",
    [(np.zeros(4), "all zero"), ([1.0, np.nan], "not finite"), ([np.inf, 0.5], "not finite")],
)
def test_comm_channel_config_rejects_degenerate_cir(cir, reason):
    with pytest.raises(ValueError, match=reason):
        CommChannelConfig(cir=cir)


def test_two_tap_tilt_cir_span():
    cir = two_tap_tilt_cir(10.0)
    cfr = cfr_from_cir(cir, 256)
    span = 20 * np.log10(np.abs(cfr).max() / np.abs(cfr).min())
    assert abs(span - 10.0) < 1e-9


def test_load_cfr_csv(tmp_path):
    n = 8
    cfr = np.exp(2j * np.pi * np.arange(n) / n)
    rows = np.column_stack([np.arange(n), cfr.real, cfr.imag])
    path = tmp_path / "cfr.csv"
    np.savetxt(path, rows, delimiter=",")
    loaded = load_cfr_csv(path, n)
    assert np.max(np.abs(loaded - cfr)) < 1e-12
    with pytest.raises(ValueError):
        load_cfr_csv(path, 16)


CFR_ROWS = [f"{k},1,0" for k in range(8)]


@pytest.mark.parametrize(
    "rows, reason",
    [
        (CFR_ROWS[:2] + ["2,nan,0"] + CFR_ROWS[3:], "non-finite"),
        ([f"{k},0,0" for k in range(8)], "all zero"),
        (["0.5,1,0"] + CFR_ROWS[1:], "bin index 0.5 is not an integer"),
        (CFR_ROWS + ["3,1,0"], "bin index 3 is listed twice"),
        (CFR_ROWS[:4] + ["9,1,0"] + CFR_ROWS[5:], "bin index 9 outside"),
    ],
)
def test_load_cfr_csv_rejects_hostile_rows(tmp_path, rows, reason):
    path = tmp_path / "cfr.csv"
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(ValueError, match=reason):
        load_cfr_csv(path, 8)
