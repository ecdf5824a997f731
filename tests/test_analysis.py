"""Range-cut metrics, Doppler-tolerance sweep, PAPR statistics."""

import math
import tracemalloc

import numpy as np
import pytest

from ocdm_radar import analysis
from ocdm_radar.analysis import (
    PAPR_THRESHOLDS_DB,
    doppler_tolerance_sweep,
    mimo_leakage_db,
    ofdm_symbol_builder,
    papr_ccdf,
    pilot_symbol_builder,
    radcom_symbol_builder,
    range_cut_metrics,
    received_frame,
)
from ocdm_radar.channel import apply_shift_channel
from ocdm_radar.framing import (
    CHANNEL_BLOCK,
    MimoConfig,
    RadComFrameSpec,
    WaveformParams,
    build_mimo_pilot_frame,
    build_pilot_frame,
    build_radcom_frame,
    build_superposed_pilot_frame,
    modulate,
)
from ocdm_radar.fresnel import idfnt_fast
from ocdm_radar.rxproc import doppler_process, receive_frame
from reference import biased_cir_from_shifts, single_point_image

SHIFTS = [(10.5, 0.2, 1.0), (60.25, -0.35, 0.3j), (130.0, 0.05, 0.2 - 0.1j)]
FOUR_SLICES = [slice(0, 64), slice(64, 128), slice(128, 192), slice(192, 256)]  # of N = 256 rows


@pytest.mark.parametrize(
    "rows",
    [[slice(None)], [slice(0, 24)], FOUR_SLICES],
    ids=["all rows", "radar rows", "four slices"],
)
def test_radar_image_equals_whole_frame_chain(rows):
    # M leaves a partial receive block, the CP rows of the rx buffer are skipped, and
    # the chain, then each slice's in-place Doppler step, match the out-of-place channel,
    # receive_frame and an fftshift of the complex spectrum on whole frames.
    params = WaveformParams(N=256, M=2 * CHANNEL_BLOCK + 5, N_CP=24)
    spec = RadComFrameSpec(N_CP=24)
    rng = np.random.default_rng(17)
    bits = rng.integers(0, 2, size=2 * spec.num_data_subchirps(params.N) * params.M)
    # received_frame consumes its frame, so the reference chain gets a frame of its own.
    tx = modulate(build_radcom_frame(params, spec, bits), params)
    want = receive_frame(apply_shift_channel(tx, params, SHIFTS, 9.0, 4), params)
    frame = build_radcom_frame(params, spec, bits)
    fresnel = received_frame(frame, params, SHIFTS, 9.0, 4)
    assert np.shares_memory(fresnel, frame.base)
    assert np.array_equal(fresnel, want)
    for r in rows:
        image = doppler_process(fresnel[r], params)
        assert np.array_equal(image.magnitude, np.abs(np.fft.fftshift(np.fft.fft(want[r], axis=1), axes=1)))


def test_radar_image_holds_no_third_frame():
    # Above the caller's frame, whose stream buffer carries the whole chain (tx, then rx,
    # then the Fresnel frame, into whose real parts the images are written), only block
    # temporaries, measured 0.22 frames: a second stream, a whole-frame IDFnT, a
    # stream-sized noise array, a float image or a complex spectrum of the frame would
    # each exceed the quarter-frame allowance.
    params = WaveformParams(N=256, M=1024, N_CP=64)
    # Lazy numpy imports, outside the count.
    doppler_process(received_frame(build_pilot_frame(params), params, SHIFTS[:1], 15.0, 3), params)
    frame_bytes = params.N * params.M * 16
    for rows in ([slice(None)], FOUR_SLICES):
        frame = build_pilot_frame(params)
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            fresnel = received_frame(frame, params, SHIFTS, 15.0, 3)
            images = [doppler_process(fresnel[r], params) for r in rows]
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        assert peak <= frame_bytes // 4
        del images, fresnel, frame


MIMO = MimoConfig(num_tx=4)


def _mimo_images(params, shifts, snr_db=None):
    """Slice images of the superposed frame, and of each transmitter's frame alone, at seed 5."""
    slices = [MIMO.slice_rows(params.N, p) for p in range(MIMO.num_tx)]
    frame = build_superposed_pilot_frame(params, MIMO)
    offset = 10.0 * math.log10(MIMO.num_tx)  # snr_db is per transmitter
    fresnel = received_frame(frame, params, shifts, None if snr_db is None else snr_db + offset, 5)
    superposed = [doppler_process(fresnel[rows], params) for rows in slices]
    alone = [
        doppler_process(received_frame(build_mimo_pilot_frame(params, MIMO, p), params, shifts, snr_db, 5)[rows], params)
        for p, rows in enumerate(slices)
    ]
    return superposed, alone


@pytest.mark.parametrize("snr_db", [None, 10.0], ids=["noise-free", "10 dB"])
def test_superposed_frame_images_each_slice_as_its_transmitter_alone(snr_db):
    # Integer n_delta and k_delta keep each echo on one row of its own slice, and with
    # N_CP = 0 the summed echo has exactly num_tx times one transmitter's power.
    superposed, alone = _mimo_images(WaveformParams(N=256, M=16), [(10.0, 1.0, 0.5 - 0.2j)], snr_db)
    for got, want in zip(superposed, alone):
        assert np.max(np.abs(got.magnitude - want.magnitude)) <= 1e-12 * want.magnitude.max()


def test_superposed_frame_carries_fractional_shift_leakage():
    # A fractional shift spreads each echo over every row, so a slice also holds its
    # neighbours' echoes, which the one-transmitter-at-a-time chain never saw.
    params = WaveformParams(N=256, M=16)
    shifts = [(10.4, 0.2, 1.0)]
    superposed, alone = _mimo_images(params, shifts)
    frame = build_mimo_pilot_frame(params, MIMO, 0)
    neighbour = doppler_process(received_frame(frame, params, shifts)[MIMO.slice_rows(params.N, 1)], params)
    assert neighbour.magnitude.max() > 1e-2 * alone[0].magnitude.max()
    for got, want in zip(superposed, alone):
        assert np.max(np.abs(got.magnitude - want.magnitude)) > 1e-2 * want.magnitude.max()


def test_mimo_leakage_is_none_without_cross_slice_energy():
    params = WaveformParams(N=256, M=16, N_CP=16)
    assert mimo_leakage_db(params, MIMO, [(10.0, 1.0, 0.5 - 0.2j), (40.0, -2.0, 0.1)]) == [None] * 4
    assert mimo_leakage_db(params, MIMO, []) == [None] * 4


def test_mimo_leakage_of_fractional_shifts_equals_the_frame_chain():
    # E_other / E_own on symbol 0 of each transmitter's whole noise-free frame.
    params = WaveformParams(N=256, M=8, N_CP=16)
    shifts = [(10.4, 0.2, 1.0), (30.0, -0.3, 0.3j)]
    echoes = [
        receive_frame(apply_shift_channel(modulate(build_mimo_pilot_frame(params, MIMO, p), params), params, shifts), params)[:, 0]
        for p in range(MIMO.num_tx)
    ]
    for p, got in enumerate(mimo_leakage_db(params, MIMO, shifts)):
        rows = MIMO.slice_rows(params.N, p)
        other = sum(e for q, e in enumerate(echoes) if q != p)[rows]
        want = 10.0 * np.log10(np.sum(np.abs(other) ** 2) / np.sum(np.abs(echoes[p][rows]) ** 2))
        assert abs(got - want) <= 1e-9
        assert -40.0 < got < 0.0


def test_zero_doppler_integer_target_metrics():
    params = WaveformParams(N=128, M=8)
    image = single_point_image(params, 40.0, 0.0)
    reference = float(image.magnitude.max() ** 2)
    metrics = range_cut_metrics(image, reference)
    assert metrics.pplr_db == pytest.approx(0.0, abs=1e-12)
    assert metrics.pslr_db < -200
    assert metrics.islr_db < -200
    assert metrics.mainlobe_bins == (39, 40, 41)


def test_mainlobe_wraps_at_edges():
    params = WaveformParams(N=64, M=4)
    image = single_point_image(params, 0.0, 0.0)
    metrics = range_cut_metrics(image, float(image.magnitude.max() ** 2))
    assert metrics.mainlobe_bins == (0, 1, 63)


def test_reference_power_must_be_positive():
    params = WaveformParams(N=32, M=4)
    image = single_point_image(params, 3.0, 0.0)
    with pytest.raises(ValueError):
        range_cut_metrics(image, 0.0)


def test_pslr_nonpositive_for_normalized_cuts():
    params = WaveformParams(N=64, M=20)
    for k_delta in (0.0, -0.1, 0.25, -0.5):
        image = single_point_image(params, 20.0, k_delta)
        metrics = range_cut_metrics(image, float(image.magnitude.max() ** 2))
        assert metrics.pslr_db <= 0.0


def test_sweep_zero_doppler_row_is_reference():
    params = WaveformParams(N=64, M=8)
    result = doppler_tolerance_sweep(params, [0, 7, 33], [0.0])
    assert np.max(np.abs(result.pplr_db)) < 1e-12


def test_sweep_symmetric_in_doppler_sign():
    params = WaveformParams(N=256, M=40)
    result = doppler_tolerance_sweep(
        params, [0, 50, 128, 200], [-0.5, -0.25, -0.1, 0.0, 0.1, 0.25, 0.5]
    )
    assert np.max(np.abs(result.pplr_db[:, :3] - result.pplr_db[:, :3:-1])) < 1e-9


def test_sweep_worst_degradation_near_half_bin():
    params = WaveformParams(N=256, M=40)
    result = doppler_tolerance_sweep(params, [0, 64, 128, 192], [-0.5, -0.1, 0.0])
    worst = -result.pplr_db.min()
    assert 3.0 <= worst <= 5.0
    # degradation grows toward |k_delta| = 0.5
    assert result.pplr_db[:, 0].max() < result.pplr_db[:, 1].min()


def test_sweep_grid_validation():
    params = WaveformParams(N=64, M=8)
    with pytest.raises(ValueError):
        doppler_tolerance_sweep(params, [64], [0.0])
    with pytest.raises(ValueError):
        doppler_tolerance_sweep(params, [0], [0.7])


def test_sweep_equals_its_per_cell_chain():
    params = WaveformParams(N=64, M=8)
    n_grid, k_grid = [0, 10, 10, 33.5], [-0.25, 0.0, 0.3, -0.25]
    result = doppler_tolerance_sweep(params, n_grid, k_grid)
    for i, n_delta in enumerate(n_grid):
        ref = float(single_point_image(params, n_delta, 0.0).magnitude.max() ** 2)
        for j, k_delta in enumerate(k_grid):
            metrics = range_cut_metrics(single_point_image(params, n_delta, k_delta), ref)
            assert np.array_equal(result.pplr_db[i, j], metrics.pplr_db)
            assert np.array_equal(result.pslr_db[i, j], metrics.pslr_db)
            assert np.array_equal(result.islr_db[i, j], metrics.islr_db)


@pytest.mark.parametrize(
    "params",
    [WaveformParams(N=64, M=7, N_CP=16), WaveformParams(N=128, M=32), WaveformParams(N=32, M=5, N_CP=3)],
    ids=["N_CP odd M", "no CP", "short CP odd M"],
)
@pytest.mark.parametrize("n_delta, k_delta", [(0.0, 0.0), (7.0, 0.0), (10.4, 0.37), (20.5, -0.37), (31.0, 0.25)])
def test_single_point_image_equals_the_radar_chain(params, n_delta, k_delta):
    # The rank-1 image d p^T equals the M-symbol chain on the whole pilot stream.
    want = doppler_process(received_frame(build_pilot_frame(params), params, [(n_delta, k_delta, 1.0)]), params)
    got = single_point_image(params, n_delta, k_delta)
    assert got.magnitude.shape == want.magnitude.shape
    assert np.max(np.abs(got.magnitude - want.magnitude)) <= 1e-12 * want.magnitude.max()
    assert np.argmax(got.magnitude) == np.argmax(want.magnitude)
    assert np.array_equal(got.range_axis_m, want.range_axis_m)
    assert np.array_equal(got.velocity_axis_mps, want.velocity_axis_mps)


def test_single_point_image_needs_a_doppler_axis():
    with pytest.raises(ValueError, match="M >= 2"):
        single_point_image(WaveformParams(N=64, M=1), 3.0, 0.1)


def test_sweep_is_finite_at_integer_zero_doppler_cells():
    # Rounding residue of the one-symbol chain keeps every sidelobe power above 0.
    params = WaveformParams(N=2048, M=32)
    result = doppler_tolerance_sweep(params, [0, 1, 511, 1024, 2047], [0.0, 0.25])
    for surface in (result.pplr_db, result.pslr_db, result.islr_db):
        assert np.all(np.isfinite(surface))


def test_sweep_metrics_match_oracle_columns():
    # Metrics computed from the closed-form CIR equal the pipeline's.
    from ocdm_radar.rxproc import doppler_process

    params = WaveformParams(N=64, M=16)
    for n_delta, k_delta in ((10.0, 0.25), (33.0, -0.5)):
        pipeline = single_point_image(params, n_delta, k_delta)
        oracle = doppler_process(
            biased_cir_from_shifts([(n_delta, k_delta, 1.0)], params), params
        )
        ref = float(single_point_image(params, n_delta, 0.0).magnitude.max() ** 2)
        m_pipe = range_cut_metrics(pipeline, ref)
        m_oracle = range_cut_metrics(oracle, ref)
        assert abs(m_pipe.pplr_db - m_oracle.pplr_db) < 0.01
        assert abs(m_pipe.islr_db - m_oracle.islr_db) < 0.01


def test_papr_constant_signal_is_zero_db():
    x = np.exp(1j * np.linspace(0, np.pi, 64))
    assert analysis._papr_meter(x.size, 1)(x) == pytest.approx(0.0, abs=1e-12)


def test_papr_oversampling_catches_intersample_peaks():
    rng = np.random.default_rng(0)
    x = np.fft.ifft(rng.standard_normal(64) + 1j * rng.standard_normal(64))
    assert analysis._papr_meter(x.size, 20)(x) >= analysis._papr_meter(x.size, 1)(x)


def _zero_padded_papr_db(x, oversample):
    # The PAPR as one (n * oversample)-point inverse FFT of the zero-padded spectrum.
    n = x.size
    spectrum = np.fft.fft(x)
    padded = np.zeros(n * oversample, dtype=np.complex128)
    padded[: n // 2] = spectrum[: n // 2]
    padded[n * oversample - n // 2 :] = spectrum[n // 2 :]
    power = np.abs(np.fft.ifft(padded) * oversample) ** 2
    return float(10.0 * np.log10(power.max() / power.mean()))


@pytest.mark.parametrize("oversample", [1, 2, 20])
def test_polyphase_papr_equals_the_zero_padded_interpolation(oversample):
    rng = np.random.default_rng(oversample)
    params = WaveformParams(N=256, M=1, N_CP=64)
    builders = [radcom_symbol_builder(params, RadComFrameSpec(N_CP=64)), ofdm_symbol_builder(params)]
    symbols = [build(rng) for build in builders for _ in range(5)]
    symbols += [rng.standard_normal(n) + 1j * rng.standard_normal(n) for n in (2, 6, 64)]
    for x in symbols:
        assert abs(analysis._papr_meter(x.size, oversample)(x) - _zero_padded_papr_db(x, oversample)) < 1e-12
    ccdf = papr_ccdf(builders[0], trials=20, oversample=oversample, rng_seed=5)
    again = np.random.default_rng(5)
    want = [_zero_padded_papr_db(builders[0](again), oversample) for _ in range(20)]
    assert np.max(np.abs(ccdf.papr_samples_db - want)) < 1e-12


@pytest.mark.parametrize("x, oversample", [(np.ones(8), 0), (np.ones(7), 2), (np.ones(0), 2)])
def test_papr_meter_validation(x, oversample):
    with pytest.raises(ValueError):
        analysis._papr_meter(x.size, oversample)(x)


def test_papr_ccdf_memory_does_not_grow_with_trials():
    # The meter's buffers are built once per call: 900 more trials cost only their samples.
    params = WaveformParams(N=256, M=1, N_CP=64)
    build = radcom_symbol_builder(params, RadComFrameSpec(N_CP=64))
    papr_ccdf(build, trials=2)  # lazy numpy imports, outside the count
    peaks = []
    tracemalloc.start()
    try:
        for trials in (100, 1000):
            entry = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            papr_ccdf(build, trials=trials)
            peaks.append(tracemalloc.get_traced_memory()[1] - entry)
    finally:
        tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 64 * 1024


def _refilling_builder(build, n):
    # Returns one buffer every trial, refilled with the wrapped builder's new symbol.
    buffer = np.empty(n, dtype=np.complex128)

    def refill(rng):
        buffer[...] = build(rng)
        return buffer

    return refill


@pytest.mark.parametrize("waveform", ["pilot", "refilled radcom"])
def test_papr_ccdf_meters_a_repeated_symbol_once(monkeypatch, waveform):
    params = WaveformParams(N=128, M=1, N_CP=32)
    if waveform == "pilot":
        build, meterings = pilot_symbol_builder(params), 1
    else:
        build, meterings = _refilling_builder(radcom_symbol_builder(params, RadComFrameSpec(N_CP=32)), 128), 25
    rng = np.random.default_rng(8)
    samples = np.array([analysis._papr_meter(params.N, 4)(build(rng)) for _ in range(25)])
    exceedance = np.array([(samples > t).mean() for t in PAPR_THRESHOLDS_DB])

    calls = []
    papr_meter = analysis._papr_meter

    def counted_meter(n, oversample):
        meter = papr_meter(n, oversample)

        def count(x):
            calls.append(n)
            return meter(x)

        return count

    monkeypatch.setattr(analysis, "_papr_meter", counted_meter)
    ccdf = papr_ccdf(build, trials=25, oversample=4, rng_seed=8)
    assert len(calls) == meterings
    assert ccdf.papr_samples_db.tobytes() == samples.tobytes()
    assert ccdf.exceedance.tobytes() == exceedance.tobytes()


def test_papr_ccdf_monotone_and_bounded():
    params = WaveformParams(N=256, M=1, N_CP=64)
    spec = RadComFrameSpec(N_CP=64)
    ccdf = papr_ccdf(radcom_symbol_builder(params, spec), trials=200, rng_seed=3)
    assert np.all(np.diff(ccdf.exceedance) <= 0)
    assert np.all((ccdf.exceedance >= 0) & (ccdf.exceedance <= 1))


def test_papr_ccdf_validation():
    params = WaveformParams(N=64, M=1)
    with pytest.raises(ValueError):
        papr_ccdf(pilot_symbol_builder(params), trials=0)


def test_pilot_symbol_papr_deterministic():
    params = WaveformParams(N=256, M=1)
    ccdf = papr_ccdf(pilot_symbol_builder(params), trials=3)
    assert np.ptp(ccdf.papr_samples_db) == 0.0


def test_sector_symbol_papr_above_pilot():
    params = WaveformParams(N=256, M=1, N_CP=64)
    spec = RadComFrameSpec(N_CP=64)
    pilot = papr_ccdf(pilot_symbol_builder(params), trials=1)
    sector = papr_ccdf(radcom_symbol_builder(params, spec), trials=100, rng_seed=4)
    assert sector.mean_papr_db > pilot.mean_papr_db + 3.0


def test_ocdm_symbol_builders_equal_the_plain_idfnt_column():
    # The builders go through modulate with no CP; the symbol must be the IDFnT column, bit for bit.
    params = WaveformParams(N=128, M=4, N_CP=32)
    spec = RadComFrameSpec(N_CP=32, pilot_energy=2.0, symbol_energy=0.5)
    single = WaveformParams(N=128, M=1, N_CP=32)
    pilot = pilot_symbol_builder(params)(np.random.default_rng(0))
    assert np.array_equal(pilot, idfnt_fast(build_pilot_frame(single))[:, 0])
    got = radcom_symbol_builder(params, spec)(np.random.default_rng(9))
    bits = np.random.default_rng(9).integers(0, 2, size=2 * spec.num_data_subchirps(128))
    assert np.array_equal(got, idfnt_fast(build_radcom_frame(single, spec, bits))[:, 0])


def test_ofdm_builder_symbol_length():
    params = WaveformParams(N=128, M=1)
    build = ofdm_symbol_builder(params)
    rng = np.random.default_rng(5)
    assert build(rng).size == 128
