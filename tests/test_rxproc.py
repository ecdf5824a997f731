"""Receiver chain, radar parameter table, imaging and peak estimation."""

import numpy as np
import pytest

from ocdm_radar.channel import apply_shift_channel, biased_cir_from_shifts
from ocdm_radar.framing import (
    MimoConfig,
    RadComFrameSpec,
    WaveformParams,
    build_mimo_pilot_frame,
    build_pilot_frame,
    build_radcom_frame,
    qpsk_map,
    to_stream,
)
from ocdm_radar.fresnel import idfnt_fast
from ocdm_radar.rxproc import (
    RangeVelocityImage,
    compute_radar_params,
    doppler_process,
    estimate_peak,
    image_to_csv,
    mimo_demux,
    radcom_extract_cir,
    receive_frame,
)

FULL = WaveformParams(N=2048, M=5120, N_CP=0, B=1e9, fc=79e9)


def pilot_stream(params):
    return to_stream(idfnt_fast(build_pilot_frame(params)), params)


def test_loopback_identity_channel():
    params = WaveformParams(N=32, M=4)
    frame = receive_frame(pilot_stream(params), params)
    want = np.zeros((32, 4), dtype=complex)
    want[0, :] = 1.0
    assert np.max(np.abs(frame - want)) < 1e-12


def test_single_integer_target_delta():
    params = WaveformParams(N=256, M=4)
    rx = apply_shift_channel(pilot_stream(params), params, [(50.0, 0.0, 1.0)])
    frame = receive_frame(rx, params)
    want = np.zeros((256, 4), dtype=complex)
    want[50, :] = 1.0
    assert np.max(np.abs(frame - want)) < 1e-9


def test_receive_frame_length_check():
    params = WaveformParams(N=16, M=2)
    with pytest.raises(ValueError):
        receive_frame(np.zeros(31, dtype=complex), params)


def test_fold_correction_even_integer_delay():
    # corrected column is the clean delta; uncorrected carries the fold phases
    params = WaveformParams(N=16, M=2)
    stream = pilot_stream(params)
    rx = apply_shift_channel(stream, params, [(6.0, 0.0, 1.0)])
    corrected = receive_frame(rx, params)[:, 0]
    uncorrected = receive_frame(rx, params, correct_fold=False)[:, 0]
    n = np.arange(16)
    delta = np.zeros(16, dtype=complex)
    delta[6] = 1.0
    assert np.max(np.abs(corrected - delta)) < 1e-9
    assert np.max(np.abs(uncorrected - delta * np.exp(-1j * np.pi * n))) < 1e-9


def test_fold_correction_fractional_delay_recovers_clean_kernel():
    # After correction the fractional-delay column is the plain Dirichlet
    # interpolation kernel (constant phase), so its zero-padded reconstruction
    # peaks at the true delay; uncorrected it alternates sign.
    from ocdm_radar.fresnel import dirichlet_kernel

    params = WaveformParams(N=64, M=2)
    n_delta = 20.5
    rx = apply_shift_channel(pilot_stream(params), params, [(n_delta, 0.0, 1.0)])
    corrected = receive_frame(rx, params)[:, 0]
    n = np.arange(params.N)
    clean = (
        np.exp(1j * np.pi * n_delta)
        * dirichlet_kernel(n - n_delta, params.N)
        / params.N
    )
    assert np.max(np.abs(corrected - clean)) < 1e-10


def test_oracle_equivalence_grid():
    params = WaveformParams(N=64, M=8)
    stream = pilot_stream(params)
    for n_delta in (0.0, 0.5, 10.0, 10.5, 32.0, 63.0):
        for k_delta in (0.0, 0.5, -0.5, 1.0, 2.5):
            shifts = [(n_delta, k_delta, 1.0)]
            got = receive_frame(apply_shift_channel(stream, params, shifts), params)
            want = biased_cir_from_shifts(shifts, params)
            assert np.max(np.abs(got - want)) < 1e-8, (n_delta, k_delta)


def test_peak_splitting_at_half_bin_doppler():
    params = WaveformParams(N=2048, M=16)
    rx = apply_shift_channel(pilot_stream(params), params, [(200.0, -0.5, 1.0)])
    image = doppler_process(receive_frame(rx, params), params)
    cut = image.magnitude[:, int(np.argmax(np.max(image.magnitude, axis=0)))]
    order = np.argsort(cut)[::-1]
    first, second = order[0], order[1]
    assert abs(int(first) - int(second)) == 1
    assert 20 * np.log10(cut[first] / cut[second]) < 3.0


def test_mimo_demux_identity_slice():
    params = WaveformParams(N=32, M=2)
    frame = receive_frame(pilot_stream(params), params)
    assert np.array_equal(mimo_demux(frame, MimoConfig(num_tx=1), 0), frame)


def test_mimo_demux_pilot_identity_channel():
    params = WaveformParams(N=8, M=2)
    mimo = MimoConfig(num_tx=2)
    stream = to_stream(idfnt_fast(build_mimo_pilot_frame(params, mimo, 1)), params)
    sliced = mimo_demux(receive_frame(stream, params), mimo, 1)
    want = np.zeros((4, 2), dtype=complex)
    want[0, :] = 1.0
    assert np.max(np.abs(sliced - want)) < 1e-12


def test_mimo_demux_target_in_own_slice():
    params = WaveformParams(N=256, M=4)
    mimo = MimoConfig(num_tx=4)
    stream = to_stream(idfnt_fast(build_mimo_pilot_frame(params, mimo, 2)), params)
    rx = apply_shift_channel(stream, params, [(50.0, 0.0, 1.0)])
    frame = receive_frame(rx, params)
    own = mimo_demux(frame, mimo, 2)
    assert np.argmax(np.abs(own[:, 0])) == 50
    own_peak = np.max(np.abs(own)) ** 2
    for other in (0, 1, 3):
        leak = np.max(np.abs(mimo_demux(frame, mimo, other))) ** 2
        assert 10 * np.log10(leak / own_peak) <= -200


def test_mimo_demux_validation():
    frame = np.zeros((10, 2), dtype=complex)
    with pytest.raises(ValueError):
        mimo_demux(frame, MimoConfig(num_tx=4), 0)


def test_mimo_tx_index_out_of_range_rejected():
    params, mimo = WaveformParams(N=8, M=2), MimoConfig(num_tx=4)
    with pytest.raises(ValueError, match=r"tx index 4 outside \[0, 4\)"):
        mimo_demux(np.zeros((8, 2), dtype=complex), mimo, 4)
    with pytest.raises(ValueError, match=r"tx index -1 outside \[0, 4\)"):
        build_mimo_pilot_frame(params, mimo, -1)


def test_radcom_extract_rows():
    frame = np.arange(24, dtype=complex).reshape(8, 3)
    assert np.array_equal(radcom_extract_cir(frame, 2), frame[:2])
    with pytest.raises(ValueError):
        radcom_extract_cir(frame, 0)
    with pytest.raises(ValueError):
        radcom_extract_cir(frame, 9)


def test_radcom_pilot_only_matches_siso_rows():
    params = WaveformParams(N=64, M=4, N_CP=16)
    spec = RadComFrameSpec(N_CP=16)
    n_data = spec.num_data_subchirps(params.N)
    frame = build_radcom_frame(params, spec, np.zeros((n_data, params.M)))
    stream = to_stream(idfnt_fast(frame), params)
    rx = apply_shift_channel(stream, params, [(5.0, 0.0, 1.0)])
    cir = radcom_extract_cir(receive_frame(rx, params), 16)

    siso = WaveformParams(N=64, M=4, N_CP=16)
    rx_siso = apply_shift_channel(pilot_stream(siso), siso, [(5.0, 0.0, 1.0)])
    cir_siso = receive_frame(rx_siso, siso)[:16]
    assert np.max(np.abs(cir - cir_siso)) < 1e-10


def test_radcom_guard_interval_isolates_radar_sector():
    params = WaveformParams(N=128, M=4, N_CP=32)
    spec = RadComFrameSpec(N_CP=32)
    n_data = spec.num_data_subchirps(params.N)
    rng = np.random.default_rng(8)
    symbols = qpsk_map(rng.integers(0, 2, 2 * n_data * params.M)).reshape(n_data, params.M)
    with_data = build_radcom_frame(params, spec, symbols)
    without = build_radcom_frame(params, spec, np.zeros_like(symbols))
    shifts = [(7.0, 0.0, 1.0), (31.0, 0.0, 0.5)]
    cirs = []
    for frame in (with_data, without):
        stream = to_stream(idfnt_fast(frame), params)
        rx = apply_shift_channel(stream, params, shifts)
        cirs.append(radcom_extract_cir(receive_frame(rx, params), 32))
    assert np.max(np.abs(cirs[0] - cirs[1])) < 1e-9


def test_radcom_excess_delay_contaminates_cir():
    params = WaveformParams(N=128, M=4, N_CP=32)
    spec = RadComFrameSpec(N_CP=32)
    n_data = spec.num_data_subchirps(params.N)
    rng = np.random.default_rng(9)
    symbols = qpsk_map(rng.integers(0, 2, 2 * n_data * params.M)).reshape(n_data, params.M)
    shifts = [(40.0, 0.0, 1.0)]  # beyond N_CP: data wraps into the radar rows
    cirs = []
    for frame in (
        build_radcom_frame(params, spec, symbols),
        build_radcom_frame(params, spec, np.zeros_like(symbols)),
    ):
        stream = to_stream(idfnt_fast(frame), params)
        rx = apply_shift_channel(stream, params, shifts)
        cirs.append(radcom_extract_cir(receive_frame(rx, params), 32))
    assert np.max(np.abs(cirs[0] - cirs[1])) > 1e-3


def test_doppler_process_static_target():
    params = WaveformParams(N=32, M=8)
    rx = apply_shift_channel(pilot_stream(params), params, [(4.0, 0.0, 1.0)])
    image = doppler_process(receive_frame(rx, params), params)
    row, col = np.unravel_index(np.argmax(image.magnitude), image.magnitude.shape)
    assert row == 4
    assert image.velocity_axis_mps[col] == 0.0
    off_peak = np.delete(image.magnitude[row], col)
    assert np.max(off_peak) < 1e-9 * image.magnitude[row, col]


def test_doppler_process_integer_phase_progression():
    params = WaveformParams(N=16, M=8)
    cir = np.zeros((16, 8), dtype=complex)
    d = 3
    cir[5, :] = np.exp(2j * np.pi * d * np.arange(8) / 8)
    image = doppler_process(cir, params)
    row, col = np.unravel_index(np.argmax(image.magnitude), image.magnitude.shape)
    assert row == 5
    # raw bin d sits at centered index d + M/2 for d < M/2
    assert col == d + 4


def test_doppler_peak_bin_independent_of_range():
    # velocity estimation depends only on the symbol-to-symbol phases
    params = WaveformParams(N=128, M=32)
    k_delta = -0.25  # progression of -8 cycles over 32 symbols
    cols = []
    for n_delta in (0.0, 17.0, 63.5, 100.0):
        rx = apply_shift_channel(pilot_stream(params), params, [(n_delta, k_delta, 1.0)])
        image = doppler_process(receive_frame(rx, params), params)
        cols.append(int(np.argmax(np.max(image.magnitude, axis=0))))
    assert len(set(cols)) == 1
    expected_bin = round(k_delta * params.M) % params.M  # raw DFT bin
    assert cols[0] == (expected_bin + params.M // 2) % params.M


def test_doppler_process_validation():
    params = WaveformParams(N=16, M=8)
    with pytest.raises(ValueError):
        doppler_process(np.zeros((16, 1), dtype=complex), params)


def test_full_scale_high_speed_target():
    # 30 m / 92.71 m/s target at full scale: peak at range bin
    # 200 and the 92.71 m/s velocity bin.
    from ocdm_radar.channel import Target, normalize_target

    target = Target(range_m=30.0, velocity_mps=92.71)
    rx = apply_shift_channel(pilot_stream(FULL), FULL, [(*normalize_target(target, FULL), target.amplitude)])
    image = doppler_process(receive_frame(rx, FULL), FULL)
    peak = estimate_peak(image)
    assert abs(peak.range_m - 30.0) < 1e-9
    assert abs(peak.velocity_mps - 92.71) < compute_radar_params(FULL).velocity_resolution_mps / 2


def test_table_values_full_numerology():
    rp = compute_radar_params(FULL)
    assert round(rp.processing_gain_db, 2) == 70.21
    assert round(rp.range_resolution_m, 2) == 0.15
    assert round(rp.max_unambiguous_range_m, 2) == 307.20
    assert round(rp.velocity_resolution_mps, 2) == 0.18
    assert round(rp.max_unambiguous_velocity_mps, 2) == 463.56


def test_table_values_radcom_and_mimo():
    radcom = WaveformParams(N=2048, M=4096, N_CP=512, B=1e9, fc=79e9)
    rp = compute_radar_params(radcom)
    assert round(rp.processing_gain_db, 2) == 69.24
    assert round(rp.max_cp_range_m, 2) == 76.8
    rp4 = compute_radar_params(FULL, num_tx=4)
    assert round(rp4.mimo_max_unambiguous_range_m, 2) == 76.8


def test_compute_radar_params_mimo_divisibility():
    with pytest.raises(ValueError):
        compute_radar_params(WaveformParams(N=10, M=2), num_tx=4)


def test_estimate_peak_delta_image():
    params = WaveformParams(N=2048, M=8, B=1e9, fc=79e9)
    mag = np.zeros((2048, 8))
    mag[200, 4] = 1.0  # centered column 4 = zero velocity
    rp = compute_radar_params(params)
    image = RangeVelocityImage(
        mag,
        np.arange(2048) * rp.range_resolution_m,
        -(np.arange(8) - 4) * rp.velocity_resolution_mps,
    )
    peak = estimate_peak(image)
    assert peak.range_m == pytest.approx(30.0)
    assert peak.velocity_mps == 0.0


def test_estimate_peak_tie_break():
    params = WaveformParams(N=16, M=4)
    rp = compute_radar_params(params)
    mag = np.zeros((16, 4))
    mag[10, 1] = 2.0
    mag[3, 1] = 2.0
    image = RangeVelocityImage(
        mag,
        np.arange(16) * rp.range_resolution_m,
        -(np.arange(4) - 2) * rp.velocity_resolution_mps,
    )
    assert estimate_peak(image).range_m == pytest.approx(3 * rp.range_resolution_m)


def test_estimate_peak_all_zero_rejected():
    image = RangeVelocityImage(np.zeros((4, 4)), np.arange(4.0), np.arange(4.0))
    with pytest.raises(ValueError):
        estimate_peak(image)


def test_coupling_biases_reported_range():
    # 231.78 m/s pairs with k_delta = -0.25: Dirichlet mainlobe center moves
    # by a quarter bin so the reported range can bias by one resolution cell.
    params = WaveformParams(N=2048, M=80, B=1e9, fc=79e9)
    from ocdm_radar.channel import Target, normalize_target

    target = Target(range_m=30.0, velocity_mps=231.78)
    rx = apply_shift_channel(pilot_stream(params), params, [(*normalize_target(target, params), target.amplitude)])
    image = doppler_process(receive_frame(rx, params), params)
    peak = estimate_peak(image)
    rp = compute_radar_params(params)
    assert abs(peak.range_m - 30.0) <= rp.range_resolution_m + 1e-9


def test_image_export_and_peak_json(tmp_path):
    params = WaveformParams(N=16, M=4)
    rx = apply_shift_channel(pilot_stream(params), params, [(3.0, 0.0, 1.0)])
    image = doppler_process(receive_frame(rx, params), params)
    names = image_to_csv(image, tmp_path / "img")
    mag = np.loadtxt(names[0], delimiter=",")
    assert mag.shape == (16, 4)
