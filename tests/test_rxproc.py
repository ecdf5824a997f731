"""Receiver chain, radar parameter table, imaging, peak estimation and CSV export."""

import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ocdm_radar.channel import apply_shift_channel
from ocdm_radar.framing import (
    CHANNEL_BLOCK,
    MimoConfig,
    RadComFrameSpec,
    WaveformParams,
    build_mimo_pilot_frame,
    build_pilot_frame,
    build_radcom_frame,
    from_stream,
    to_stream,
)
from ocdm_radar.fresnel import dfnt_fast, idfnt_fast, phase_fold_correct
from ocdm_radar.rxproc import (
    RangeVelocityImage,
    compute_radar_params,
    doppler_process,
    estimate_peak,
    image_to_csv,
    receive_frame,
    write_csv,
)
from ocdm_radar.rxproc import _CSV_BLOCK, _WINDOW_VALUES, _RowWindow
from reference import biased_cir_from_shifts, dirichlet_kernel

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


@pytest.mark.parametrize("n_cp", [0, 16])
def test_receive_frame_folds_the_fresh_transform(n_cp):
    # The fold runs in place on dfnt_fast's output; the stream is left as it is.
    params = WaveformParams(N=64, M=9, N_CP=n_cp)
    rng = np.random.default_rng(n_cp)
    stream = rng.standard_normal(params.stream_len) + 1j * rng.standard_normal(params.stream_len)
    kept = stream.copy()
    want = dfnt_fast(from_stream(stream, params))
    assert phase_fold_correct(receive_frame(stream, params)).tobytes() == want.tobytes()
    assert receive_frame(stream, params).tobytes() == phase_fold_correct(want).tobytes()
    assert stream.tobytes() == kept.tobytes()


@pytest.mark.parametrize("folded", [True, False], ids=["folded", "unfolded"])
def test_receive_into_the_stream_buffer_equals_the_whole_frame_transform(folded):
    # M = 130 leaves a partial last block; each block is transformed before its
    # symbols are overwritten, so the buffer ends as the whole frame's DFnT,
    # fold-corrected (the correction applied again gives the plain transform).
    params = WaveformParams(N=64, M=2 * CHANNEL_BLOCK + 2, N_CP=8)
    rng = np.random.default_rng(8)
    stream = rng.standard_normal(params.stream_len) + 1j * rng.standard_normal(params.stream_len)
    want = dfnt_fast(from_stream(stream, params))
    out = from_stream(stream, params)
    assert receive_frame(stream, params, out=out) is out
    if folded:
        phase_fold_correct(want)
    else:
        phase_fold_correct(out)
    assert out.tobytes() == want.tobytes()


def test_receive_frame_out_must_fit_the_frame():
    params = WaveformParams(N=16, M=3, N_CP=4)
    stream = pilot_stream(params)
    for out in (np.empty((16, 2), complex), np.empty((16, 3))):
        with pytest.raises(ValueError, match="out must be"):
            receive_frame(stream, params, out=out)


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
    uncorrected = phase_fold_correct(receive_frame(rx, params))[:, 0]
    n = np.arange(16)
    delta = np.zeros(16, dtype=complex)
    delta[6] = 1.0
    assert np.max(np.abs(corrected - delta)) < 1e-9
    assert np.max(np.abs(uncorrected - delta * np.exp(-1j * np.pi * n))) < 1e-9


def test_fold_correction_fractional_delay_recovers_clean_kernel():
    # After correction the fractional-delay column is the plain Dirichlet
    # interpolation kernel (constant phase), so its zero-padded reconstruction
    # peaks at the true delay; uncorrected it alternates sign.
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
    assert np.array_equal(frame[MimoConfig(num_tx=1).slice_rows(32, 0)], frame)


def test_mimo_demux_pilot_identity_channel():
    params = WaveformParams(N=8, M=2)
    mimo = MimoConfig(num_tx=2)
    stream = to_stream(idfnt_fast(build_mimo_pilot_frame(params, mimo, 1)), params)
    sliced = receive_frame(stream, params)[mimo.slice_rows(params.N, 1)]
    want = np.zeros((4, 2), dtype=complex)
    want[0, :] = 1.0
    assert np.max(np.abs(sliced - want)) < 1e-12


def test_mimo_demux_target_in_own_slice():
    params = WaveformParams(N=256, M=4)
    mimo = MimoConfig(num_tx=4)
    stream = to_stream(idfnt_fast(build_mimo_pilot_frame(params, mimo, 2)), params)
    rx = apply_shift_channel(stream, params, [(50.0, 0.0, 1.0)])
    frame = receive_frame(rx, params)
    own = frame[mimo.slice_rows(params.N, 2)]
    assert np.argmax(np.abs(own[:, 0])) == 50
    own_peak = np.max(np.abs(own)) ** 2
    for other in (0, 1, 3):
        leak = np.max(np.abs(frame[mimo.slice_rows(params.N, other)])) ** 2
        assert 10 * np.log10(leak / own_peak) <= -200


def test_mimo_demux_validation():
    frame = np.zeros((10, 2), dtype=complex)
    with pytest.raises(ValueError):
        frame[MimoConfig(num_tx=4).slice_rows(frame.shape[0], 0)]


def test_mimo_tx_index_out_of_range_rejected():
    params, mimo = WaveformParams(N=8, M=2), MimoConfig(num_tx=4)
    with pytest.raises(ValueError, match=r"tx index 4 outside \[0, 4\)"):
        mimo.slice_rows(params.N, 4)
    with pytest.raises(ValueError, match=r"tx index -1 outside \[0, 4\)"):
        build_mimo_pilot_frame(params, mimo, -1)


def test_radcom_extract_rows():
    frame = np.arange(24, dtype=complex).reshape(8, 3)
    assert np.array_equal(frame[RadComFrameSpec(N_CP=2).radar_rows], frame[:2])
    with pytest.raises(ValueError):
        RadComFrameSpec(N_CP=0)
    with pytest.raises(ValueError):
        RadComFrameSpec(N_CP=9).data_rows(frame.shape[0])


def test_radcom_pilot_only_matches_siso_rows():
    params = WaveformParams(N=64, M=4, N_CP=16)
    spec = RadComFrameSpec(N_CP=16)
    n_data = spec.num_data_subchirps(params.N)
    frame = build_radcom_frame(params, spec, np.zeros(2 * n_data * params.M, dtype=np.uint8))
    frame[spec.data_rows(params.N)] = 0  # the pilot alone
    stream = to_stream(idfnt_fast(frame), params)
    rx = apply_shift_channel(stream, params, [(5.0, 0.0, 1.0)])
    cir = receive_frame(rx, params)[spec.radar_rows]

    siso = WaveformParams(N=64, M=4, N_CP=16)
    rx_siso = apply_shift_channel(pilot_stream(siso), siso, [(5.0, 0.0, 1.0)])
    cir_siso = receive_frame(rx_siso, siso)[:16]
    assert np.max(np.abs(cir - cir_siso)) < 1e-10


def test_radcom_guard_interval_isolates_radar_sector():
    params = WaveformParams(N=128, M=4, N_CP=32)
    spec = RadComFrameSpec(N_CP=32)
    n_data = spec.num_data_subchirps(params.N)
    rng = np.random.default_rng(8)
    with_data = build_radcom_frame(params, spec, rng.integers(0, 2, 2 * n_data * params.M))
    without = with_data.copy()
    without[spec.data_rows(params.N)] = 0  # the pilot alone
    shifts = [(7.0, 0.0, 1.0), (31.0, 0.0, 0.5)]
    cirs = []
    for frame in (with_data, without):
        stream = to_stream(idfnt_fast(frame), params)
        rx = apply_shift_channel(stream, params, shifts)
        cirs.append(receive_frame(rx, params)[spec.radar_rows])
    assert np.max(np.abs(cirs[0] - cirs[1])) < 1e-9


def test_radcom_excess_delay_contaminates_cir():
    params = WaveformParams(N=128, M=4, N_CP=32)
    spec = RadComFrameSpec(N_CP=32)
    n_data = spec.num_data_subchirps(params.N)
    rng = np.random.default_rng(9)
    with_data = build_radcom_frame(params, spec, rng.integers(0, 2, 2 * n_data * params.M))
    without = with_data.copy()
    without[spec.data_rows(params.N)] = 0  # the pilot alone
    shifts = [(40.0, 0.0, 1.0)]  # beyond N_CP: data wraps into the radar rows
    cirs = []
    for frame in (with_data, without):
        stream = to_stream(idfnt_fast(frame), params)
        rx = apply_shift_channel(stream, params, shifts)
        cirs.append(receive_frame(rx, params)[spec.radar_rows])
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


def _standard_image(magnitude, layout):
    # The image as a C-ordered array, or as the .real view of an F-ordered complex buffer
    # (how the radar chain's images sit in its stream buffer).
    if layout == "F view":
        view = np.zeros(magnitude.shape, dtype=np.complex128, order="F").real
        view[...] = magnitude
        magnitude = view
    n_rows, m = magnitude.shape
    return RangeVelocityImage(magnitude, np.arange(n_rows) * 0.15, -(np.arange(m) - m // 2) * 0.5)


# 401 x 300 cells split into the pairwise-sum leaves [0, 60144) and [60144, 120300):
# row 200 straddles them, cell (200, 100) in the first and (200, 150) in the second.
TWO_LEAVES = (401, 300)


@pytest.mark.parametrize("layout", ["C", "F view"])
@pytest.mark.parametrize(
    "shape, ties, want",
    [
        ((16, 8), [(9, 4), (5, 1), (5, 6)], (5, 6)),  # row 5: velocity bins 3 and -2; row 9: bin 0
        ((16, 8), [(5, 1), (5, 3), (5, 5)], (5, 5)),  # row 5: velocity bins 3, 1 and -1
        (TWO_LEAVES, [(200, 100), (200, 150), (300, 150)], (200, 150)),
        (TWO_LEAVES, [(100, 10), (300, 150)], (100, 10)),
    ],
    ids=["lower speed", "negative velocity", "speed across leaves", "range across leaves"],
)
def test_estimate_peak_breaks_ties_by_range_then_speed_then_negative_velocity(shape, ties, want, layout):
    if shape == TWO_LEAVES:
        size = shape[0] * shape[1]
        split = size // 2 - size // 2 % 8  # numpy's pairwise split of the C-ordered cells
        assert 200 * 300 + 100 < split <= 200 * 300 + 150 and size - split <= 2**16
    magnitude = np.random.default_rng(2).uniform(0.0, 1.0, shape)
    for cell in ties:
        magnitude[cell] = 2.0
    image = _standard_image(magnitude, layout)
    peak = estimate_peak(image)
    assert (peak.range_m, peak.velocity_mps) == (image.range_axis_m[want[0]], image.velocity_axis_mps[want[1]])
    assert peak.power_db == 20.0 * np.log10(2.0)


@pytest.mark.parametrize("layout", ["C", "F view"])
@pytest.mark.parametrize("cell", [(0, 0), (400, 299)], ids=["first leaf", "last leaf"])
@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_estimate_peak_rejects_a_non_finite_cell_off_the_peak(bad, cell, layout):
    magnitude = np.random.default_rng(3).uniform(0.0, 1.0, TWO_LEAVES)
    magnitude[200, 150] = 5.0
    magnitude[cell] = bad
    with pytest.raises(ValueError, match="image magnitudes are not finite"):
        estimate_peak(_standard_image(magnitude, layout))


@pytest.mark.parametrize("layout", ["C", "F view"])
@pytest.mark.parametrize("max_rows", [10, 300], ids=["rows below the window", "rows above the window"])
def test_row_window_reads_equal_the_contiguous_table(layout, max_rows):
    # 512 columns: a window of _WINDOW_VALUES // 512 = 256 rows, or max_rows when that is more.
    rng = np.random.default_rng(4)
    table = rng.standard_normal((700, 512))
    if layout == "F view":
        table = np.asfortranarray(table + 1j * rng.standard_normal(table.shape)).real
    want = np.ascontiguousarray(table)
    window = _RowWindow(table, max_rows)
    # Forward, backward, past the window, backward, to the table's end, back to the start.
    for start in [0, max_rows, 5, 400, 390, 700 - max_rows, 0]:
        rows = window[start : start + max_rows]
        assert rows.flags.c_contiguous and np.array_equal(rows, want[start : start + max_rows])


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
    for name, values in zip(names, (image.magnitude, image.range_axis_m, image.velocity_axis_mps)):
        assert Path(name).read_bytes() == _savetxt_bytes(tmp_path / "want.csv", values)


def _savetxt_bytes(path, array, header=""):
    np.savetxt(path, array, delimiter=",", fmt="%.12g", header=header, comments="")
    return Path(path).read_bytes()


def _write_csv_bytes(path, array, header=""):
    write_csv(path, array, header)
    return Path(path).read_bytes()


# Values where '%.12g' is easy to get wrong: subnormals, signed zeros, non-finite
# values, powers of ten, exact ties at the 12th digit, carries into a new decade,
# and values whose scaled significand rounds onto a half integer it is not.
CSV_EDGE_VALUES = (
    [5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 0.0, -0.0, np.nan, np.inf, -np.inf]
    + [10.0**k for k in range(-30, 31)]
    + [123456789012.5, 0.5, 2.5, 1e-5, 9.99999999999e-5, 99999.99999995]
    + [14.54884263465, 172057.6743025, 7.495621119975e-07, 0.008428810805205]
    + [999999999999.5 * 10.0**k for k in range(-25, 26)]
    + [123456789012.5 * 10.0**k for k in range(-25, 26)]
)


def test_write_csv_bytes_equal_savetxt():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    raw_bits = st.integers(0, 2**64 - 1).map(lambda b: float(np.array(b, dtype=np.uint64).view(np.float64)))
    scaled = st.floats(-1e35, 1e35)
    edge = st.sampled_from(CSV_EDGE_VALUES + [-v for v in CSV_EDGE_VALUES] + [np.nextafter(v, 0) for v in CSV_EDGE_VALUES])
    values = st.lists(st.one_of(raw_bits, scaled, edge), min_size=1, max_size=60)

    @hypothesis.settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @hypothesis.given(
        values=values,
        shape=st.sampled_from(["1-D", "one row", "one column", "2-D"]),
        columns=st.integers(2, 5),
        header=st.sampled_from(["", "re,im"]),
    )
    def check(values, shape, columns, header):
        array = np.array(values)
        if shape == "one row":
            array = array[None, :]
        elif shape == "one column":
            array = array[:, None]
        elif shape == "2-D":
            array = array[: array.size // columns * columns].reshape(-1, columns)
        want = _savetxt_bytes(tmp / "want.csv", array, header)
        assert _write_csv_bytes(tmp / "got.csv", array, header) == want

    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        check()


def test_write_csv_columns_and_blocks_equal_savetxt(tmp_path):
    # Several blocks of whole rows, the last one short, with Python-formatted values in each.
    rng = np.random.default_rng(5)
    n = 2 * _CSV_BLOCK + 11
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-20, 40, n)
    values[rng.integers(0, n, 50)] = np.nan
    values[rng.integers(0, n, 50)] = 123456789012.5
    table = values[: n // 7 * 7].reshape(-1, 7)
    assert _write_csv_bytes(tmp_path / "got.csv", table) == _savetxt_bytes(tmp_path / "want.csv", table)
    # A list is the table's columns; an integer column is written as floats, as column_stack makes it.
    columns = [values, np.tile(np.arange(11), n // 11 + 1)[:n], -values]
    want = _savetxt_bytes(tmp_path / "want.csv", np.column_stack(columns), "a,b,c")
    assert _write_csv_bytes(tmp_path / "got.csv", columns, "a,b,c") == want


def _every_layout():
    """Values of every text layout: both signs, X from -11 to 34, 1 to 12 digits; and the cases Python formats."""
    shown = [float(f"{'123456789123'[:digits]}e{x - digits + 1}") for x in range(-11, 35) for digits in range(1, 13)]
    ties = [123456789012.5 * 10.0**k for k in range(4)] + [0.5, 2.5, 1.5e-5]  # exact 12th-digit ties
    carries = [999999999999.5 * 10.0**k for k in range(-25, 26)]
    subnormals = [5e-324, 2.0**-1060, 2.2250738585072014e-308 / 3]
    near = [np.nextafter(v, side) for v in ties + carries for side in (-np.inf, np.inf)]
    magnitudes = shown + ties + carries + subnormals + near + [0.0, np.inf, 1e-300, 1e300]
    return np.array(magnitudes + [-v for v in magnitudes] + [np.nan])


def test_write_csv_every_layout_equals_savetxt(tmp_path):
    # Shuffled so that every block mixes many layouts; three blocks of whole rows, the last one short.
    rng = np.random.default_rng(21)
    values = _every_layout()
    n_cols = 7
    n_rows = 2 * (_CSV_BLOCK // n_cols) + 5
    picks = np.concatenate([values, rng.choice(values, n_rows * n_cols - len(values))])
    table = rng.permutation(picks).reshape(n_rows, n_cols)
    want = _savetxt_bytes(tmp_path / "want.csv", table)
    assert _write_csv_bytes(tmp_path / "got.csv", table) == want
    assert _write_csv_bytes(tmp_path / "got.csv", list(table.T)) == want
    # The real parts of a column-major complex table, as images sit in the stream buffer: staged.
    assert _write_csv_bytes(tmp_path / "got.csv", np.asfortranarray(table.astype(complex)).real) == want


def test_write_csv_equals_savetxt_on_image_and_constellation_tables(tmp_path):
    # A range-velocity image's Rayleigh magnitudes, 5120 Doppler bins a row, in two blocks;
    # and a constellation table: signed re and im and an integer subchirp column.
    rng = np.random.default_rng(22)
    image = rng.rayleigh(0.12, (7, 5120))
    assert _write_csv_bytes(tmp_path / "got.csv", image) == _savetxt_bytes(tmp_path / "want.csv", image)
    symbols = (rng.choice([-1.0, 1.0], (2, 40_000)) + 0.1 * rng.standard_normal((2, 40_000))) / np.sqrt(2)
    columns = [symbols[0], symbols[1], np.arange(40_000) % 512]
    want = _savetxt_bytes(tmp_path / "want.csv", np.column_stack(columns), "re,im,subchirp")
    assert _write_csv_bytes(tmp_path / "got.csv", columns, "re,im,subchirp") == want


def test_write_csv_peak_memory_of_a_contiguous_table(tmp_path):
    # The writer's block buffers bound its memory: a 400 x 5120 table peaks at a few MiB.
    table = np.random.default_rng(23).rayleigh(0.12, (400, 5120))
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        write_csv(tmp_path / "got.csv", table)
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 2**20, peak


def _strided_tables(values, rng):
    """``values`` column-major, and as the real parts of a column-major complex table."""
    return [np.asfortranarray(values), np.asfortranarray(values + 1j * rng.standard_normal(values.shape)).real]


def test_write_csv_reads_a_strided_table_a_window_at_a_time(tmp_path):
    # A table whose rows are not contiguous (an image viewed in the column-major stream
    # buffer) gives savetxt's bytes.  Windows of 700 columns hold _WINDOW_VALUES // 700 rows,
    # so 400 rows are read as two full windows and a short one.
    rng = np.random.default_rng(9)
    values = rng.standard_normal((400, 700)) * 10.0 ** rng.integers(-5, 5, (400, 700))
    assert 2 * (_WINDOW_VALUES // 700) < len(values) < 3 * (_WINDOW_VALUES // 700)
    want = _savetxt_bytes(tmp_path / "want.csv", values)
    for table in _strided_tables(values, rng):
        assert not table.flags.c_contiguous
        assert _write_csv_bytes(tmp_path / "got.csv", table) == want


def test_write_csv_stages_a_strided_table_without_copying_it(tmp_path):
    # Beside the writer's own block buffers no copy of a strided table is built, and its
    # bytes are those of the C-contiguous table's.
    rng = np.random.default_rng(9)
    values = rng.standard_normal((1001, 700)) * 10.0 ** rng.integers(-5, 5, (1001, 700))
    tables = _strided_tables(values, rng)
    peaks, texts = [], []
    for table in [values] + tables:
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            write_csv(tmp_path / "got.csv", table)
            peaks.append(tracemalloc.get_traced_memory()[1] - entry)
        finally:
            tracemalloc.stop()
        texts.append((tmp_path / "got.csv").read_bytes())
    for table, peak, text in zip(tables, peaks[1:], texts[1:]):
        assert not table.flags.c_contiguous and text == texts[0]
        assert peak - peaks[0] <= 2 * _WINDOW_VALUES * 8 + 64 * 1024 < table.size * 8 // 2


def test_doppler_process_into_the_cir_real_parts():
    # out=cir.real: each row block is transformed before its real parts are overwritten,
    # so the image is the new-array one bit for bit, held in the CIR's own buffer.
    params = WaveformParams(N=64, M=1000)
    rng = np.random.default_rng(14)
    cir = np.asfortranarray(rng.standard_normal((61, params.M)) + 1j * rng.standard_normal((61, params.M)))
    want = doppler_process(cir, params).magnitude
    image = doppler_process(cir, params, out=cir.real)
    assert np.array_equal(image.magnitude, want) and np.shares_memory(image.magnitude, cir)
    with pytest.raises(ValueError, match="out must be"):
        doppler_process(cir, params, out=np.empty((61, params.M), dtype=np.float32))


def test_doppler_row_blocks_equal_whole_frame_transform():
    # 61 rows in blocks of CHANNEL_BLOCK * N // M = 4 rows: the last block is partial.
    params = WaveformParams(N=64, M=1000)
    assert CHANNEL_BLOCK * params.N // params.M == 4
    rng = np.random.default_rng(13)
    cir = rng.standard_normal((61, params.M)) + 1j * rng.standard_normal((61, params.M))
    image = doppler_process(cir, params)
    assert np.array_equal(image.magnitude, np.abs(np.fft.fftshift(np.fft.fft(cir, axis=1), axes=1)))
