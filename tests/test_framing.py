"""Frame builders, QPSK mapping and the sample-stream format."""

import numpy as np
import pytest

from ocdm_radar import framing
from ocdm_radar.framing import (
    CHANNEL_BLOCK,
    MimoConfig,
    RadComFrameSpec,
    WaveformParams,
    build_mimo_pilot_frame,
    build_pilot_frame,
    build_radcom_frame,
    build_superposed_pilot_frame,
    draw_payload_bits,
    from_stream,
    modulate,
    qpsk_demap,
    qpsk_map,
    to_stream,
)
from ocdm_radar.fresnel import idfnt_fast


def test_params_validation():
    WaveformParams(N=8, M=2)
    with pytest.raises(ValueError):
        WaveformParams(N=7, M=2)
    with pytest.raises(ValueError):
        WaveformParams(N=8, M=0)
    with pytest.raises(ValueError):
        WaveformParams(N=8, M=2, N_CP=8)
    with pytest.raises(ValueError):
        WaveformParams(N=8, M=2, B=-1.0)
    with pytest.raises(ValueError):
        WaveformParams(N=8, M=2, B=1e9, fc=1e8)


def test_pilot_frame_columns():
    params = WaveformParams(N=4, M=2)
    frame = build_pilot_frame(params)
    assert np.array_equal(frame[:, 0], [1, 0, 0, 0])
    assert np.array_equal(frame[:, 1], [1, 0, 0, 0])


def test_pilot_frame_energy_and_envelope():
    params = WaveformParams(N=64, M=3)
    frame = build_pilot_frame(params)
    assert np.allclose(np.sum(np.abs(frame) ** 2, axis=0), 1.0)
    time = idfnt_fast(frame)
    assert np.max(np.abs(np.abs(time) - 1.0 / params.N)) < 1e-12


def test_pilot_stream_is_periodic_without_cp():
    params = WaveformParams(N=16, M=4, N_CP=0)
    stream = to_stream(idfnt_fast(build_pilot_frame(params)), params)
    first = stream[: params.N]
    for m in range(1, params.M):
        assert np.array_equal(stream[m * params.N : (m + 1) * params.N], first)


def test_mimo_pilot_placement():
    params = WaveformParams(N=4, M=1)
    frame = build_mimo_pilot_frame(params, MimoConfig(num_tx=2), 1)
    assert np.array_equal(frame[:, 0], [0, 0, 1, 0])


def test_mimo_pilot_p0_equals_siso():
    params = WaveformParams(N=16, M=3)
    mimo = build_mimo_pilot_frame(params, MimoConfig(num_tx=4), 0)
    assert np.array_equal(mimo, build_pilot_frame(params))


def test_mimo_pilot_full_scale_allocation():
    params = WaveformParams(N=2048, M=1)
    for p in range(4):
        frame = build_mimo_pilot_frame(params, MimoConfig(num_tx=4), p)
        assert np.nonzero(frame[:, 0])[0].tolist() == [p * 512]


def test_mimo_pilot_orthogonality():
    params = WaveformParams(N=16, M=2)
    frames = [
        build_mimo_pilot_frame(params, MimoConfig(num_tx=4), p) for p in range(4)
    ]
    for p in range(4):
        for q in range(p + 1, 4):
            assert np.vdot(frames[p][:, 0], frames[q][:, 0]) == 0


def test_mimo_pilot_indivisible_rejected():
    params = WaveformParams(N=10, M=1)
    with pytest.raises(ValueError):
        build_mimo_pilot_frame(params, MimoConfig(num_tx=4), 0)
    with pytest.raises(ValueError):
        build_superposed_pilot_frame(params, MimoConfig(num_tx=4))


@pytest.mark.parametrize("num_tx", [1, 2, 4, 8])
def test_superposed_pilot_frame_is_the_sum_of_transmitter_frames(num_tx):
    params, mimo = WaveformParams(N=16, M=3), MimoConfig(num_tx=num_tx)
    frames = [build_mimo_pilot_frame(params, mimo, p) for p in range(num_tx)]
    assert np.array_equal(build_superposed_pilot_frame(params, mimo), sum(frames))


def test_radcom_frame_layout():
    params = WaveformParams(N=8, M=1)
    spec = RadComFrameSpec(N_CP=2)
    frame = build_radcom_frame(params, spec, np.zeros(10, dtype=np.uint8))
    s = qpsk_map([0, 0])[0]
    assert np.array_equal(frame[:, 0], [1, 0, s, s, s, s, s, 0])


def test_radcom_sector_partition():
    params = WaveformParams(N=32, M=1)
    spec = RadComFrameSpec(N_CP=8)
    n_data = spec.num_data_subchirps(params.N)
    frame = build_radcom_frame(params, spec, np.zeros(2 * n_data, dtype=np.uint8))
    support = set(np.nonzero(frame[:, 0])[0].tolist())
    pilot = {0}
    data = set(range(8, 32 - 8 + 1))
    assert support == pilot | data
    assert len(pilot) + (spec.N_CP - 1) + len(data) + (spec.N_CP - 1) == params.N


@pytest.mark.parametrize("num_tx", [1, 2, 4, 8, 32])
def test_mimo_slices_tile_the_frame(num_tx):
    n, mimo = 32, MimoConfig(num_tx=num_tx)
    rows = [r for tx in range(num_tx) for r in range(n)[mimo.slice_rows(n, tx)]]
    assert rows == list(range(n))


@pytest.mark.parametrize("n_cp", [1, 2, 8, 16])
def test_radcom_rows_partition_the_frame(n_cp):
    params, spec = WaveformParams(N=32, M=3), RadComFrameSpec(N_CP=n_cp, pilot_energy=2.0)
    radar = list(range(params.N)[spec.radar_rows])
    data = list(range(params.N)[spec.data_rows(params.N)])
    guard = list(range(params.N - n_cp + 1, params.N))
    assert len(radar) == n_cp and len(guard) == n_cp - 1
    assert radar + data + guard == list(range(params.N))

    bits = np.random.default_rng(n_cp).integers(0, 2, size=2 * len(data) * params.M)
    frame = build_radcom_frame(params, spec, bits)
    assert np.array_equal(frame[spec.data_rows(params.N)], qpsk_map(bits).reshape(len(data), params.M))
    assert not frame[guard].any()
    assert np.array_equal(frame[spec.radar_rows][0], np.full(params.M, np.sqrt(2.0)))
    assert not frame[spec.radar_rows][1:].any()


def test_data_rows_rejects_overlapping_sectors():
    assert RadComFrameSpec(N_CP=4).data_rows(9) == slice(4, 6)
    with pytest.raises(ValueError, match=r"sector layout needs 2\*N_CP-1 < N, got N_CP=5, N=9"):
        RadComFrameSpec(N_CP=5).data_rows(9)


def test_radcom_total_energy():
    params = WaveformParams(N=64, M=4)
    spec = RadComFrameSpec(N_CP=8, pilot_energy=2.0)
    n_data = spec.num_data_subchirps(params.N)
    rng = np.random.default_rng(0)
    frame = build_radcom_frame(params, spec, rng.integers(0, 2, size=2 * n_data * params.M))
    energy = np.sum(np.abs(frame) ** 2, axis=0)
    assert np.allclose(energy, spec.pilot_energy + n_data * 1.0)


def test_radcom_constraint_violations():
    params = WaveformParams(N=8, M=1)
    with pytest.raises(ValueError, match="sector layout"):
        build_radcom_frame(params, RadComFrameSpec(N_CP=5), np.zeros(2, dtype=np.uint8))
    with pytest.raises(ValueError, match="payload must be 10 bits"):
        build_radcom_frame(params, RadComFrameSpec(N_CP=2), np.zeros(8, dtype=np.uint8))
    with pytest.raises(ValueError, match="payload must be 10 bits"):
        build_radcom_frame(params, RadComFrameSpec(N_CP=2), np.zeros((5, 2), dtype=np.uint8))


@pytest.mark.parametrize("m", [1, 3, 1000])
def test_payload_bits_are_the_int64_draw(m):
    # draw_payload_bits is one rng.integers call cast to uint8: the same bits as the
    # int64 draw, and the generator left where that draw leaves it.
    params, spec = WaveformParams(N=256, M=m), RadComFrameSpec(N_CP=16)
    count = 2 * spec.num_data_subchirps(params.N) * m
    for seed in range(3):
        one_draw, payload = np.random.default_rng(seed), np.random.default_rng(seed)
        want = one_draw.integers(0, 2, size=count)
        got = draw_payload_bits(payload, params, spec)
        assert got.dtype == np.uint8 and np.array_equal(got, want)
        assert np.array_equal(payload.integers(0, 2**62, size=3), one_draw.integers(0, 2**62, size=3))


def test_radcom_frame_maps_its_payload_bit_for_bit():
    # Banded mapping equals scaling the whole symbol matrix: 225 data rows in bands of
    # 65, with sector energies other than 1.
    params = WaveformParams(N=256, M=1000)
    spec = RadComFrameSpec(N_CP=16, pilot_energy=2.0, symbol_energy=0.5)
    n_data = spec.num_data_subchirps(params.N)
    assert n_data % (framing._PAYLOAD_BAND // params.M)
    bits = draw_payload_bits(np.random.default_rng(11), params, spec)
    want = np.zeros((params.N, params.M), dtype=np.complex128)
    want[0, :] = np.sqrt(spec.pilot_energy)
    want[spec.data_rows(params.N), :] = (np.sqrt(spec.symbol_energy) * qpsk_map(bits)).reshape(n_data, params.M)
    frame = build_radcom_frame(params, spec, bits)
    assert frame.flags.c_contiguous
    assert np.array_equal(frame.view(np.uint64), want.view(np.uint64))


def test_radcom_data_rate_example():
    # 1025 modulated subchirps in a 2560-sample symbol at 1 GHz.
    params = WaveformParams(N=2048, M=1, N_CP=512)
    spec = RadComFrameSpec(N_CP=512)
    n_data = spec.num_data_subchirps(params.N)
    assert n_data == 1025
    rate = 2 * n_data / (params.symbol_len / params.B)
    assert round(rate / 1e9, 2) == 0.80


def test_qpsk_constellation():
    symbols = qpsk_map([0, 0, 0, 1, 1, 0, 1, 1])
    s = 1 / np.sqrt(2)
    expected = np.array([s + 1j * s, s - 1j * s, -s + 1j * s, -s - 1j * s])
    assert np.max(np.abs(symbols - expected)) < 1e-15


def test_qpsk_round_trip_all_patterns():
    bits = np.array([0, 0, 0, 1, 1, 0, 1, 1], dtype=np.uint8)
    assert np.array_equal(qpsk_demap(qpsk_map(bits)), bits)


def test_qpsk_odd_bit_count_rejected():
    with pytest.raises(ValueError):
        qpsk_map([0, 1, 0])


def test_qpsk_noisy_demap_error_free_at_30db():
    rng = np.random.default_rng(42)
    bits = rng.integers(0, 2, size=1_000_000).astype(np.uint8)
    symbols = qpsk_map(bits)
    sigma = np.sqrt(10 ** (-30 / 10) / 2)
    noisy = symbols + sigma * (
        rng.standard_normal(symbols.size) + 1j * rng.standard_normal(symbols.size)
    )
    assert np.count_nonzero(qpsk_demap(noisy) != bits) == 0


@pytest.mark.parametrize("n_cp", [0, 3])
def test_stream_layout_and_round_trip(n_cp):
    params = WaveformParams(N=8, M=3, N_CP=n_cp)
    rng = np.random.default_rng(n_cp)
    x = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
    stream = to_stream(x, params)
    assert stream.shape == (params.stream_len,)
    for i in range(params.stream_len):
        m, r = divmod(i, params.N + n_cp)
        assert stream[i] == x[(r - n_cp) % params.N, m]
    back = from_stream(stream, params)
    assert np.array_equal(back, x)
    assert np.shares_memory(back, stream)


def test_cp_prepends_tail():
    params = WaveformParams(N=8, M=2, N_CP=2)
    rng = np.random.default_rng(1)
    time = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
    blocks = to_stream(time, params).reshape(10, 2, order="F")
    assert np.array_equal(blocks[:2], time[6:8])
    assert np.array_equal(from_stream(blocks.ravel(order="F"), params), time)


def test_serialize_round_trip():
    params = WaveformParams(N=8, M=3, N_CP=2)
    rng = np.random.default_rng(2)
    frame = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
    assert np.array_equal(from_stream(to_stream(frame, params), params), frame)


def test_stream_shape_and_length_checks():
    params = WaveformParams(N=8, M=3, N_CP=2)
    for frame in (np.zeros((8, 2)), np.zeros((10, 3)), np.zeros(24)):
        with pytest.raises(ValueError):
            to_stream(frame, params)
    for stream in (np.zeros(29), np.zeros(31), np.zeros((10, 3))):
        with pytest.raises(ValueError):
            from_stream(stream, params)
    with pytest.raises(ValueError, match="frame must be"):
        modulate(np.zeros((8, 2)), params)


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("n_cp", [0, 24])
def test_modulate_equals_the_whole_frame_stream(order, n_cp):
    # Block by block into the stream buffer, a partial last block included, bit for bit.
    params = WaveformParams(N=256, M=2 * CHANNEL_BLOCK + 5, N_CP=n_cp)
    rng = np.random.default_rng(n_cp)
    frame = rng.standard_normal((params.N, params.M)) + 1j * rng.standard_normal((params.N, params.M))
    frame = np.asarray(frame, order=order)
    assert modulate(frame, params).tobytes() == to_stream(idfnt_fast(frame), params).tobytes()
