"""Frame builders, QPSK mapping, CP and serialization round trips."""

import numpy as np
import pytest

from ocdm_radar.framing import (
    MimoConfig,
    RadComFrameSpec,
    WaveformParams,
    add_cp,
    build_mimo_pilot_frame,
    build_pilot_frame,
    build_radcom_frame,
    deserialize,
    qpsk_demap,
    qpsk_map,
    remove_cp,
    serialize,
    to_time_frame,
)


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
    time = to_time_frame(frame)
    assert np.max(np.abs(np.abs(time) - 1.0 / params.N)) < 1e-12


def test_pilot_stream_is_periodic_without_cp():
    params = WaveformParams(N=16, M=4, N_CP=0)
    stream = serialize(add_cp(to_time_frame(build_pilot_frame(params)), 0))
    first = stream[: params.N]
    for m in range(1, params.M):
        assert np.array_equal(stream[m * params.N : (m + 1) * params.N], first)


def test_mimo_pilot_placement():
    params = WaveformParams(N=4, M=1)
    frame = build_mimo_pilot_frame(params, MimoConfig(num_tx=2, tx=1))
    assert np.array_equal(frame[:, 0], [0, 0, 1, 0])


def test_mimo_pilot_p0_equals_siso():
    params = WaveformParams(N=16, M=3)
    mimo = build_mimo_pilot_frame(params, MimoConfig(num_tx=4, tx=0))
    assert np.array_equal(mimo, build_pilot_frame(params))


def test_mimo_pilot_full_scale_allocation():
    params = WaveformParams(N=2048, M=1)
    for p in range(4):
        frame = build_mimo_pilot_frame(params, MimoConfig(num_tx=4, tx=p))
        assert np.nonzero(frame[:, 0])[0].tolist() == [p * 512]


def test_mimo_pilot_orthogonality():
    params = WaveformParams(N=16, M=2)
    frames = [
        build_mimo_pilot_frame(params, MimoConfig(num_tx=4, tx=p)) for p in range(4)
    ]
    for p in range(4):
        for q in range(p + 1, 4):
            assert np.vdot(frames[p][:, 0], frames[q][:, 0]) == 0


def test_mimo_pilot_indivisible_rejected():
    params = WaveformParams(N=10, M=1)
    with pytest.raises(ValueError):
        build_mimo_pilot_frame(params, MimoConfig(num_tx=4, tx=0))


def test_radcom_frame_layout():
    params = WaveformParams(N=8, M=1)
    spec = RadComFrameSpec(N_CP=2)
    symbols = np.ones((5, 1), dtype=complex)
    frame = build_radcom_frame(params, spec, symbols)
    assert np.array_equal(frame[:, 0], [1, 0, 1, 1, 1, 1, 1, 0])


def test_radcom_sector_partition():
    params = WaveformParams(N=32, M=1)
    spec = RadComFrameSpec(N_CP=8)
    n_data = spec.num_data_subchirps(params.N)
    frame = build_radcom_frame(params, spec, np.ones((n_data, 1), dtype=complex))
    support = set(np.nonzero(frame[:, 0])[0].tolist())
    pilot = {0}
    data = set(range(8, 32 - 8 + 1))
    assert support == pilot | data
    assert len(pilot) + (spec.N_CP - 1) + len(data) + (spec.N_CP - 1) == params.N


def test_radcom_total_energy():
    params = WaveformParams(N=64, M=4)
    spec = RadComFrameSpec(N_CP=8, pilot_energy=2.0)
    n_data = spec.num_data_subchirps(params.N)
    rng = np.random.default_rng(0)
    symbols = qpsk_map(rng.integers(0, 2, size=2 * n_data * params.M)).reshape(
        n_data, params.M
    )
    frame = build_radcom_frame(params, spec, symbols)
    energy = np.sum(np.abs(frame) ** 2, axis=0)
    assert np.allclose(energy, spec.pilot_energy + n_data * 1.0)


def test_radcom_constraint_violations():
    params = WaveformParams(N=8, M=1)
    with pytest.raises(ValueError):
        build_radcom_frame(params, RadComFrameSpec(N_CP=5), np.ones((1, 1)))
    with pytest.raises(ValueError):
        build_radcom_frame(params, RadComFrameSpec(N_CP=2), np.ones((4, 1)))


def test_radcom_data_rate_example():
    # 1025 modulated subchirps in a 2560-sample symbol at 1 GHz.
    params = WaveformParams(N=2048, M=1, N_CP=512)
    spec = RadComFrameSpec(N_CP=512)
    n_data = spec.num_data_subchirps(params.N)
    assert n_data == 1025
    rate = 2 * n_data / params.symbol_duration
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


def test_add_cp_identity_when_zero():
    frame = np.arange(12, dtype=complex).reshape(4, 3)
    assert np.array_equal(add_cp(frame, 0), frame)


def test_cp_prepends_tail():
    params = WaveformParams(N=8, M=2, N_CP=2)
    rng = np.random.default_rng(1)
    time = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
    with_cp = add_cp(time, 2)
    assert np.array_equal(with_cp[:2], time[6:8])
    assert np.array_equal(remove_cp(with_cp, 2), time)


def test_serialize_round_trip():
    params = WaveformParams(N=8, M=3, N_CP=2)
    rng = np.random.default_rng(2)
    frame = rng.standard_normal((10, 3)) + 1j * rng.standard_normal((10, 3))
    assert np.array_equal(deserialize(serialize(frame), params), frame)


def test_deserialize_length_check():
    params = WaveformParams(N=8, M=3, N_CP=2)
    with pytest.raises(ValueError):
        deserialize(np.zeros(29, dtype=complex), params)
