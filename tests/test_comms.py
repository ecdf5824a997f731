"""RadCom communication receiver and OFDM baseline."""

import numpy as np
import pytest

from ocdm_radar.channel import (
    CommChannelConfig,
    apply_comm_channel,
    apply_shift_channel,
    cfr_from_cir,
    two_tap_tilt_cir,
)
from ocdm_radar.comms import (
    _ofdm_pilot_values,
    data_rate_comb_pilot,
    data_rate_radcom,
    equalize_and_extract,
    estimate_comm_cfr,
    evm_and_snr,
    ofdm_grid,
    ofdm_modulate,
    ofdm_pilot_mask,
)
from ocdm_radar.framing import (
    CHANNEL_BLOCK,
    RadComFrameSpec,
    WaveformParams,
    build_pilot_frame,
    build_radcom_frame,
    qpsk_demap,
    qpsk_map,
    to_stream,
)
from ocdm_radar.fresnel import dfnt_fast, idfnt_fast, phase_fold_correct
from ocdm_radar.rxproc import doppler_process, estimate_peak, receive_frame
from reference import estimate_ofdm_cfr, ofdm_demodulate, ofdm_equalize, ofdm_radar_process


def radcom_link(params, spec, rng, channel_cfg):
    """One sector-modulated frame through the comm channel; returns pieces."""
    n_data = spec.num_data_subchirps(params.N)
    bits = rng.integers(0, 2, size=2 * n_data * params.M)
    frame = build_radcom_frame(params, spec, bits)
    symbols = frame[spec.data_rows(params.N)]
    tx = to_stream(idfnt_fast(frame), params)
    rx = apply_comm_channel(tx, channel_cfg, params)
    fresnel = phase_fold_correct(receive_frame(rx, params))  # the correction reapplied: the plain DFnT
    return bits, symbols, fresnel


def test_cfr_estimate_identity_channel():
    params = WaveformParams(N=64, M=8, N_CP=16)
    spec = RadComFrameSpec(N_CP=16)
    rng = np.random.default_rng(0)
    cfg = CommChannelConfig(cir=np.ones(1, dtype=complex))
    _, _, fresnel = radcom_link(params, spec, rng, cfg)
    cfr = estimate_comm_cfr(fresnel, spec, avg_symbols=8)
    assert np.max(np.abs(cfr - 1.0)) < 1e-9


@pytest.mark.parametrize("pilot_energy", [0.25, 4.0])
def test_cfr_estimate_divides_out_pilot_energy(pilot_energy):
    params = WaveformParams(N=64, M=8, N_CP=16)
    spec = RadComFrameSpec(N_CP=16, pilot_energy=pilot_energy)
    rng = np.random.default_rng(0)
    cfg = CommChannelConfig(cir=np.ones(1, dtype=complex))
    _, _, fresnel = radcom_link(params, spec, rng, cfg)
    cfr = estimate_comm_cfr(fresnel, spec, avg_symbols=8)
    assert np.max(np.abs(cfr - 1.0)) < 1e-9


def test_cfr_estimate_two_tap_channel():
    params = WaveformParams(N=64, M=8, N_CP=16)
    spec = RadComFrameSpec(N_CP=16)
    rng = np.random.default_rng(1)
    cir = np.array([1.0, 0.35 - 0.2j])
    cfg = CommChannelConfig(cir=cir)
    _, _, fresnel = radcom_link(params, spec, rng, cfg)
    cfr = estimate_comm_cfr(fresnel, spec, avg_symbols=8)
    assert np.max(np.abs(cfr - cfr_from_cir(cir, 64))) < 1e-8


def test_cfr_estimate_averaging_reduces_variance():
    params = WaveformParams(N=64, M=64, N_CP=8)
    spec = RadComFrameSpec(N_CP=8)
    cfg = CommChannelConfig(cir=np.ones(1, dtype=complex), snr_db=10.0, rng_seed=5)
    errs = {}
    for avg in (1, 64):
        rng = np.random.default_rng(2)
        _, _, fresnel = radcom_link(params, spec, rng, cfg)
        cfr = estimate_comm_cfr(fresnel, spec, avg_symbols=avg)
        errs[avg] = np.mean(np.abs(cfr - 1.0) ** 2)
    ratio = errs[1] / errs[64]
    assert 25 < ratio < 160


def test_cfr_estimate_validation():
    with pytest.raises(ValueError):
        estimate_comm_cfr(np.zeros((8, 4), dtype=complex), RadComFrameSpec(N_CP=2), avg_symbols=0)
    with pytest.raises(ValueError):
        estimate_comm_cfr(np.zeros((8, 4), dtype=complex), RadComFrameSpec(N_CP=0), avg_symbols=1)


def test_equalize_identity_noise_free():
    params = WaveformParams(N=64, M=4, N_CP=16)
    spec = RadComFrameSpec(N_CP=16)
    rng = np.random.default_rng(3)
    cfg = CommChannelConfig(cir=np.ones(1, dtype=complex))
    _, symbols, fresnel = radcom_link(params, spec, rng, cfg)
    recovered = equalize_and_extract(fresnel, np.ones(64, dtype=complex), spec)
    assert np.max(np.abs(recovered - symbols)) < 1e-9


def test_equalize_inverts_any_invertible_cfr():
    params = WaveformParams(N=64, M=4, N_CP=16)
    spec = RadComFrameSpec(N_CP=16)
    rng = np.random.default_rng(4)
    cir = np.array([0.8, 0.3 + 0.4j, -0.2j])
    cfg = CommChannelConfig(cir=cir)
    _, symbols, fresnel = radcom_link(params, spec, rng, cfg)
    recovered = equalize_and_extract(fresnel, cfr_from_cir(cir, 64), spec)
    assert np.max(np.abs(recovered - symbols)) < 1e-8


def test_equalize_matches_the_time_domain_chain():
    # Reference: back to time (IDFnT), zero-forcing there, forward again (DFnT).
    # The Fresnel-domain equalizer must be the same operator (convolution theorem).
    rng = np.random.default_rng(12)
    for n, m, n_cp in ((16, 3, 4), (64, 5, 16), (256, 2, 40)):
        frame = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
        cfr = (0.2 + rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
        spec = RadComFrameSpec(N_CP=n_cp)
        spectrum = np.fft.fft(idfnt_fast(frame), axis=0) / cfr[:, None]
        want = dfnt_fast(np.fft.ifft(spectrum, axis=0))[spec.data_rows(n)]
        got = equalize_and_extract(frame, cfr, spec)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("order", ["F", "C"])
def test_block_equalizer_equals_the_whole_frame_quotient(order):
    # M = 130 leaves a partial last block.  The data rows keep the whole-frame
    # result's memory order, so evm_and_snr sums them in the same order.
    params = WaveformParams(N=64, M=2 * CHANNEL_BLOCK + 2, N_CP=8)
    spec = RadComFrameSpec(N_CP=params.N_CP)
    rng = np.random.default_rng(17)
    frame = rng.standard_normal((params.N, params.M)) + 1j * rng.standard_normal((params.N, params.M))
    frame = np.asarray(frame, order=order)
    cfr = (0.2 + rng.random(params.N)) * np.exp(2j * np.pi * rng.random(params.N))
    want = np.fft.ifft(np.fft.fft(frame, axis=0) / cfr[:, None], axis=0)[spec.data_rows(params.N)]
    got = equalize_and_extract(frame, cfr, spec)
    assert got.tobytes() == want.tobytes()
    assert np.argsort(got.strides).tolist() == np.argsort(want.strides).tolist()


def test_equalize_rejects_zero_bin():
    spec = RadComFrameSpec(N_CP=4)
    cfr = np.ones(16, dtype=complex)
    cfr[5] = 0.0
    with pytest.raises(ValueError):
        equalize_and_extract(np.zeros((16, 2), dtype=complex), cfr, spec)


def test_error_free_decisions_over_tilted_channel():
    params = WaveformParams(N=128, M=256, N_CP=32)
    spec = RadComFrameSpec(N_CP=32)
    rng = np.random.default_rng(6)
    cfg = CommChannelConfig(cir=two_tap_tilt_cir(10.0), snr_db=30.0, rng_seed=7)
    bits, symbols, fresnel = radcom_link(params, spec, rng, cfg)
    cfr = estimate_comm_cfr(fresnel, spec, avg_symbols=params.M)
    recovered = equalize_and_extract(fresnel, cfr, spec)
    assert recovered.shape[0] * params.M >= 1e4
    rx_bits = qpsk_demap(recovered)
    assert np.count_nonzero(rx_bits != bits) == 0


def test_ocdm_error_power_uniform_across_subchirps():
    params = WaveformParams(N=128, M=512, N_CP=32)
    spec = RadComFrameSpec(N_CP=32)
    rng = np.random.default_rng(8)
    cfg = CommChannelConfig(cir=two_tap_tilt_cir(10.0), snr_db=20.0, rng_seed=9)
    _, symbols, fresnel = radcom_link(params, spec, rng, cfg)
    cfr = estimate_comm_cfr(fresnel, spec, avg_symbols=params.M)
    recovered = equalize_and_extract(fresnel, cfr, spec)
    err = np.mean(np.abs(recovered - symbols) ** 2, axis=1)
    spread_db = 10 * np.log10(err.max() / err.min())
    # chi-square estimation scatter only, no systematic per-subchirp tilt
    assert spread_db < 3.0


def test_evm_report_exact_match_floor():
    ref = qpsk_map([0, 1, 1, 0, 0, 0, 1, 1]).reshape(2, 2)
    report = evm_and_snr(ref.copy(), ref)
    assert report.evm_mean_db == -120.0


def test_evm_tracks_known_noise_level():
    rng = np.random.default_rng(10)
    ref = qpsk_map(rng.integers(0, 2, size=2 * 100_000)).reshape(100, 1000)
    sigma = np.sqrt(10 ** (-20 / 10))
    rx = ref + sigma / np.sqrt(2) * (
        rng.standard_normal(ref.shape) + 1j * rng.standard_normal(ref.shape)
    )
    report = evm_and_snr(rx, ref)
    assert abs(report.evm_mean_db - (-20.0)) < 0.3
    assert abs(report.est_snr_db - 20.0) < 0.3


def test_evm_validation():
    with pytest.raises(ValueError):
        evm_and_snr(np.zeros((2, 2)), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        evm_and_snr(np.zeros((0, 2)), np.zeros((0, 2)))


def test_ofdm_loopback_identity():
    params = WaveformParams(N=64, M=8, N_CP=16)
    rng = np.random.default_rng(11)
    mask = ofdm_pilot_mask(64)
    n_data = 64 - int(mask.sum())
    bits = rng.integers(0, 2, size=2 * n_data * params.M)
    grid = ofdm_grid(qpsk_map(bits).reshape(n_data, params.M), params)
    rx_grid = ofdm_demodulate(ofdm_modulate(grid, params), params)
    assert np.max(np.abs(rx_grid - grid)) < 1e-10
    data = ofdm_equalize(rx_grid, np.ones(64, dtype=complex), params)
    assert np.count_nonzero(qpsk_demap(data) != bits) == 0


def test_ofdm_cfr_estimate_interpolates():
    params = WaveformParams(N=64, M=16, N_CP=8)
    rng = np.random.default_rng(12)
    cir = np.array([1.0, 0.4 - 0.1j])
    mask = ofdm_pilot_mask(64)
    n_data = 64 - int(mask.sum())
    bits = rng.integers(0, 2, size=2 * n_data * params.M)
    grid = ofdm_grid(qpsk_map(bits).reshape(n_data, params.M), params)
    rx = apply_comm_channel(ofdm_modulate(grid, params), CommChannelConfig(cir=cir), params)
    cfr_est = estimate_ofdm_cfr(ofdm_demodulate(rx, params), params)
    true_cfr = cfr_from_cir(cir, 64)
    # linear interpolation on a smooth 2-tap response: small residual
    assert np.max(np.abs(cfr_est - true_cfr)) < 0.05


def test_ofdm_radar_same_peak_bin_as_ocdm():
    params = WaveformParams(N=256, M=16, N_CP=64)
    rng = np.random.default_rng(13)
    mask = ofdm_pilot_mask(256)
    n_data = 256 - int(mask.sum())
    bits = rng.integers(0, 2, size=2 * n_data * params.M)
    grid = ofdm_grid(qpsk_map(bits).reshape(n_data, params.M), params)
    tx = ofdm_modulate(grid, params)
    shifts = [(50.0, 0.0, 1.0)]
    rx = apply_shift_channel(tx, params, shifts)
    image = ofdm_radar_process(grid, ofdm_demodulate(rx, params), params)
    peak_ofdm = estimate_peak(image)

    pilot = to_stream(idfnt_fast(build_pilot_frame(params)), params)
    rx_ocdm = apply_shift_channel(pilot, params, shifts)
    peak_ocdm = estimate_peak(doppler_process(receive_frame(rx_ocdm, params), params))
    assert peak_ofdm.range_m == peak_ocdm.range_m
    assert peak_ofdm.velocity_mps == peak_ocdm.velocity_mps


def test_ofdm_radar_comparable_at_tolerable_doppler():
    # |k_delta| = 0.1: both range cuts keep their peak within one bin and the
    # OCDM peak loss stays within ~0.5 dB of the OFDM one.
    params = WaveformParams(N=256, M=20, N_CP=0)
    rng = np.random.default_rng(14)
    mask = ofdm_pilot_mask(256)
    n_data = 256 - int(mask.sum())
    bits = rng.integers(0, 2, size=2 * n_data * params.M)
    grid = ofdm_grid(qpsk_map(bits).reshape(n_data, params.M), params)
    shifts = [(50.0, -0.1, 1.0)]
    rx = apply_shift_channel(ofdm_modulate(grid, params), params, shifts)
    img_ofdm = ofdm_radar_process(grid, ofdm_demodulate(rx, params), params)

    pilot = to_stream(idfnt_fast(build_pilot_frame(params)), params)
    rx_ocdm = apply_shift_channel(pilot, params, shifts)
    img_ocdm = doppler_process(receive_frame(rx_ocdm, params), params)

    for img in (img_ofdm, img_ocdm):
        assert np.argmax(np.max(img.magnitude, axis=1)) == 50

    def peak_loss_db(img_doppler, img_static):
        return 20 * np.log10(img_static.magnitude.max() / img_doppler.magnitude.max())

    rx0 = apply_shift_channel(ofdm_modulate(grid, params), params, [(50.0, 0.0, 1.0)])
    img_ofdm0 = ofdm_radar_process(grid, ofdm_demodulate(rx0, params), params)
    rx_ocdm0 = apply_shift_channel(pilot, params, [(50.0, 0.0, 1.0)])
    img_ocdm0 = doppler_process(receive_frame(rx_ocdm0, params), params)
    loss_ofdm = peak_loss_db(img_ofdm, img_ofdm0)
    loss_ocdm = peak_loss_db(img_ocdm, img_ocdm0)
    assert abs(loss_ofdm - loss_ocdm) < 0.5


def test_ofdm_radar_zero_symbol_rejected():
    params = WaveformParams(N=16, M=2)
    grid = np.ones((16, 2), dtype=complex)
    grid[3, 1] = 0.0
    with pytest.raises(ValueError):
        ofdm_radar_process(grid, np.ones((16, 2), dtype=complex), params)


def test_data_rates_reference_configs():
    params = WaveformParams(N=2048, M=4096, N_CP=512, B=1e9, fc=79e9)
    assert round(data_rate_radcom(params) / 1e9, 2) == 0.80
    assert round(data_rate_comb_pilot(params) / 1e9, 2) == 1.40


def test_ofdm_evm_spread_exceeds_ocdm_over_selective_channel():
    params = WaveformParams(N=128, M=256, N_CP=32)
    spec = RadComFrameSpec(N_CP=32)
    cir = two_tap_tilt_cir(10.0)
    snr_db = 20.0

    rng = np.random.default_rng(15)
    cfg = CommChannelConfig(cir=cir, snr_db=snr_db, rng_seed=16)
    _, symbols, fresnel = radcom_link(params, spec, rng, cfg)
    cfr = estimate_comm_cfr(fresnel, spec, avg_symbols=params.M)
    rec = equalize_and_extract(fresnel, cfr, spec)
    ocdm_report = evm_and_snr(rec, symbols)

    mask = ofdm_pilot_mask(params.N)
    n_data = params.N - int(mask.sum())
    bits = rng.integers(0, 2, size=2 * n_data * params.M)
    grid = ofdm_grid(qpsk_map(bits).reshape(n_data, params.M), params)
    rx = apply_comm_channel(
        ofdm_modulate(grid, params),
        CommChannelConfig(cir=cir, snr_db=snr_db, rng_seed=17),
        params,
    )
    rx_grid = ofdm_demodulate(rx, params)
    cfr_est = estimate_ofdm_cfr(rx_grid, params)
    data = ofdm_equalize(rx_grid, cfr_est, params)
    ofdm_report = evm_and_snr(data, grid[~mask])

    assert ofdm_report.evm_std_db > ocdm_report.evm_std_db


@pytest.mark.parametrize("n", [64, 2048])
def test_ofdm_pilot_values_are_built_once_per_length_and_read_only(n):
    count = int(ofdm_pilot_mask(n).sum())
    fresh = qpsk_map(np.random.default_rng(0x0FD).integers(0, 2, size=2 * count))
    assert _ofdm_pilot_values(n) is _ofdm_pilot_values(n)
    assert _ofdm_pilot_values(n).tobytes() == fresh.tobytes()
    with pytest.raises(ValueError, match="read-only"):
        _ofdm_pilot_values(n)[0] = 0.0
