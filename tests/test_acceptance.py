"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and measured values.
"""

import time

import numpy as np
import pytest

from ocdm_radar.analysis import (
    doppler_tolerance_sweep,
    ofdm_symbol_builder,
    papr_ccdf,
    pilot_symbol_builder,
    radcom_symbol_builder,
    single_point_image,
)
from ocdm_radar.channel import (
    CommChannelConfig,
    apply_comm_channel,
    apply_shift_channel,
    biased_cir_from_shifts,
    cfr_from_cir,
    two_tap_tilt_cir,
)
from ocdm_radar.comms import (
    data_rate_comb_pilot,
    data_rate_radcom,
    equalize_and_extract,
    estimate_comm_cfr,
    estimate_ofdm_cfr,
    evm_and_snr,
    ofdm_demodulate,
    ofdm_equalize,
    ofdm_grid,
    ofdm_modulate,
    ofdm_pilot_mask,
)
from ocdm_radar.framing import (
    MimoConfig,
    RadComFrameSpec,
    WaveformParams,
    build_mimo_pilot_frame,
    build_pilot_frame,
    build_radcom_frame,
    qpsk_demap,
    qpsk_map,
    to_stream,
)
from ocdm_radar.fresnel import dfnt_direct, dfnt_fast, idfnt_direct, idfnt_fast
from ocdm_radar.rxproc import (
    compute_radar_params,
    doppler_process,
    receive_frame,
)


def report(index: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {index:02d}: {'PASS' if ok else 'FAIL'} - {detail}")


def pilot_stream(params):
    return to_stream(idfnt_fast(build_pilot_frame(params)), params)


def test_criterion_01_transform_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    worst = 0.0
    for n in (4, 8, 64, 256, 2048):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        worst = max(worst, np.max(np.abs(dfnt_fast(idfnt_fast(x)) - x)))
        worst = max(worst, np.max(np.abs(idfnt_fast(dfnt_fast(x)) - x)))
        worst = max(worst, np.max(np.abs(dfnt_fast(x) - dfnt_direct(x))))
        worst = max(worst, np.max(np.abs(idfnt_fast(x) - idfnt_direct(x))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 5.0
    report(1, ok, f"max error {worst:.2e}, runtime {elapsed:.2f} s")
    assert worst <= 1e-9
    assert elapsed < 5.0


def test_criterion_02_shift_theorems():
    n = 64
    rng = np.random.default_rng(2)
    idx = np.arange(n)
    worst = 0.0
    for k_delta in range(-32, 32):
        x_fres = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        h = np.zeros(n, dtype=complex)
        h[:2] = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        h_fft = np.fft.fft(h)
        time_domain = idfnt_fast(x_fres)
        phase = np.exp(1j * np.pi / n * (2 * idx * k_delta - k_delta**2))

        # frequency-shift effect on the subchirp coefficients
        got = dfnt_fast(time_domain * np.exp(2j * np.pi * k_delta * idx / n))
        want = np.roll(x_fres, k_delta) * phase
        worst = max(worst, np.max(np.abs(got - want)))

        # convolution theorem
        got = dfnt_fast(np.fft.ifft(np.fft.fft(time_domain) * h_fft))
        want = np.fft.ifft(np.fft.fft(x_fres) * h_fft)
        worst = max(worst, np.max(np.abs(got - want)))

        # joint delay + integer frequency shift with a symbol phase
        phi = float(rng.uniform(0, 2 * np.pi))
        y = (
            np.fft.ifft(np.fft.fft(time_domain) * h_fft)
            * np.exp(2j * np.pi * k_delta * idx / n)
            * np.exp(1j * phi)
        )
        got = dfnt_fast(y)
        want = (
            np.exp(1j * phi)
            * np.roll(np.fft.ifft(np.fft.fft(x_fres) * h_fft), k_delta)
            * phase
        )
        worst = max(worst, np.max(np.abs(got - want)))
    ok = worst <= 1e-9
    report(2, ok, f"max error over k_delta in [-32,31]: {worst:.2e}")
    assert ok


def test_criterion_03_closed_form_oracle_equivalence():
    t0 = time.perf_counter()
    params = WaveformParams(N=256, M=16)
    stream = pilot_stream(params)
    worst = 0.0
    for n_delta in (0.0, 0.5, 50.0, 50.5):
        for k_delta in (0.0, 0.1, -0.1, 0.25, -0.25, 0.5, -0.5, 1.0):
            shifts = [(n_delta, k_delta, 1.0)]
            got = receive_frame(apply_shift_channel(stream, params, shifts), params)
            want = biased_cir_from_shifts(shifts, params)
            worst = max(worst, np.max(np.abs(got - want)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 120.0
    report(3, ok, f"max |pipeline - oracle| {worst:.2e}, runtime {elapsed:.1f} s")
    assert worst <= 1e-8
    assert elapsed < 120.0


def test_criterion_04_reference_parameter_table():
    full = WaveformParams(N=2048, M=5120, N_CP=0, B=1e9, fc=79e9)
    rp = compute_radar_params(full)
    radcom = compute_radar_params(WaveformParams(N=2048, M=4096, N_CP=512, B=1e9, fc=79e9))
    mimo = compute_radar_params(full, num_tx=4)
    values = {
        "G_p": (round(rp.processing_gain_db, 2), 70.21),
        "dR": (round(rp.range_resolution_m, 2), 0.15),
        "R_max": (round(rp.max_unambiguous_range_m, 2), 307.20),
        "dv": (round(rp.velocity_resolution_mps, 2), 0.18),
        "v_max": (round(rp.max_unambiguous_velocity_mps, 2), 463.56),
        "G_p_radcom": (round(radcom.processing_gain_db, 2), 69.24),
        "R_cp": (round(radcom.max_cp_range_m, 2), 76.8),
        "R_mimo": (round(mimo.mimo_max_unambiguous_range_m, 2), 76.8),
    }
    ok = all(got == want for got, want in values.values())
    report(4, ok, ", ".join(f"{k}={got}" for k, (got, want) in values.items()))
    assert ok, values


def test_criterion_05_processing_gain():
    t0 = time.perf_counter()
    params = WaveformParams(N=256, M=64)
    stream = pilot_stream(params)
    expected = 10 * np.log10(params.N * params.M)
    ratios = []
    for trial in range(20):
        rx = apply_shift_channel(
            stream, params, [(50.0, 0.0, 1.0)], snr_db=0.0, rng_seed=trial
        )
        image = doppler_process(receive_frame(rx, params), params)
        power = image.magnitude**2
        r, c = np.unravel_index(int(np.argmax(power)), power.shape)
        mask = np.ones_like(power, dtype=bool)
        mask[r, c] = False
        ratios.append(10 * np.log10(power[r, c] / power[mask].mean()))
    measured = float(np.mean(ratios))
    elapsed = time.perf_counter() - t0
    ok = abs(measured - expected) <= 0.5 and elapsed < 60.0
    report(5, ok, f"peak-to-floor {measured:.2f} dB vs {expected:.2f} dB, {elapsed:.1f} s")
    assert abs(measured - expected) <= 0.5
    assert elapsed < 60.0


def test_criterion_06_doppler_tolerance_desk_scale():
    # M = 40 keeps every grid k_delta on a Doppler bin, isolating the
    # range-dimension loss the tolerance criterion describes.
    params = WaveformParams(N=256, M=40)
    n_grid = [0, 16, 32, 50, 64, 96, 128, 160, 192, 224, 240]
    k_grid = [-0.5, -0.25, -0.1, 0.0, 0.1, 0.25, 0.5]
    result = doppler_tolerance_sweep(params, n_grid, k_grid)
    k = np.asarray(k_grid)
    small = -result.pplr_db[:, np.abs(k) <= 0.1 + 1e-12]
    worst_small = float(small.max())
    at_half = -result.pplr_db[:, np.isclose(np.abs(k), 0.5)]
    worst_half = float(at_half.max())
    ok = worst_small <= 0.2 and 3.0 <= worst_half <= 5.0
    report(
        6,
        ok,
        f"degradation {worst_small:.3f} dB for |k|<=0.1, worst {worst_half:.2f} dB at |k|=0.5",
    )
    assert worst_small <= 0.2
    assert 3.0 <= worst_half <= 5.0


def test_criterion_07_range_doppler_coupling():
    params = WaveformParams(N=256, M=16)
    image = single_point_image(params, 50.0, 1.0)
    peak_bin = int(np.argmax(np.max(image.magnitude, axis=1)))
    coupled_ok = peak_bin == 51

    params_split = WaveformParams(N=256, M=40)
    image = single_point_image(params_split, 200.0, -0.5)
    cut = image.magnitude[:, int(np.argmax(np.max(image.magnitude, axis=0)))]
    order = np.argsort(cut)[::-1]
    adjacent = abs(int(order[0]) - int(order[1])) == 1
    ratio_db = float(20 * np.log10(cut[order[0]] / cut[order[1]]))
    split_ok = adjacent and ratio_db <= 3.0
    ok = coupled_ok and split_ok
    report(
        7,
        ok,
        f"k=1 peak bin {peak_bin} (want 51); split bins adjacent={adjacent}, ratio {ratio_db:.2f} dB",
    )
    assert coupled_ok
    assert split_ok


def test_criterion_08_mimo_isolation():
    params = WaveformParams(N=256, M=40)
    mimo = MimoConfig(num_tx=4)

    # noise-free integer-bin static target: exact slice orthogonality
    stream = to_stream(idfnt_fast(build_mimo_pilot_frame(params, mimo, 2)), params)
    frame = receive_frame(apply_shift_channel(stream, params, [(50.0, 0.0, 1.0)]), params)
    own_peak = float(np.max(np.abs(frame[mimo.slice_rows(params.N, 2)])) ** 2)
    leak = max(
        float(np.max(np.abs(frame[mimo.slice_rows(params.N, p)])) ** 2) for p in (0, 1, 3)
    )
    leak_db = 10 * np.log10(leak / own_peak)

    # k_delta = -0.1: every slice's range cut matches the SISO cut
    shifts = [(50.0, -0.1, 1.0)]
    siso = doppler_process(receive_frame(apply_shift_channel(pilot_stream(params), params, shifts), params), params)
    col = int(np.argmax(np.max(siso.magnitude, axis=0)))
    window = np.arange(50 - 5, 50 + 6) % params.N
    ref_cut = siso.magnitude[window, col]
    ref_db = 20 * np.log10(ref_cut / ref_cut.max())
    worst_cut = 0.0
    for p in range(4):
        s = to_stream(idfnt_fast(build_mimo_pilot_frame(params, mimo, p)), params)
        sliced = receive_frame(apply_shift_channel(s, params, shifts), params)[mimo.slice_rows(params.N, p)]
        img = doppler_process(sliced, params)
        colp = int(np.argmax(np.max(img.magnitude, axis=0)))
        cut = img.magnitude[window, colp]
        cut_db = 20 * np.log10(cut / cut.max())
        worst_cut = max(worst_cut, float(np.max(np.abs(cut_db - ref_db))))
    ok = leak_db <= -200 and worst_cut <= 0.1
    report(8, ok, f"leakage {leak_db:.0f} dB, worst cut mismatch {worst_cut:.2e} dB")
    assert leak_db <= -200
    assert worst_cut <= 0.1


def test_criterion_09_radcom_guard_interval():
    params = WaveformParams(N=256, M=8, N_CP=64)
    spec = RadComFrameSpec(N_CP=64)
    n_data = spec.num_data_subchirps(params.N)
    rng = np.random.default_rng(9)
    frame = build_radcom_frame(params, spec, rng.integers(0, 2, 2 * n_data * params.M))
    with_data = to_stream(idfnt_fast(frame), params)
    frame[spec.data_rows(params.N)] = 0  # the pilot alone
    without = to_stream(idfnt_fast(frame), params)

    worst = 0.0
    for delay in range(spec.N_CP):
        shifts = [(float(delay), 0.0, 1.0)]
        cir_a = receive_frame(apply_shift_channel(with_data, params, shifts), params)[spec.radar_rows]
        cir_b = receive_frame(apply_shift_channel(without, params, shifts), params)[spec.radar_rows]
        worst = max(worst, float(np.max(np.abs(cir_a - cir_b))))

    shifts = [(80.0, 0.0, 1.0)]  # delay beyond N_CP
    bad_a = receive_frame(apply_shift_channel(with_data, params, shifts), params)[spec.radar_rows]
    bad_b = receive_frame(apply_shift_channel(without, params, shifts), params)[spec.radar_rows]
    violation = float(np.max(np.abs(bad_a - bad_b)))
    ok = worst <= 1e-9 and violation > 1e-3
    report(
        9,
        ok,
        f"CIR payload sensitivity {worst:.2e} for delays < N_CP; {violation:.2e} at delay 80",
    )
    assert worst <= 1e-9
    assert violation > 1e-3


def test_criterion_10_communication_loopback():
    params = WaveformParams(N=256, M=800, N_CP=64)
    spec = RadComFrameSpec(N_CP=64)
    n_data = spec.num_data_subchirps(params.N)
    assert n_data * params.M >= 1e5

    cir = two_tap_tilt_cir(10.0)
    snr_db = 30.0
    rng = np.random.default_rng(10)
    bits = rng.integers(0, 2, size=2 * n_data * params.M)
    frame = build_radcom_frame(params, spec, bits)
    symbols = frame[spec.data_rows(params.N)]
    tx = to_stream(idfnt_fast(frame), params)

    clean = apply_comm_channel(tx, CommChannelConfig(cir=cir), params)
    rx = apply_comm_channel(
        tx, CommChannelConfig(cir=cir, snr_db=snr_db, rng_seed=11), params
    )
    fresnel = receive_frame(rx, params, correct_fold=False)
    cfr_est = estimate_comm_cfr(fresnel, spec, avg_symbols=params.M)
    recovered = equalize_and_extract(fresnel, cfr_est, spec)
    errors = int(np.count_nonzero(qpsk_demap(recovered) != bits))
    ocdm_report = evm_and_snr(recovered, symbols)

    # analytic post-equalizer EVM: ZF noise enhancement spread over subchirps
    sigma2 = float(np.mean(np.abs(clean) ** 2)) * 10 ** (-snr_db / 10)
    cfr_true = cfr_from_cir(cir, params.N)
    err_power = params.N * sigma2 * float(np.mean(1.0 / np.abs(cfr_true) ** 2))
    analytic_evm_db = 10 * np.log10(err_power / 1.0)
    evm_ok = abs(ocdm_report.evm_mean_db - analytic_evm_db) <= 1.0

    # OFDM baseline under the identical channel and SNR definition
    mask = ofdm_pilot_mask(params.N)
    n_ofdm = params.N - int(mask.sum())
    ofdm_bits = rng.integers(0, 2, size=2 * n_ofdm * params.M)
    grid = ofdm_grid(qpsk_map(ofdm_bits).reshape(n_ofdm, params.M), params)
    rx_ofdm = apply_comm_channel(
        ofdm_modulate(grid, params),
        CommChannelConfig(cir=cir, snr_db=snr_db, rng_seed=12),
        params,
    )
    rx_grid = ofdm_demodulate(rx_ofdm, params)
    data = ofdm_equalize(rx_grid, estimate_ofdm_cfr(rx_grid, params), params)
    ofdm_report = evm_and_snr(data, grid[~mask])
    spread_ok = ofdm_report.evm_std_db > ocdm_report.evm_std_db

    ok = errors == 0 and evm_ok and spread_ok
    report(
        10,
        ok,
        f"bit errors {errors}/{bits.size}, EVM {ocdm_report.evm_mean_db:.2f} dB "
        f"(analytic {analytic_evm_db:.2f}), std OCDM {ocdm_report.evm_std_db:.2f} "
        f"< OFDM {ofdm_report.evm_std_db:.2f}",
    )
    assert errors == 0
    assert evm_ok
    assert spread_ok


def test_criterion_11_papr():
    t0 = time.perf_counter()
    params = WaveformParams(N=2048, M=1, N_CP=512)
    spec = RadComFrameSpec(N_CP=512)
    trials = 10_000
    pilot = papr_ccdf(pilot_symbol_builder(params), trials=1, oversample=20)
    sector = papr_ccdf(
        radcom_symbol_builder(params, spec), trials=trials, oversample=20, rng_seed=21
    )
    ofdm = papr_ccdf(ofdm_symbol_builder(params), trials=trials, oversample=20, rng_seed=22)
    elapsed = time.perf_counter() - t0

    pilot_papr = pilot.mean_papr_db
    delta_mean = sector.mean_papr_db - pilot_papr
    gap = ofdm.papr_at_probability(1e-2) - sector.papr_at_probability(1e-2)

    pilot_ok = pilot_papr <= 0.5
    delta_ok = 5.0 <= delta_mean <= 7.0
    gap_ok = 0.6 <= gap <= 1.6
    time_ok = elapsed < 300.0
    ok = pilot_ok and delta_ok and gap_ok and time_ok
    report(
        11,
        ok,
        f"pilot {pilot_papr:.2f} dB (<=0.5: {pilot_ok}), "
        f"sector-pilot {delta_mean:.2f} dB (6+-1: {delta_ok}), "
        f"ccdf@1e-2 gap {gap:.2f} dB (1.1+-0.5: {gap_ok}), {elapsed:.0f} s",
    )
    assert time_ok
    assert pilot_ok, f"pilot-only PAPR {pilot_papr:.2f} dB exceeds 0.5 dB"
    assert delta_ok, f"sector-minus-pilot mean PAPR {delta_mean:.2f} dB outside 6+-1 dB"
    assert gap_ok, f"CCDF gap {gap:.2f} dB outside 1.1+-0.5 dB"


def test_criterion_12_data_rates():
    params = WaveformParams(N=2048, M=4096, N_CP=512, B=1e9, fc=79e9)
    sector = round(data_rate_radcom(params) / 1e9, 2)
    comb = round(data_rate_comb_pilot(params) / 1e9, 2)
    ok = sector == 0.80 and comb == 1.40
    report(12, ok, f"sector-modulated {sector} Gbit/s, comb-pilot {comb} Gbit/s")
    assert sector == 0.80
    assert comb == 1.40
