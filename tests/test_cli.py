"""CLI: config validation, artifacts, manifests, reproducibility."""

import json
import math
import tempfile
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from ocdm_radar import analysis, cli, rxproc
from ocdm_radar.analysis import mimo_leakage_db, radar_image
from ocdm_radar.channel import CommChannelConfig, Target, apply_comm_channel, normalize_target, two_tap_tilt_cir
from ocdm_radar.cli import EXIT_OK, EXIT_PRECONDITION, EXIT_RUNTIME, EXIT_SCHEMA, main, resolve_config
from ocdm_radar.cli import ConfigError
from ocdm_radar.framing import (
    CHANNEL_BLOCK,
    MimoConfig,
    RadComFrameSpec,
    WaveformParams,
    build_pilot_frame,
    build_radcom_frame,
    build_superposed_pilot_frame,
    draw_payload_bits,
    modulate,
)
from ocdm_radar.comms import equalize_and_extract
from ocdm_radar.fresnel import phase_fold_correct
from ocdm_radar.rxproc import RangeVelocityImage, receive_frame
from ocdm_radar.selftest import run_selftest


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_unknown_key_rejected_with_field_name():
    with pytest.raises(ConfigError, match="config.bogus"):
        resolve_config({"bogus": 1})
    with pytest.raises(ConfigError, match="config.waveform.X"):
        resolve_config({"waveform": {"X": 4}})
    with pytest.raises(ConfigError, match=r"config.targets\[0\].range_m"):
        resolve_config({"targets": [{"velocity_mps": 3.0}]})


def test_schema_violation_exit_code(tmp_path):
    cfg = write_config(tmp_path, {"mode": "warp-drive"})
    assert main(["radar", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_SCHEMA


def test_precondition_violation_exit_code(tmp_path):
    # target beyond the unambiguous range of the desk-scale default (38.4 m)
    cfg = write_config(tmp_path, {"targets": [{"range_m": 50.0}]})
    assert (
        main(["radar", "--config", cfg, "--out", str(tmp_path / "out")])
        == EXIT_PRECONDITION
    )


def test_selftest_command(capsys):
    assert main(["selftest"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"[PASS] {name}: {detail}" for name, _, detail in run_selftest()]
    assert len(lines) == 8
    assert lines[0].startswith("[PASS] round trip N=4: max err ")
    assert lines[-1].startswith("[PASS] frequency-shift theorem k_delta=17: max err ")


def test_params_full_scale_matches_reference_table(tmp_path):
    out = tmp_path / "out"
    assert main(["params", "--full-scale", "--out", str(out)]) == EXIT_OK
    payload = json.loads((out / "radar_params.json").read_text())
    assert payload["processing_gain_db"] == 70.21
    assert payload["range_resolution_m"] == 0.15
    assert payload["max_unambiguous_range_m"] == 307.20
    assert payload["velocity_resolution_mps"] == 0.18
    assert payload["max_unambiguous_velocity_mps"] == 463.56


def test_radar_run_artifacts_and_manifest(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path,
        {
            "targets": [{"range_m": 7.5, "velocity_mps": 0.0}],
            "snr_db": 20.0,
            "seed": 7,
        },
    )
    assert main(["radar", "--config", cfg, "--out", str(out)]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 7
    assert sorted(manifest["files"]) == manifest["files"]
    for name in manifest["files"]:
        assert (out / name).exists()
    peak = json.loads((out / "radar_peak.json").read_text())
    assert peak["detected"] is True
    assert abs(peak["range_m"] - 7.5) < 0.15


def test_radar_zero_targets_flags_no_detection(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {"targets": [], "snr_db": 10.0})
    assert main(["radar", "--config", cfg, "--out", str(out)]) == EXIT_OK
    peak = json.loads((out / "radar_peak.json").read_text())
    assert peak["detected"] is False


def test_reproducibility_byte_identical(tmp_path):
    cfg = write_config(
        tmp_path,
        {"targets": [{"range_m": 6.0, "velocity_mps": 40.0}], "snr_db": 15.0, "seed": 3},
    )
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["radar", "--config", cfg, "--out", str(out)]) == EXIT_OK
        outs.append(out)
    for file in sorted(p.name for p in outs[0].iterdir()):
        assert (outs[0] / file).read_bytes() == (outs[1] / file).read_bytes()


def test_mimo_run_per_channel_images(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path,
        {
            "mode": "mimo",
            "mimo": {"num_tx": 2},
            "targets": [{"range_m": 4.5}],
        },
    )
    assert main(["mimo", "--config", cfg, "--out", str(out)]) == EXIT_OK
    for p in range(2):
        assert (out / f"mimo_p{p}_image.csv").exists()
        # 4.5 m is 30 range bins, an integer shift: no other transmitter's echo reaches the slice.
        assert json.loads((out / f"mimo_p{p}_peak.json").read_text())["leakage_db"] is None


def test_mimo_reports_fractional_shift_leakage(tmp_path):
    raw = {"targets": [{"range_m": 4.56, "velocity_mps": 30.0}], "mimo": {"num_tx": 2}}
    config = resolve_config(raw)
    sc = cli.build_scenario(config)
    artifacts = cli._cmd_mimo(config, sc)
    want = mimo_leakage_db(sc.params, sc.mimo, sc.shifts)
    for p in range(2):
        leakage_db = artifacts[f"mimo_p{p}_peak.json"]["leakage_db"]
        assert leakage_db == want[p] and -60.0 < leakage_db < 0.0


def test_zero_target_mimo_slices_are_radar_rows():
    # One noise realization for the superposed frame: each slice holds the rows of a
    # zero-target radar run's image with the same seed, at the same per-transmitter SNR.
    config = resolve_config({"snr_db": 10.0, "seed": 3})
    sc = cli.build_scenario(config)
    radar = cli._cmd_radar(config, sc)["radar"].magnitude
    artifacts = cli._cmd_mimo(config, sc)
    for p in range(sc.mimo.num_tx):
        want = radar[sc.mimo.slice_rows(sc.params.N, p)]
        got = artifacts[f"mimo_p{p}"].magnitude
        assert np.max(np.abs(got - want)) <= 1e-12 * want.max()
        assert artifacts[f"mimo_p{p}_peak.json"]["leakage_db"] is None


def test_radcom_run_reports(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path,
        {
            "mode": "radcom",
            "waveform": {"N": 128, "M": 32, "N_CP": 0, "B": 1e9, "fc": 79e9},
            "radcom": {"N_CP": 32},
            "targets": [{"range_m": 3.0}],
            "comm": {"tilt_db": 10.0, "snr_db": 30.0},
            "seed": 11,
        },
    )
    assert main(["radcom", "--config", cfg, "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "comm_report.json").read_text())
    assert report["bit_errors"] == 0
    assert report["est_snr_db"] > 20.0
    constellation = np.loadtxt(out / "constellation.csv", delimiter=",", skiprows=1)
    assert constellation.shape[1] == 3
    assert (out / "radcom_image.csv").exists()


def test_radcom_strong_pilot_decodes(tmp_path):
    # The comm receiver must divide the pilot amplitude sqrt(pilot_energy) out of its CFR.
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path,
        {
            "waveform": {"N": 128, "M": 32},
            "radcom": {"N_CP": 32, "pilot_energy": 4.0},
            "targets": [{"range_m": 3.0}],
            "comm": {"tilt_db": 10.0, "snr_db": 30.0},
            "seed": 11,
        },
    )
    assert main(["radcom", "--config", cfg, "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "comm_report.json").read_text())
    assert report["bit_errors"] == 0
    assert report["est_snr_db"] > 20.0


def test_sweep_run_emits_three_surfaces(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path,
        {
            "sweep": {"n_grid": [0, 16, 32], "k_grid": [-0.5, 0.0, 0.5]},
        },
    )
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
    for name in ("pplr", "pslr", "islr"):
        rows = np.loadtxt(out / f"sweep_{name}.csv", delimiter=",", skiprows=1)
        assert rows.shape == (9, 3)
    summary = json.loads((out / "sweep_summary.json").read_text())
    assert summary["pplr_max_db"] == pytest.approx(0.0, abs=1e-9)


def test_papr_run(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path,
        {
            "waveform": {"N": 128, "M": 4, "N_CP": 0, "B": 1e9, "fc": 79e9},
            "radcom": {"N_CP": 32},
            "papr": {"trials": 50, "oversample": 4},
        },
    )
    assert main(["papr", "--config", cfg, "--out", str(out)]) == EXIT_OK
    summary = json.loads((out / "papr_summary.json").read_text())
    assert summary["radcom"]["mean_papr_db"] > summary["pilot"]["mean_papr_db"]
    curve = np.loadtxt(out / "papr_pilot.csv", delimiter=",", skiprows=1)
    assert np.all(np.diff(curve[:, 1]) <= 0)


def test_papr_ignores_unrequested_waveform_preconditions(tmp_path):
    # N_CP=12 leaves the sector layout no data subchirps at N=16; radcom is not asked for.
    out = tmp_path / "out"
    papr = {"trials": 2, "waveforms": ["pilot", "ofdm"]}
    cfg = write_config(tmp_path, {"waveform": {"N": 16, "M": 4}, "radcom": {"N_CP": 12}, "papr": papr})
    assert main(["papr", "--config", cfg, "--out", str(out)]) == EXIT_OK
    written = ["manifest.json", "papr_ofdm.csv", "papr_pilot.csv", "papr_summary.json"]
    assert sorted(p.name for p in out.iterdir()) == written


def test_comb_pilot_layout_too_small_names_n(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {"waveform": {"N": 4}})
    assert main(["params", "--config", cfg, "--out", str(out)]) == EXIT_PRECONDITION
    assert "N=4" in capsys.readouterr().err
    assert not out.exists()


def test_sector_layout_failure_names_n_cp_in_params_and_radcom(tmp_path, capsys):
    # N=16 leaves no data subchirp for N_CP=12; both commands name the same precondition.
    cfg = write_config(tmp_path, {"mode": "radcom", "waveform": {"N": 16, "M": 4}, "radcom": {"N_CP": 12}})
    for command in ("params", "radcom"):
        out = tmp_path / command
        assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_PRECONDITION
        assert "sector layout needs 2*N_CP-1 < N, got N_CP=12, N=16" in capsys.readouterr().err
        assert not out.exists()


def test_radcom_cp_default_is_valid_at_tiny_n(tmp_path, capsys):
    # N // 4 = 0 at N=2: the CLI's own radcom.N_CP default must still be >= 1, so that no
    # command fails on the radcom section the config never set.  radcom fails on the
    # default two-tap comm channel instead: its tap at delay 1 needs N_CP >= 2.
    cfg = write_config(tmp_path, {"waveform": {"N": 2, "M": 2}, "targets": [{"range_m": 0.1}]})
    want = {
        "params": "comb-pilot layout needs N >= 8, got N=2",
        "radar": None,
        "mimo": "N=2 is not divisible by num_tx=4",
        "radcom": "channel delay spread 1 must be below the RadCom N_CP 1",
        "sweep": "n_delta grid must lie within [0, N)",
        "papr": "comb-pilot layout needs N >= 8, got N=2",
    }
    for command, reason in want.items():
        code = main([command, "--config", cfg, "--out", str(tmp_path / command)])
        err = capsys.readouterr().err
        if reason is None:
            assert code == EXIT_OK, err
        else:
            assert code == EXIT_PRECONDITION and reason in err, err
    manifest = json.loads((tmp_path / "radar" / "manifest.json").read_text())
    assert manifest["config"]["radcom"]["N_CP"] == 1


@pytest.mark.parametrize("n", [4, 6])
def test_default_radcom_runs_at_small_n(tmp_path, n):
    # The radcom.N_CP default is at least 2, so the default two-tap comm channel's tap at
    # delay 1 stays below it.
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {"waveform": {"N": n}, "targets": [{"range_m": 0.0}]})
    assert main(["radcom", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert json.loads((out / "comm_report.json").read_text())["bit_errors"] == 0
    assert json.loads((out / "manifest.json").read_text())["config"]["radcom"]["N_CP"] == 2


def _masked_mean_margin(magnitude):
    # The noise floor as ndarray.sum of the C-ordered squared image with its first maximum zeroed.
    power = np.ascontiguousarray(magnitude) ** 2
    cells = power.reshape(-1)
    top = int(np.argmax(cells))
    peak_power, cells[top] = cells[top], 0.0
    floor = float(power.sum()) / (power.size - 1) if power.size > 1 else 0.0
    margin = 10.0 * np.log10(peak_power / floor) if floor > 0 else np.inf
    return None if np.isinf(margin) else float(margin), bool(margin >= cli.DETECTION_MARGIN_DB)


def _lone_peak_image(shape):
    magnitude = np.zeros(shape)
    magnitude[shape[0] // 2, -1] = 3.0
    return RangeVelocityImage(magnitude, np.arange(shape[0]) * 0.15, np.arange(shape[1]) * 1.0)


def _pilot_image(params, shifts, snr_db):
    return radar_image(build_pilot_frame(params), params, shifts, snr_db, 3)[0]


TWO_SHIFTS = [(10.4, -0.2, 1.0), (40.0, 0.1, 0.01)]


@pytest.mark.parametrize(
    "image",
    [
        lambda: _pilot_image(WaveformParams(N=64, M=16), TWO_SHIFTS, 5.0),
        lambda: _pilot_image(WaveformParams(N=512, M=300), TWO_SHIFTS, 5.0),  # a view, in several leaves
        lambda: _pilot_image(WaveformParams(N=64, M=16), [(12.0, 0.0, 1.0)], None),
        lambda: _lone_peak_image((64, 16)),
        lambda: _lone_peak_image((1, 1)),
    ],
    ids=["noisy", "noisy, several leaves", "noise-free", "lone peak", "one cell"],
)
def test_peak_payload_floor_equals_the_masked_mean(image):
    image = image()
    want_margin, want_detected = _masked_mean_margin(image.magnitude)
    payload = cli._peak_payload(image)
    assert payload["detected"] is want_detected
    assert payload["noise_margin_db"] == want_margin


def test_repeated_commands_leave_no_traced_memory(tmp_path):
    # A second run of a command leaves nothing behind: no cache, no buffer kept past the run.
    cfg = write_config(
        tmp_path,
        {
            "waveform": {"N": 1024, "M": 16},
            "targets": [{"range_m": 30.0, "velocity_mps": 20.0}],
            "snr_db": 20.0,
            "mimo": {"num_tx": 2},
            "sweep": {"n_grid": [0, 3.5], "k_grid": [0.0, 0.25]},
            "papr": {"trials": 10, "oversample": 20},
        },
    )
    tracemalloc.start()
    try:
        for command in ("papr", "sweep", "mimo"):
            args = [command, "--config", cfg, "--out", str(tmp_path / command)]
            assert main(args) == EXIT_OK  # warm-up: lazy imports and first-call state
            before = tracemalloc.get_traced_memory()[0]
            assert main(args) == EXIT_OK
            left = tracemalloc.get_traced_memory()[0] - before
            assert abs(left) <= 256 * 1024, f"{command} left {left} bytes"
    finally:
        tracemalloc.stop()


def test_radar_command_images_into_the_stream():
    # Every row imaged: the image is a view into the stream buffer, and the peak payload
    # sums its power a leaf at a time.  A float image or power array of the frame's
    # N x M cells (half a frame each) would exceed the quarter-frame allowance.
    config = resolve_config(
        {"waveform": {"N": 256, "M": 1024}, "targets": [{"range_m": 5.03, "velocity_mps": 10.0}], "snr_db": 15.0}
    )
    sc = cli.build_scenario(config)
    p = sc.params
    cli._cmd_radar(config, sc)  # lazy numpy imports, outside the count
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        cli._cmd_radar(config, sc)
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    frame_bytes = p.N * p.M * 16
    assert peak <= frame_bytes + p.stream_len * 16 + frame_bytes // 4


def test_radcom_radar_leg_stream_is_freed_before_the_comm_leg(monkeypatch):
    # The sector image is copied out of the radar leg's stream buffer, so the comm leg
    # runs without it: the buffer must be gone, not kept by the image or a reference cycle.
    config = resolve_config({"waveform": {"N": 64, "M": 16}, "targets": [{"range_m": 1.5}], "snr_db": 15.0})
    sc = cli.build_scenario(config)
    radar_streams, alive_at_comm_leg = [], []

    def radar_modulate(*args):
        stream = modulate(*args)
        radar_streams.append(weakref.ref(stream))
        return stream

    def comm_channel(*args, **kwargs):
        alive_at_comm_leg.extend(ref() is not None for ref in radar_streams)
        return apply_comm_channel(*args, **kwargs)

    monkeypatch.setattr(analysis, "modulate", radar_modulate)
    monkeypatch.setattr(cli, "apply_comm_channel", comm_channel)
    cli._cmd_radcom(config, sc)
    assert alive_at_comm_leg == [False]


def test_radcom_comm_leg_holds_no_stream(monkeypatch):
    # The comm leg runs on a column-major copy of the Fresnel frame: from the comm channel
    # call on, the largest live array is an N x M frame (the received one, then the EVM
    # reference), never an (N + N_CP) x M stream.
    config = resolve_config({"waveform": {"N": 256, "M": 64}, "targets": [{"range_m": 1.5}], "snr_db": 15.0})
    sc = cli.build_scenario(config)
    p = sc.radcom_params
    largest = []

    def measured(function):
        def call(*args, **kwargs):
            largest.append(max(trace.size for trace in tracemalloc.take_snapshot().traces))
            return function(*args, **kwargs)

        return call

    for name in ("apply_comm_channel", "estimate_comm_cfr", "equalize_and_extract", "evm_and_snr", "qpsk_demap"):
        monkeypatch.setattr(cli, name, measured(getattr(cli, name)))
    tracemalloc.start()
    try:
        cli._cmd_radcom(config, sc)
    finally:
        tracemalloc.stop()
    assert len(largest) == 5 and largest[0] == p.N * p.M * 16
    assert max(largest) < p.stream_len * 16


def _comm_leg(config: dict, sc: cli.Scenario) -> np.ndarray:
    """A copy of the received Fresnel frame of _cmd_radcom's comm leg."""
    received = []

    def equalize(frame, *args):
        received.append(frame.copy())
        return equalize_and_extract(frame, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "equalize_and_extract", equalize)
        cli._cmd_radcom(config, sc)
    return received[0]


def _radcom_scenario(raw: dict, cir=None, snr_db=None):
    """A radcom config and its scenario, with the comm channel's CIR (default: the config's) and snr_db."""
    config = resolve_config({"targets": [{"range_m": 1.5}], "snr_db": 20.0, **raw})
    sc = cli.build_scenario(config)
    channel = CommChannelConfig(sc.comm_channel.cir if cir is None else cir, snr_db, sc.comm_channel.rng_seed)
    return config, sc._replace(comm_channel=channel)


@pytest.mark.parametrize("spread", [0, 1, 63])
def test_radcom_comm_leg_equals_the_time_domain_chain(spread):
    # Noise-free, the channel on the Fresnel frame gives the frame that modulating, the
    # CP-inclusive channel and the plain receive DFnT give, for spreads up to
    # N_CP - 1 = 63, the largest the sector layout allows.  M = CHANNEL_BLOCK + 3
    # leaves a partial last block.
    cir = np.zeros(spread + 1, dtype=np.complex128)
    cir[0], cir[-1] = 1.0, 0.4 - 0.3j
    config, sc = _radcom_scenario({"waveform": {"N": 256, "M": CHANNEL_BLOCK + 3}, "seed": spread}, cir)
    params, spec = sc.radcom_params, sc.spec
    assert spec.N_CP == 64
    got = _comm_leg(config, sc)
    frame = build_radcom_frame(params, spec, draw_payload_bits(np.random.default_rng(config["seed"]), params, spec))
    want = phase_fold_correct(receive_frame(apply_comm_channel(modulate(frame, params), sc.comm_channel, params), params))
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_radcom_comm_noise_is_referenced_to_the_fresnel_cells():
    # The noise is drawn over the N M Fresnel cells at comm.snr_db below the noise-free
    # received frame's mean cell power.  Over 8 seeds of 256 x 67 cells the measured
    # variance has a relative standard deviation of 0.27 %; 3 % separates it from a
    # reference that counted the CP rows (0.67 of the body's power here, a 7 % change).
    ratios = []
    for seed in range(8):
        raw = {"waveform": {"N": 256, "M": CHANNEL_BLOCK + 3}, "seed": seed}
        clean = _comm_leg(*_radcom_scenario(raw))
        noisy = _comm_leg(*_radcom_scenario(raw, snr_db=20.0))
        ratios.append(np.mean(np.abs(noisy - clean) ** 2) / (np.mean(np.abs(clean) ** 2) * 10 ** (-20.0 / 10)))
    assert abs(np.mean(ratios) - 1.0) <= 0.03


def test_radcom_comm_leg_meets_criterion_10():
    # Acceptance criterion 10's numerology and bounds on the command's own comm leg: no bit
    # errors, and the EVM within 1 dB of the zero-forcing value for white Fresnel-domain
    # noise of variance sigma2 per cell, N M sigma2 = the noise-free frame's energy / SNR.
    raw = {"waveform": {"N": 256, "M": 800}, "radcom": {"N_CP": 64}, "comm": {"tilt_db": 10.0}, "seed": 10}
    clean = _comm_leg(*_radcom_scenario(raw))
    artifacts = cli._cmd_radcom(*_radcom_scenario(raw, snr_db=30.0))
    sigma2 = float(np.mean(np.abs(clean) ** 2)) * 10 ** (-30.0 / 10)
    cfr = np.fft.fft(two_tap_tilt_cir(10.0), 256)
    analytic_evm_db = 10 * np.log10(sigma2 * float(np.mean(1.0 / np.abs(cfr) ** 2)))
    report = artifacts["comm_report.json"]
    assert report["bit_errors"] == 0 and report["total_bits"] >= 2e5
    assert abs(report["evm_mean_db"] - analytic_evm_db) <= 1.0


def test_radcom_command_holds_one_stream():
    # The radar leg runs in one stream buffer beside the frame, and the comm leg in a
    # column-major copy that replaces the frame; the payload is kept as bits, so the
    # equalizer's (n_data, M) symbols and the EVM reference rebuilt from the bits stay
    # under the half-frame allowance (measured 10.3 MiB against an 11.0 MiB bound): a
    # frame-sized spectrum or quotient, or a second stream, would exceed it.
    config = resolve_config(
        {"waveform": {"N": 256, "M": 1024}, "targets": [{"range_m": 5.03, "velocity_mps": 10.0}], "snr_db": 15.0}
    )
    sc = cli.build_scenario(config)
    p = sc.radcom_params
    cli._cmd_radcom(config, sc)  # lazy numpy imports, outside the count
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        cli._cmd_radcom(config, sc)
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    frame_bytes = p.N * p.M * 16
    assert peak <= frame_bytes + p.stream_len * 16 + frame_bytes // 2


WIRING_TARGETS = [
    {"range_m": 5.03, "velocity_mps": 10.0, "amplitude": [1.0, 0.5]},
    {"range_m": 2.2, "velocity_mps": -20.0, "amplitude": [0.0, 0.2]},
]


def _library_shifts(params):
    targets = [Target(t["range_m"], t["velocity_mps"], complex(*t["amplitude"])) for t in WIRING_TARGETS]
    return [(*normalize_target(t, params), t.amplitude) for t in targets]


def test_commands_image_through_the_library_chain():
    # Every target, the config's SNR and its seed must reach each command's radar channel.
    # A 40-bin (6 m) RadCom sector holds both targets; the MIMO slices are 64 bins (9.6 m).
    raw = {"targets": WIRING_TARGETS, "snr_db": 10.0, "seed": 7, "radcom": {"N_CP": 40}}
    config = resolve_config(raw)
    sc = cli.build_scenario(config)
    p = WaveformParams(N=256, M=32)

    [want] = radar_image(build_pilot_frame(p), p, _library_shifts(p), 10.0, 7)
    assert np.array_equal(cli._cmd_radar(config, sc)["radar"].magnitude, want.magnitude)

    # The four transmitters send at once; snr_db is per transmitter, so the summed echo's SNR is 6 dB higher.
    mimo = MimoConfig(4)
    frame = build_superposed_pilot_frame(p, mimo)
    slices = [mimo.slice_rows(p.N, tx_index) for tx_index in range(4)]
    want = radar_image(frame, p, _library_shifts(p), 10.0 + 10.0 * math.log10(4), 7, slices)
    artifacts = cli._cmd_mimo(config, sc)
    for tx_index in range(4):
        assert np.array_equal(artifacts[f"mimo_p{tx_index}"].magnitude, want[tx_index].magnitude)

    p, spec = WaveformParams(N=256, M=32, N_CP=40), RadComFrameSpec(N_CP=40)
    n_data = spec.num_data_subchirps(p.N)
    bits = np.random.default_rng(7).integers(0, 2, size=2 * n_data * p.M)
    frame = build_radcom_frame(p, spec, bits)
    [want] = radar_image(frame, p, _library_shifts(p), 10.0, 7, [spec.radar_rows])
    assert np.array_equal(cli._cmd_radcom(config, sc)["radcom"].magnitude, want.magnitude)


def test_manifest_config_round_trip(tmp_path):
    out1 = tmp_path / "r1"
    cfg = write_config(
        tmp_path, {"targets": [{"range_m": 5.0}], "snr_db": 12.0, "seed": 5}
    )
    assert main(["radar", "--config", cfg, "--out", str(out1)]) == EXIT_OK
    manifest = json.loads((out1 / "manifest.json").read_text())
    # re-running from the manifest's resolved config reproduces the artifacts
    cfg2 = write_config(tmp_path, manifest["config"], name="resolved.json")
    out2 = tmp_path / "r2"
    assert main(["radar", "--config", cfg2, "--out", str(out2)]) == EXIT_OK
    assert (out1 / "radar_image.csv").read_bytes() == (out2 / "radar_image.csv").read_bytes()
    manifest2 = json.loads((out2 / "manifest.json").read_text())
    assert manifest2["config_sha256"] == manifest["config_sha256"]


@pytest.mark.parametrize(
    "command, config, field",
    [
        ("radar", {"snr_db": math.nan}, "config.snr_db"),
        ("radar", {"waveform": {"B": math.inf}}, "config.waveform.B"),
        ("radar", {"targets": [{"range_m": 1.0, "velocity_mps": -math.inf}]}, "config.targets[0].velocity_mps"),
        ("radar", {"targets": [{"range_m": -1.0}]}, "config.targets[0]: target range"),
        ("radar", {"targets": 5}, "config.targets: expected a list"),
        ("mimo", {"mimo": {"num_tx": 0}}, "config.mimo: num_tx"),
        ("mimo", {"mimo": {"num_tx": 2, "tx": 2}}, "config.mimo.tx: unknown key"),
        ("radar", {"mimo": {"num_rx": 0}}, "config.mimo.num_rx: unknown key"),
        ("papr", {"papr": {"waveforms": 5}}, "config.papr.waveforms: expected a list"),
        ("papr", {"papr": {"waveforms": "pilot"}}, "config.papr.waveforms: expected a list"),
        ("papr", {"papr": {"waveforms": ["pilot", 3]}}, "config.papr.waveforms[1]"),
        ("radar", {"waveform": {"N": 255}}, "config.waveform: N must be"),
        ("params", {"waveform": {"N_CP": 256}}, "config.waveform: N_CP must"),
        ("radar", {"waveform": {"fc": 1e9}}, "config.waveform: carrier must exceed"),
        ("radcom", {"radcom": {"N_CP": 256}}, "config.radcom.N_CP: N_CP must"),
        ("sweep", {"radcom": {"N_CP": 300}}, "config.radcom.N_CP: N_CP must"),
        ("radcom", {"radcom": {"pilot_energy": 0}}, "config.radcom: sector energies"),
        ("radcom", {"radcom": {"avg_symbols": 33}}, "config.radcom.avg_symbols"),
        ("radar", {"comm": {"cfr_csv": "no-such-cfr.csv"}}, "config.comm.cfr_csv"),
        ("radar", {"seed": -5}, "config.seed: must be >= 0"),
        ("papr", {"papr": {"waveforms": []}}, "config.papr.waveforms: expected a non-empty list"),
        ("papr", {"papr": {"waveforms": ["radcom", "radcom"]}}, "config.papr.waveforms[1]: duplicate"),
        ("params", {"output_dir": "a\u0000b"}, "config.output_dir: embedded null byte"),
        ("params", {"waveform": {"B": 5e-324}}, "config.waveform: bandwidth 5e-324 leaves a zero bin width"),
        ("radcom", {"radcom": {"N_CP": 0}}, "config.radcom: RadCom N_CP must be >= 1"),
        ("radcom", {"waveform": {"M": 0}, "radcom": {"avg_symbols": 1}}, "config.waveform: M must be positive"),
        ("radcom", {"waveform": {"M": -5}, "radcom": {"avg_symbols": 1}}, "config.waveform: M must be positive"),
    ],
)
def test_hostile_config_exits_2_naming_field(tmp_path, capsys, command, config, field):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, config)
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_SCHEMA
    assert field in capsys.readouterr().err
    assert not out.exists()


ONE_TARGET = [{"range_m": 1.0}]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "command, config, reason",
    [
        ("radar", {"snr_db": -4000.0}, "snr_db=-4000.0"),
        ("radar", {"targets": [{"range_m": 3.0, "velocity_mps": 1.7e308}]}, "not finite"),
        ("radar", {"targets": [{"range_m": 3.0, "amplitude": 1e308}], "snr_db": 20.0}, "not finite"),
        # A report value JSON cannot hold (NaN, +-Infinity) is exit 3 naming its file and key.
        ("params", {"waveform": {"B": 1e-300}}, "radar_params.json: max_unambiguous_range_m is not finite"),
        ("radcom", {"targets": ONE_TARGET, "radcom": {"symbol_energy": 1e308}}, "comm_report.json: evm_mean_db is not finite"),
        ("radcom", {"targets": ONE_TARGET, "radcom": {"pilot_energy": 1e308}}, "radcom_peak.json: noise_margin_db is not finite"),
        ("radcom", {"targets": ONE_TARGET, "radcom": {"symbol_energy": 1e-320}}, "comm_report.json: evm_mean_db is not finite"),
        ("papr", {"radcom": {"symbol_energy": 1e308}, "papr": {"trials": 20}}, "papr_summary.json: radcom.mean_papr_db is not finite"),
    ],
)
def test_extreme_scene_exits_3_naming_precondition(tmp_path, capsys, command, config, reason):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, config)
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_PRECONDITION
    assert reason in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, targets, reason",
    [
        # At the desk numerology both regions are 64 range bins, 9.6 m.
        ("radcom", [{"range_m": 3.0}, {"range_m": 9.6}], "target 1 images at n_delta + k_delta = 64 bins"),
        ("mimo", [{"range_m": 15.0}], "target 0 images at n_delta + k_delta = 100 bins"),
    ],
)
def test_target_outside_imaged_rows_exits_3(tmp_path, capsys, command, targets, reason):
    # Beyond the RadCom sector or the MIMO slice the image would peak on other rows' data.
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {"targets": targets})
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_PRECONDITION
    err = capsys.readouterr().err
    assert reason in err and "below 9.6 m" in err
    assert not out.exists()
    # The radar command images the whole unambiguous range.
    assert main(["radar", "--config", cfg, "--out", str(out)]) == EXIT_OK


def test_negative_seed_flag_exits_2_naming_it(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["radar", "--seed", "-5", "--out", str(out)]) == EXIT_SCHEMA
    assert "--seed: must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_failing_image_leaves_no_file(tmp_path, capsys):
    # The default scene has no targets and no noise: an all-zero image.
    out = tmp_path / "out"
    assert main(["radar", "--out", str(out)]) == EXIT_PRECONDITION
    assert "all-zero" in capsys.readouterr().err
    assert not out.exists()


def test_comm_leg_failure_writes_nothing(tmp_path, capsys):
    # A CFR whose CIR has a tap at delay 100 passes the config checks but
    # exceeds the desk-scale RadCom N_CP (64), which the radcom command rejects.
    k = np.arange(256)
    cfr = 1.0 + 0.5 * np.exp(-2j * np.pi * k * 100 / 256)
    csv = tmp_path / "cfr.csv"
    csv.write_text("".join(f"{i},{c.real!r},{c.imag!r}\n" for i, c in enumerate(cfr.tolist())))
    cfg = write_config(tmp_path, {"targets": [{"range_m": 7.5}], "comm": {"cfr_csv": str(csv)}})
    out = tmp_path / "out"
    assert main(["radcom", "--config", cfg, "--out", str(out)]) == EXIT_PRECONDITION
    assert "channel delay spread 100 must be below the RadCom N_CP 64" in capsys.readouterr().err
    assert not out.exists()


def test_comm_leg_spread_must_stay_below_radcom_n_cp(tmp_path, capsys):
    # The sector layout leaves N_CP - 1 guard nulls: a tap at delay N_CP = 64 moves the
    # last data row into the pilot row, although the CP of 64 itself would allow it.
    k = np.arange(256)
    for delay, code in ((64, EXIT_PRECONDITION), (63, EXIT_OK)):
        cfr = 1.0 + 0.5 * np.exp(-2j * np.pi * k * delay / 256)
        csv = tmp_path / f"cfr{delay}.csv"
        csv.write_text("".join(f"{i},{c.real!r},{c.imag!r}\n" for i, c in enumerate(cfr.tolist())))
        raw = {"targets": [{"range_m": 7.5}], "comm": {"cfr_csv": str(csv), "snr_db": 60.0}}
        cfg = write_config(tmp_path, raw)
        out = tmp_path / f"out{delay}"
        assert main(["radcom", "--config", cfg, "--out", str(out)]) == code
        if code == EXIT_PRECONDITION:
            assert "channel delay spread 64 must be below the RadCom N_CP 64" in capsys.readouterr().err
            assert not out.exists()
        else:
            report = json.loads((out / "comm_report.json").read_text())
            assert report["bit_errors"] == 0 and report["est_snr_db"] > 50.0


@pytest.mark.parametrize(
    "delay, reason",
    [
        (100, "channel delay spread 100 must be below the RadCom N_CP 64"),
        (64, "channel delay spread 64 must be below the RadCom N_CP 64"),
    ],
)
def test_comm_spread_fails_before_the_radar_leg(tmp_path, capsys, monkeypatch, delay, reason):
    # The spread rule depends on the config alone: radcom exits 3 before computing either leg.
    def radar_leg(*args, **kwargs):
        raise AssertionError("the radar leg ran")

    monkeypatch.setattr(cli, "radar_image", radar_leg)
    k = np.arange(256)
    cfr = 1.0 + 0.5 * np.exp(-2j * np.pi * k * delay / 256)
    csv = tmp_path / "cfr.csv"
    csv.write_text("".join(f"{i},{c.real!r},{c.imag!r}\n" for i, c in enumerate(cfr.tolist())))
    cfg = write_config(tmp_path, {"targets": [{"range_m": 7.5}], "comm": {"cfr_csv": str(csv)}})
    out = tmp_path / "out"
    assert main(["radcom", "--config", cfg, "--out", str(out)]) == EXIT_PRECONDITION
    assert reason in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, chain, numerology",
    [("radar", "radar_image", "N=256, M=32, N_CP=0"), ("radcom", "apply_comm_channel", "N=256, M=32, N_CP=64")],
)
def test_memory_error_exits_3_naming_numerology(tmp_path, capsys, monkeypatch, command, chain, numerology):
    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, chain, out_of_memory)
    cfg = write_config(tmp_path, {"targets": [{"range_m": 5.0}], "snr_db": 10.0})
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_PRECONDITION
    err = capsys.readouterr().err
    n_cp = 64 if command == "radcom" else 0
    frame = 256 if command == "radcom" else 0  # radcom's Fresnel frame beside the stream
    peak_mib = (256 + n_cp + frame) * 16 * 32 / 2**20  # the stream buffer holds the images too
    assert f"out of memory at {numerology}" in err and f"about {peak_mib:.1f} MiB" in err, err
    assert not out.exists()


def test_memory_error_while_writing_exits_3_naming_the_artifact(tmp_path, capsys, monkeypatch):
    # The image CSVs run out of memory after radar_peak.json is written: exit 3, not an empty exit 1.
    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(rxproc, "write_csv", out_of_memory)
    cfg = write_config(tmp_path, {"targets": [{"range_m": 5.0}], "snr_db": 10.0})
    out = tmp_path / "out"
    assert main(["radar", "--config", cfg, "--out", str(out)]) == EXIT_PRECONDITION
    err = capsys.readouterr().err
    assert "out of memory while writing the radar image CSVs" in err, err
    assert (out / "radar_peak.json").exists() and not (out / "manifest.json").exists()


def test_uncreatable_output_directory_exits_1(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["params", "--out", str(blocker / "out")]) == EXIT_RUNTIME
    assert "cannot create output directory" in capsys.readouterr().err


def test_default_config_hashes_are_pinned(tmp_path):
    # The manifest hash of the resolved defaults is the reproducibility key of
    # every earlier run; a change here changes every config hash.
    want = {
        (): "0f29b4e1aa9ea90aa5da9a3b5f4bbd2a653f89cb9a0a34aa20d5d9a4af6a8fb6",
        ("--full-scale",): "b2580dc0418d1935ec1f33e0f5bb60c972e089f84cde53e9c70a0bf84147703a",
    }
    for i, (flags, digest) in enumerate(want.items()):
        out = tmp_path / str(i)
        assert main(["params", "--out", str(out), *flags]) == EXIT_OK
        assert json.loads((out / "manifest.json").read_text())["config_sha256"] == digest


SMALL_CONFIG = {
    "waveform": {"N": 64, "M": 8, "N_CP": 0, "B": 1e9, "fc": 79e9},
    "mode": "radar",
    # 1.8 m is 12 range bins: inside both the 16-bin RadCom sector and the 32-bin MIMO slice.
    "targets": [{"range_m": 1.8, "velocity_mps": 20.0, "amplitude": [1.0, 0.5]}],
    "snr_db": 20.0,
    "seed": 4,
    "mimo": {"num_tx": 2},
    "radcom": {"N_CP": 16, "pilot_energy": 1.0, "symbol_energy": 1.0, "avg_symbols": 4},
    "comm": {"tilt_db": 6.0, "snr_db": 30.0},
    "sweep": {"n_grid": [0, 3.5], "k_grid": [0.0, 0.25]},
    "papr": {"trials": 3, "oversample": 2, "waveforms": ["pilot", "radcom", "ofdm"]},
}
# Keys that set how much work a run does; a large value there is a big run,
# not a hostile one, so the property test draws them from small values only.
SIZE_KEYS = {("waveform", "N"), ("waveform", "M"), ("papr", "trials"), ("papr", "oversample")}
FIELDS = [(section, key) for section, body in SMALL_CONFIG.items() if isinstance(body, dict) for key in body]
FIELDS += [(section, None) for section in SMALL_CONFIG] + [("targets", "range_m"), ("targets", "velocity_mps"), ("targets", "amplitude")]
DROP = object()
# A target at 10 m lies beyond the 9.6 m unambiguous range of N=64: exit 3.
FAR_TARGET_CONFIG = {**SMALL_CONFIG, "targets": [{**SMALL_CONFIG["targets"][0], "range_m": 10.0}]}
# Reports of these hold a value strict JSON cannot write (NaN, +-Infinity): exit 3.
TINY_BANDWIDTH_CONFIG = {**SMALL_CONFIG, "waveform": {**SMALL_CONFIG["waveform"], "B": 1e-300}}
HUGE_SYMBOL_CONFIG = {**SMALL_CONFIG, "radcom": {**SMALL_CONFIG["radcom"], "symbol_energy": 1e308}}


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize("command", ["params", "radar", "mimo", "radcom", "sweep", "papr"])
def test_manifest_lists_every_written_file(tmp_path, command):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, SMALL_CONFIG)
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["files"] == sorted(p.name for p in out.iterdir() if p.name != "manifest.json")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_perturbed_config_exit_contract():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    odd = st.sampled_from([DROP, None, True, "x", [], {}, [1.0, 2.0], -1, 0, 1, 2, 3, 1.5, 8, 63, 64, 65])
    anything = st.one_of(odd, st.floats(), st.integers(-(10**20), 10**20), st.text(max_size=3))

    @st.composite
    def perturbed(draw):
        config = json.loads(json.dumps(SMALL_CONFIG))
        section, key = draw(st.sampled_from(FIELDS))
        value = draw(odd if (section, key) in SIZE_KEYS else anything)
        if section == "targets" and key is not None:
            holder = config["targets"][0]
        elif key is None:
            holder, key = config, section
        else:
            holder = config[section]
        if value is DROP:
            holder.pop(key, None)
        else:
            holder[key] = value
        return config

    commands = st.sampled_from(["params", "radar", "mimo", "radcom", "sweep", "papr"])

    codes = []

    @hypothesis.settings(max_examples=40, deadline=None, database=None, derandomize=True)
    @hypothesis.given(config=perturbed(), command=commands)
    @hypothesis.example(config=FAR_TARGET_CONFIG, command="radar")
    @hypothesis.example(config=TINY_BANDWIDTH_CONFIG, command="params")
    @hypothesis.example(config=HUGE_SYMBOL_CONFIG, command="radcom")
    def check(config, command):
        with tempfile.TemporaryDirectory() as tmp:
            cfg = write_config(Path(tmp), config)
            out = Path(tmp) / "out"
            code = main([command, "--config", cfg, "--out", str(out)])
            codes.append(code)
            assert code in (EXIT_OK, EXIT_SCHEMA, EXIT_PRECONDITION)
            if code == EXIT_OK:
                manifest = json.loads((out / "manifest.json").read_text(), parse_constant=_reject_constant)
                assert manifest["files"]
                assert all((out / name).exists() for name in manifest["files"])
                for name in manifest["files"]:
                    if name.endswith(".json"):  # strict JSON: no NaN or Infinity
                        json.loads((out / name).read_text(), parse_constant=_reject_constant)
            if code in (EXIT_SCHEMA, EXIT_PRECONDITION):
                assert not out.exists()

    check()
    assert EXIT_PRECONDITION in codes  # the explicit example keeps the exit-3 checks running


CFR_ROWS = [f"{k},1,0" for k in range(64)]


@pytest.mark.parametrize(
    "rows, reason",
    [
        (CFR_ROWS[:5] + ["5,nan,0"] + CFR_ROWS[6:], "non-finite"),
        ([f"{k},0,0" for k in range(64)], "all zero"),
        (CFR_ROWS[:7] + ["7,1e308,1e308"] + CFR_ROWS[8:], "CIR taps are not finite"),
        (["0.5,1,0"] + CFR_ROWS[1:], "bin index 0.5 is not an integer"),
        (CFR_ROWS + ["3,1,0"], "bin index 3 is listed twice"),
        ([], "CFR CSV holds no rows"),
    ],
)
@pytest.mark.filterwarnings("error")  # numpy warns on an empty file; the error line must be all the CLI prints
def test_hostile_cfr_csv_exits_2_naming_it(tmp_path, capsys, rows, reason):
    csv = tmp_path / "cfr.csv"
    csv.write_text("".join(f"{row}\n" for row in rows))
    cfg = write_config(tmp_path, {**SMALL_CONFIG, "comm": {"cfr_csv": str(csv)}})
    out = tmp_path / "out"
    assert main(["radcom", "--config", cfg, "--out", str(out)]) == EXIT_SCHEMA
    err = capsys.readouterr().err
    assert "config.comm.cfr_csv:" in err and reason in err
    assert not out.exists()


def test_cfr_csv_identity_channel_decodes(tmp_path):
    csv = tmp_path / "cfr.csv"
    csv.write_text("\n".join(CFR_ROWS) + "\n")
    cfg = write_config(tmp_path, {**SMALL_CONFIG, "comm": {"cfr_csv": str(csv)}})
    out = tmp_path / "out"
    assert main(["radcom", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert json.loads((out / "comm_report.json").read_text())["bit_errors"] == 0
