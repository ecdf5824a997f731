"""Tests of the benchmark harness: span arithmetic, rebinding, checks, workloads.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402

from ocdm_radar import analysis, channel, cli, framing, rxproc  # noqa: E402


# -- span arithmetic ---------------------------------------------------------

def test_self_time_subtracts_nested_spans():
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 6.0, 7.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    tracer.enter("cli")  # 0
    tracer.enter("analysis")  # 1
    tracer.enter("fresnel")  # 2
    tracer.exit()  # 4: fresnel 2
    tracer.enter("fresnel")  # 5
    tracer.exit()  # 6: fresnel 1
    tracer.exit()  # 7: analysis 6 - 3 = 3
    tracer.exit()  # 10: cli 10 - 6 = 4
    assert tracer.self_s["fresnel"] == 3.0
    assert tracer.self_s["analysis"] == 3.0
    assert tracer.self_s["cli"] == 4.0
    assert sum(tracer.self_s.values()) == 10.0
    assert tracer.calls == {**{layer: 0 for layer in LAYERS}, "cli": 1, "analysis": 1, "fresnel": 2}


def test_same_layer_nesting_counts_each_span_once():
    ticks = iter([0.0, 1.0, 3.0, 4.0])
    tracer = Tracer(clock=lambda: next(ticks))
    tracer.enter("channel")
    tracer.enter("channel")
    tracer.exit()
    tracer.exit()
    assert tracer.self_s["channel"] == 4.0
    assert tracer.calls["channel"] == 2


# -- rebinding ---------------------------------------------------------------

def test_install_rebinds_imported_names_and_uninstall_restores():
    receive_frame = rxproc.receive_frame
    shift_channel = channel.apply_shift_channel
    main = cli.main
    tracer = Tracer()
    tracer.install()
    try:
        # cli and analysis imported these names with ``from .x import y``.
        assert cli.receive_frame is not receive_frame
        assert cli.receive_frame.__wrapped__ is receive_frame
        assert analysis.receive_frame is cli.receive_frame is rxproc.receive_frame
        assert analysis.apply_shift_channel.__wrapped__ is shift_channel
        assert analysis.apply_shift_channel.__wrapped_layer__ == "channel"
        assert cli.main.__wrapped_layer__ == "cli"
    finally:
        tracer.uninstall()
    assert cli.receive_frame is receive_frame
    assert analysis.apply_shift_channel is shift_channel
    assert cli.main is main


DESK_WAVEFORM = {"N": 256, "M": 32, "N_CP": 0, "B": 1e9, "fc": 79e9}
DESK_TARGETS = [
    {"range_m": 5.03, "velocity_mps": 10.0, "amplitude": [1.0, 0.0]},
    {"range_m": 2.2, "velocity_mps": -20.0, "amplitude": [0.0, 0.2]},
]


def _write_config(tmp: Path, config: dict) -> str:
    path = tmp / "config.json"
    path.write_text(json.dumps(config))
    return str(path)


def test_traced_cli_run_accounts_for_main_and_counts_work(tmp_path):
    config = _write_config(tmp_path, {"waveform": DESK_WAVEFORM, "targets": DESK_TARGETS, "snr_db": 20.0})
    tracer = Tracer()
    tracer.install()
    try:
        start = tracer.clock()
        assert cli.main(["radar", "--config", config, "--out", str(tmp_path / "out")]) == 0
        elapsed = tracer.clock() - start
    finally:
        tracer.uninstall()
    assert math.isclose(sum(tracer.self_s.values()), elapsed, rel_tol=0.05)
    assert tracer.calls["cli"] >= 1 and tracer.calls["rxproc"] >= 1 and tracer.calls["fresnel"] >= 2
    assert tracer.counters["channel.target_passes"] == len(DESK_TARGETS)
    assert tracer.counters["channel.samples"] == 256 * 32
    assert tracer.counters["fresnel.columns"] == 2 * 32
    exported = sum((tmp_path / "out" / f"radar_{n}.csv").stat().st_size for n in ("image", "range_axis", "velocity_axis"))
    assert tracer.counters["rxproc.export_bytes"] == exported
    assert tracer.counters["rxproc.export_s"] > 0


def test_memory_tracer_reports_layer_peaks_across_savetxt_pause(tmp_path):
    params = framing.WaveformParams(N=256, M=32)
    savetxt = np.savetxt
    tracer = Tracer(memory=True)
    tracer.install()
    try:
        frame = framing.build_pilot_frame(params)
        image = rxproc.doppler_process(frame, params)
        rxproc.image_to_csv(image, tmp_path / "img")
        assert tracemalloc.is_tracing()
        framing.build_pilot_frame(params)
    finally:
        tracer.uninstall()
    assert not tracemalloc.is_tracing()
    assert tracer.alloc_peak["framing"] >= frame.nbytes
    assert tracer.alloc_peak["rxproc"] >= image.magnitude.nbytes
    assert np.savetxt is savetxt


# -- correctness checks ------------------------------------------------------

def _expect(names, n_cp=0):
    target = workloads.strongest(DESK_TARGETS)
    return {
        "images": names,
        "range_m": target["range_m"],
        "velocity_mps": target["velocity_mps"],
        "range_cell_m": workloads.RANGE_CELL_M,
        "velocity_cell_mps": workloads.velocity_cell_mps(256, 32, n_cp),
    }


@pytest.fixture(scope="module")
def desk_outputs(tmp_path_factory):
    """Desk-scale outputs of every CLI command the workloads run, and their expectations."""
    tmp = tmp_path_factory.mktemp("desk")
    config = _write_config(tmp, {
        "waveform": DESK_WAVEFORM,
        "targets": DESK_TARGETS,
        "snr_db": 20.0,
        "mimo": {"num_tx": 4},
        "radcom": {"N_CP": 64},
        "papr": {"trials": 40, "oversample": 8},
        "sweep": {"n_grid": [0, 3.5, 10], "k_grid": [-0.5, 0.0, 0.25]},
    })
    expects = {
        "radar": _expect(["radar"]),
        "mimo": _expect([f"mimo_p{p}" for p in range(4)]),
        "radcom": dict(_expect(["radcom"], 64), total_bits=2 * (256 - 128 + 1) * 32),
        "papr": {"waveforms": ["pilot", "radcom", "ofdm"]},
        "sweep": {},
    }
    for command in expects:
        assert cli.main([command, "--config", config, "--out", str(tmp / command)]) == 0
    return tmp, expects


@pytest.fixture
def output(desk_outputs, tmp_path):
    """A private copy of one command's output directory."""
    source, expects = desk_outputs

    def copy(command):
        shutil.copytree(source / command, tmp_path / command)
        return tmp_path / command, expects[command]

    return copy


@pytest.mark.parametrize("command", ["radar", "mimo", "radcom", "papr", "sweep"])
def test_checks_accept_clean_outputs(output, command):
    out, expect = output(command)
    assert checks.check_command(command, out, expect) == []


def test_manifest_check_rejects_missing_file(output):
    out, _ = output("radar")
    (out / "radar_peak.json").unlink()
    assert checks.check_manifest(out)


def test_manifest_check_rejects_unlisted_manifest(output):
    out, _ = output("radar")
    (out / "manifest.json").write_text("{}")
    assert checks.check_manifest(out)


@pytest.mark.parametrize("command,prefix", [("radar", "radar"), ("mimo", "mimo_p2"), ("radcom", "radcom")])
def test_peak_check_rejects_moved_peak(output, command, prefix):
    out, expect = output(command)
    path = out / f"{prefix}_image.csv"
    image = np.loadtxt(path, delimiter=",")
    row, col = np.unravel_index(int(np.argmax(image)), image.shape)
    image[(row + image.shape[0] // 2) % image.shape[0], col] = 10 * image.max()
    np.savetxt(path, image, delimiter=",", fmt="%.12g")
    assert checks.check_image_peak(out, prefix, expect)


def test_peak_check_rejects_truncated_image(output):
    out, expect = output("radar")
    path = out / "radar_image.csv"
    path.write_text("\n".join(path.read_text().splitlines()[:-3]) + "\n")
    assert checks.check_image_peak(out, "radar", expect)


def test_comm_check_rejects_bit_errors(output):
    out, expect = output("radcom")
    report = json.loads((out / "comm_report.json").read_text())
    report["bit_errors"] = 1
    (out / "comm_report.json").write_text(json.dumps(report))
    assert checks.check_comm(out, expect)


def _rewrite_table(path: Path, edit) -> None:
    header = path.read_text().splitlines()[0]
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    edit(table)
    np.savetxt(path, table, delimiter=",", fmt="%.12g", header=header, comments="")


def _rising_ccdf(t):
    t[5, 1] = t[4, 1] + 0.1


def _nan_ccdf(t):
    t[3, 1] = np.nan


@pytest.mark.parametrize("edit", [_rising_ccdf, _nan_ccdf])
def test_papr_check_rejects_broken_ccdf(output, edit):
    out, expect = output("papr")
    _rewrite_table(out / "papr_ofdm.csv", edit)
    assert checks.check_papr(out, expect)


def test_papr_check_rejects_pilot_above_payload(output):
    out, expect = output("papr")
    summary = json.loads((out / "papr_summary.json").read_text())
    summary["pilot"]["mean_papr_db"] = summary["radcom"]["mean_papr_db"] + 1.0
    (out / "papr_summary.json").write_text(json.dumps(summary))
    assert checks.check_papr(out, expect)


def _shift_reference(t):
    t[t[:, 1] == 0.0, 2] += 0.5


def _infinite_value(t):
    t[0, 2] = -np.inf


@pytest.mark.parametrize("name,edit", [("pplr", _shift_reference), ("islr", _infinite_value)])
def test_sweep_check_rejects_bad_surface(output, name, edit):
    out, _ = output("sweep")
    _rewrite_table(out / f"sweep_{name}.csv", edit)
    assert checks.check_sweep(out)


# -- workloads and the entry point -------------------------------------------

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workloads_are_seeded_and_within_limits(name):
    make = workloads.WORKLOADS[name]
    assert make(3) == make(3)
    assert make(3) != make(4)
    for seed in range(20):
        for step in make(seed)["commands"]:
            config = step["config"]
            assert config["seed"] == seed
            n = config["waveform"]["N"]
            for t in config.get("targets", []):
                limit = n * workloads.RANGE_CELL_M
                if step["command"] in ("mimo", "radcom"):
                    limit = 76.8
                assert workloads.MIN_RANGE_M <= t["range_m"] < limit
                assert abs(t["velocity_mps"]) <= workloads.MAX_SPEED_MPS
            if step["command"] == "sweep":
                assert 0.0 in config["sweep"]["k_grid"]
                assert all(abs(k) <= 0.5 for k in config["sweep"]["k_grid"])
                assert all(0 <= v < n for v in config["sweep"]["n_grid"])


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "radar_full", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
