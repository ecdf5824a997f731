"""CLI: config validation, artifacts, manifests, reproducibility."""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

from ocdm_radar.cli import EXIT_OK, EXIT_PRECONDITION, EXIT_SCHEMA, main, resolve_config
from ocdm_radar.cli import ConfigError


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


def test_selftest_command():
    assert main(["selftest"]) == EXIT_OK


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
        assert (out / f"mimo_p{p}_peak.json").exists()


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
        ("mimo", {"mimo": {"num_tx": 2, "tx": 2}}, "config.mimo: tx index"),
        ("radar", {"mimo": {"num_rx": 0}}, "config.mimo: rx index"),
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
    ],
)
def test_hostile_config_exits_2_naming_field(tmp_path, capsys, command, config, field):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, config)
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_SCHEMA
    assert field in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "config, reason",
    [
        ({"snr_db": -4000.0}, "snr_db=-4000.0"),
        ({"targets": [{"range_m": 3.0, "velocity_mps": 1.7e308}]}, "not finite"),
        ({"targets": [{"range_m": 3.0, "amplitude": 1e308}], "snr_db": 20.0}, "not finite"),
    ],
)
def test_extreme_scene_exits_3_naming_precondition(tmp_path, capsys, config, reason):
    cfg = write_config(tmp_path, config)
    assert main(["radar", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_PRECONDITION
    assert reason in capsys.readouterr().err


def test_default_config_hashes_are_pinned(tmp_path):
    # The manifest hash of the resolved defaults is the reproducibility key of
    # every earlier run; a change here changes every config hash.
    want = {
        (): "248a756f1a853e33e9d9ffeb6734d0cbec52df95acdbb22b1ee35db6786d772d",
        ("--full-scale",): "dc756b9a7bc064e874e3ada371c0b909bf6a4f423a46fefe1c7ae8c060b880f7",
    }
    for i, (flags, digest) in enumerate(want.items()):
        out = tmp_path / str(i)
        assert main(["params", "--out", str(out), *flags]) == EXIT_OK
        assert json.loads((out / "manifest.json").read_text())["config_sha256"] == digest


SMALL_CONFIG = {
    "waveform": {"N": 64, "M": 8, "N_CP": 0, "B": 1e9, "fc": 79e9},
    "mode": "radar",
    "targets": [{"range_m": 3.0, "velocity_mps": 20.0, "amplitude": [1.0, 0.5]}],
    "snr_db": 20.0,
    "seed": 4,
    "mimo": {"num_tx": 2, "tx": 0, "num_rx": 1, "rx": 0},
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

    @hypothesis.settings(max_examples=40, deadline=None, database=None, derandomize=True)
    @hypothesis.given(config=perturbed(), command=commands)
    def check(config, command):
        with tempfile.TemporaryDirectory() as tmp:
            cfg = write_config(Path(tmp), config)
            out = Path(tmp) / "out"
            code = main([command, "--config", cfg, "--out", str(out)])
            assert code in (EXIT_OK, EXIT_SCHEMA, EXIT_PRECONDITION)
            if code == EXIT_OK:
                manifest = json.loads((out / "manifest.json").read_text())
                assert manifest["files"]
                assert all((out / name).exists() for name in manifest["files"])
            if code == EXIT_SCHEMA:
                assert not out.exists()

    check()
