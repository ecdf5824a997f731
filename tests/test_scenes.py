"""Physics of the radar, mimo and radcom commands over random desk scenes.

Numerologies and scenes are drawn under the benchmark's workload rules
(``perfbench/workloads.py``): one target has amplitude 1 and the others
0.1-0.3, targets are at least MIN_SEPARATION_CELLS range cells apart, no
nearer than MIN_RANGE_M and inside both the MIMO slice and the RadCom radar
sector, and speeds are within MAX_SPEED_MPS.  Every command runs through
``cli.main`` and its artifacts go through the benchmark's own checks
(``perfbench/checks.py``), so each check has one definition.
"""

import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from ocdm_radar.cli import EXIT_OK, main

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
import checks  # noqa: E402
import workloads  # noqa: E402

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

MIN_CELL = math.ceil(workloads.MIN_RANGE_M / workloads.RANGE_CELL_M)


@st.composite
def scenes(draw):
    """A noisy config for all three commands, whether it is a grid scene, and the comm channel's CFR.

    On a grid scene every target sits on a range cell at zero speed, so each
    n_delta and k_delta is an integer.  The comm channel is a direct path plus
    one weaker echo at a delay below the RadCom N_CP.
    """
    num_tx = draw(st.sampled_from([2, 4]))
    n = 4 * draw(st.integers(6 * num_tx, 128))  # N/num_tx >= 24 cells, N in [48, 512]
    n_cp = draw(st.integers(24, n // 2))  # the sector layout needs 2 N_CP - 1 < N
    limit = min(n // num_tx, n_cp) - 1  # n_delta + k_delta stays below both regions' bins
    span = limit - MIN_CELL
    count = min(draw(st.integers(1, 3)), 1 + int(span // workloads.MIN_SEPARATION_CELLS))
    free = span - (count - 1) * workloads.MIN_SEPARATION_CELLS
    on_grid = draw(st.booleans())
    offsets = sorted(draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=count, max_size=count)))
    strongest = draw(st.integers(0, count - 1))
    phases = st.floats(-math.pi, math.pi).map(lambda a: complex(math.cos(a), math.sin(a)))
    amplitudes = st.builds(lambda m, z: m * z, st.floats(*workloads.WEAK_AMPLITUDE), phases)
    speeds = st.floats(-workloads.MAX_SPEED_MPS, workloads.MAX_SPEED_MPS)
    targets = []
    for i, u in enumerate(offsets):
        cell = MIN_CELL + i * workloads.MIN_SEPARATION_CELLS + u * free
        amplitude = draw(amplitudes) if i != strongest else draw(phases)
        targets.append({
            "range_m": (math.floor(cell) if on_grid else cell) * workloads.RANGE_CELL_M,
            "velocity_mps": 0.0 if on_grid else draw(speeds),
            "amplitude": [amplitude.real, amplitude.imag],
        })
    config = {
        "waveform": {**workloads.waveform(n, draw(st.integers(8, 64))), "N_CP": draw(st.integers(0, n // 2))},
        "targets": targets,
        "snr_db": draw(st.floats(20.0, 40.0)),
        "seed": draw(st.integers(0, 2**16)),
        "mimo": {"num_tx": num_tx},
        "radcom": {"N_CP": n_cp},
    }
    cir = np.zeros(n, dtype=complex)
    cir[0], cir[draw(st.integers(1, n_cp - 1))] = 1.0, draw(amplitudes)
    return config, on_grid, np.fft.fft(cir)


def _expect(config, command):
    w, target = config["waveform"], workloads.strongest(config["targets"])
    n_cp = config["radcom"]["N_CP"] if command == "radcom" else w["N_CP"]
    mimo_images = [f"mimo_p{p}" for p in range(config["mimo"]["num_tx"])]
    expect = {
        "images": {"radar": ["radar"], "mimo": mimo_images, "radcom": ["radcom"]}[command],
        "range_m": target["range_m"],
        "velocity_mps": target["velocity_mps"],
        "range_cell_m": workloads.RANGE_CELL_M,
        "velocity_cell_mps": workloads.velocity_cell_mps(w["N"], w["M"], n_cp),
    }
    if command == "radcom":
        n_data = w["N"] - 2 * n_cp + 1
        expect["total_bits"] = 2 * n_data * w["M"]
    return expect


def test_random_scenes_pass_the_benchmark_checks():
    @hypothesis.settings(max_examples=30, deadline=None, database=None, derandomize=True)
    @hypothesis.given(scene=scenes())
    def check(scene):
        config, on_grid, cfr = scene
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            (tmp / "cfr.csv").write_text("".join(f"{k},{c.real!r},{c.imag!r}\n" for k, c in enumerate(cfr.tolist())))
            comm = {"cfr_csv": str(tmp / "cfr.csv")}
            for snr_db in (None, config["snr_db"]):
                (tmp / "config.json").write_text(json.dumps({**config, "snr_db": snr_db, "comm": comm}))
                for command in ("radar", "mimo", "radcom"):
                    out = tmp / f"{command}_{snr_db}"
                    assert main([command, "--config", str(tmp / "config.json"), "--out", str(out)]) == EXIT_OK
                    assert checks.check_command(command, out, _expect(config, command)) == []
                # Integer n_delta and k_delta keep every echo on one row of its own slice.
                for p in range(config["mimo"]["num_tx"]):
                    leakage_db = json.loads((tmp / f"mimo_{snr_db}" / f"mimo_p{p}_peak.json").read_text())["leakage_db"]
                    assert leakage_db is None or not on_grid

    check()
