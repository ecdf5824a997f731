"""Seeded scenario generators for the benchmark workloads.

Each generator turns a seed into the scenario configs the CLI reads, the CLI
commands to run, the fixed number of OCDM symbols the workload simulates, and
what the correctness checks expect.  The CLI only ever sees the generated
config; the seed reaches it only as the config's own ``seed`` key.

Why these three workloads:

* ``radar_full`` is the paper's full-scale numerology (N=2048, M=5120), the
  only workload with ~168 MB frames; CSV image export, the channel and
  memory dominate it.
* ``mimo_radcom`` is the only workload through the comms layer and the
  num_tx-fold channel loop of the MIMO command, and writes the constellation
  CSV from the CLI itself.
* ``montecarlo`` runs PAPR trials and a Doppler-tolerance sweep on small
  frames: many Python-level calls over cache-resident arrays, no image export.
"""

from __future__ import annotations

import math
import random

# Rounded speed of light used by the library's numerology tables.
C0 = 3.0e8
BANDWIDTH_HZ = 1e9
CARRIER_HZ = 79e9

# Speeds stay far below every v_max so that the Doppler-induced range
# coupling (about k_delta bins; k_delta <= 0.06 at 50 m/s) never moves a peak
# by a whole range cell.
MAX_SPEED_MPS = 50.0
# Weaker targets stay below the strongest one even when the strongest loses
# the worst-case straddle in both range and Doppler (about 7.8 dB in power).
WEAK_AMPLITUDE = (0.1, 0.3)
# Minimum range separation between targets, in range cells.
MIN_SEPARATION_CELLS = 5
MIN_RANGE_M = 3.0

RANGE_CELL_M = C0 / (2.0 * BANDWIDTH_HZ)


def waveform(n: int, m: int) -> dict:
    return {"N": n, "M": m, "N_CP": 0, "B": BANDWIDTH_HZ, "fc": CARRIER_HZ}


def velocity_cell_mps(n: int, m: int, n_cp: int) -> float:
    return BANDWIDTH_HZ * C0 / (2.0 * CARRIER_HZ * (n + n_cp) * m)


def draw_targets(rng: random.Random, count: int, max_range_m: float) -> list[dict]:
    """``count`` point targets; the first drawn has amplitude 1 and is the strongest."""
    ranges: list[float] = []
    while len(ranges) < count:
        r = rng.uniform(MIN_RANGE_M, max_range_m)
        if all(abs(r - other) >= MIN_SEPARATION_CELLS * RANGE_CELL_M for other in ranges):
            ranges.append(r)
    targets = []
    for i, r in enumerate(ranges):
        magnitude = 1.0 if i == 0 else rng.uniform(*WEAK_AMPLITUDE)
        phase = rng.uniform(-math.pi, math.pi)
        targets.append(
            {
                "range_m": round(r, 4),
                "velocity_mps": round(rng.uniform(-MAX_SPEED_MPS, MAX_SPEED_MPS), 4),
                "amplitude": [
                    round(magnitude * math.cos(phase), 6),
                    round(magnitude * math.sin(phase), 6),
                ],
            }
        )
    return targets


def strongest(targets: list[dict]) -> dict:
    return max(targets, key=lambda t: math.hypot(*t["amplitude"]))


def _image_expect(names: list[str], targets: list[dict], n: int, m: int, n_cp: int) -> dict:
    t = strongest(targets)
    return {
        "images": names,
        "range_m": t["range_m"],
        "velocity_mps": t["velocity_mps"],
        "range_cell_m": RANGE_CELL_M,
        "velocity_cell_mps": velocity_cell_mps(n, m, n_cp),
    }


def radar_full(seed: int) -> dict:
    n, m = 2048, 5120
    rng = random.Random(seed)
    # 250 m keeps every target inside the 307.2 m unambiguous range.
    targets = draw_targets(rng, 3, 250.0)
    config = {"waveform": waveform(n, m), "targets": targets, "snr_db": 20.0, "seed": seed}
    return {
        "commands": [
            {"command": "radar", "config": config,
             "expect": _image_expect(["radar"], targets, n, m, 0)},
        ],
        # One channel pass of M symbols.
        "symbols": m,
    }


def mimo_radcom(seed: int) -> dict:
    n, m, num_tx, n_cp = 2048, 512, 4, 512
    rng = random.Random(seed)
    # Both the MIMO slice (N/num_tx cells) and the RadCom radar sector (N_CP
    # cells) end at 76.8 m; 70 m leaves room for the fractional-delay spread.
    targets = draw_targets(rng, 3, 70.0)
    config = {
        "waveform": waveform(n, m),
        "targets": targets,
        "snr_db": 20.0,
        "seed": seed,
        "mimo": {"num_tx": num_tx},
        "radcom": {"N_CP": n_cp},
    }
    n_data = n - 2 * n_cp + 1
    return {
        "commands": [
            {"command": "mimo", "config": config,
             "expect": _image_expect([f"mimo_p{p}" for p in range(num_tx)], targets, n, m, 0)},
            {"command": "radcom", "config": config,
             "expect": dict(_image_expect(["radcom"], targets, n, m, n_cp),
                            total_bits=2 * n_data * m)},
        ],
        # num_tx MIMO channel passes, then the RadCom radar and comm passes.
        "symbols": (num_tx + 2) * m,
    }


def montecarlo(seed: int) -> dict:
    n, m, trials = 2048, 32, 400
    rng = random.Random(seed)
    n_grid = sorted(
        [float(rng.randrange(n)) for _ in range(5)]
        + [round(rng.uniform(0.0, n - 1), 3) for _ in range(5)]
    )
    k_grid = sorted([0.0] + [round(rng.uniform(-0.5, 0.5), 4) for _ in range(10)])
    waveforms = ["pilot", "radcom", "ofdm"]
    config = {
        "waveform": waveform(n, m),
        "seed": seed,
        "papr": {"trials": trials, "oversample": 20, "waveforms": waveforms},
        "sweep": {"n_grid": n_grid, "k_grid": k_grid},
    }
    return {
        "commands": [
            {"command": "papr", "config": config, "expect": {"waveforms": waveforms}},
            {"command": "sweep", "config": config, "expect": {}},
        ],
        # One symbol per PAPR trial and waveform; M symbols per sweep cell.
        "symbols": trials * len(waveforms) + len(n_grid) * len(k_grid) * m,
    }


WORKLOADS = {"radar_full": radar_full, "mimo_radcom": mimo_radcom, "montecarlo": montecarlo}
