"""Correctness checks on the artifacts of one CLI command.

Every check reads only artifacts the CLI wrote and the expectations the
workload generator recorded, and returns a list of problems (empty when the
output is correct).  The checks test physics and structure, not bytes: a
peak within one cell of the strongest target, zero bit errors, well-formed
CCDFs and sweep surfaces.  Last-digit rounding changes pass them.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# PPLR of the zero-Doppler column is 0 dB by construction; allow rounding.
PPLR_REFERENCE_TOL_DB = 1e-6
# Cell-distance slack for the printed (%.12g) axis values.
CELL_TOL = 1e-6


def check_manifest(out: Path) -> list[str]:
    try:
        manifest = json.loads((out / "manifest.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"{out.name}: unreadable manifest: {exc}"]
    files = manifest.get("files")
    if not isinstance(files, list) or not files:
        return [f"{out.name}: manifest lists no files"]
    return [f"{out.name}: manifest lists missing file {f}" for f in files if not (out / f).is_file()]


def _cell_distance(found: float, wanted: float, cell: float, span: float | None = None) -> float:
    d = found - wanted
    if span is not None:
        d = (d + span / 2.0) % span - span / 2.0
    return abs(d) / cell


def check_image_peak(out: Path, prefix: str, expect: dict) -> list[str]:
    """The image's global peak sits within one range and one velocity cell of the strongest target."""
    try:
        image = np.loadtxt(out / f"{prefix}_image.csv", delimiter=",", ndmin=2)
        range_axis = np.loadtxt(out / f"{prefix}_range_axis.csv", delimiter=",", ndmin=1)
        velocity_axis = np.loadtxt(out / f"{prefix}_velocity_axis.csv", delimiter=",", ndmin=1)
    except (OSError, ValueError) as exc:
        return [f"{prefix}: unreadable image: {exc}"]
    if image.shape != (range_axis.size, velocity_axis.size):
        return [f"{prefix}: image shape {image.shape} does not match its axes"]
    if not np.all(np.isfinite(image)):
        return [f"{prefix}: image has non-finite values"]
    row, col = np.unravel_index(int(np.argmax(image)), image.shape)
    range_cells = _cell_distance(range_axis[row], expect["range_m"], expect["range_cell_m"])
    velocity_cells = _cell_distance(
        velocity_axis[col],
        expect["velocity_mps"],
        expect["velocity_cell_mps"],
        span=velocity_axis.size * expect["velocity_cell_mps"],
    )
    if range_cells > 1 + CELL_TOL or velocity_cells > 1 + CELL_TOL:
        return [
            f"{prefix}: peak at {range_axis[row]:.3f} m, {velocity_axis[col]:.3f} m/s is "
            f"{range_cells:.2f} range / {velocity_cells:.2f} velocity cells from the "
            f"strongest target ({expect['range_m']} m, {expect['velocity_mps']} m/s)"
        ]
    return []


def check_comm(out: Path, expect: dict) -> list[str]:
    try:
        report = json.loads((out / "comm_report.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"comm: unreadable report: {exc}"]
    problems = []
    if report.get("bit_errors") != 0:
        problems.append(f"comm: {report.get('bit_errors')} bit errors")
    if report.get("total_bits") != expect["total_bits"]:
        problems.append(f"comm: {report.get('total_bits')} bits, expected {expect['total_bits']}")
    return problems


def _load_table(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def check_papr(out: Path, expect: dict) -> list[str]:
    """Finite, non-increasing CCDFs; random-payload waveforms above the pilot's mean PAPR."""
    problems = []
    for name in expect["waveforms"]:
        try:
            table = _load_table(out / f"papr_{name}.csv")
        except (OSError, ValueError) as exc:
            problems.append(f"papr_{name}: unreadable: {exc}")
            continue
        thresholds, exceedance = table[:, 0], table[:, 1]
        if not (np.all(np.isfinite(table)) and table.shape[0] > 1):
            problems.append(f"papr_{name}: empty or non-finite CCDF")
        elif np.any(np.diff(thresholds) <= 0) or np.any(np.diff(exceedance) > 0):
            problems.append(f"papr_{name}: CCDF is not non-increasing over rising thresholds")
    try:
        summary = json.loads((out / "papr_summary.json").read_text())
        pilot = summary["pilot"]["mean_papr_db"]
        for name in ("radcom", "ofdm"):
            if not summary[name]["mean_papr_db"] > pilot:
                problems.append(f"papr: {name} mean PAPR does not exceed the pilot's")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems.append(f"papr: unreadable summary: {exc}")
    return problems


def check_sweep(out: Path) -> list[str]:
    """Every surface value finite; the k_delta = 0 PPLR column is 0 dB."""
    problems = []
    for name in ("pplr", "pslr", "islr"):
        try:
            table = _load_table(out / f"sweep_{name}.csv")
        except (OSError, ValueError) as exc:
            problems.append(f"sweep_{name}: unreadable: {exc}")
            continue
        if table.shape[0] == 0 or not np.all(np.isfinite(table)):
            problems.append(f"sweep_{name}: empty or non-finite values")
        elif name == "pplr":
            reference = table[table[:, 1] == 0.0, 2]
            if reference.size == 0 or np.any(np.abs(reference) > PPLR_REFERENCE_TOL_DB):
                problems.append("sweep_pplr: the k_delta = 0 column is not 0 dB")
    return problems


def check_command(command: str, out: Path, expect: dict) -> list[str]:
    """All checks that apply to one command's output directory."""
    problems = check_manifest(out)
    for prefix in expect.get("images", []):
        problems += check_image_peak(out, prefix, expect)
    if command == "radcom":
        problems += check_comm(out, expect)
    elif command == "papr":
        problems += check_papr(out, expect)
    elif command == "sweep":
        problems += check_sweep(out)
    return problems
