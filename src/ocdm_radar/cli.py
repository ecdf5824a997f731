"""Command-line front end: scenario configs in, CSV/JSON artifacts out.

Subcommands: selftest, params, radar, mimo, radcom, sweep, papr.  Every run
writes its artifacts plus a manifest (file list, resolved config, config
hash, seed) into the output directory, so a run can be reproduced from the
manifest alone.

The library dataclasses own the scenario defaults and bounds.  The CLI only
checks what they cannot check on outside JSON (keys, types, finiteness,
shapes), supplies its own few defaults, and builds every dataclass once per
run, before any artifact is written.

Exit codes: 0 ok, 1 runtime failure, 2 config/schema violation,
3 precondition violation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import MISSING, asdict, fields, replace
from functools import partial
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .analysis import (
    doppler_tolerance_sweep,
    ofdm_symbol_builder,
    papr_ccdf,
    pilot_symbol_builder,
    radcom_symbol_builder,
)
from .channel import (
    CommChannelConfig,
    RadarChannelConfig,
    Target,
    apply_comm_channel,
    apply_radar_channel,
    load_cfr_csv,
    two_tap_tilt_cir,
)
from .comms import (
    data_rate_comb_pilot,
    data_rate_radcom,
    equalize_and_extract,
    estimate_comm_cfr,
    evm_and_snr,
)
from .framing import (
    MimoConfig,
    RadComFrameSpec,
    WaveformParams,
    add_cp,
    build_mimo_pilot_frame,
    build_pilot_frame,
    build_radcom_frame,
    qpsk_demap,
    qpsk_map,
    serialize,
    to_time_frame,
)
from .rxproc import (
    compute_radar_params,
    doppler_process,
    estimate_peak,
    image_to_csv,
    mimo_demux,
    radcom_extract_cir,
    receive_frame,
)
from .selftest import run_selftest

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_SCHEMA = 2
EXIT_PRECONDITION = 3

OUTPUT_DIR_ENV = "OCDM_RADAR_OUTDIR"

# Peak must clear the noise floor by this margin to count as a detection.
DETECTION_MARGIN_DB = 13.0

# CLI-only defaults; every other scenario default is a dataclass field default.
DESK_SIZE = {"N": 256, "M": 32}
FULL_SIZE = {"N": 2048, "M": 5120}
DEFAULT_NUM_TX = 4

PAPR_WAVEFORMS = ("pilot", "radcom", "ofdm")


class ConfigError(Exception):
    """Schema-level config problem; message names the offending field."""


def _defaults(cls) -> dict:
    return {f.name: f.default for f in fields(cls) if f.default is not MISSING}


def _require_keys(obj: dict, allowed: dict, path: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: unknown key")
    for key, required in allowed.items():
        if required and key not in obj:
            raise ConfigError(f"{path}.{key}: missing required key")


def _section(raw: dict, name: str, defaults: dict) -> dict:
    section = dict(defaults)
    if name in raw:
        _require_keys(raw[name], dict.fromkeys(section, False), f"config.{name}")
        section.update(raw[name])
    return section


def _number(obj, path, lo=None, hi=None, integer=False):
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ConfigError(f"{path}: expected a number")
    if not abs(obj) <= sys.float_info.max:
        raise ConfigError(f"{path}: expected a finite number")
    if integer and int(obj) != obj:
        raise ConfigError(f"{path}: expected an integer")
    if lo is not None and obj < lo:
        raise ConfigError(f"{path}: must be >= {lo}")
    if hi is not None and obj > hi:
        raise ConfigError(f"{path}: must be <= {hi}")
    return int(obj) if integer else float(obj)


def _numbers(section: dict, path: str, ints=(), floats=()) -> None:
    for key in ints:
        section[key] = _number(section[key], f"{path}.{key}", integer=True)
    for key in floats:
        section[key] = _number(section[key], f"{path}.{key}")


def _complex_amplitude(obj, path) -> complex:
    if isinstance(obj, complex):  # the Target default; JSON has no complex literal
        return obj
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        return complex(_number(obj, path))
    if isinstance(obj, list) and len(obj) == 2:
        return complex(_number(obj[0], f"{path}[0]"), _number(obj[1], f"{path}[1]"))
    raise ConfigError(f"{path}: expected a number or [re, im] pair")


def _list(obj, path: str) -> list:
    if not isinstance(obj, list):
        raise ConfigError(f"{path}: expected a list")
    return obj


_SECTIONS = (
    "waveform", "mode", "targets", "snr_db", "seed", "mimo", "radcom", "comm", "sweep", "papr", "output_dir"
)


def resolve_config(raw: dict, full_scale: bool = False) -> dict:
    """Check the raw JSON object's shape and fill in every default.

    Value bounds are left to the dataclasses that build_scenario constructs.
    """
    _require_keys(raw, dict.fromkeys(_SECTIONS, False), "config")

    size = FULL_SIZE if full_scale else DESK_SIZE
    waveform = _section(raw, "waveform", {**size, **_defaults(WaveformParams)})
    _numbers(waveform, "config.waveform", ints=("N", "M", "N_CP"), floats=("B", "fc"))

    mode = raw.get("mode", "radar")
    if mode not in ("radar", "mimo", "radcom"):
        raise ConfigError(f"config.mode: unknown mode {mode!r}")

    target_keys = {f.name: f.default is MISSING for f in fields(Target)}
    targets = []
    for i, t in enumerate(_list(raw.get("targets", []), "config.targets")):
        path = f"config.targets[{i}]"
        _require_keys(t, target_keys, path)
        t = {**_defaults(Target), **t}
        _numbers(t, path, floats=("range_m", "velocity_mps"))
        t["amplitude"] = _complex_amplitude(t["amplitude"], f"{path}.amplitude")
        targets.append(t)

    snr_db = raw.get("snr_db")
    if snr_db is not None:
        snr_db = _number(snr_db, "config.snr_db")
    seed = _number(raw.get("seed", 0), "config.seed", integer=True)

    mimo = _section(raw, "mimo", {"num_tx": DEFAULT_NUM_TX, **_defaults(MimoConfig)})
    _numbers(mimo, "config.mimo", ints=tuple(mimo))

    radcom = _section(raw, "radcom", {"N_CP": None, **_defaults(RadComFrameSpec), "avg_symbols": None})
    if radcom["N_CP"] is None:
        radcom["N_CP"] = max(waveform["N_CP"], waveform["N"] // 4)
    _numbers(radcom, "config.radcom", ints=("N_CP",), floats=("pilot_energy", "symbol_energy"))
    if radcom["avg_symbols"] is not None:
        radcom["avg_symbols"] = _number(
            radcom["avg_symbols"], "config.radcom.avg_symbols", lo=1, hi=waveform["M"], integer=True
        )

    comm = _section(raw, "comm", {"cfr_csv": None, "tilt_db": 10.0, "snr_db": 30.0})
    comm["tilt_db"] = _number(comm["tilt_db"], "config.comm.tilt_db", lo=0.0)
    comm["snr_db"] = _number(comm["snr_db"], "config.comm.snr_db")
    if comm["cfr_csv"] is not None and not isinstance(comm["cfr_csv"], str):
        raise ConfigError("config.comm.cfr_csv: expected a path string")

    sweep = _section(raw, "sweep", {"n_grid": [0, 32, 64, 96, 128, 160, 192, 224], "k_grid": [-0.5, -0.25, -0.1, 0.0, 0.1, 0.25, 0.5]})
    for name in ("n_grid", "k_grid"):
        path = f"config.sweep.{name}"
        if not _list(sweep[name], path):
            raise ConfigError(f"{path}: expected a non-empty list")
        sweep[name] = [_number(v, f"{path}[{i}]") for i, v in enumerate(sweep[name])]

    papr = _section(raw, "papr", {"trials": 1000, "oversample": 20, "waveforms": list(PAPR_WAVEFORMS)})
    papr["trials"] = _number(papr["trials"], "config.papr.trials", lo=1, integer=True)
    papr["oversample"] = _number(papr["oversample"], "config.papr.oversample", lo=1, integer=True)
    for i, w in enumerate(_list(papr["waveforms"], "config.papr.waveforms")):
        if not isinstance(w, str) or w not in PAPR_WAVEFORMS:
            raise ConfigError(f"config.papr.waveforms[{i}]: unknown waveform {w!r}")

    output_dir = raw.get("output_dir")
    if output_dir is not None and not isinstance(output_dir, str):
        raise ConfigError("config.output_dir: expected a path string")

    return {
        "waveform": waveform,
        "mode": mode,
        "targets": targets,
        "snr_db": snr_db,
        "seed": seed,
        "mimo": mimo,
        "radcom": radcom,
        "comm": comm,
        "sweep": sweep,
        "papr": papr,
        "output_dir": output_dir,
    }


class Scenario(NamedTuple):
    """The library objects of one run, built from a resolved config."""

    params: WaveformParams
    radcom_params: WaveformParams
    mimo: MimoConfig
    spec: RadComFrameSpec
    channel: RadarChannelConfig
    comm_channel: CommChannelConfig


def _build(path: str, make, *args, **kwargs):
    try:
        return make(*args, **kwargs)
    except (ValueError, OverflowError, OSError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


def build_scenario(config: dict) -> Scenario:
    """Build every config section's library objects, whatever the command.

    The dataclasses' own validation rejects bad values; the ConfigError
    names the config section they came from.
    """
    rc, comm = config["radcom"], config["comm"]
    params = _build("config.waveform", WaveformParams, **config["waveform"])
    radcom_params = _build("config.radcom.N_CP", replace, params, N_CP=rc["N_CP"])
    spec = _build(
        "config.radcom", RadComFrameSpec, rc["N_CP"], rc["pilot_energy"], rc["symbol_energy"]
    )
    mimo = _build("config.mimo", MimoConfig, **config["mimo"])
    targets = [
        _build(f"config.targets[{i}]", Target, **t) for i, t in enumerate(config["targets"])
    ]
    if comm["cfr_csv"] is not None:
        taps = {"cfr": _build("config.comm.cfr_csv", load_cfr_csv, comm["cfr_csv"], params.N)}
    else:
        taps = {"cir": _build("config.comm.tilt_db", two_tap_tilt_cir, comm["tilt_db"])}
    return Scenario(
        params,
        radcom_params,
        mimo,
        spec,
        RadarChannelConfig(targets=targets, snr_db=config["snr_db"], rng_seed=config["seed"]),
        CommChannelConfig(**taps, snr_db=comm["snr_db"], rng_seed=config["seed"] + 1),
    )


def _canonical_json(obj) -> str:
    def default(o):
        if isinstance(o, complex):
            return [o.real, o.imag]
        raise TypeError(f"not JSON serializable: {type(o)}")

    return json.dumps(obj, sort_keys=True, indent=2, default=default)


def _write_manifest(out_dir: Path, command: str, config: dict, files: list[str]) -> None:
    resolved = _canonical_json(config)
    manifest = {
        "command": command,
        "config": json.loads(resolved),
        "config_sha256": hashlib.sha256(resolved.encode()).hexdigest(),
        "seed": config["seed"],
        "files": sorted(files),
        "version": __version__,
    }
    (out_dir / "manifest.json").write_text(_canonical_json(manifest) + "\n")


def _emit_json(out_dir: Path, files: list[str], name: str, payload: dict) -> None:
    (out_dir / name).write_text(_canonical_json(payload) + "\n")
    files.append(name)


def _emit_csv(out_dir: Path, files: list[str], name: str, header: str, columns) -> None:
    np.savetxt(
        out_dir / name,
        np.column_stack(columns),
        delimiter=",",
        fmt="%.12g",
        header=header,
        comments="",
    )
    files.append(name)


def _peak_payload(image) -> dict:
    peak = estimate_peak(image)
    power = image.magnitude**2
    pr, pc = np.unravel_index(int(np.argmax(power)), power.shape)
    mask = np.ones_like(power, dtype=bool)
    mask[pr, pc] = False
    floor = float(power[mask].mean()) if mask.any() else 0.0
    margin = 10.0 * np.log10(power[pr, pc] / floor) if floor > 0 else np.inf
    return {
        **asdict(peak),
        "noise_margin_db": None if np.isinf(margin) else float(margin),
        "detected": bool(margin >= DETECTION_MARGIN_DB),
    }


def _emit_radar(
    out_dir: Path,
    files: list[str],
    prefix: str,
    frame: np.ndarray,
    params: WaveformParams,
    channel: RadarChannelConfig,
    extract=None,
    mode: str = "SISO",
) -> np.ndarray:
    """Send ``frame`` past the targets and image the receive rows ``extract`` keeps.

    Writes the image and its peak report; returns the transmitted stream.
    """
    tx = serialize(add_cp(to_time_frame(frame), params.N_CP))
    fresnel = receive_frame(apply_radar_channel(tx, channel, params), params)
    image = doppler_process(fresnel if extract is None else extract(fresnel), params, mode=mode)
    files.extend(Path(p).name for p in image_to_csv(image, out_dir / prefix))
    _emit_json(out_dir, files, f"{prefix}_peak.json", _peak_payload(image))
    return tx


def _cmd_params(config: dict, sc: Scenario, out_dir: Path, files: list[str]) -> None:
    mode = config["mode"]
    params = sc.radcom_params if mode == "radcom" else sc.params
    rp = compute_radar_params(params, num_tx=sc.mimo.num_tx if mode == "mimo" else None)
    payload = {key: None if v is None else round(v, 2) for key, v in asdict(rp).items()}
    payload["data_rate_radcom_bps"] = data_rate_radcom(params, sc.spec.N_CP)
    payload["data_rate_comb_pilot_bps"] = data_rate_comb_pilot(params, sc.spec.N_CP)
    _emit_json(out_dir, files, "radar_params.json", payload)


def _cmd_radar(config: dict, sc: Scenario, out_dir: Path, files: list[str]) -> None:
    _emit_radar(out_dir, files, "radar", build_pilot_frame(sc.params), sc.params, sc.channel)


def _cmd_mimo(config: dict, sc: Scenario, out_dir: Path, files: list[str]) -> None:
    params, mimo = sc.params, sc.mimo
    for p in range(mimo.num_tx):
        frame = build_mimo_pilot_frame(params, mimo, p)
        extract = partial(mimo_demux, mimo=mimo, tx=p)
        mode = f"MIMO(p={p},q={mimo.rx})"
        _emit_radar(out_dir, files, f"mimo_p{p}", frame, params, sc.channel, extract, mode)


def _cmd_radcom(config: dict, sc: Scenario, out_dir: Path, files: list[str]) -> None:
    params, spec = sc.radcom_params, sc.spec
    n_data = spec.num_data_subchirps(params.N)

    rng = np.random.default_rng(config["seed"])
    bits = rng.integers(0, 2, size=2 * n_data * params.M)
    symbols = (np.sqrt(spec.symbol_energy) * qpsk_map(bits)).reshape(n_data, params.M)
    frame = build_radcom_frame(params, spec, symbols)
    extract = partial(radcom_extract_cir, n_cp=spec.N_CP)
    tx = _emit_radar(out_dir, files, "radcom", frame, params, sc.channel, extract, "RADCOM")

    # Communication leg over the configured frequency-selective channel.
    rx_comm = apply_comm_channel(tx, sc.comm_channel, params)
    comm_frame = receive_frame(rx_comm, params, correct_fold=False)
    avg = config["radcom"]["avg_symbols"] or params.M
    cfr_est = estimate_comm_cfr(
        comm_frame, spec.N_CP, avg, pilot_amplitude=np.sqrt(spec.pilot_energy)
    )
    recovered = equalize_and_extract(comm_frame, cfr_est, spec)
    rx_bits = qpsk_demap(recovered)
    errors = int(np.count_nonzero(rx_bits != bits))
    report = evm_and_snr(
        recovered, symbols, bit_errors=errors, data_rate_bps=data_rate_radcom(params)
    )
    _emit_json(out_dir, files, "comm_report.json", {**asdict(report), "total_bits": int(bits.size)})
    _emit_csv(
        out_dir,
        files,
        "constellation.csv",
        "re,im,subchirp",
        [
            recovered.real.flatten(order="F"),
            recovered.imag.flatten(order="F"),
            np.tile(np.arange(n_data), params.M),
        ],
    )


def _cmd_sweep(config: dict, sc: Scenario, out_dir: Path, files: list[str], parallelism: int) -> None:
    result = doppler_tolerance_sweep(
        sc.params, config["sweep"]["n_grid"], config["sweep"]["k_grid"], parallelism=parallelism
    )
    n_size, k_size = result.n_grid.size, result.k_grid.size
    grid = [np.repeat(result.n_grid, k_size), np.tile(result.k_grid, n_size)]
    for name, surface in (("pplr", result.pplr_db), ("pslr", result.pslr_db), ("islr", result.islr_db)):
        _emit_csv(out_dir, files, f"sweep_{name}.csv", "n_delta,k_delta,value_db", grid + [surface.ravel()])
    worst = int(np.argmin(result.pplr_db))
    summary = {
        "pplr_min_db": float(result.pplr_db.min()),
        "pplr_max_db": float(result.pplr_db.max()),
        "worst_point": {
            "n_delta": float(result.n_grid[worst // k_size]),
            "k_delta": float(result.k_grid[worst % k_size]),
        },
    }
    _emit_json(out_dir, files, "sweep_summary.json", summary)


def _cmd_papr(config: dict, sc: Scenario, out_dir: Path, files: list[str]) -> None:
    pc = config["papr"]
    builders = {
        "pilot": pilot_symbol_builder(sc.params),
        "radcom": radcom_symbol_builder(sc.params, sc.spec),
        "ofdm": ofdm_symbol_builder(sc.params),
    }
    summary = {}
    for i, name in enumerate(pc["waveforms"]):
        ccdf = papr_ccdf(
            builders[name],
            trials=pc["trials"],
            oversample=pc["oversample"],
            rng_seed=config["seed"] + i,
        )
        columns = [ccdf.thresholds_db, ccdf.exceedance]
        _emit_csv(out_dir, files, f"papr_{name}.csv", "threshold_db,exceedance", columns)
        summary[name] = {
            "mean_papr_db": ccdf.mean_papr_db,
            "papr_at_1e-2_db": ccdf.papr_at_probability(1e-2),
        }
    _emit_json(out_dir, files, "papr_summary.json", summary)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ocdm-radar",
        description="Fresnel-domain OCDM radar / RadCom simulation toolkit",
    )
    parser.add_argument("command", choices=["selftest", "params", "radar", "mimo", "radcom", "sweep", "papr"])
    parser.add_argument("--config", help="JSON scenario config", default=None)
    parser.add_argument("--out", help="output directory", default=None)
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument(
        "--full-scale",
        action="store_true",
        help="default to the full-scale reference numerology instead of desk scale",
    )
    parser.add_argument("--parallelism", type=int, default=1, help="sweep worker processes")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "selftest":
        return EXIT_OK if run_selftest() else EXIT_RUNTIME

    raw = {}
    if args.config is not None:
        try:
            raw = json.loads(Path(args.config).read_text())
        except OSError as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return EXIT_SCHEMA
        except ValueError as exc:  # also undecodable bytes and oversized integers
            print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
            return EXIT_SCHEMA

    try:
        config = resolve_config(raw, full_scale=args.full_scale)
        if args.seed is not None:
            config["seed"] = args.seed
        scenario = build_scenario(config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA

    out_dir = Path(
        args.out
        or config["output_dir"]
        or os.environ.get(OUTPUT_DIR_ENV)
        or "ocdm_radar_out"
    )
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    commands = {
        "params": _cmd_params,
        "radar": _cmd_radar,
        "mimo": _cmd_mimo,
        "radcom": _cmd_radcom,
        "sweep": partial(_cmd_sweep, parallelism=args.parallelism),
        "papr": _cmd_papr,
    }
    files: list[str] = []
    try:
        commands[args.command](config, scenario, out_dir, files)
    except ValueError as exc:
        print(f"error: precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except Exception as exc:  # noqa: BLE001 - reported as runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    _write_manifest(out_dir, args.command, config, files)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
