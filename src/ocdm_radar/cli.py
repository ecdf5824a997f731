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
3 precondition violation (running out of memory while computing included).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import MISSING, asdict, fields, replace
from functools import partial
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .analysis import (
    PAPR_THRESHOLDS_DB,
    doppler_tolerance_sweep,
    mimo_leakage_db,
    ofdm_symbol_builder,
    papr_ccdf,
    pilot_symbol_builder,
    radar_image,
    radcom_symbol_builder,
)
from .channel import (
    CommChannelConfig,
    Target,
    apply_comm_channel,
    load_cfr_csv,
    normalize_target,
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
    build_pilot_frame,
    build_radcom_frame,
    build_superposed_pilot_frame,
    draw_payload_bits,
    qpsk_demap,
)
from .rxproc import (
    RangeVelocityImage,
    compute_radar_params,
    estimate_peak,
    image_to_csv,
    receive_frame,  # not called here: perfbench's tracer test checks its rebinding of this name
    write_csv,
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


def _require_keys(obj: dict, allowed: dict, path: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: unknown key")
    for key, required in allowed.items():
        if required and key not in obj:
            raise ConfigError(f"{path}.{key}: missing required key")


def _section(obj, path: str, defaults: dict, required=()) -> dict:
    _require_keys(obj, {**dict.fromkeys(required, True), **dict.fromkeys(defaults, False)}, path)
    return {**defaults, **obj}


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


def _complex_amplitude(obj, path) -> complex:
    if isinstance(obj, complex):  # the Target default; JSON has no complex literal
        return obj
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        return complex(_number(obj, path))
    if isinstance(obj, list) and len(obj) == 2:
        return complex(_number(obj[0], f"{path}[0]"), _number(obj[1], f"{path}[1]"))
    raise ConfigError(f"{path}: expected a number or [re, im] pair")


# Number kind of each dataclass field annotation a config section may carry.
_KINDS = {"int": partial(_number, integer=True), "float": _number, "complex": _complex_amplitude}


def _list(obj, path: str, nonempty: bool = False) -> list:
    if not isinstance(obj, list):
        raise ConfigError(f"{path}: expected a list")
    if nonempty and not obj:
        raise ConfigError(f"{path}: expected a non-empty list")
    return obj


def _dataclass_section(obj, cls, path: str, **cli_defaults) -> dict:
    """Check a config object against the fields of dataclass ``cls`` and fill its defaults.

    Its keys are the fields plus the CLI-only keys of ``cli_defaults``, which
    also override field defaults; a field with no default is required.  Each
    field value is coerced to its annotated number kind (int, float, complex),
    except a None whose CLI default is None: the CLI fills that one itself.
    """
    defaults = {f.name: f.default for f in fields(cls) if f.default is not MISSING}
    defaults.update(cli_defaults)
    section = _section(obj, path, defaults, [f.name for f in fields(cls) if f.name not in defaults])
    for f in fields(cls):
        if section[f.name] is not None or cli_defaults.get(f.name, 0) is not None:
            section[f.name] = _KINDS[f.type](section[f.name], f"{path}.{f.name}")
    return section


_SECTIONS = (
    "waveform", "mode", "targets", "snr_db", "seed", "mimo", "radcom", "comm", "sweep", "papr", "output_dir"
)


def resolve_config(raw: dict, full_scale: bool = False) -> dict:
    """Check the raw JSON object's shape and fill in every default.

    Value bounds are left to the dataclasses that build_scenario constructs.
    """
    _require_keys(raw, dict.fromkeys(_SECTIONS, False), "config")

    size = FULL_SIZE if full_scale else DESK_SIZE
    waveform = _dataclass_section(raw.get("waveform", {}), WaveformParams, "config.waveform", **size)

    mode = raw.get("mode", "radar")
    if mode not in ("radar", "mimo", "radcom"):
        raise ConfigError(f"config.mode: unknown mode {mode!r}")

    targets = [
        _dataclass_section(t, Target, f"config.targets[{i}]")
        for i, t in enumerate(_list(raw.get("targets", []), "config.targets"))
    ]

    snr_db = raw.get("snr_db")
    if snr_db is not None:
        snr_db = _number(snr_db, "config.snr_db")
    seed = _number(raw.get("seed", 0), "config.seed", lo=0, integer=True)

    mimo = _dataclass_section(raw.get("mimo", {}), MimoConfig, "config.mimo", num_tx=DEFAULT_NUM_TX)

    radcom = _dataclass_section(
        raw.get("radcom", {}), RadComFrameSpec, "config.radcom", N_CP=None, avg_symbols=None
    )
    if radcom["N_CP"] is None:
        # At least 2 so the default two-tap comm channel fits below it; at most N - 1.
        radcom["N_CP"] = min(max(waveform["N_CP"], waveform["N"] // 4, 2), waveform["N"] - 1)
    if radcom["avg_symbols"] is not None:
        radcom["avg_symbols"] = _number(radcom["avg_symbols"], "config.radcom.avg_symbols", lo=1, integer=True)

    comm = _section(raw.get("comm", {}), "config.comm", {"cfr_csv": None, "tilt_db": 10.0, "snr_db": 30.0})
    comm["tilt_db"] = _number(comm["tilt_db"], "config.comm.tilt_db", lo=0.0)
    comm["snr_db"] = _number(comm["snr_db"], "config.comm.snr_db")
    if comm["cfr_csv"] is not None and not isinstance(comm["cfr_csv"], str):
        raise ConfigError("config.comm.cfr_csv: expected a path string")

    sweep = _section(raw.get("sweep", {}), "config.sweep", {"n_grid": [0, 32, 64, 96, 128, 160, 192, 224], "k_grid": [-0.5, -0.25, -0.1, 0.0, 0.1, 0.25, 0.5]})
    for name in ("n_grid", "k_grid"):
        path = f"config.sweep.{name}"
        sweep[name] = [_number(v, f"{path}[{i}]") for i, v in enumerate(_list(sweep[name], path, nonempty=True))]

    papr = _section(raw.get("papr", {}), "config.papr", {"trials": 1000, "oversample": 20, "waveforms": list(PAPR_WAVEFORMS)})
    papr["trials"] = _number(papr["trials"], "config.papr.trials", lo=1, integer=True)
    papr["oversample"] = _number(papr["oversample"], "config.papr.oversample", lo=1, integer=True)
    for i, w in enumerate(_list(papr["waveforms"], "config.papr.waveforms", nonempty=True)):
        if not isinstance(w, str) or w not in PAPR_WAVEFORMS:
            raise ConfigError(f"config.papr.waveforms[{i}]: unknown waveform {w!r}")
        if w in papr["waveforms"][:i]:
            raise ConfigError(f"config.papr.waveforms[{i}]: duplicate waveform {w!r}")

    output_dir = raw.get("output_dir")
    if output_dir is not None and not isinstance(output_dir, str):
        raise ConfigError("config.output_dir: expected a path string")
    if output_dir is not None and "\0" in output_dir:
        raise ConfigError("config.output_dir: embedded null byte")

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
    """The library objects of one run, built from a resolved config.

    ``shifts`` are the targets as radar_image's (n_delta, k_delta, amplitude)
    triples, valid for both numerologies: normalize_target ignores N_CP.
    """

    params: WaveformParams
    radcom_params: WaveformParams
    mimo: MimoConfig
    spec: RadComFrameSpec
    shifts: list[tuple[float, float, complex]]
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
    if rc["avg_symbols"] is not None and rc["avg_symbols"] > params.M:
        raise ConfigError(f"config.radcom.avg_symbols: must be <= {params.M}")
    radcom_params = _build("config.radcom.N_CP", replace, params, N_CP=rc["N_CP"])
    spec = _build(
        "config.radcom", RadComFrameSpec, rc["N_CP"], rc["pilot_energy"], rc["symbol_energy"]
    )
    mimo = _build("config.mimo", MimoConfig, **config["mimo"])
    targets = [
        _build(f"config.targets[{i}]", Target, **t) for i, t in enumerate(config["targets"])
    ]
    if comm["cfr_csv"] is not None:
        cir_path = "config.comm.cfr_csv"
        cfr = _build(cir_path, load_cfr_csv, comm["cfr_csv"], params.N)
        with np.errstate(over="ignore", invalid="ignore"):  # CommChannelConfig rejects an overflow
            cir = np.fft.ifft(cfr)
    else:
        cir_path = "config.comm.tilt_db"
        cir = _build(cir_path, two_tap_tilt_cir, comm["tilt_db"])
    return Scenario(
        params,
        radcom_params,
        mimo,
        spec,
        [(*normalize_target(t, params), t.amplitude) for t in targets],
        _build(cir_path, CommChannelConfig, cir, snr_db=comm["snr_db"], rng_seed=config["seed"] + 1),
    )


def _canonical_json(obj) -> str:
    def default(o):
        if isinstance(o, complex):
            return [o.real, o.imag]
        raise TypeError(f"not JSON serializable: {type(o)}")

    return json.dumps(obj, sort_keys=True, indent=2, default=default, allow_nan=False)


def _render_json(name: str, payload: dict) -> str:
    """A report's JSON text; a non-finite number, which JSON cannot hold, is a ValueError naming it."""
    items = list(payload.items())
    for key, value in items:  # nested sections join the end of the list as dotted keys
        if isinstance(value, dict):
            items += [(f"{key}.{k}", v) for k, v in value.items()]
        elif isinstance(value, float) and not np.isfinite(value):
            raise ValueError(f"{name}: {key} is not finite")
    return _canonical_json(payload) + "\n"


def _peak_payload(image) -> dict:
    peak = estimate_peak(image)
    return {
        **asdict(peak),
        "noise_margin_db": None if np.isinf(peak.noise_margin_db) else peak.noise_margin_db,
        "detected": bool(peak.noise_margin_db >= DETECTION_MARGIN_DB),
    }


def _radar_artifacts(prefix: str, image: RangeVelocityImage) -> dict:
    """The image and its peak report, which rejects a bad image."""
    return {f"{prefix}_peak.json": _peak_payload(image), prefix: image}


def _require_targets_within(sc: Scenario, bins: int, range_m: float, region: str) -> None:
    """Scene precondition: each target's image row, n_delta + k_delta, is below bins.

    The imaged rows are the first ``bins`` of a region; a target past them is
    not imaged, and another part of the frame wraps into the rows instead.
    """
    for i, (n_delta, k_delta, _) in enumerate(sc.shifts):
        if n_delta + k_delta >= bins:
            raise ValueError(
                f"target {i} images at n_delta + k_delta = {n_delta + k_delta:.6g} bins, outside the "
                f"{bins}-bin {region}: its range must stay below {range_m:.6g} m"
            )


def _cmd_params(config: dict, sc: Scenario) -> dict:
    mode = config["mode"]
    params = sc.radcom_params if mode == "radcom" else sc.params
    rp = compute_radar_params(params, num_tx=sc.mimo.num_tx if mode == "mimo" else None)
    payload = {key: None if v is None else round(v, 2) for key, v in asdict(rp).items()}
    payload["data_rate_radcom_bps"] = data_rate_radcom(sc.radcom_params)
    payload["data_rate_comb_pilot_bps"] = data_rate_comb_pilot(sc.radcom_params)
    return {"radar_params.json": payload}


def _cmd_radar(config: dict, sc: Scenario) -> dict:
    [image] = radar_image(build_pilot_frame(sc.params), sc.params, sc.shifts, config["snr_db"], config["seed"])
    return _radar_artifacts("radar", image)


def _cmd_mimo(config: dict, sc: Scenario) -> dict:
    params, mimo = sc.params, sc.mimo
    limit_m = compute_radar_params(params, num_tx=mimo.num_tx).mimo_max_unambiguous_range_m
    _require_targets_within(sc, mimo.slice_rows(params.N, 0).stop, limit_m, "MIMO slice")
    # Every transmitter sends at once: one chain on the summed frame images each slice.
    # snr_db is per transmitter; the noise is referenced to the summed echo, which
    # carries num_tx transmitters' power.
    snr_db = config["snr_db"]
    if snr_db is not None:
        snr_db += 10.0 * math.log10(mimo.num_tx)
    slices = [mimo.slice_rows(params.N, p) for p in range(mimo.num_tx)]
    images = radar_image(build_superposed_pilot_frame(params, mimo), params, sc.shifts, snr_db, config["seed"], slices)
    artifacts = {}
    for p, (image, leakage_db) in enumerate(zip(images, mimo_leakage_db(params, mimo, sc.shifts))):
        artifacts.update(_radar_artifacts(f"mimo_p{p}", image))
        artifacts[f"mimo_p{p}_peak.json"]["leakage_db"] = leakage_db
    return artifacts


def _cmd_radcom(config: dict, sc: Scenario) -> dict:
    params, spec = sc.radcom_params, sc.spec
    _require_targets_within(sc, spec.N_CP, compute_radar_params(params).max_cp_range_m, "RadCom radar sector")
    n_data = spec.num_data_subchirps(params.N)
    # The sector layout's spread rule, before either leg runs: stricter than the CP's
    # (spread <= N_CP), since a spread of N_CP wraps the last data row into the pilot row.
    spread = sc.comm_channel.delay_spread
    if spread >= spec.N_CP:
        raise ValueError(f"channel delay spread {spread} must be below the RadCom N_CP {spec.N_CP} (N_CP-1 guard nulls)")

    bits = draw_payload_bits(np.random.default_rng(config["seed"]), params, spec)
    frame = build_radcom_frame(params, spec, bits)
    [image] = radar_image(frame, params, sc.shifts, config["snr_db"], config["seed"], [spec.radar_rows])
    # The sector image is a view into the radar leg's stream buffer: a copy lets that buffer go.
    artifacts = _radar_artifacts("radcom", replace(image, magnitude=image.magnitude.copy()))
    del image

    # Communication leg on the frame's symbols one after another, a stream with N_CP = 0:
    # the DFnT commutes with the channel's per-symbol circular convolution, so the channel
    # acts on them as on the transmit stream.  The stream is a column-major copy, and the
    # row-major frame (its zero rows' pages never touched) goes before it runs in place.
    rx = frame.ravel(order="F")
    del frame
    apply_comm_channel(rx, sc.comm_channel, replace(params, N_CP=0), out=rx)
    rx = rx.reshape((params.N, params.M), order="F")  # the received frame, a view
    avg = config["radcom"]["avg_symbols"] or params.M
    recovered = equalize_and_extract(rx, estimate_comm_cfr(rx, spec, avg), spec)
    del rx  # the received frame goes before the reference frame is rebuilt
    # The symbols sent, as the frame's C-contiguous data rows.
    report = evm_and_snr(recovered, build_radcom_frame(params, spec, bits)[spec.data_rows(params.N)])
    rx_bits = qpsk_demap(recovered)
    artifacts["comm_report.json"] = {
        **asdict(report),
        "bit_errors": int(np.count_nonzero(rx_bits != bits)),
        "data_rate_bps": data_rate_radcom(params),
        "total_bits": int(bits.size),
    }
    artifacts["constellation.csv"] = (
        "re,im,subchirp",
        [
            recovered.real.flatten(order="F"),
            recovered.imag.flatten(order="F"),
            np.tile(np.arange(n_data), params.M),
        ],
    )
    return artifacts


def _cmd_sweep(config: dict, sc: Scenario) -> dict:
    result = doppler_tolerance_sweep(sc.params, config["sweep"]["n_grid"], config["sweep"]["k_grid"])
    n_size, k_size = result.n_grid.size, result.k_grid.size
    grid = [np.repeat(result.n_grid, k_size), np.tile(result.k_grid, n_size)]
    artifacts = {}
    for name, surface in (("pplr", result.pplr_db), ("pslr", result.pslr_db), ("islr", result.islr_db)):
        artifacts[f"sweep_{name}.csv"] = ("n_delta,k_delta,value_db", grid + [surface.ravel()])
    worst = int(np.argmin(result.pplr_db))
    artifacts["sweep_summary.json"] = {
        "pplr_min_db": float(result.pplr_db.min()),
        "pplr_max_db": float(result.pplr_db.max()),
        "worst_point": {
            "n_delta": float(result.n_grid[worst // k_size]),
            "k_delta": float(result.k_grid[worst % k_size]),
        },
    }
    return artifacts


def _cmd_papr(config: dict, sc: Scenario) -> dict:
    pc = config["papr"]
    makers = {
        "pilot": partial(pilot_symbol_builder, sc.params),
        "radcom": partial(radcom_symbol_builder, sc.params, sc.spec),
        "ofdm": partial(ofdm_symbol_builder, sc.params),
    }
    # Build only the requested waveforms, before any trial: an unrequested one may fail its preconditions.
    builders = {name: makers[name]() for name in pc["waveforms"]}
    artifacts, summary = {}, {}
    for i, name in enumerate(pc["waveforms"]):
        ccdf = papr_ccdf(
            builders[name],
            trials=pc["trials"],
            oversample=pc["oversample"],
            rng_seed=config["seed"] + i,
        )
        artifacts[f"papr_{name}.csv"] = ("threshold_db,exceedance", [PAPR_THRESHOLDS_DB, ccdf.exceedance])
        summary[name] = {
            "mean_papr_db": ccdf.mean_papr_db,
            "papr_at_1e-2_db": ccdf.papr_at_probability(1e-2),
        }
    artifacts["papr_summary.json"] = summary
    return artifacts


def _write_run(out_dir: Path, command: str, config: dict, artifacts: dict) -> None:
    """Write a finished command's artifacts, then the manifest that lists them.

    An artifact is rendered JSON text (str), a CSV ``(header, columns)`` pair,
    which write_csv writes, or a RangeVelocityImage, which image_to_csv writes
    with the key as its prefix.  A MemoryError while writing one names it.
    """
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise RuntimeError(f"cannot create output directory: {exc}") from None
    files = []
    for name, value in artifacts.items():
        try:
            if isinstance(value, RangeVelocityImage):
                files.extend(Path(p).name for p in image_to_csv(value, out_dir / name))
                continue
            if isinstance(value, str):
                (out_dir / name).write_text(value)
            else:
                header, columns = value
                write_csv(out_dir / name, columns, header)
        except MemoryError:
            label = f"the {name} image CSVs" if isinstance(value, RangeVelocityImage) else name
            raise MemoryError(f"out of memory while writing {label}") from None
        files.append(name)
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
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "selftest":
        checks = run_selftest()
        for name, ok, detail in checks:
            print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
        return EXIT_OK if all(ok for _, ok, _ in checks) else EXIT_RUNTIME

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
            config["seed"] = _number(args.seed, "--seed", lo=0, integer=True)
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
    commands = {
        "params": _cmd_params,
        "radar": _cmd_radar,
        "mimo": _cmd_mimo,
        "radcom": _cmd_radcom,
        "sweep": _cmd_sweep,
        "papr": _cmd_papr,
    }
    try:
        try:
            # No numpy float warnings: estimate_peak and _render_json reject a non-finite result by name.
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                artifacts = commands[args.command](config, scenario)
            # Render the reports before anything is written: a non-finite value is exit 3.
            artifacts = {k: _render_json(k, v) if isinstance(v, dict) else v for k, v in artifacts.items()}
        except ValueError as exc:
            print(f"error: precondition violated: {exc}", file=sys.stderr)
            return EXIT_PRECONDITION
        except MemoryError:
            p = scenario.radcom_params if args.command == "radcom" else scenario.params
            # The chain's one stream buffer, which holds the images too, and beside it radcom's
            # Fresnel frame; the pilot frames are np.zeros pages that are never written.
            peak = (p.stream_len + (p.N * p.M if args.command == "radcom" else 0)) * 16
            print(
                f"error: precondition violated: out of memory at N={p.N}, M={p.M}, N_CP={p.N_CP}; "
                f"the radar chain needs about {peak / 2**20:.1f} MiB",
                file=sys.stderr,
            )
            return EXIT_PRECONDITION
        try:
            _write_run(out_dir, args.command, config, artifacts)
        except MemoryError as exc:
            print(f"error: precondition violated: {exc}; no manifest was written", file=sys.stderr)
            return EXIT_PRECONDITION
    except Exception as exc:  # noqa: BLE001 - reported as runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
