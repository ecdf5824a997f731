"""Benchmark of the ocdm-radar CLI on seeded scenario workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload radar_full --seed 1 --seconds 30 --trace 0

Every repetition runs the workload's CLI commands through
``ocdm_radar.cli.main`` in a fresh child interpreter (CLI users pay the
import and first-FFT costs on every invocation, and ``ru_maxrss`` is a
high-water mark), one child at a time, then checks the artifacts it wrote.
Repetitions continue while at least half of another one fits in
``--seconds``.

``--trace 0`` reports the end-to-end metrics of untraced repetitions.
``--trace 1`` runs rounds of three children (untraced, span-traced,
tracemalloc-traced) and reports the per-layer metrics.  The last line of
standard output is the JSON result; the line before it gives every metric's
median, quartiles and sample count with the machine facts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check_command
from spans import COUNTERS, LAYERS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Per-process, so that concurrent runs in one checkout never share outputs.
WORK = ROOT / ".perfbench_work" / f"run_{os.getpid()}"

# Set-up-only children before each round, on top of the set-up of every
# repetition; spreading them over the run averages out machine-speed drift.
SETUP_PROBES_PER_ROUND = 2
# A run must end within 180 s; no child may start past this point.
HARD_LIMIT_S = 165.0
# Traced self times must add up to the traced run time within this share.
ACCOUNTING_TOL = 0.01
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "bytes_written": "B",
    "symbols_per_s": "1/s",
}


def per_layer_units() -> dict:
    units = {}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.alloc_peak_mb"] = "MiB"
    for name in COUNTERS + ("cli.export_bytes",):
        units[name] = "s" if name.endswith("_s") else "B" if "bytes" in name else "count"
    units["trace_overhead_s"] = "s"
    return units


def summary(values: list[float]) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def machine_facts(thread_cap: int) -> dict:
    import numpy

    l3 = None
    try:
        listing = subprocess.run(
            ["lscpu"], capture_output=True, text=True, timeout=10, env={**os.environ, "LC_ALL": "C"}
        ).stdout
        l3 = next((ln.split(":", 1)[1].strip() for ln in listing.splitlines() if ln.startswith("L3 cache:")), None)
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "nproc": os.cpu_count(),
        "thread_cap": thread_cap,
        "l3_cache": l3,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Bench:
    def __init__(self, workload: dict, started: float):
        self.workload = workload
        self.started = started
        self.thread_cap = len(os.sched_getaffinity(0))
        self.env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        self.env.update({var: str(self.thread_cap) for var in THREAD_VARS})
        self.configs = []
        for i, step in enumerate(workload["commands"]):
            path = WORK / f"config_{i}.json"
            path.write_text(json.dumps(step["config"], indent=2))
            self.configs.append(path)
        self.count = 0
        self.setups: list[float] = []

    def child(self, mode: str) -> tuple[dict | None, list[str], Path]:
        """Run one child; returns its result (None on failure), problems and output dir."""
        self.count += 1
        rep_dir = WORK / f"rep_{self.count}"
        rep_dir.mkdir()
        steps = [
            {"command": step["command"], "config": str(cfg), "out": str(rep_dir / step["command"])}
            for step, cfg in zip(self.workload["commands"], self.configs)
        ]
        job, result_path, log_path = rep_dir / "job.json", rep_dir / "result.json", rep_dir / "child.log"
        job.write_text(json.dumps({"mode": mode, "steps": steps}))
        remaining = HARD_LIMIT_S + 10.0 - (time.monotonic() - self.started)
        with log_path.open("wb") as log:
            spawned = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), str(job), str(result_path)],
                cwd=ROOT, env=self.env, stdout=log, stderr=subprocess.STDOUT,
            )
            try:
                proc.wait(timeout=max(remaining, 1.0))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                return None, [f"{mode} child timed out"], rep_dir
        if proc.returncode != 0:
            tail = log_path.read_text(errors="replace")[-2000:] if log_path.is_file() else ""
            return None, [f"{mode} child exited {proc.returncode}: {tail}"], rep_dir
        result = json.loads(result_path.read_text())
        result["setup_s"] = result["first_call"] - spawned
        if not Path(result["package"]).resolve().is_relative_to(ROOT / "src"):
            return None, [f"child imported ocdm_radar from {result['package']}"], rep_dir
        return result, [], rep_dir

    def setup_probe(self) -> None:
        result, _, rep_dir = self.child("setup")
        shutil.rmtree(rep_dir, ignore_errors=True)
        if result is not None:
            self.setups.append(result["setup_s"])

    def repetition(self, mode: str) -> dict:
        """One checked run of every workload command; removes its artifacts afterwards."""
        result, problems, rep_dir = self.child(mode)
        try:
            if result is None:
                return {"problems": problems}
            for step, code in zip(self.workload["commands"], result["exit_codes"]):
                out = rep_dir / step["command"]
                if code != 0:
                    problems.append(f"{step['command']}: exit code {code}")
                else:
                    problems += check_command(step["command"], out, step["expect"])
            run_s = result["end"] - result["first_call"]
            rep = {
                "problems": problems,
                "setup_s": result["setup_s"],
                "run_s": run_s,
                "cpu_s": result["cpu_s"],
                "peak_rss_mb": result["maxrss_kb"] / 1024.0,
                "bytes_written": sum(_tree_bytes(rep_dir / s["command"]) for s in self.workload["commands"]),
                "symbols_per_s": self.workload["symbols"] / run_s,
            }
            if "trace" in result:
                rep["trace"] = result["trace"]
                accounted = sum(result["trace"]["self_s"].values())
                if mode == "spans" and abs(accounted - run_s) > ACCOUNTING_TOL * run_s:
                    problems.append(f"layer self times sum to {accounted:.4f} s of {run_s:.4f} s")
            return rep
        finally:
            shutil.rmtree(rep_dir, ignore_errors=True)

    def measure(self, seconds: float, modes: tuple[str, ...]) -> list[dict]:
        """Rounds of one repetition per mode for about ``seconds``.

        Another round starts while at least half of one still fits, so the
        run ends near ``seconds`` on average, however long a round takes.
        """
        rounds: list[dict] = []
        began = time.monotonic()
        last = 0.0
        while not rounds or (
            time.monotonic() - began + last / 2 <= seconds
            and time.monotonic() - self.started + last <= HARD_LIMIT_S
        ):
            t = time.monotonic()
            for _ in range(SETUP_PROBES_PER_ROUND):
                self.setup_probe()
            rounds.append({mode: self.repetition(mode) for mode in modes})
            last = time.monotonic() - t
        return rounds


def end_to_end(reps: list[dict], setups: list[float]) -> dict:
    timed = [r for r in reps if "run_s" in r]
    samples = {"setup_s": setups + [r["setup_s"] for r in timed]}
    for name in END_TO_END_UNITS:
        if name != "setup_s":
            samples[name] = [r[name] for r in timed]
    return samples


def per_layer(rounds: list[dict]) -> dict:
    spans_reps = [r["spans"] for r in rounds if "trace" in r["spans"]]
    memory_reps = [r["memory"] for r in rounds if "trace" in r["memory"]]
    samples: dict[str, list[float]] = {}
    for layer in LAYERS:
        samples[f"{layer}.self_s"] = [r["trace"]["self_s"][layer] for r in spans_reps]
        samples[f"{layer}.calls"] = [r["trace"]["calls"][layer] for r in spans_reps]
        samples[f"{layer}.alloc_peak_mb"] = [
            r["trace"]["alloc_peak_bytes"][layer] / 2**20 for r in memory_reps
        ]
    for name in spans_reps[0]["trace"]["counters"] if spans_reps else ():
        samples[name] = [r["trace"]["counters"][name] for r in spans_reps]
    samples["cli.export_bytes"] = [
        r["bytes_written"] - r["trace"]["counters"]["rxproc.export_bytes"] for r in spans_reps
    ]
    samples["trace_overhead_s"] = [
        r["spans"]["run_s"] - r["plain"]["run_s"]
        for r in rounds
        if "run_s" in r["spans"] and "run_s" in r["plain"]
    ]
    return samples


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "ocdm_radar" / "cli.py").is_file():
        print(f"error: no ocdm_radar sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    started = time.monotonic()
    WORK.mkdir(parents=True)
    try:
        bench = Bench(WORKLOADS[args.workload](args.seed), started)
        bench.setup_probe()  # warm-up: byte-compiles the package in a fresh checkout
        bench.setups.clear()
        modes = ("plain", "spans", "memory") if args.trace else ("plain",)
        rounds = bench.measure(args.seconds, modes)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        try:
            WORK.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    reps = [rep for r in rounds for rep in r.values()]
    problems = [p for rep in reps for p in rep["problems"]]
    failed = sum(1 for rep in reps if rep["problems"])
    if args.trace:
        samples, units = per_layer(rounds), per_layer_units()
    else:
        samples, units = end_to_end([r["plain"] for r in rounds], bench.setups), END_TO_END_UNITS
    stats = {name: summary(samples[name]) for name in units if samples.get(name)}
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine_facts(bench.thread_cap),
        "error_rate": failed / len(reps),
        "stats": stats,
        "problems": problems,
    }))
    print(json.dumps({
        "correct": failed == 0 and len(stats) == len(units),
        "attempted": len(reps),
        "failed": failed,
        "metrics": {
            name: {"value": stats[name]["median"] if name in stats else 0.0, "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
