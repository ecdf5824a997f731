"""One benchmark repetition in a fresh interpreter.

Usage: python child.py JOB_JSON RESULT_JSON

JOB_JSON holds ``mode`` (``setup``, ``plain``, ``spans`` or ``memory``) and
``steps``, each a CLI command with its config file and output directory.
The child imports the CLI, resolves every config, stamps the first scenario
call, runs the commands through ``ocdm_radar.cli.main`` (a ``setup`` job
stops before the first) and writes its timestamps, exit codes, resource
usage and, when traced, the per-layer trace to RESULT_JSON.  Timestamps use
CLOCK_MONOTONIC, which the parent shares.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def run(job: dict) -> dict:
    import ocdm_radar
    from ocdm_radar import cli

    for step in job["steps"]:
        cli.resolve_config(json.loads(Path(step["config"]).read_text()))

    tracer = None
    if job["mode"] in ("spans", "memory"):
        import spans

        tracer = spans.Tracer(memory=job["mode"] == "memory")
        tracer.install()

    result = {"package": ocdm_radar.__file__, "first_call": time.monotonic()}
    if job["mode"] != "setup":
        result["exit_codes"] = [
            cli.main([step["command"], "--config", step["config"], "--out", step["out"]])
            for step in job["steps"]
        ]
        result["end"] = time.monotonic()
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.report()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result["cpu_s"] = usage.ru_utime + usage.ru_stime
    result["maxrss_kb"] = usage.ru_maxrss
    return result


if __name__ == "__main__":
    job_path, result_path = sys.argv[1:3]
    outcome = run(json.loads(Path(job_path).read_text()))
    Path(result_path).write_text(json.dumps(outcome))
