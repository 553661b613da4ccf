"""Fresh-interpreter runner for the batch workloads (started by ``run.py``).

    python perfbench/worker.py setup --workload NAME --seed N --workdir DIR
    python perfbench/worker.py run   --workload NAME --seed N --workdir DIR \\
        --seconds S --trace 0|1

Prints ``PERFBENCH-READY`` once set-up is done (the parent times set-up
from spawn to that line), then, in ``run`` mode, one
``PERFBENCH-RESULT {json}`` line.  Untraced runs issue jobs until the
timed total reaches ``--seconds``.  Traced runs issue a fixed job list,
each job once untraced and then once traced, so the tracing overhead
compares equal work and the per-layer counts repeat exactly.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import batch  # noqa: E402
from perfbench.hostspeed import HostSpeed  # noqa: E402
from perfbench.layers import (  # noqa: E402
    install_batch_layers,
    install_campaign_layers,
    layer_metrics,
)
from perfbench.tracing import Tracer  # noqa: E402

READY = "PERFBENCH-READY"
RESULT = "PERFBENCH-RESULT "


def _job_dict(job: batch.JobOutcome) -> dict:
    return {
        "wall_s": job.wall_s, "work": job.work, "late_s": job.late_s,
        "failures": job.failures, "info": job.info,
    }


def _untraced(workload, seconds: float) -> dict:
    # A reference unit before every job and after the last one tracks
    # the host's speed across the run (see hostspeed.py).
    host = HostSpeed()
    jobs, timed = [], 0.0
    while timed < seconds:
        host.sample()
        job = workload.run_job(len(jobs))
        jobs.append(job)
        timed += job.wall_s
    host.sample()
    return {"jobs": [_job_dict(j) for j in jobs],
            "final_failures": workload.final_gates(),
            "reference_unit_s": host.unit_s}


def _traced(workload, seconds: float, setup_tracer: Tracer) -> dict:
    count = batch.traced_jobs(seconds, workload.name)
    tracer = Tracer()

    def install() -> None:
        install_batch_layers(tracer)
        install_campaign_layers(tracer)

    # Untraced and traced runs of the same job alternate, so a drift in
    # machine speed shows up on both sides of the overhead ratio.
    plain, traced = [], []
    window = 0.0
    for index in range(count):
        plain.append(workload.run_job(index))
        started = tracer.clock()
        install()
        try:
            traced.append(workload.run_job(index))
        finally:
            tracer.uninstall()
        window += tracer.clock() - started
    install()
    try:
        final_failures = workload.final_gates()
    finally:
        tracer.uninstall()
    busy = sum(j.info.get("unit_busy_s", 0.0) for j in traced)
    layers = layer_metrics(
        tracer.spans, workers=workload.workers, unit_busy_s=busy,
    )
    setup_layers = layer_metrics(setup_tracer.spans)
    for name in ("protocol.resolve_s", "check.verify_s"):
        layers[name] += setup_layers[name]
    plain_wall = sum(j.wall_s for j in plain)
    traced_wall = sum(j.wall_s for j in traced)
    layers.update({
        "campaign.points": sum(j.info.get("points", 0) for j in traced),
        "campaign.tensor_bytes": sum(
            j.info.get("tensor_bytes", 0) for j in traced
        ),
        "gen.late_max_ms": max(j.late_s for j in traced) * 1e3,
        "trace.window_s": window,
        "trace.overhead_frac": traced_wall / plain_wall - 1.0,
    })
    return {
        "jobs": [_job_dict(j) for j in plain + traced],
        "final_failures": final_failures,
        "layers": layers,
        "plain_wall_s": plain_wall,
        "traced_wall_s": traced_wall,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True, choices=sorted(batch.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    workload = batch.WORKLOADS[args.workload](args.seed, workdir)
    started = time.perf_counter()
    workload.imports()
    import_s = time.perf_counter() - started
    setup_tracer = Tracer()
    if args.trace:
        install_batch_layers(setup_tracer)
    try:
        workload.prepare()
    finally:
        setup_tracer.uninstall()
    print(READY, flush=True)
    if args.mode == "setup":
        return 0

    if args.trace:
        out = _traced(workload, args.seconds, setup_tracer)
        out["layers"]["import_s"] = import_s
    else:
        out = _untraced(workload, args.seconds)
    out.update({
        "import_s": import_s,
        "workers": workload.workers,
        "peak_rss_mb": batch.peak_rss_mb(),
        "versions": batch.versions(),
    })
    print(RESULT + json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
