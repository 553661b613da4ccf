#!/usr/bin/env python3
"""Benchmark for the ``repro`` package: batch ensembles, a sharded
campaign and a live-service load run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  Workloads (see ``README.md``):

* ``ensemble-endemic`` -- in-process ``Experiment`` ensembles;
* ``campaign-lv``      -- ``run_campaign`` over an LV grid on a pool;
* ``service-mixed``    -- ``python -m repro serve`` under open- and
  closed-loop TCP load.

With ``--trace 0`` the last stdout line is a JSON object whose metrics
are the end-to-end metrics; with ``--trace 1`` they are the per-layer
metrics from a traced run.  Human-readable report lines come first.
The exit status is 0 only when every correctness gate passed.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import hostspeed, stats  # noqa: E402
from perfbench.layers import PER_LAYER  # noqa: E402

WORKLOADS = ("ensemble-endemic", "campaign-lv", "service-mixed")

#: End-to-end metrics: name -> unit.  Every workload reports each one.
END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

#: End-to-end metrics scaled to nominal host speed (see hostspeed.py):
#: (durations, rates) bound by work.  The service's read latency at a
#: fixed low rate is bound by wake-ups and I/O -- it stays put when the
#: host's compute speed changes by half -- so it is reported raw.
SCALED = {
    "batch": (("setup_s", "latency_p50_ms"), ("throughput_per_s",)),
    "service": (("setup_s",), ("throughput_per_s",)),
}

#: Fresh interpreters timed per run for ``setup_s`` (the median is kept).
SETUP_SAMPLES = 5

#: Whole-run budget; every wait below is bounded by what is left of it.
RUN_BUDGET_S = 170.0

READY = "PERFBENCH-READY"
RESULT = "PERFBENCH-RESULT "


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        return max(0.0, self.end - time.monotonic())


def program_present() -> bool:
    package = ROOT / "src" / "repro"
    return (package / "__init__.py").is_file() and (package / "__main__.py").is_file()


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# ----------------------------------------------------------------------
# Batch workloads: one fresh interpreter per set-up sample and per run
# ----------------------------------------------------------------------
class Child:
    """A ``worker.py`` process whose stdout lines are timestamped."""

    def __init__(self, args: List[str], stderr_path: Path):
        self.stderr_path = stderr_path
        self._stderr = open(stderr_path, "w")
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "worker.py"), *args],
            stdout=subprocess.PIPE, stderr=self._stderr, text=True,
            env=child_env(), cwd=str(ROOT),
        )
        self.lines: "queue.Queue[tuple]" = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.lines.put((time.perf_counter(), line.rstrip("\n")))
        self.lines.put((time.perf_counter(), None))

    def wait_for(self, prefix: str, deadline: Deadline) -> Optional[tuple]:
        """(timestamp, line) of the first line starting with ``prefix``."""
        while True:
            try:
                stamp, line = self.lines.get(timeout=deadline.left() or 0.001)
            except queue.Empty:
                return None
            if line is None:
                return None
            if line.startswith(prefix):
                return stamp, line

    def finish(self, deadline: Deadline) -> List[str]:
        """Reap the process; return its failures (exit status, tracebacks)."""
        failures = []
        try:
            self.proc.wait(timeout=deadline.left())
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            failures.append("worker timed out")
        self._reader.join(timeout=5)
        self.proc.stdout.close()
        self._stderr.close()
        if self.proc.returncode != 0:
            failures.append(f"worker exited with {self.proc.returncode}")
        stderr = self.stderr_path.read_text(errors="replace")
        if "Traceback" in stderr:
            failures.append("traceback on worker stderr: "
                            + stderr.strip().splitlines()[-1])
        return failures


def run_batch(args, workdir: Path, deadline: Deadline) -> dict:
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups: List[float] = []
    failures: List[str] = []
    attempted = 0
    samples = 1 if args.trace else SETUP_SAMPLES
    for index in range(samples - 1):
        attempted += 1
        child = Child(
            ["setup", *common, "--workdir", str(workdir / f"setup-{index}")],
            workdir / f"setup-{index}.stderr",
        )
        ready = child.wait_for(READY, deadline)
        problems = child.finish(deadline)
        if ready is None:
            problems.append("set-up sample never became ready")
        else:
            setups.append(ready[0] - child.spawned)
        failures.extend(problems)

    attempted += 1
    child = Child(
        ["run", *common, "--workdir", str(workdir / "run"),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        workdir / "run.stderr",
    )
    ready = child.wait_for(READY, deadline)
    result_line = child.wait_for(RESULT, deadline) if ready else None
    problems = child.finish(deadline)
    if ready is not None:
        setups.append(ready[0] - child.spawned)
    if result_line is None:
        problems.append("worker printed no result")
    failures.extend(problems)
    if result_line is None:
        return {"attempted": attempted, "failures": failures, "setups": setups}

    out = json.loads(result_line[1][len(RESULT):])
    jobs = out["jobs"]
    for job in jobs:
        attempted += 1
        failures.extend(job["failures"])
    attempted += 1
    failures.extend(out["final_failures"])
    out.update({"attempted": attempted, "failures": failures, "setups": setups})
    return out


def batch_metrics(out: dict) -> Dict[str, float]:
    jobs = out["jobs"]
    walls = [job["wall_s"] for job in jobs]
    return {
        "setup_s": stats.median(out["setups"]),
        "throughput_per_s": sum(job["work"] for job in jobs) / sum(walls),
        "latency_p50_ms": stats.median(walls) * 1e3,
        "peak_rss_mb": out["peak_rss_mb"],
    }


def batch_report(args, out: dict, metrics: Dict[str, float]) -> List[str]:
    jobs = out["jobs"]
    kind = "ensemble" if args.workload == "ensemble-endemic" else "campaign pass"
    lines = [
        f"trial_periods_per_s  {metrics['throughput_per_s']:.1f} 1/s "
        f"over {len(jobs)} {kind} job(s), "
        f"{sum(j['wall_s'] for j in jobs):.3f} s timed",
        f"job_p50_ms           {metrics['latency_p50_ms']:.3f} ms (n={len(jobs)})",
        f"gen.late_max_ms      "
        f"{max(j['late_s'] for j in jobs) * 1e3:.3f} ms (n={len(jobs)})",
    ]
    return lines


def batch_trace_report(out: dict) -> List[str]:
    layers = out["layers"]
    return [
        f"{len(out['jobs']) // 2} job(s), each untraced then traced: untraced "
        f"{out['plain_wall_s']:.3f} s, traced {out['traced_wall_s']:.3f} s "
        f"(trace.overhead_frac {layers['trace.overhead_frac']:+.4f})",
        f"batch_engine.step_s {layers['batch_engine.step_s']:.3f} s covers "
        f"{layers['batch_engine.step_share']:.1%} of the calls that drove "
        f"it (self {layers['batch_engine.step_self_s']:.3f} s, planner "
        f"{layers['planner.plan_s']:.3f} s, pools "
        f"{layers['pools.apply_deltas_s']:.3f} s)",
    ]


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def emit(args, metrics: Dict[str, float], units: Dict[str, str],
         attempted: int, failures: List[str], report: List[str],
         provenance: Dict[str, object]) -> int:
    failed = len(failures)
    correct = failed == 0
    print(f"# perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("# provenance " + json.dumps(provenance, sort_keys=True))
    for line in report:
        print(line)
    error_rate = failed / attempted if attempted else 1.0
    print(f"error_rate           {error_rate:.6f} ratio "
          f"({failed} failed of {attempted} attempted)")
    for failure in failures[:20]:
        print(f"FAILED: {failure}")
    for name, value in metrics.items():
        print(f"metric {name} = {value!r} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not program_present():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} "
              f"is missing", file=sys.stderr)
        return 2

    deadline = Deadline(RUN_BUDGET_S)
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        if args.workload == "service-mixed":
            from perfbench import service_load

            out = service_load.run(
                root=ROOT, env=child_env(), workdir=workdir, seed=args.seed,
                seconds=args.seconds, trace=bool(args.trace),
                setup_samples=1 if args.trace else SETUP_SAMPLES,
                deadline=deadline.left(),
            )
            metrics_fn, report_fn = service_load.metrics, service_load.report
            durations, rates = SCALED["service"]
        else:
            out = run_batch(args, workdir, deadline)
            metrics_fn, report_fn = batch_metrics, batch_report
            durations, rates = SCALED["batch"]
            if args.trace and "layers" in out:
                out["trace_report"] = batch_trace_report(out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    failures = out["failures"]
    provenance = {
        "seed": args.seed,
        "nproc": len(os.sched_getaffinity(0)),
        **out.get("versions", {}),
        "setup_samples": len(out.get("setups", [])),
    }
    if out.get("workers"):
        provenance["workers"] = out["workers"]
    provenance.update(out.get("placement", {}))
    report: List[str] = []
    if args.trace:
        layers = out.get("layers")
        if layers is None:
            failures = failures + ["traced run produced no per-layer metrics"]
            layers = {}
        metrics = {name: float(layers.get(name, 0.0)) for name in PER_LAYER}
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        report.extend(out.get("trace_report", []))
    else:
        try:
            raw = metrics_fn(out)
            factor = hostspeed.factor_of(out.get("reference_unit_s", ()))
        except (KeyError, ValueError, ZeroDivisionError) as exc:
            failures = failures + [f"no end-to-end metrics: {exc!r}"]
            metrics = {}
        else:
            metrics = hostspeed.scale(raw, factor, durations=durations,
                                      rates=rates)
            report.extend(report_fn(args, out, raw))
            report.append(
                f"setup_s              {raw['setup_s']:.4f} s "
                f"(median of n={len(out['setups'])})"
            )
            report.append(
                f"host speed factor    {factor:.4f} (mean reference unit "
                f"{factor * hostspeed.NOMINAL_UNIT_S * 1e3:.2f} ms, "
                f"n={len(out['reference_unit_s'])}, nominal "
                f"{hostspeed.NOMINAL_UNIT_S * 1e3:g} ms): below, "
                f"{', '.join(durations + rates)} are the raw values above "
                f"at nominal speed"
            )
        units = END_TO_END
    return emit(args, metrics, units, out.get("attempted", 1), failures,
                report, provenance)


if __name__ == "__main__":
    sys.exit(main())
