"""The two in-process batch workloads: ``ensemble-endemic`` and ``campaign-lv``.

Each workload runs inside a fresh interpreter (``worker.py``), so its
set-up includes the imports.  A workload is a sequence of *jobs* --
one ``Experiment.run`` ensemble, or one ``run_campaign`` pass over the
grid -- issued back to back by one caller (a closed loop of one).
Only the job call itself is timed; its correctness gates run after it.
"""

from __future__ import annotations

import os
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional


def nproc() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def derive_seed(seed: int, *labels: Any) -> int:
    """A 63-bit seed for one input, derived from the workload seed."""
    return random.Random(":".join(map(str, (seed,) + labels))).getrandbits(63)


@dataclass
class JobOutcome:
    """One timed job and what its gates found."""

    wall_s: float
    work: float
    #: Time between the job falling due and its timed call starting.
    late_s: float = 0.0
    failures: List[str] = field(default_factory=list)
    info: Dict[str, float] = field(default_factory=dict)


class EnsembleWorkload:
    """Endemic ensembles at equilibrium, in process, one worker.

    The registry's endemic initial state is its analytic equilibrium, so
    every period of every job runs the sparse steady-state path of the
    planner, member pools and batch engine.
    """

    name = "ensemble-endemic"
    N = 100_000
    TRIALS = 32
    PERIODS = 1000

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.workers = 1

    def imports(self) -> None:
        from repro.experiment import Experiment, Protocol

        self._experiment = Experiment
        self._protocol_cls = Protocol

    def prepare(self) -> None:
        """Resolve and verify the protocol, then build one engine."""
        self.protocol = self._protocol_cls.named("endemic")
        self.protocol.resolve(self.N)
        self.protocol.verify(self.N)
        self.protocol.equilibrium_counts(self.N)
        self._experiment(
            self.protocol, n=self.N, trials=self.TRIALS, periods=1,
            engine="batch", workers=1, seed=derive_seed(self.seed, "warm-up"),
        ).run()

    def run_job(self, index: int) -> JobOutcome:
        due = time.perf_counter()
        experiment = self._experiment(
            self.protocol, n=self.N, trials=self.TRIALS,
            periods=self.PERIODS, engine="batch", workers=1,
            seed=derive_seed(self.seed, "job", index),
            record_transitions=True,
        )
        started = time.perf_counter()
        result = experiment.run()
        wall = time.perf_counter() - started
        return JobOutcome(
            wall_s=wall, work=self.TRIALS * self.PERIODS,
            late_s=started - due, failures=self._gates(result),
        )

    def _gates(self, result) -> List[str]:
        failures = []
        counts = result.count_tensor()              # (M, periods, S)
        alive = result.alive_tensor()               # (M, periods)
        if counts.shape[:2] != (self.TRIALS, self.PERIODS + 1):
            failures.append(f"count tensor shape {counts.shape}")
        elif not ((counts.sum(axis=2) == alive).all() and (alive == self.N).all()):
            failures.append("population not conserved in every trial/period")
        check = result.equilibrium_check()
        if check.status != "PASS":
            failures.append(f"equilibrium check {check.status}")
        return failures

    def final_gates(self) -> List[str]:
        return []


class CampaignWorkload:
    """A sharded LV campaign fanned over ``nproc`` pool workers."""

    name = "campaign-lv"
    N = 20_000
    TRIALS = 16
    PERIODS = 300
    SHARDS = 2
    PROTOCOLS = ("lv", "lv-close")
    LOSS_RATES = (0.0, 0.1)
    SCENARIOS = ("none", "massive-failure")

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.workers = nproc()
        self.last = None

    @property
    def points_per_pass(self) -> int:
        return len(self.PROTOCOLS) * len(self.LOSS_RATES) * len(self.SCENARIOS)

    def imports(self) -> None:
        from repro import campaign
        from repro.experiment import Protocol

        self._campaign = campaign
        self._protocol_cls = Protocol

    def spec(self, base_seed: int, periods: int):
        return self._campaign.CampaignSpec(
            name="perfbench-lv",
            protocols=list(self.PROTOCOLS),
            group_sizes=[self.N],
            loss_rates=list(self.LOSS_RATES),
            scenarios=list(self.SCENARIOS),
            trials=self.TRIALS,
            periods=periods,
            base_seed=base_seed,
            shards=self.SHARDS,
        )

    def prepare(self) -> None:
        """Resolve/verify both protocols and run a one-period pass."""
        for name in self.PROTOCOLS:
            protocol = self._protocol_cls.named(name)
            protocol.resolve(self.N)
            protocol.verify(self.N)
        target = self.workdir / "warm-up"
        self._campaign.run_campaign(
            self.spec(derive_seed(self.seed, "warm-up"), 1),
            workers=self.workers, save_tensors=str(target),
        )
        shutil.rmtree(target)

    def run_job(self, index: int) -> JobOutcome:
        due = time.perf_counter()
        spec = self.spec(derive_seed(self.seed, "pass", index), self.PERIODS)
        target = self.workdir / f"pass-{index}"
        started = time.perf_counter()
        result = self._campaign.run_campaign(
            spec, workers=self.workers, save_tensors=str(target),
        )
        wall = time.perf_counter() - started
        failures = self._gates(result, target)
        info = {
            "unit_busy_s": sum(p.elapsed_seconds for p in result.results),
            "points": len(result.results),
            "tensor_bytes": sum(
                path.stat().st_size for path in target.glob("*.npz")
            ),
        }
        shutil.rmtree(target)
        self.last = result
        return JobOutcome(
            wall_s=wall,
            work=sum(p.point.trials * p.point.periods for p in result.results),
            late_s=started - due, failures=failures, info=info,
        )

    def _gates(self, result, target: Path) -> List[str]:
        failures = []
        if result.failures:
            failures.append(f"{len(result.failures)} unit failure(s)")
        manifest = self._campaign.load_manifest(target)
        entries = manifest.get("points", [])
        not_done = [e.get("index") for e in entries if e.get("status") != "done"]
        if len(entries) != self.points_per_pass or not_done:
            failures.append(
                f"manifest: {len(entries)} points, not done: {not_done}"
            )
        if not manifest.get("complete"):
            failures.append("manifest not complete")
        for entry in result.results:
            if not entry.tensor_path or not (target / entry.tensor_path).is_file():
                failures.append(f"missing tensor for {entry.point.label}")
        return failures

    def final_gates(self) -> List[str]:
        """Replay one point of the last pass bit for bit (untimed)."""
        if self.last is None or not self.last.results:
            return ["no campaign result to replay"]
        index = derive_seed(self.seed, "replay") % len(self.last.results)
        point = self.last.results[index]
        if self._campaign.verify_replay(point):
            return []
        return [f"replay mismatch at {point.point.label}"]


WORKLOADS = {w.name: w for w in (EnsembleWorkload, CampaignWorkload)}


def traced_jobs(seconds: int, name: str) -> int:
    """Fixed job count of each phase of a traced run (counts repeat)."""
    per_job = {"ensemble-endemic": 2.0, "campaign-lv": 3.0}[name]
    return max(1, int(seconds / 2 / per_job))


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child, in MB."""
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def versions() -> Dict[str, Optional[str]]:
    import platform

    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__}
