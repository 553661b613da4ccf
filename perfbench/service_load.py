"""The ``service-mixed`` workload: a live server under TCP load.

``python -m repro serve --protocol endemic --n 100000`` runs as a
subprocess with a short tick and periodic snapshots, pinned to a CPU
of its own when there are two or more.  This process is the load
generator (one asyncio loop, never more connections than ``nproc``).
The run alternates two phases in ~2.5-second cycles, so each phase
samples the whole run:

1. **open loop** (60% of each cycle): a fixed 400 requests/s, ~90%
   reads over the five query kinds and ~10% ``join``/``leave`` with
   seeded explicit host lists, pipelined on one connection; plus one
   ``what-if`` (8 trials x 50 periods) in each whole second of the
   phase on a second connection.  Latency runs from each request's due time.
2. **closed loop** (the other 40%): up to ``nproc`` connections on the
   read/write mix, each keeping 8 requests in flight and sending the
   next only when a reply arrives; successful replies per closed-loop
   second is the capacity.

Then every client connection is closed, a last connection reads
``status`` and sends ``stop``, and the gates check that the server
exited cleanly (status 0, no traceback on stderr) and that
``python -m repro replay`` verifies its event log.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import re
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, List, Optional

from . import stats
from .batch import derive_seed, versions
from .hostspeed import HostSpeed
from .layers import (
    QUERY_KINDS,
    lag_tail_ms,
    layer_metrics,
    whatif_wait_ms,
)
from .loadgen import Outcome, Request, closed_loop, open_loop, request_once
from .tracing import Span

N = 100_000
TICK_SECONDS = 0.05
SNAPSHOT_EVERY = 100
OPEN_RATE = 400.0
#: The run alternates open and closed loops in cycles of about this
#: length, so both phases sample the whole run.
CYCLE_SECONDS = 2.5
OPEN_SHARE = 0.6
WRITE_SHARE = 0.1
HOST_BATCH = 8
#: Hosts each request stream may name in its writes.
HOST_SLICE = 4000
WHATIF_EVERY = 1.0
WHATIF_TRIALS = 8
WHATIF_PERIODS = 50
MAX_CLOSED_CONNECTIONS = 4
#: Host-speed reference units timed before each server starts, and
#: before each open loop while the server only ticks.
REFERENCE_UNITS = 4
REFERENCE_UNITS_PER_CYCLE = 2
#: Requests each closed-loop connection keeps in flight: enough that the
#: server never idles waiting for the generator, so the phase measures
#: the server's capacity rather than round trips.
CLOSED_DEPTH = 8

_SERVING = re.compile(r"^serving .* on (?P<host>[^\s:]+):(?P<port>\d+)\s*$")


# ----------------------------------------------------------------------
# Inputs: every op and host list comes from the workload seed
# ----------------------------------------------------------------------
class OpMix:
    """Seeded read/write request stream over a private slice of hosts.

    Writes alternate between ``leave`` of hosts this stream still has
    alive and ``join`` of a batch it made leave, so the population
    stays near ``N`` and no write names a host another stream owns.
    """

    def __init__(self, rng: random.Random, hosts: List[int]):
        self.rng = rng
        self.alive = list(hosts)
        self.left: List[List[int]] = []

    def next(self, due: float = 0.0) -> Request:
        rng = self.rng
        if rng.random() < WRITE_SHARE:
            if self.left and (rng.random() < 0.5 or len(self.alive) < HOST_BATCH):
                batch = self.left.pop(rng.randrange(len(self.left)))
                self.alive.extend(batch)
                kind = "join"
            else:
                batch = []
                for _ in range(HOST_BATCH):
                    batch.append(self.alive.pop(rng.randrange(len(self.alive))))
                self.left.append(batch)
                kind = "leave"
            return Request(due, "write", kind, {
                "op": "event", "kind": kind, "data": {"hosts": sorted(batch)},
            })
        query = rng.choice(QUERY_KINDS)
        return Request(due, "read", query, {"op": "query", "q": query})

    def stream(self) -> Iterator[Request]:
        while True:
            yield self.next()


def host_slices(seed: int, count: int) -> List[List[int]]:
    """Disjoint seeded host slices, one per request stream."""
    hosts = list(range(N))
    random.Random(derive_seed(seed, "hosts")).shuffle(hosts)
    return [hosts[i * HOST_SLICE:(i + 1) * HOST_SLICE] for i in range(count)]


def open_schedules(
    seed: int, cycles: int, duration: float, lanes: int
) -> List[List[List[Request]]]:
    """Per cycle: a read/write lane at ``OPEN_RATE`` and a what-if lane.

    One request mix runs through all cycles, so writes in a later cycle
    still only name hosts that stream owns in the right state.
    """
    mix = OpMix(random.Random(derive_seed(seed, "open-mix")),
                host_slices(seed, 1 + MAX_CLOSED_CONNECTIONS)[0])
    count = int(duration * OPEN_RATE)
    per_cycle = int(duration / WHATIF_EVERY)
    schedules = []
    for cycle in range(cycles):
        main = [mix.next(i / OPEN_RATE) for i in range(count)]
        whatifs = [
            Request(WHATIF_EVERY * (k + 0.5), "whatif", "what-if", {
                "op": "what-if", "trials": WHATIF_TRIALS,
                "periods": WHATIF_PERIODS,
                "seed": derive_seed(seed, "what-if", cycle * per_cycle + k),
            })
            for k in range(per_cycle)
        ]
        schedules.append(
            [sorted(main + whatifs, key=lambda r: r.due)] if lanes < 2
            else [main, whatifs]
        )
    return schedules


def closed_streams(seed: int, connections: int) -> List[Iterator[Request]]:
    slices = host_slices(seed, 1 + MAX_CLOSED_CONNECTIONS)[1:]
    return [
        OpMix(random.Random(derive_seed(seed, "closed-mix", c)), slices[c]).stream()
        for c in range(connections)
    ]


# ----------------------------------------------------------------------
# The server process
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Placement:
    """CPUs of the server and of this process (the generator).

    With two or more CPUs the server gets the last one and the
    generator the rest, so the two never compete for a CPU and the
    scheduler never migrates one onto the other's; with one they share.
    """

    width: int
    server: Optional[FrozenSet[int]] = None
    generator: Optional[FrozenSet[int]] = None

    @classmethod
    def of_this_process(cls) -> "Placement":
        cpus = sorted(os.sched_getaffinity(0))
        if len(cpus) < 2:
            return cls(len(cpus))
        return cls(len(cpus), frozenset(cpus[-1:]), frozenset(cpus[:-1]))


class Server:
    """One ``repro serve`` subprocess (optionally the traced launcher)."""

    def __init__(self, root: Path, env: Dict[str, str], directory: Path,
                 seed: int, trace_out: Optional[Path], placement: Placement):
        self.root = root
        self.placement = placement
        self.env = dict(env)
        self.directory = directory
        self.seed = seed
        self.trace_out = trace_out
        self.failures: List[str] = []
        self.proc: Optional[asyncio.subprocess.Process] = None
        self._stderr = None
        self.stdout_lines: List[str] = []
        self.ready_s: Optional[float] = None
        self.host = "127.0.0.1"
        self.port = 0

    def command(self) -> List[str]:
        args = [
            "serve", "--protocol", "endemic", "--n", str(N),
            "--seed", str(self.seed), "--dir", str(self.directory),
            "--tick-seconds", str(TICK_SECONDS),
            "--snapshot-every", str(SNAPSHOT_EVERY),
            "--host", self.host, "--port", "0",
        ]
        if self.trace_out is not None:
            self.env["PERFBENCH_TRACE_OUT"] = str(self.trace_out)
            return [sys.executable,
                    str(self.root / "perfbench" / "serve_traced.py"), *args]
        return [sys.executable, "-m", "repro", *args]

    async def start(self, timeout: float) -> bool:
        self.stderr_path = self.directory.with_suffix(".stderr")
        self._stderr = open(self.stderr_path, "w")
        spawned = time.perf_counter()
        self.proc = await asyncio.create_subprocess_exec(
            *self.command(), stdout=asyncio.subprocess.PIPE,
            stderr=self._stderr, env=self.env, cwd=str(self.root),
        )
        if self.placement.server is not None:
            # Set before the interpreter starts any thread; threads it
            # starts later inherit the set.
            try:
                os.sched_setaffinity(self.proc.pid, self.placement.server)
            except ProcessLookupError:
                pass        # already gone: reported below as no serving line
        end = spawned + timeout
        while True:
            try:
                line = await asyncio.wait_for(
                    self.proc.stdout.readline(), max(0.01, end - time.perf_counter())
                )
            except asyncio.TimeoutError:
                self.failures.append("server never printed its serving line")
                return False
            if not line:
                self.failures.append("server exited before serving")
                return False
            text = line.decode(errors="replace").rstrip("\n")
            self.stdout_lines.append(text)
            match = _SERVING.match(text)
            if match:
                self.ready_s = time.perf_counter() - spawned
                self.port = int(match.group("port"))
                return True

    def vmhwm_mb(self) -> Optional[float]:
        try:
            text = Path(f"/proc/{self.proc.pid}/status").read_text()
        except OSError:
            return None
        match = re.search(r"^VmHWM:\s+(\d+)\s+kB", text, re.MULTILINE)
        return int(match.group(1)) / 1024.0 if match else None

    async def stop(self, timeout: float) -> Optional[dict]:
        """Read ``status``, send ``stop`` and reap; returns the status."""
        ok, reply, error = await request_once(
            self.host, self.port, {"op": "query", "q": "status"}
        )
        status = reply["result"] if ok else None
        if not ok:
            self.failures.append(f"status before stop: {error}")
        ok, reply, error = await request_once(self.host, self.port, {"op": "stop"})
        if not ok or reply.get("result") != "stopping":
            self.failures.append(f"stop request: {error or reply}")
        await self.reap(timeout)
        return status

    async def reap(self, timeout: float) -> None:
        if self.proc is None:
            return
        try:
            rest = await asyncio.wait_for(self.proc.stdout.read(), timeout)
            await asyncio.wait_for(self.proc.wait(), timeout)
        except asyncio.TimeoutError:
            self.failures.append("server did not exit after stop")
            self.proc.kill()
            await self.proc.wait()
            rest = b""
        self._stderr.close()
        self.stdout_lines.extend(rest.decode(errors="replace").splitlines())
        if self.proc.returncode != 0:
            self.failures.append(f"server exited with {self.proc.returncode}")
        if not any(line.startswith("stopped at period") for line in self.stdout_lines):
            self.failures.append("server did not report an orderly stop")
        stderr = self.stderr_path.read_text(errors="replace")
        if "Traceback" in stderr:
            self.failures.append(
                "traceback on server stderr: " + stderr.strip().splitlines()[-1]
            )

    async def kill(self) -> None:
        if self.proc is not None and self.proc.returncode is None:
            self.proc.kill()
            await self.proc.wait()
        if self._stderr is not None:
            self._stderr.close()


async def replay_ok(root: Path, env: Dict[str, str], directory: Path,
                    timeout: float) -> Optional[str]:
    """``python -m repro replay DIR``; None when the log verifies."""
    proc = await asyncio.create_subprocess_exec(
        sys.executable, "-m", "repro", "replay", str(directory), "--quiet",
        stdout=asyncio.subprocess.PIPE, stderr=asyncio.subprocess.PIPE,
        env=env, cwd=str(root),
    )
    try:
        _, err = await asyncio.wait_for(proc.communicate(), timeout)
    except asyncio.TimeoutError:
        proc.kill()
        await proc.wait()
        return "replay timed out"
    if proc.returncode != 0:
        tail = err.decode(errors="replace").strip().splitlines()[-1:] or [""]
        return f"replay exited with {proc.returncode}: {tail[0]}"
    return None


# ----------------------------------------------------------------------
# One server's life under load
# ----------------------------------------------------------------------
async def session(root, env, workdir: Path, seed: int, seconds: float,
                  name: str, traced: bool, placement: Placement,
                  host: HostSpeed) -> dict:
    directory = workdir / name
    trace_out = workdir / f"{name}.trace.json" if traced else None
    server = Server(root, env, directory, derive_seed(seed, "serve"),
                    trace_out, placement)
    out: dict = {"attempted": 1, "failures": server.failures}
    try:
        if not await server.start(timeout=60.0):
            return out
        out["setup_s"] = server.ready_s
        ok, reply, error = await request_once(
            server.host, server.port, {"op": "query", "q": "status"}
        )
        out["attempted"] += 1
        if not ok:
            server.failures.append(f"status: {error}")
            return out
        period0, t0 = reply["result"]["period"], time.perf_counter()

        lanes = min(placement.width, 2)
        connections = max(1, min(placement.width, MAX_CLOSED_CONNECTIONS))
        cycles = max(1, round(seconds / CYCLE_SECONDS))
        cycle_s = seconds / cycles
        streams = closed_streams(seed, connections)
        open_outcomes: List[Outcome] = []
        lates: List[float] = []
        closed_runs = []
        load_started = time.perf_counter()
        for schedule in open_schedules(seed, cycles, cycle_s * OPEN_SHARE, lanes):
            host.sample(REFERENCE_UNITS_PER_CYCLE)
            outcomes, late = await open_loop(server.host, server.port, schedule)
            open_outcomes += outcomes
            lates += late
            closed_runs.append(await closed_loop(
                server.host, server.port, streams,
                cycle_s * (1.0 - OPEN_SHARE), depth=CLOSED_DEPTH,
            ))
        load_s = time.perf_counter() - load_started
        closed_outcomes = [o for run, _ in closed_runs for o in run]
        peak = server.vmhwm_mb()
        status = await server.stop(timeout=30.0)
        t1 = time.perf_counter()
        out["attempted"] += 2 + len(open_outcomes) + len(closed_outcomes)
        out.update({
            "open": open_outcomes,
            "closed": closed_outcomes,
            "closed_s": sum(elapsed for _, elapsed in closed_runs),
            "lates": lates,
            "peak_rss_mb": peak,
            "connections": {"open": lanes, "closed": connections},
            "cycles": cycles,
            "load_s": load_s,
        })
        if peak is None:
            server.failures.append("no VmHWM for the server process")
        if status is not None:
            out["period_ratio"] = (
                (status["period"] - period0) / ((t1 - t0) / TICK_SECONDS)
            )
        out["attempted"] += 1
        problem = await replay_ok(root, env, directory, timeout=60.0)
        if problem:
            server.failures.append(problem)
        if trace_out is not None and trace_out.is_file():
            out["trace"] = json.loads(trace_out.read_text())
        elif traced:
            server.failures.append("traced server wrote no spans")
        for outcome in open_outcomes + closed_outcomes:
            if not outcome.ok:
                server.failures.append(
                    f"{outcome.kind}/{outcome.label}: {outcome.error}"
                )
    finally:
        await server.kill()
    return out


async def setup_only(root, env, workdir: Path, seed: int, index: int,
                     placement: Placement) -> dict:
    server = Server(root, env, workdir / f"setup-{index}",
                    derive_seed(seed, "serve"), None, placement)
    try:
        if await server.start(timeout=60.0):
            await server.stop(timeout=30.0)
    finally:
        await server.kill()
    return {"setup_s": server.ready_s, "failures": server.failures}


async def _run(root, env, workdir, seed, seconds, trace,
               setup_samples, placement: Placement) -> dict:
    failures: List[str] = []
    setups: List[float] = []
    attempted = 0
    host = HostSpeed()
    for index in range(setup_samples - 1):
        host.sample(REFERENCE_UNITS)
        sample = await setup_only(root, env, workdir, seed, index, placement)
        attempted += 1
        failures.extend(sample["failures"])
        if sample["setup_s"] is not None:
            setups.append(sample["setup_s"])
    sessions = ["plain", "traced"] if trace else ["plain"]
    results = {}
    for name in sessions:
        host.sample(REFERENCE_UNITS)
        result = await session(root, env, workdir, seed, seconds, name,
                               traced=name == "traced", placement=placement,
                               host=host)
        results[name] = result
        attempted += result["attempted"]
        failures.extend(result["failures"])
        if result.get("setup_s") is not None and name == "plain":
            setups.append(result["setup_s"])
    return {
        "attempted": attempted, "failures": failures, "setups": setups,
        "sessions": results, "reference_unit_s": host.unit_s,
    }


def run(*, root: Path, env: Dict[str, str], workdir: Path, seed: int,
        seconds: float, trace: bool, setup_samples: int,
        deadline: float) -> dict:
    placement = Placement.of_this_process()
    allowed = os.sched_getaffinity(0)
    if placement.generator is not None:
        os.sched_setaffinity(0, placement.generator)
    try:
        out = asyncio.run(asyncio.wait_for(
            _run(root, env, workdir, seed, seconds, trace, setup_samples,
                 placement),
            deadline,
        ))
    except asyncio.TimeoutError:
        return {"attempted": 1, "failures": ["run exceeded its time budget"],
                "setups": [], "sessions": {}, "versions": versions()}
    finally:
        os.sched_setaffinity(0, allowed)
    out["versions"] = versions()
    if placement.server is not None:
        out["placement"] = {"server_cpus": sorted(placement.server),
                            "generator_cpus": sorted(placement.generator)}
    plain = out["sessions"].get("plain", {})
    if trace and "traced" in out["sessions"] and "open" in plain:
        out["layers"], out["trace_report"] = traced_layers(
            plain, out["sessions"]["traced"]
        )
    return out


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _latencies(outcomes: List[Outcome], kind: str) -> List[float]:
    return [o.latency_ms for o in outcomes if o.kind == kind and o.ok]


def _capacity(session: dict) -> float:
    """Successful closed-loop replies per closed-loop second.

    A mean over all phases, not a median over chunks: the host's speed
    flips between states within seconds, and a median then jumps to
    whichever state held for most of the run.
    """
    return sum(1 for o in session["closed"] if o.ok) / session["closed_s"]


def metrics(out: dict) -> Dict[str, float]:
    plain = out["sessions"]["plain"]
    if plain["peak_rss_mb"] is None:
        raise ValueError("the server's VmHWM was not read")
    return {
        "setup_s": stats.median(out["setups"]),
        "throughput_per_s": _capacity(plain),
        "latency_p50_ms": stats.median(_latencies(plain["open"], "read")),
        "peak_rss_mb": plain["peak_rss_mb"],
    }


#: Percentiles the report prints, each only with ten samples beyond it.
REPORTED_PERCENTILES = (50.0, 90.0, 95.0, 99.0)


def _describe(name: str, values: List[float]) -> List[str]:
    """One line per percentile the sample supports, with its count."""
    lines = []
    for p in REPORTED_PERCENTILES:
        if p > 50.0 and stats.samples_beyond(len(values), p) < stats.MIN_BEYOND:
            break
        label = f"{name}_p{p:g}_ms"
        value = stats.percentile(values, p) if values else float("nan")
        lines.append(f"{label:<21}{value:.3f} ms (n={len(values)})")
    return lines


def report(args, out: dict, metrics_: Dict[str, float]) -> List[str]:
    plain = out["sessions"]["plain"]
    opened = plain["open"]
    lines = [
        f"load: {plain['cycles']} cycles in {plain['load_s']:.2f} s; open "
        f"loop {len(opened)} requests on {plain['connections']['open']} "
        f"connection(s) (target {OPEN_RATE:g} req/s + a what-if every "
        f"{WHATIF_EVERY:g} s)",
        *_describe("query", _latencies(opened, "read")),
        *_describe("event", _latencies(opened, "write")),
        *_describe("whatif", _latencies(opened, "whatif")),
        f"capacity_rps         {metrics_['throughput_per_s']:.1f} req/s "
        f"(closed loop, {plain['connections']['closed']} connection(s), "
        f"n={len(plain['closed'])})",
        f"gen.late_max_ms      {max(plain['lates']) * 1e3:.3f} ms "
        f"(n={len(plain['lates'])})",
        f"service.period_ratio {plain.get('period_ratio', float('nan')):.4f}",
        f"peak_rss_mb          {metrics_['peak_rss_mb']:.1f} MB (server VmHWM)",
    ]
    return lines


def traced_layers(plain: dict, traced: dict):
    """Per-layer metrics of the traced server, plus report lines."""
    dump = traced.get("trace", {"spans": [], "lags": [], "import_s": 0.0})
    spans = [Span.from_dict(d) for d in dump["spans"]]
    layers = layer_metrics(spans)
    runs = [s for s in spans if s.name == "experiment.run"]
    whatif_ms = _latencies(traced.get("open", []), "whatif")
    lag = lag_tail_ms(dump["lags"])
    wait = whatif_wait_ms(whatif_ms, runs)
    plain_capacity = _capacity(plain)
    traced_capacity = _capacity(traced) if traced.get("closed") else 0.0
    layers.update({
        "import_s": dump["import_s"],
        "loop.lag_p99_ms": lag["value"],
        "service.period_ratio": traced.get("period_ratio", 0.0),
        "whatif.run_ms": (
            stats.median([s.duration for s in runs]) * 1e3 if runs else 0.0
        ),
        "whatif.wait_ms": wait if wait is not None else 0.0,
        "gen.late_max_ms": max(traced.get("lates", [0.0])) * 1e3,
        "trace.window_s": traced.get("load_s", 0.0),
        "trace.overhead_frac": (
            plain_capacity / traced_capacity - 1.0 if traced_capacity else 0.0
        ),
    })
    query = stats.summarize_latencies(_latencies(traced.get("open", []), "read"))
    lines = [
        f"traced server: query p50 {query.get('p50', float('nan')):.3f} ms, "
        f"{query.get('tail', 'tail')} {query.get('tail_value', float('nan')):.3f} ms "
        f"(n={query['n']}) | whatif.run_ms {layers['whatif.run_ms']:.1f} "
        f"(n={len(runs)}), whatif.wait_ms {layers['whatif.wait_ms']:.1f} | "
        f"loop.lag_{lag['label']}_ms {lag['value']:.2f} (n={lag['n']})",
        f"trace.overhead_frac {layers['trace.overhead_frac']:+.4f} "
        f"(closed-loop capacity {plain_capacity:.1f} untraced vs "
        f"{traced_capacity:.1f} traced req/s)",
    ]
    return layers, lines
