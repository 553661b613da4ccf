"""Launch ``python -m repro serve`` with the layer wrappers installed.

    PERFBENCH_TRACE_OUT=trace.json python perfbench/serve_traced.py serve ARGS...

Times the fresh-interpreter import of the CLI, wraps the service core,
event log, snapshot and batch-engine layers plus a loop-lag probe
coroutine, then calls the normal CLI entry point with the given
arguments.  Spans stay in memory until the server exits; then they
are written to ``$PERFBENCH_TRACE_OUT`` as JSON.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import layers  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402

#: Loop-lag probe period.
PROBE_SECONDS = 0.005


def install_loop_probe(tracer: Tracer, lags: list) -> None:
    """Run a lag probe on the service's loop from start to stop."""
    from repro.service.service import ProtocolService

    original_start = ProtocolService.start
    original_stop = ProtocolService.stop
    probes: dict = {}

    async def probe() -> None:
        loop = asyncio.get_running_loop()
        while True:
            before = loop.time()
            await asyncio.sleep(PROBE_SECONDS)
            lags.append(loop.time() - before - PROBE_SECONDS)

    async def start(self) -> None:
        await original_start(self)
        probes[id(self)] = asyncio.get_running_loop().create_task(probe())

    async def stop(self, *, close: bool = True) -> None:
        task = probes.pop(id(self), None)
        if task is not None:
            task.cancel()
            await asyncio.gather(task, return_exceptions=True)
        await original_stop(self, close=close)

    tracer.patch(ProtocolService, "start", start)
    tracer.patch(ProtocolService, "stop", stop)


def main(argv) -> int:
    out_path = Path(os.environ["PERFBENCH_TRACE_OUT"])
    started = time.perf_counter()
    import repro.__main__ as cli

    import_s = time.perf_counter() - started
    tracer = Tracer()
    lags: list = []
    layers.install_batch_layers(tracer)
    layers.install_service_layers(tracer)
    install_loop_probe(tracer, lags)
    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        out_path.write_text(json.dumps({
            "import_s": import_s, "spans": tracer.to_dicts(), "lags": lags,
        }))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
