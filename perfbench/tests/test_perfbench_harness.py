"""Self-tests of the benchmark harness (standard library + pytest only).

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import asyncio
import json
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from perfbench import hostspeed, stats  # noqa: E402
from perfbench.layers import whatif_wait_ms  # noqa: E402
from perfbench.loadgen import Request, closed_loop, open_loop  # noqa: E402
from perfbench.tracing import LayerTotals, Span, Tracer, self_times  # noqa: E402


# ----------------------------------------------------------------------
# Percentile rule
# ----------------------------------------------------------------------
@pytest.mark.parametrize("count, expected", [
    (100_000, 99.9), (10_000, 99.9), (9_999, 99.0),
    (1000, 99.0), (999, 95.0), (200, 95.0), (199, 90.0), (100, 90.0),
    (99, 75.0), (40, 75.0), (39, 50.0), (20, 50.0), (19, None), (0, None),
])
def test_tail_percentile_needs_ten_samples_beyond(count, expected):
    assert stats.tail_percentile(count) == expected


def test_p99_needs_a_thousand_samples():
    assert stats.tail_percentile(1000) == 99.0
    assert stats.tail_percentile(999) != 99.0
    summary = stats.summarize_latencies([float(i) for i in range(1000)])
    assert summary["tail"] == "p99"
    assert summary["n"] == 1000
    assert "tail" not in stats.summarize_latencies([1.0] * 19)


def test_percentile_interpolates_linearly():
    values = [4.0, 1.0, 3.0, 2.0]
    assert stats.percentile(values, 0) == 1.0
    assert stats.percentile(values, 100) == 4.0
    assert stats.percentile(values, 50) == pytest.approx(2.5)
    assert stats.percentile(values, 25) == pytest.approx(1.75)
    with pytest.raises(ValueError):
        stats.percentile([], 50)


# ----------------------------------------------------------------------
# Span self time
# ----------------------------------------------------------------------
def _span(id_, start, end, parent=None):
    return Span(id=id_, name=f"s{id_}", start=start, end=end,
                parent=parent, request=1)


def test_self_time_subtracts_nested_children_once():
    spans = [
        _span(1, 0.0, 10.0),
        _span(2, 1.0, 4.0, parent=1),
        _span(3, 2.0, 3.0, parent=2),       # grandchild: only A's business
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(7.0)
    assert selfs[2] == pytest.approx(2.0)
    assert selfs[3] == pytest.approx(1.0)


def test_self_time_counts_overlapping_children_once_and_clips():
    spans = [
        _span(1, 0.0, 10.0),
        _span(2, 1.0, 4.0, parent=1),
        _span(3, 3.0, 6.0, parent=1),       # overlaps the first child
        _span(4, 5.0, 5.5, parent=1),       # inside the second child
        _span(5, 8.0, 12.0, parent=1),      # runs past the parent's end
    ]
    # Children cover [1, 6] and [8, 10]: 7 of the parent's 10.
    assert self_times(spans)[1] == pytest.approx(3.0)
    assert stats.interval_union([(1, 4), (3, 6), (5, 5.5), (8, 10)]) == 7.0


def test_tracer_links_nested_calls_and_restores_wrapped_attributes():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 41

    original = Layer.__dict__["outer"]
    tracer.install(Layer, "outer", "outer")
    tracer.install(Layer, "inner", "inner")
    assert Layer().outer() == 42
    tracer.uninstall()
    assert Layer.__dict__["outer"] is original

    inner, outer = tracer.spans            # closed innermost first
    assert (outer.name, inner.name) == ("outer", "inner")
    assert inner.parent == outer.id and outer.parent is None
    assert inner.request == outer.request
    # outer [0, 3], inner [1, 2]
    totals = LayerTotals.of(tracer.spans)
    assert totals.total["outer"] == 3.0
    assert totals.self_total["outer"] == 2.0
    assert totals.calls == {"outer": 1, "inner": 1}


def test_a_call_on_another_thread_starts_its_own_request():
    import threading

    tracer = Tracer()
    leaf = tracer.wrap_callable(lambda: None, "leaf")

    def on_thread():
        thread = threading.Thread(target=leaf)
        thread.start()
        thread.join(5)
        assert not thread.is_alive()

    tracer.wrap_callable(on_thread, "root")()
    spans = {s.name: s for s in tracer.spans}
    assert spans["leaf"].parent is None
    assert spans["leaf"].request != spans["root"].request


def test_whatif_wait_matches_replies_to_runs_in_order():
    runs = [_span(2, 5.0, 5.2), _span(1, 1.0, 1.3)]
    # Client saw 350 ms and 260 ms; runs took 300 ms and 200 ms.
    assert whatif_wait_ms([350.0, 260.0], runs) == pytest.approx(55.0)
    assert whatif_wait_ms([], runs) is None


# ----------------------------------------------------------------------
# Due-time latency accounting
# ----------------------------------------------------------------------
async def _echo_server(stall_on: int, stall_s: float):
    """Line server that answers in order and stalls once, before reply
    number ``stall_on``, the way a blocked event loop would."""
    served = {"count": 0}
    handlers = set()

    async def serve(reader, writer):
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                if served["count"] == stall_on:
                    time.sleep(stall_s)        # blocks the whole loop
                served["count"] += 1
                writer.write(json.dumps({"ok": True, "result": None}).encode() + b"\n")
                await writer.drain()
        finally:
            writer.close()
            await writer.wait_closed()

    def handle(reader, writer):
        task = asyncio.ensure_future(serve(reader, writer))
        handlers.add(task)
        task.add_done_callback(handlers.discard)

    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[1], handlers


def _run_in_thread(coro_fn):
    """Run a coroutine on a fresh loop in a thread (the server side)."""
    import threading

    result = {}
    ready = threading.Event()
    done = threading.Event()

    def target():
        async def main():
            server, port, handlers = await coro_fn()
            result["port"] = port
            ready.set()
            while not done.is_set():
                await asyncio.sleep(0.01)
            server.close()
            await server.wait_closed()
            await asyncio.gather(*handlers, return_exceptions=True)

        asyncio.run(main())

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    assert ready.wait(5)
    return result["port"], done, thread


def test_open_loop_charges_a_server_stall_to_every_request_due_behind_it():
    rate, count, stall_on, stall_s = 200.0, 40, 10, 0.3
    port, done, thread = _run_in_thread(lambda: _echo_server(stall_on, stall_s))
    try:
        lane = [Request(i / rate, "read", "q", {"op": "query"})
                for i in range(count)]
        outcomes, lates = asyncio.run(open_loop("127.0.0.1", port, [lane]))
    finally:
        done.set()
        thread.join(5)
    assert not thread.is_alive()
    assert len(outcomes) == count and all(o.ok for o in outcomes)
    # Replies are in order; the stall began when request `stall_on`
    # arrived, so everything due before the stall ended waited for it.
    stall_end = outcomes[stall_on].due + stall_s
    for outcome in outcomes[stall_on:]:
        if outcome.due < stall_end - 0.02:
            assert outcome.done >= stall_end - 0.02
            assert outcome.latency_ms >= (stall_end - outcome.due) * 1e3 - 20
    late_request = outcomes[stall_on + 20]                 # due 0.1 s in
    assert late_request.latency_ms >= (stall_s - 0.1) * 1e3 - 20
    # The generator itself kept to schedule (pipelined sends).
    assert max(lates) < 0.1
    assert all(o.latency_ms == pytest.approx((o.done - o.due) * 1e3)
               for o in outcomes)


def test_open_loop_latency_runs_from_due_time_when_the_generator_is_late():
    port, done, thread = _run_in_thread(lambda: _echo_server(-1, 0.0))
    try:
        lane = [Request(i * 0.01, "read", "q", {"op": "query"})
                for i in range(30)]

        async def main():
            async def hog():
                await asyncio.sleep(0.06)
                time.sleep(0.2)                # the generator's own stall
            hogger = asyncio.ensure_future(hog())
            result = await open_loop("127.0.0.1", port, [lane])
            await hogger
            return result

        outcomes, lates = asyncio.run(main())
    finally:
        done.set()
        thread.join(5)
    assert max(lates) >= 0.1
    for outcome in outcomes:
        assert outcome.sent >= outcome.due - 1e-3
        assert outcome.latency_ms >= (outcome.sent - outcome.due) * 1e3


def test_closed_loop_counts_completions():
    port, done, thread = _run_in_thread(lambda: _echo_server(-1, 0.0))
    try:
        def stream():
            while True:
                yield Request(0.0, "read", "q", {"op": "query"})

        outcomes, elapsed = asyncio.run(
            closed_loop("127.0.0.1", port, [stream(), stream()], 0.2)
        )
    finally:
        done.set()
        thread.join(5)
    assert elapsed >= 0.2
    assert len(outcomes) > 10 and all(o.ok for o in outcomes)


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------
def test_service_inputs_are_a_function_of_the_seed():
    from perfbench import service_load

    first = service_load.open_schedules(7, 2, 2.0, lanes=2)
    again = service_load.open_schedules(7, 2, 2.0, lanes=2)
    other = service_load.open_schedules(8, 2, 2.0, lanes=2)
    payloads = lambda cycles: [r.payload for c in cycles for lane in c for r in lane]  # noqa: E731
    assert payloads(first) == payloads(again)
    assert payloads(first) != payloads(other)
    main, whatifs = first[1]
    assert len(main) == int(2.0 * service_load.OPEN_RATE)
    assert all(r.kind == "whatif" for r in whatifs)
    seeds = [r.payload["seed"] for c in first for r in c[1]]
    assert len(seeds) == len(set(seeds)) == 4


def test_writes_leave_live_hosts_and_rejoin_only_departed_ones():
    from perfbench import service_load

    stream = service_load.closed_streams(3, 2)
    alive = {c: set(s) for c, s in
             enumerate(service_load.host_slices(3, 1 + service_load.MAX_CLOSED_CONNECTIONS)[1:3])}
    for connection, requests in enumerate(stream):
        gone = set()
        for _ in range(2000):
            request = next(requests)
            if request.kind != "write":
                continue
            hosts = set(request.payload["data"]["hosts"])
            assert hosts <= alive[connection]
            if request.label == "leave":
                assert not hosts & gone
                gone |= hosts
            else:
                assert hosts <= gone
                gone -= hosts


def test_closed_loop_keeps_depth_requests_in_flight():
    port, done, thread = _run_in_thread(lambda: _echo_server(-1, 0.0))
    try:
        def stream():
            while True:
                yield Request(0.0, "read", "q", {"op": "query"})

        outcomes, _ = asyncio.run(
            closed_loop("127.0.0.1", port, [stream()], 0.2, depth=4)
        )
    finally:
        done.set()
        thread.join(5)
    assert len(outcomes) > 10 and all(o.ok for o in outcomes)
    events = sorted([(o.sent, 1) for o in outcomes] + [(o.done, -1) for o in outcomes])
    inflight, most = 0, 0
    for _, step in events:
        inflight += step
        most = max(most, inflight)
    assert most == 4 and inflight == 0


# ----------------------------------------------------------------------
# Host speed scaling
# ----------------------------------------------------------------------
def test_a_slow_host_scales_times_down_and_rates_up():
    nominal = hostspeed.NOMINAL_UNIT_S
    factor = hostspeed.factor_of([nominal * 1.1, nominal * 1.3])
    assert factor == pytest.approx(1.2)
    raw = {"setup_s": 2.4, "throughput_per_s": 1000.0,
           "latency_p50_ms": 12.0, "peak_rss_mb": 300.0}
    scaled = hostspeed.scale(raw, factor, durations=("setup_s",),
                             rates=("throughput_per_s",))
    assert scaled == pytest.approx({"setup_s": 2.0, "throughput_per_s": 1200.0,
                                    "latency_p50_ms": 12.0, "peak_rss_mb": 300.0})
    assert raw["setup_s"] == 2.4                      # input left alone
    assert hostspeed.scale(
        raw, hostspeed.factor_of([nominal]), durations=tuple(raw)
    ) == pytest.approx(raw)
    with pytest.raises(ValueError):
        hostspeed.factor_of([])


def test_reference_unit_does_the_same_work_every_time():
    assert hostspeed.reference_unit() == hostspeed.reference_unit()
    host = hostspeed.HostSpeed()
    host.sample(2)
    assert len(host.unit_s) == 2 and all(t > 0 for t in host.unit_s)
