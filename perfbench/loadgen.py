"""Open- and closed-loop load over newline-JSON TCP connections.

Open loop: every request has a due time fixed in advance; a sender
task per connection writes each request when it falls due, whether or
not earlier replies have arrived (requests pipeline on the
connection), and a receiver task matches replies in order.  Latency
runs from the *due* time, so a stall also charges the requests that
queued behind it, and ``late`` records how far behind schedule the
generator itself sent.

Closed loop: each connection keeps a fixed number of requests in
flight and sends the next one only when a reply arrives; completions
per second is the capacity.

Standard library only.
"""

from __future__ import annotations

import asyncio
import json
import time
from collections import deque
from dataclasses import dataclass
from typing import Deque, Iterator, List, Optional, Sequence, Tuple

#: Longest wait for any one reply before the request counts as failed.
REPLY_TIMEOUT_S = 30.0
#: Head start between building an open-loop schedule and its time zero.
OPEN_LEAD_S = 0.05
#: The clock every due, send and reply time is read from.
clock = time.perf_counter


@dataclass(frozen=True)
class Request:
    """One request: its offset from phase start, class and payload."""

    due: float
    kind: str       # "read", "write", "whatif" or "control"
    label: str      # query kind, event kind, ...
    payload: dict


@dataclass
class Outcome:
    kind: str
    label: str
    due: float
    sent: float
    done: float
    ok: bool
    error: Optional[str] = None

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1e3


def _encode(payload: dict) -> bytes:
    return json.dumps(payload).encode("utf-8") + b"\n"


def _reply_ok(line: bytes) -> Tuple[bool, Optional[str]]:
    try:
        reply = json.loads(line)
    except ValueError as exc:
        return False, f"bad reply: {exc}"
    if isinstance(reply, dict) and reply.get("ok") is True:
        return True, None
    error = reply.get("error") if isinstance(reply, dict) else reply
    return False, f"ok:false reply: {error}"


async def _close(writer: asyncio.StreamWriter) -> None:
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass


async def _open_lane(
    host: str,
    port: int,
    lane: Sequence[Request],
    start: float,
    outcomes: List[Outcome],
    lates: List[float],
) -> None:
    try:
        reader, writer = await asyncio.open_connection(host, port)
    except OSError as exc:
        now = clock()
        outcomes.extend(
            Outcome(r.kind, r.label, start + r.due, now, now, False,
                    f"connect: {exc}")
            for r in lane
        )
        return
    pending: Deque[Tuple[Request, float, float]] = deque()

    async def send() -> None:
        for request in lane:
            due = start + request.due
            delay = due - clock()
            if delay > 0:
                await asyncio.sleep(delay)
            now = clock()
            lates.append(now - due)
            pending.append((request, due, now))
            writer.write(_encode(request.payload))
            await writer.drain()

    async def receive() -> None:
        for _ in range(len(lane)):
            line = await asyncio.wait_for(reader.readline(), REPLY_TIMEOUT_S)
            done = clock()
            if not line:
                raise ConnectionError("server closed the connection")
            request, due, sent = pending.popleft()
            ok, error = _reply_ok(line)
            outcomes.append(Outcome(
                request.kind, request.label, due, sent, done, ok, error,
            ))

    sender = asyncio.ensure_future(send())
    try:
        await receive()
        await sender
    except (OSError, ConnectionError, asyncio.TimeoutError, ValueError) as exc:
        sender.cancel()
        await asyncio.gather(sender, return_exceptions=True)
        now = clock()
        for request, due, sent in pending:
            outcomes.append(Outcome(
                request.kind, request.label, due, sent, now, False,
                f"{type(exc).__name__}: {exc}",
            ))
        for request in lane[len(lates):]:
            outcomes.append(Outcome(
                request.kind, request.label, start + request.due, now, now,
                False, "never sent: connection failed",
            ))
    finally:
        await _close(writer)


async def open_loop(
    host: str,
    port: int,
    lanes: Sequence[Sequence[Request]],
) -> Tuple[List[Outcome], List[float]]:
    """Run one schedule per connection; returns (outcomes, lateness_s).

    Every connection is closed before this returns.
    """
    start = clock() + OPEN_LEAD_S
    outcomes: List[Outcome] = []
    lates: List[List[float]] = [[] for _ in lanes]
    await asyncio.gather(*(
        _open_lane(host, port, lane, start, outcomes, late)
        for lane, late in zip(lanes, lates)
    ))
    return outcomes, [x for late in lates for x in late]


async def closed_loop(
    host: str,
    port: int,
    streams: Sequence[Iterator[Request]],
    duration: float,
    *,
    depth: int = 1,
) -> Tuple[List[Outcome], float]:
    """One connection per stream, each keeping ``depth`` requests in
    flight -- the next one goes out only when a reply comes back --
    until ``duration`` elapses; returns (outcomes, elapsed)."""
    outcomes: List[Outcome] = []
    started = clock()
    end = started + duration

    async def client(stream: Iterator[Request]) -> None:
        try:
            reader, writer = await asyncio.open_connection(host, port)
        except OSError as exc:
            now = clock()
            outcomes.append(Outcome("control", "connect", now, now, now,
                                    False, f"connect: {exc}"))
            return
        inflight: Deque[Tuple[Request, float]] = deque()

        def send() -> None:
            request = next(stream)
            inflight.append((request, clock()))
            writer.write(_encode(request.payload))

        try:
            for _ in range(depth):
                send()
            while inflight:
                await writer.drain()
                line = await asyncio.wait_for(reader.readline(), REPLY_TIMEOUT_S)
                if not line:
                    raise ConnectionError("server closed the connection")
                request, sent = inflight.popleft()
                ok, error = _reply_ok(line)
                outcomes.append(Outcome(
                    request.kind, request.label, sent, sent, clock(), ok, error,
                ))
                if clock() < end:
                    send()
        except (OSError, ConnectionError, asyncio.TimeoutError) as exc:
            now = clock()
            outcomes.extend(
                Outcome(request.kind, request.label, sent, sent, now, False,
                        f"{type(exc).__name__}: {exc}")
                for request, sent in inflight
            )
        finally:
            await _close(writer)

    await asyncio.gather(*(client(stream) for stream in streams))
    return outcomes, clock() - started


async def request_once(
    host: str, port: int, payload: dict
) -> Tuple[bool, Optional[dict], Optional[str]]:
    """One request on a connection of its own, closed before returning."""
    try:
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(host, port), REPLY_TIMEOUT_S
        )
    except (OSError, asyncio.TimeoutError) as exc:
        return False, None, f"connect: {exc}"
    try:
        writer.write(_encode(payload))
        await writer.drain()
        line = await asyncio.wait_for(reader.readline(), REPLY_TIMEOUT_S)
    except (OSError, ConnectionError, asyncio.TimeoutError) as exc:
        return False, None, f"{type(exc).__name__}: {exc}"
    finally:
        await _close(writer)
    ok, error = _reply_ok(line) if line else (False, "no reply")
    reply = json.loads(line) if ok else None
    return ok, reply, error
