"""Host speed index: a fixed unit of reference work, timed during a run.

On a shared virtual machine the speed of the host drifts by tens of
percent over minutes, far more than a run can average out.  Each run
therefore times a fixed *reference unit* -- interpreter-bound dict
updates and many small numpy calls with random draws, the same kinds
of work as the program's hot paths but none of its code -- at points
where no program code runs, and scales its time metrics to the speed
at which one unit takes :data:`NOMINAL_UNIT_S`:

* a duration ``d`` is reported as ``d / factor``;
* a rate ``r`` is reported as ``r * factor``;

where ``factor`` is the mean measured unit time over the nominal one
(above 1 when the host ran slow).  Only metrics bound by work are
scaled; memory, counts and latencies bound by wake-ups and I/O are not.
A change to the program moves the scaled metrics exactly as it moves
the raw ones, because the reference unit never calls the program.

Standard library when imported; numpy when a unit runs.
"""

from __future__ import annotations

import time
from typing import Dict, List, Sequence

#: Seconds one reference unit takes at the speed the bounds in
#: ``BENCHMARK.json`` were set at (a 2-vCPU virtual machine).
NOMINAL_UNIT_S = 0.1

#: Dict updates and small numpy draws in one unit.
INTERPRETER_STEPS = 100_000
NUMPY_STEPS = 10_000
NUMPY_WIDTH = 64


def reference_unit() -> float:
    """Do one unit of reference work; returns a checksum of it."""
    import numpy as np

    table: dict = {}
    for i in range(INTERPRETER_STEPS):
        key = i & 1023
        table[key] = table.get(key, 0) + i
    rng = np.random.default_rng(12345)
    acc = np.zeros(NUMPY_WIDTH)
    for _ in range(NUMPY_STEPS):
        acc += rng.binomial(10, 0.3, size=NUMPY_WIDTH)
        acc.sum()
    return float(sum(table.values())) + float(acc.sum())


class HostSpeed:
    """Collects timed reference units over one run."""

    def __init__(self) -> None:
        self.unit_s: List[float] = []

    def sample(self, units: int = 1) -> None:
        for _ in range(units):
            started = time.perf_counter()
            reference_unit()
            self.unit_s.append(time.perf_counter() - started)



def factor_of(unit_s: Sequence[float]) -> float:
    """Mean unit time over the nominal one (> 1: the host ran slow)."""
    if not unit_s:
        raise ValueError("no reference units were timed")
    return sum(unit_s) / len(unit_s) / NOMINAL_UNIT_S


def scale(
    raw: Dict[str, float],
    factor: float,
    *,
    durations: Sequence[str] = (),
    rates: Sequence[str] = (),
) -> Dict[str, float]:
    """``raw`` at nominal host speed: each of ``durations`` divided by
    ``factor``, each of ``rates`` multiplied by it, the rest unchanged."""
    out = dict(raw)
    for name in durations:
        out[name] = raw[name] / factor
    for name in rates:
        out[name] = raw[name] * factor
    return out
