"""Measuring instruments owned by the benchmark, independent of ``src/``.

Exact order statistics over raw samples, a fixed calibration loop that
shows machine drift next to the numbers, and :class:`Tracer`, the
benchmark's own span recorder: every call into a layer's public function
is wrapped in a span (name, start, end, parent), spans are kept in memory
and written out once at the end, and self time is derived from them.
"""

from __future__ import annotations

import gc
import json
import math
import statistics
from contextlib import contextmanager
from time import perf_counter


def quantile(values, q: float) -> float:
    """Exact nearest-rank ``q``-quantile (an observed sample, no interpolation)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of an empty sample")
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def median(values) -> float:
    """The sample median (mean of the middle two for even counts)."""
    return statistics.median(values)


#: Seconds :func:`speed_probe` takes on the reference host, a 2-core x86-64
#: VM (Intel Xeon, CPython 3.11), near its median over quiet stretches.
#: The ``*_ref`` metrics are scaled to this speed.
PROBE_REF_S = 0.020
_PROBE_ITERATIONS = 200_000


def calibration_loop(iterations: int = 1_000_000) -> float:
    """Seconds for a fixed pure-Python loop: the ``env.calib_s`` probe."""
    started = perf_counter()
    total = 0
    for i in range(iterations):
        total += i * i % 7
    elapsed = perf_counter() - started
    # Consume the result; this also guards the loop itself.
    if total != iterations // 7 * 14 + sum(r * r % 7 for r in range(iterations % 7)):
        raise RuntimeError("calibration loop computed a wrong sum")
    return elapsed


def speed_probe() -> float:
    """Seconds for a short fixed loop: one sample of the host's current speed.

    The benchmark's hosts are shared; over minutes their speed wanders by up
    to a factor of two, and every time measured in a run moves with it.
    Probes taken between the steps of a run sample the speed over the same
    stretch the measured work ran in.
    """
    return calibration_loop(_PROBE_ITERATIONS)


def at_reference_speed(seconds: float, probes) -> float:
    """``seconds`` measured alongside ``probes``, rescaled to the reference host.

    A duration times ``PROBE_REF_S / median(probes)``: what the same work
    would have taken had the host run the probe loop at its reference speed.
    """
    return seconds * PROBE_REF_S / median(probes)


@contextmanager
def own_heap():
    """Run the body with this process's existing objects out of GC's sight.

    The benchmark holds reference oracles, graphs and earlier results; left
    in the collected generations they would make every collection the
    measured call triggers slower, by an amount that depends on what ran
    before.  ``gc.freeze`` keeps the call's own garbage collection intact.
    """
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


class Tracer:
    """In-memory span recorder for the benchmark's own layer boundaries."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        """Time the body as span ``name`` (child of the innermost open span)."""
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "attrs": attrs,
            "start": perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = perf_counter()
            self._open.pop()

    def seconds(self, name: str) -> list[float]:
        """Durations of every closed span called ``name``, in start order."""
        return [
            s["end"] - s["start"]
            for s in self.spans
            if s["name"] == name and s["end"] is not None
        ]

    def self_seconds(self) -> dict[str, float]:
        """Summed self time per span name: duration minus children's time."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None and s["end"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        totals: dict[str, float] = {}
        for s in self.spans:
            if s["end"] is not None:
                own = s["end"] - s["start"] - child_time[s["id"]]
                totals[s["name"]] = totals.get(s["name"], 0.0) + own
        return totals

    def write(self, path) -> None:
        """Write every span plus the per-name self-time summary as JSON."""
        payload = {"spans": self.spans, "self_seconds": self.self_seconds()}
        with open(path, "w", encoding="utf8") as handle:
            json.dump(payload, handle, indent=1, default=str)
            handle.write("\n")
