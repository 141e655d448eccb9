"""The structured event bus: named probes plus pluggable sinks.

Design goals, in order:

1. **Near-zero cost with no sink attached.** A probe update on a sink-less
   bus is one attribute store and one falsy check; a probe on a *disabled*
   bus is a shared no-op object. Components therefore instrument
   unconditionally and let the bus decide what telemetry costs.
2. **One namespace per run.** Each :class:`~repro.sim.cpu.CrispCpu` owns a
   bus, so probe values reconcile exactly with that run's
   :class:`~repro.sim.stats.PipelineStats` (a cross-check the test suite
   enforces).
3. **Structured, replayable output.** With a sink attached every update is
   delivered as a flat dict — append them to a list, a JSONL file, or
   anything implementing ``handle(event)``.

The canonical probe names and their meanings live in
:mod:`repro.obs.registry`.
"""

from __future__ import annotations

import json
from typing import Any, Callable, IO, Iterable


class _NullProbe:
    """Shared no-op probe handed out by a disabled bus."""

    __slots__ = ()

    name = "<null>"
    value = 0
    count = 0

    def inc(self, amount: int = 1, **fields: Any) -> None:
        pass

    def add(self, amount: int = 1) -> None:
        pass

    def set(self, value: float, **fields: Any) -> None:
        pass

    def set_fast(self, value: float) -> None:
        pass

    def observe(self, value: float, **fields: Any) -> None:
        pass

    def snapshot(self) -> dict[str, Any]:
        return {}


_NULL_PROBE = _NullProbe()


class Counter:
    """Monotonically increasing event count."""

    kind = "counter"
    __slots__ = ("name", "value", "_bus")

    def __init__(self, name: str, bus: "EventBus") -> None:
        self.name = name
        self.value = 0
        self._bus = bus

    def inc(self, amount: int = 1, **fields: Any) -> None:
        self.value += amount
        if self._bus._sinks:
            self._bus._publish(self.name, "counter",
                               {"value": self.value, "delta": amount,
                                **fields})

    def add(self, amount: int = 1) -> None:
        """Field-less :meth:`inc` — the hot-loop form.

        Behaviourally identical to ``inc(amount)``: same count, same
        published event. It exists so call sites in per-cycle code can
        skip keyword-dict construction when they have no fields to add
        (or, two-tier-guarded, when no sink is listening).
        """
        self.value += amount
        if self._bus._sinks:
            self._bus._publish(self.name, "counter",
                               {"value": self.value, "delta": amount})

    def snapshot(self) -> dict[str, Any]:
        return {"kind": "counter", "value": self.value}


class Gauge:
    """Last-written value of a sampled quantity, with its running range."""

    kind = "gauge"
    __slots__ = ("name", "value", "low", "high", "samples", "_bus")

    def __init__(self, name: str, bus: "EventBus") -> None:
        self.name = name
        self.value: float = 0
        self.low: float | None = None
        self.high: float | None = None
        self.samples = 0
        self._bus = bus

    def set(self, value: float, **fields: Any) -> None:
        self.value = value
        self.samples += 1
        if self.low is None or value < self.low:
            self.low = value
        if self.high is None or value > self.high:
            self.high = value
        if self._bus._sinks:
            self._bus._publish(self.name, "gauge", {"value": value, **fields})

    def set_fast(self, value: float) -> None:
        """Field-less :meth:`set` — same bookkeeping and published event,
        no keyword-dict construction (per-cycle call sites)."""
        self.value = value
        self.samples += 1
        if self.low is None or value < self.low:
            self.low = value
        if self.high is None or value > self.high:
            self.high = value
        if self._bus._sinks:
            self._bus._publish(self.name, "gauge", {"value": value})

    def snapshot(self) -> dict[str, Any]:
        return {"kind": "gauge", "value": self.value, "low": self.low,
                "high": self.high, "samples": self.samples}


class Histogram:
    """Distribution of observed values in power-of-two buckets.

    Bucket ``k`` counts observations with ``2**(k-1) < value <= 2**k``
    (bucket 0 holds values <= 1, including zero) — coarse, constant-space
    and enough to read a latency distribution's shape.
    """

    kind = "histogram"
    __slots__ = ("name", "count", "total", "low", "high", "buckets", "_bus")

    def __init__(self, name: str, bus: "EventBus") -> None:
        self.name = name
        self.count = 0
        self.total: float = 0
        self.low: float | None = None
        self.high: float | None = None
        self.buckets: dict[int, int] = {}
        self._bus = bus

    def observe(self, value: float, **fields: Any) -> None:
        self.count += 1
        self.total += value
        if self.low is None or value < self.low:
            self.low = value
        if self.high is None or value > self.high:
            self.high = value
        bucket = 0 if value <= 1 else (int(value) - 1).bit_length()
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1
        if self._bus._sinks:
            self._bus._publish(self.name, "histogram",
                               {"value": value, **fields})

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, fraction: float) -> float:
        """Bucket-resolution quantile estimate (e.g. ``0.99`` for p99).

        Walks the cumulative bucket counts and returns the upper bound
        of the bucket holding the requested rank, clamped to the
        observed ``[low, high]`` range — so the estimate is exact for
        single-bucket distributions and never overshoots the data. The
        error is bounded by the power-of-two bucket width, which is
        enough to read a latency distribution's tail shape.
        """
        if not self.count:
            return 0.0
        if not 0 <= fraction <= 1:
            raise ValueError(f"fraction {fraction} outside [0, 1]")
        rank = fraction * self.count
        cumulative = 0
        for bucket in sorted(self.buckets):
            cumulative += self.buckets[bucket]
            if cumulative >= rank:
                upper = 1.0 if bucket == 0 else float(2 ** bucket)
                assert self.low is not None and self.high is not None
                return min(max(upper, self.low), self.high)
        return float(self.high)  # fraction == 1 with rounding slack

    def snapshot(self) -> dict[str, Any]:
        return {"kind": "histogram", "count": self.count,
                "total": self.total, "mean": self.mean,
                "low": self.low, "high": self.high,
                "p50": self.percentile(0.50),
                "p90": self.percentile(0.90),
                "p99": self.percentile(0.99),
                "buckets": {str(k): v
                            for k, v in sorted(self.buckets.items())}}


Probe = Counter | Gauge | Histogram


class MemorySink:
    """Collects every published event in a list (tests, small runs)."""

    def __init__(self) -> None:
        self.events: list[dict[str, Any]] = []

    def handle(self, event: dict[str, Any]) -> None:
        self.events.append(event)


class JsonlSink:
    """Writes one JSON object per event to an open text stream."""

    def __init__(self, stream: IO[str]) -> None:
        self.stream = stream

    def handle(self, event: dict[str, Any]) -> None:
        self.stream.write(json.dumps(event) + "\n")


class EventBus:
    """A per-run registry of named probes plus the sinks observing them."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.probes: dict[str, Probe] = {}
        self._sinks: list[Any] = []
        self._sequence = 0

    # ---- probe creation ----------------------------------------------------

    def _probe(self, name: str, factory: Callable[[str, "EventBus"], Probe]):
        if not self.enabled:
            return _NULL_PROBE
        probe = self.probes.get(name)
        if probe is None:
            probe = factory(name, self)
            self.probes[name] = probe
            return probe
        wanted = factory(name, self).kind
        if probe.kind != wanted:
            raise ValueError(
                f"probe {name!r} already registered as {probe.kind}, "
                f"not {wanted}")
        return probe

    def counter(self, name: str) -> Counter:
        """Get or create the counter called ``name``."""
        return self._probe(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge called ``name``."""
        return self._probe(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        """Get or create the histogram called ``name``."""
        return self._probe(name, Histogram)

    # ---- sinks -------------------------------------------------------------

    @property
    def sinks(self) -> tuple[Any, ...]:
        return tuple(self._sinks)

    def sinks_ref(self) -> list[Any]:
        """The live sink list (a shared reference, not a copy).

        Components cache this once and test its truthiness, so a
        sink-less bus never pays for per-event field formatting. The
        PDU and decoded cache test it per event; the cycle loops test it
        once per ``run()``/``step()`` call and, without a sink, publish
        their counts when they return, so a sink is attached or detached
        between calls.
        """
        return self._sinks

    def attach(self, sink: Any) -> None:
        """Start delivering every probe update to ``sink.handle(event)``."""
        if not self.enabled:
            raise ValueError("cannot attach a sink to a disabled bus")
        self._sinks.append(sink)

    def detach(self, sink: Any) -> None:
        self._sinks.remove(sink)

    def _publish(self, name: str, kind: str, fields: dict[str, Any]) -> None:
        self._sequence += 1
        event = {"seq": self._sequence, "probe": name, "kind": kind, **fields}
        for sink in self._sinks:
            sink.handle(event)

    def emit(self, name: str, **fields: Any) -> None:
        """Publish an ad-hoc structured event not tied to a probe."""
        if self._sinks:
            self._publish(name, "event", fields)

    # ---- inspection --------------------------------------------------------

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """Current value of every probe, keyed by name (sorted)."""
        return {name: self.probes[name].snapshot()
                for name in sorted(self.probes)}

    def counters(self) -> dict[str, int]:
        """Just the counter values — the common reconciliation view."""
        return {name: probe.value
                for name, probe in sorted(self.probes.items())
                if isinstance(probe, Counter)}

    def merge(self, others: Iterable["EventBus"]) -> None:
        """Fold other buses' counter totals into this one (aggregation
        across the runs of a sweep; gauges and histograms don't merge)."""
        for other in others:
            for name, probe in other.probes.items():
                if isinstance(probe, Counter):
                    self.counter(name).value += probe.value


NULL_BUS = EventBus(enabled=False)
"""Module-level disabled bus: the default for library code whose callers
did not ask for telemetry. All its probes are shared no-ops."""
