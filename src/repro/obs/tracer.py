"""The per-run decision tracer: ring-buffered, reproducible, JSONL.

One :class:`Tracer` is threaded through the whole control plane for one
run (:class:`~repro.core.autoscaler.AutoScaler`, telemetry manager,
guard, estimator, budget manager, executor, harness).  It maintains

* a monotonic **sequence counter** (total order over everything the run
  emitted),
* the **interval clock** — the current billing-interval index, stamped
  onto events so a trace can be sliced per interval without the emitters
  passing indexes around,
* the current **decision id** — the correlation key tying an estimate,
  its budget checks, the resize attempts it caused, and any eventual
  refund into one explainable chain,
* a bounded **ring buffer** of events (old events drop, tallied in
  :attr:`dropped`, so fleet-length runs cannot exhaust memory), and
* a :class:`~repro.obs.metrics.MetricsRegistry` every emit feeds
  (``events.<component>.<kind>`` counters), so aggregate counts survive
  even after the ring has evicted the events themselves.

Determinism: the tracer never reads wall time.  Profiling spans are
gated behind an **injectable clock** — with no clock configured,
:meth:`span` is a free no-op and traces are byte-stable across runs;
tests inject counting clocks, and the CLI can opt into
``time.perf_counter`` when a human wants real timings.
"""

from __future__ import annotations

import json
from collections import Counter as TallyCounter
from collections import deque
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import Any

from repro.obs.events import EventKind, TraceEvent, TraceLevel
from repro.obs.metrics import MetricsRegistry

__all__ = ["Tracer", "NullTracer", "NULL_TRACER", "load_events", "events_to_jsonl"]


class Tracer:
    """Structured-event collector for one control-loop run.

    Args:
        run_id: label recorded in summaries and filenames.
        level: verbosity tier; events above it are dropped at the
            emit call (cheaply — before payload serialization).
        capacity: ring-buffer size in events.
        clock: optional callable returning monotonically non-decreasing
            floats (seconds) for :meth:`span` timings.  ``None`` (the
            default) disables span events entirely, keeping traces
            reproducible.
    """

    enabled = True

    def __init__(
        self,
        run_id: str = "run",
        level: TraceLevel = TraceLevel.DECISION,
        capacity: int = 65536,
        clock: Callable[[], float] | None = None,
    ) -> None:
        self.run_id = run_id
        self.level = TraceLevel(level)
        self.capacity = int(capacity)
        self.clock = clock
        self.metrics = MetricsRegistry()
        self._events: deque[TraceEvent] = deque(maxlen=self.capacity)
        self._seq = 0
        self._interval = -1
        self._decision_id: str | None = None
        self.dropped = 0

    # -- clock / correlation state --------------------------------------------

    @property
    def current_interval(self) -> int:
        return self._interval

    @property
    def current_decision(self) -> str | None:
        return self._decision_id

    def set_interval(self, index: int) -> None:
        """Advance (or rewind, for late redeliveries) the interval clock."""
        self._interval = int(index)

    def set_decision(self, decision_id: str | None) -> None:
        """Set the decision id stamped onto subsequent events."""
        self._decision_id = decision_id

    # -- emission --------------------------------------------------------------

    def enabled_for(self, level: TraceLevel) -> bool:
        return level <= self.level

    def emit(
        self,
        component: str,
        kind: EventKind,
        level: TraceLevel = TraceLevel.DECISION,
        interval: int | None = None,
        decision_id: str | None = None,
        **fields: Any,
    ) -> None:
        """Record one event (no-op when ``level`` exceeds the tracer's)."""
        if level > self.level:
            return
        if len(self._events) == self.capacity:
            self.dropped += 1
        event = TraceEvent(
            seq=self._seq,
            interval=self._interval if interval is None else int(interval),
            component=component,
            kind=kind,
            level=level,
            decision_id=(
                self._decision_id if decision_id is None else decision_id
            ),
            fields=fields,
        )
        self._seq += 1
        self._events.append(event)
        self.metrics.counter(f"events.{component}.{kind.value}").inc()

    @contextmanager
    def span(self, component: str, stage: str, level: TraceLevel = TraceLevel.DEBUG):
        """Profile one stage; emits a STAGE event only when a clock is set."""
        if self.clock is None or level > self.level:
            yield
            return
        start = self.clock()
        try:
            yield
        finally:
            self.emit(
                component,
                EventKind.STAGE,
                level=level,
                stage=stage,
                duration_ms=1e3 * (self.clock() - start),
            )

    # -- queries ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._events)

    def events(
        self,
        component: str | None = None,
        kind: EventKind | None = None,
        interval: int | None = None,
        decision_id: str | None = None,
    ) -> list[TraceEvent]:
        """Retained events, optionally filtered; always in seq order."""
        return [
            e
            for e in self._events
            if (component is None or e.component == component)
            and (kind is None or e.kind is kind)
            and (interval is None or e.interval == interval)
            and (decision_id is None or e.decision_id == decision_id)
        ]

    def summary(self) -> dict:
        """Aggregate view: counts by component/kind, interval span, drops."""
        by_component: TallyCounter[str] = TallyCounter()
        by_kind: TallyCounter[str] = TallyCounter()
        intervals = set()
        decisions = set()
        for event in self._events:
            by_component[event.component] += 1
            by_kind[event.kind.value] += 1
            intervals.add(event.interval)
            if event.decision_id is not None:
                decisions.add(event.decision_id)
        return {
            "run_id": self.run_id,
            "level": int(self.level),
            "events": len(self._events),
            "dropped": self.dropped,
            "intervals": len(intervals),
            "first_interval": min(intervals) if intervals else None,
            "last_interval": max(intervals) if intervals else None,
            "decisions": len(decisions),
            "by_component": dict(sorted(by_component.items())),
            "by_kind": dict(sorted(by_kind.items())),
        }

    # -- serialization ---------------------------------------------------------

    def to_jsonl(self) -> str:
        return events_to_jsonl(self._events)

    def write(self, path: str | Path) -> None:
        Path(path).write_text(self.to_jsonl())

    # -- checkpointing ---------------------------------------------------------

    def state_dict(self) -> dict:
        """Exact serializable state: ring contents, clocks, and metrics.

        The ring is captured as its :meth:`to_jsonl` text, so the
        checkpoint form and the export form are one format and each event
        is encoded once however often the tracer is checkpointed.
        Re-serializing a restored ring yields byte-identical JSONL.  The
        injectable span clock is deliberately not captured — it is a
        process-local resource the restoring controller supplies.
        """
        return {
            "run_id": self.run_id,
            "level": int(self.level),
            "capacity": self.capacity,
            "events": self.to_jsonl(),
            "seq": self._seq,
            "interval": self._interval,
            "decision_id": self._decision_id,
            "dropped": self.dropped,
            "metrics": self.metrics.state_dict(),
        }

    def load_state_dict(self, state: dict) -> None:
        if int(state["capacity"]) != self.capacity or int(state["level"]) != int(
            self.level
        ):
            raise ValueError(
                "tracer configuration mismatch: checkpoint has "
                f"level={state['level']} capacity={state['capacity']}, live "
                f"tracer has level={int(self.level)} capacity={self.capacity}"
            )
        self.run_id = str(state["run_id"])
        self._events = deque(
            map(TraceEvent.from_jsonl, state["events"].splitlines()),
            maxlen=self.capacity,
        )
        self._seq = int(state["seq"])
        self._interval = int(state["interval"])
        decision = state["decision_id"]
        self._decision_id = None if decision is None else str(decision)
        self.dropped = int(state["dropped"])
        self.metrics.load_state_dict(state["metrics"])


class NullTracer(Tracer):
    """The do-nothing tracer instrumented code holds by default.

    Keeps every call site branch-free (``self.tracer.emit(...)`` is
    always valid) while making the disabled path as close to free as a
    Python method call gets.  Shared as the :data:`NULL_TRACER`
    singleton; constructing more is harmless.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__(run_id="null", level=TraceLevel.OFF, capacity=1)

    def enabled_for(self, level: TraceLevel) -> bool:  # pragma: no cover
        return False

    def emit(self, *args: Any, **kwargs: Any) -> None:
        return

    @contextmanager
    def span(self, *args: Any, **kwargs: Any):
        yield

    def set_interval(self, index: int) -> None:
        return

    def set_decision(self, decision_id: str | None) -> None:
        return


NULL_TRACER = NullTracer()


def events_to_jsonl(events) -> str:
    """Serialize events as canonical JSONL (sorted keys, one per line)."""
    lines = [event.to_jsonl() for event in events]
    return "\n".join(lines) + ("\n" if lines else "")


def load_events(path: str | Path) -> list[TraceEvent]:
    """Parse a JSONL trace file back into events.

    Raises:
        FileNotFoundError: when the path does not exist.
        ValueError: when a line is not a valid trace event.
    """
    events: list[TraceEvent] = []
    text = Path(path).read_text()
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            events.append(TraceEvent.from_dict(json.loads(line)))
        except (json.JSONDecodeError, KeyError, ValueError, TypeError,
                AttributeError) as exc:
            # TypeError/AttributeError cover lines that parse as JSON but
            # are not event objects (e.g. a bare number or list): truncated
            # or corrupt trace files must surface as one readable error.
            raise ValueError(f"{path}:{lineno}: not a trace event: {exc}") from exc
    return events
