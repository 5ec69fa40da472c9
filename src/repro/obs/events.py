"""Event taxonomy for the decision-trace observability layer.

Every control-plane layer — telemetry admission, signal extraction,
demand estimation, ballooning, budgeting, decision-making, actuation,
damping — emits :class:`TraceEvent` records through a
:class:`~repro.obs.tracer.Tracer`.  The taxonomy is deliberately small
and stable: golden-trace regression tests diff serialized event streams,
so every kind added here becomes part of the repository's compatibility
surface.

Determinism rules (enforced by the golden suite):

* events carry the *interval clock* (billing-interval indexes), never
  wall time;
* all payload values derive from the seeded simulation — no host state;
* serialization is canonical: sorted keys, NaN → ``None``, floats
  round-tripped through :func:`json_safe` with a fixed rounding width.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field
from typing import Any

__all__ = ["EventKind", "TraceLevel", "TraceEvent", "json_safe"]

#: Decimal places floats are rounded to when serialized.  Wide enough to
#: expose any real behavioral change, narrow enough to absorb platform
#: last-bit noise in transcendental functions.
FLOAT_DECIMALS = 10


class TraceLevel(enum.IntEnum):
    """How much of the taxonomy a tracer records.

    ``DECISION`` (the default) captures everything needed to explain and
    regression-pin a scaling decision; ``DEBUG`` adds the high-volume
    signal-computation detail (per-series trends, per-delivery telemetry
    observations) used by the golden traces and deep diagnostics.
    """

    OFF = 0
    DECISION = 1
    DEBUG = 2


class EventKind(enum.Enum):
    """What one trace event records."""

    # Telemetry layer.
    TELEMETRY = "telemetry"  # one delivery absorbed into the windows
    SIGNALS = "signals"  # signal-set computation (trends, agreement)
    GUARD = "guard"  # TelemetryGuard verdict on one delivery
    # Estimation layer.
    ESTIMATE = "estimate"  # per-dimension demand summary
    RULE_FIRED = "rule-fired"  # one rule's firing, with its inputs
    # Ballooning.
    BALLOON = "balloon"  # probe state transition
    # Budget ledger.
    BUDGET_CHECK = "budget-check"  # affordability consulted for a target
    BUDGET_SPEND = "budget-spend"  # interval charge
    BUDGET_FILL = "budget-fill"  # token refill after a charge
    BUDGET_REFUND = "budget-refund"  # actuation-failure credit
    BUDGET_CLAMP = "budget-clamp"  # a depth/zero clamp actually bound
    # Decisions and actuation.
    DECISION = "decision"  # AutoScaler output for one interval
    RESIZE_APPLIED = "resize-applied"  # scaler adopted a new container
    RESIZE_ATTEMPT = "resize-attempt"  # one actuator call
    RESIZE_RESULT = "resize-result"  # executor's per-interval outcome
    CIRCUIT = "circuit"  # breaker state transition
    DAMPER = "damper"  # oscillation suppression / trip
    # Harness bookkeeping and profiling.
    BILLING = "billing"  # meter charge for one measured interval
    STAGE = "stage"  # profiled stage timing (injected clock)
    # Fleet pipeline (columnar, one event per interval for the fleet).
    FLEET_INTERVAL = "fleet-interval"  # aggregate vectorized decide_batch
    FLEET_HEALTH = "fleet-health"  # SLO aggregate threshold crossing
    # Durable service mode (controller lifecycle; emitted into the
    # *service* tracer, never the per-tenant decision tracers — those
    # must stay byte-identical across a checkpoint/restore).
    CHECKPOINT = "checkpoint"  # controller state written to the store
    RESTORE = "restore"  # controller state rebuilt from a checkpoint
    LEASE = "lease"  # leader-lease acquire / renew / lose / expire
    FAILOVER = "failover"  # standby promotion after leader loss

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


def json_safe(value: Any) -> Any:
    """Map one payload value onto canonical JSON-serializable form."""
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        if math.isnan(value):
            return None
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return round(value, FLOAT_DECIMALS)
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, dict):
        return {str(k): json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(v) for v in value]
    # numpy scalars and anything else numeric-like.
    for cast in (int, float):
        try:
            return json_safe(cast(value))
        except (TypeError, ValueError):
            continue
    return str(value)


@dataclass(frozen=True)
class TraceEvent:
    """One structured record in a decision trace.

    Attributes:
        seq: tracer-wide monotonic sequence number (0-based).
        interval: billing-interval index the event belongs to (the
            interval clock; −1 when emitted before any interval).
        component: emitting layer (``"telemetry"``, ``"guard"``,
            ``"estimator"``, ``"budget"``, ``"autoscaler"``,
            ``"executor"``, ``"harness"``, …).
        kind: taxonomy entry.
        level: verbosity tier the event was recorded at.
        decision_id: identifier of the scaling decision this event is
            part of (shared across estimate → budget → resize → refund
            chains), or None for events outside any decision.
        fields: kind-specific payload.

    The event's canonical JSONL line is built the first time
    :meth:`to_jsonl` asks for it and kept, so a trace exported or
    checkpointed many times encodes each event once; emitting an event
    never pays for it.  Like the rest of the event, ``fields`` must not
    change once emitted.
    """

    seq: int
    interval: int
    component: str
    kind: EventKind
    level: TraceLevel = TraceLevel.DECISION
    decision_id: str | None = None
    fields: dict[str, Any] = field(default_factory=dict)
    _line: str | None = field(default=None, init=False, compare=False, repr=False)

    def to_dict(self) -> dict[str, Any]:
        """Canonical (deterministically serializable) dict form."""
        return {
            "seq": self.seq,
            "interval": self.interval,
            "component": self.component,
            "kind": self.kind.value,
            "level": int(self.level),
            "decision_id": self.decision_id,
            "fields": json_safe(self.fields),
        }

    def to_jsonl(self) -> str:
        """The canonical JSONL line (sorted keys, no newline), cached."""
        line = self._line
        if line is None:
            line = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
            object.__setattr__(self, "_line", line)
        return line

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "TraceEvent":
        return cls(
            seq=int(raw["seq"]),
            interval=int(raw["interval"]),
            component=str(raw["component"]),
            kind=EventKind(raw["kind"]),
            level=TraceLevel(int(raw.get("level", TraceLevel.DECISION))),
            decision_id=raw.get("decision_id"),
            fields=dict(raw.get("fields", {})),
        )

    @classmethod
    def from_jsonl(cls, line: str) -> "TraceEvent":
        """Parse one line that :meth:`to_jsonl` wrote.

        The event keeps ``line`` as its :meth:`to_jsonl` text: encoding
        the parsed event again would give the same bytes, because
        :func:`json_safe` is idempotent on its own output.
        """
        event = cls.from_dict(json.loads(line))
        object.__setattr__(event, "_line", line)
        return event
