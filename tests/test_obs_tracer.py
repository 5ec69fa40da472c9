"""Unit tests for the observability layer: events, tracer, metrics.

Covers the determinism contract (canonical serialization, clock-gated
spans, no wall time), the ring buffer, the metrics registry, and the
decision-id join between resize attempts and budget refunds.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.autoscaler import AutoScaler, ScalingDecision
from repro.core.budget import SPEND_BUCKETS, BudgetManager
from repro.core.resize_executor import ResizeExecutor
from repro.engine.containers import default_catalog
from repro.errors import ConfigurationError, PermanentActuationError
from repro.obs.events import EventKind, TraceEvent, TraceLevel, json_safe
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.tracer import NULL_TRACER, NullTracer, Tracer, load_events

CATALOG = default_catalog()


class TestJsonSafe:
    def test_plain_values_pass_through(self):
        assert json_safe(3) == 3
        assert json_safe("x") == "x"
        assert json_safe(True) is True
        assert json_safe(None) is None

    def test_floats_rounded_nan_and_inf_mapped(self):
        assert json_safe(float("nan")) is None
        assert json_safe(float("inf")) == "inf"
        assert json_safe(float("-inf")) == "-inf"
        assert json_safe(0.12345678901234) == 0.1234567890

    def test_numpy_scalars_and_enums(self):
        assert json_safe(np.float64(1.5)) == 1.5
        assert json_safe(np.int64(4)) == 4
        assert json_safe(EventKind.DECISION) == "decision"

    def test_nested_containers(self):
        out = json_safe({"a": [float("nan"), (1, 2.5)], 3: "k"})
        assert out == {"a": [None, [1, 2.5]], "3": "k"}


class TestTraceEvent:
    def test_round_trip(self):
        event = TraceEvent(
            seq=7, interval=3, component="budget",
            kind=EventKind.BUDGET_SPEND, level=TraceLevel.DECISION,
            decision_id="d00001", fields={"cost": 4.0},
        )
        again = TraceEvent.from_dict(event.to_dict())
        assert again.seq == 7
        assert again.kind is EventKind.BUDGET_SPEND
        assert again.decision_id == "d00001"
        assert again.fields == {"cost": 4.0}


class TestTracer:
    def test_emit_stamps_clock_and_decision(self):
        tracer = Tracer("t")
        tracer.set_interval(5)
        tracer.set_decision("d00002")
        tracer.emit("scaler", EventKind.DECISION, container="C1")
        (event,) = tracer.events()
        assert event.interval == 5
        assert event.decision_id == "d00002"
        assert event.fields == {"container": "C1"}

    def test_explicit_interval_and_decision_override(self):
        tracer = Tracer("t")
        tracer.set_interval(5)
        tracer.emit("harness", EventKind.BILLING, interval=2, decision_id="x")
        (event,) = tracer.events()
        assert event.interval == 2
        assert event.decision_id == "x"

    def test_level_gating(self):
        tracer = Tracer("t", level=TraceLevel.DECISION)
        tracer.emit("telemetry", EventKind.TELEMETRY, level=TraceLevel.DEBUG)
        tracer.emit("scaler", EventKind.DECISION)
        assert [e.kind for e in tracer.events()] == [EventKind.DECISION]
        assert not tracer.enabled_for(TraceLevel.DEBUG)
        assert tracer.enabled_for(TraceLevel.DECISION)

    def test_ring_buffer_drops_oldest_and_counts(self):
        tracer = Tracer("t", capacity=3)
        for i in range(5):
            tracer.emit("x", EventKind.DECISION, i=i)
        events = tracer.events()
        assert len(events) == 3
        assert [e.fields["i"] for e in events] == [2, 3, 4]
        assert tracer.dropped == 2
        # The metrics counter still saw all five.
        assert tracer.metrics.counter("events.x.decision").value == 5

    def test_filters(self):
        tracer = Tracer("t")
        tracer.set_interval(0)
        tracer.emit("a", EventKind.DECISION, decision_id="d1")
        tracer.set_interval(1)
        tracer.emit("b", EventKind.BILLING, decision_id="d2")
        assert len(tracer.events(component="a")) == 1
        assert len(tracer.events(kind=EventKind.BILLING)) == 1
        assert len(tracer.events(interval=1)) == 1
        assert len(tracer.events(decision_id="d2")) == 1
        assert len(tracer.events(component="a", interval=1)) == 0

    def test_span_without_clock_is_silent(self):
        tracer = Tracer("t")
        with tracer.span("scaler", "decide"):
            pass
        assert tracer.events() == []

    def test_span_with_fake_clock_emits_stage(self):
        ticks = iter([1.0, 1.25])
        tracer = Tracer("t", level=TraceLevel.DEBUG, clock=lambda: next(ticks))
        with tracer.span("scaler", "decide"):
            pass
        (event,) = tracer.events(kind=EventKind.STAGE)
        assert event.fields["stage"] == "decide"
        assert event.fields["duration_ms"] == pytest.approx(250.0)

    def test_summary(self):
        tracer = Tracer("run-9")
        tracer.set_interval(0)
        tracer.emit("a", EventKind.DECISION, decision_id="d1")
        tracer.set_interval(2)
        tracer.emit("a", EventKind.BILLING)
        summary = tracer.summary()
        assert summary["run_id"] == "run-9"
        assert summary["events"] == 2
        assert summary["first_interval"] == 0
        assert summary["last_interval"] == 2
        assert summary["decisions"] == 1
        assert summary["by_component"] == {"a": 2}

    def test_jsonl_round_trip(self, tmp_path):
        tracer = Tracer("t")
        tracer.set_interval(1)
        tracer.emit("budget", EventKind.BUDGET_SPEND, cost=float("nan"))
        path = tmp_path / "trace.jsonl"
        tracer.write(path)
        events = load_events(path)
        assert len(events) == 1
        assert events[0].kind is EventKind.BUDGET_SPEND
        assert events[0].fields["cost"] is None

    def test_load_events_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_events(tmp_path / "nope.jsonl")

    def test_load_events_bad_line_names_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"seq": 0, "interval": 0, "component": "a", '
                        '"kind": "decision"}\nnot json\n')
        with pytest.raises(ValueError, match="bad.jsonl:2"):
            load_events(path)


class TestEncodeOnce:
    def _tracer(self) -> Tracer:
        tracer = Tracer("t", capacity=4)
        for i in range(6):  # two events fall out of the ring
            tracer.set_interval(i)
            tracer.emit(
                "budget", EventKind.BUDGET_SPEND,
                cost=1.0 / 3.0 + i, tail=[float("inf"), np.float64(2.5)],
                label="caf\u00e9\u2028",  # non-ASCII and a line separator
            )
        return tracer

    def test_emit_does_not_encode(self):
        tracer = self._tracer()
        assert all(event._line is None for event in tracer.events())

    def test_line_is_encoded_once_and_reused(self, monkeypatch):
        tracer = self._tracer()
        first = tracer.to_jsonl()
        monkeypatch.setattr(
            TraceEvent, "to_dict", lambda self: pytest.fail("encoded twice")
        )
        assert tracer.to_jsonl() == first
        assert tracer.state_dict()["events"] == first

    def test_checkpoint_form_is_the_export_form(self):
        tracer = self._tracer()
        state = tracer.state_dict()
        assert state["events"] == tracer.to_jsonl()
        assert state["events"].count("\n") == len(tracer) == 4

    def test_restore_is_byte_identical(self):
        tracer = self._tracer()
        state = tracer.state_dict()
        restored = Tracer("other", capacity=4)
        restored.load_state_dict(state)
        assert [e.to_dict() for e in restored.events()] == [
            e.to_dict() for e in tracer.events()
        ]
        assert restored.to_jsonl() == tracer.to_jsonl()
        assert restored.state_dict() == state
        # Rebuilt without their cached lines, the events encode the same bytes.
        fresh = [TraceEvent.from_dict(e.to_dict()) for e in restored.events()]
        assert "".join(e.to_jsonl() + "\n" for e in fresh) == state["events"]

    def test_empty_ring_round_trips(self):
        tracer = Tracer("t")
        state = tracer.state_dict()
        assert state["events"] == ""
        restored = Tracer("t")
        restored.load_state_dict(state)
        assert len(restored) == 0


class TestNullTracer:
    def test_everything_is_a_no_op(self):
        null = NullTracer()
        assert not null.enabled
        assert not null.enabled_for(TraceLevel.DECISION)
        null.emit("x", EventKind.DECISION, payload=1)
        null.set_interval(9)
        null.set_decision("d")
        with null.span("x", "stage"):
            pass
        assert len(null) == 0
        assert NULL_TRACER.enabled is False


class TestMetrics:
    def test_counter_rejects_negative(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        counter.inc()
        counter.inc(2.0)
        assert counter.value == 3.0
        with pytest.raises(ConfigurationError):
            counter.inc(-1.0)

    def test_gauge_last_write_wins(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(5.0)
        gauge.set(2.0)
        assert gauge.value == 2.0

    def test_histogram_buckets_and_overflow(self):
        hist = Histogram("h", boundaries=(1.0, 2.0, 4.0))
        for value in (0.5, 1.0, 3.0, 100.0):
            hist.observe(value)
        # Upper-inclusive edges plus one overflow bucket.
        assert hist.counts == [2, 0, 1, 1]
        assert hist.count == 4
        assert sum(hist.counts) == hist.count
        assert hist.total == pytest.approx(104.5)

    def test_histogram_rejects_bad_boundaries(self):
        with pytest.raises(ConfigurationError):
            Histogram("h", boundaries=())
        with pytest.raises(ConfigurationError):
            Histogram("h", boundaries=(1.0, 1.0))
        with pytest.raises(ConfigurationError):
            Histogram("h", boundaries=(2.0, 1.0))
        # Strictly increasing is fine.
        Histogram("h", boundaries=(0.0, 1.0, 2.0))

    def test_registry_type_conflicts(self):
        registry = MetricsRegistry()
        registry.counter("name")
        with pytest.raises(ConfigurationError):
            registry.gauge("name")
        with pytest.raises(ConfigurationError):
            registry.histogram("name")

    def test_registry_histogram_boundary_drift_rejected(self):
        registry = MetricsRegistry()
        registry.histogram("h", boundaries=(1.0, 2.0))
        registry.histogram("h", boundaries=(1.0, 2.0))  # same is fine
        with pytest.raises(ConfigurationError):
            registry.histogram("h", boundaries=(1.0, 3.0))

    def test_snapshot_round_trip(self, tmp_path):
        import json

        registry = MetricsRegistry()
        registry.counter("z.count").inc(4)
        registry.gauge("a.level").set(1.5)
        registry.histogram("m", boundaries=(1.0,)).observe(0.5)
        path = tmp_path / "metrics.json"
        registry.write(path)
        snapshot = json.loads(path.read_text())
        assert snapshot["counters"]["z.count"] == 4
        assert snapshot["gauges"]["a.level"] == 1.5
        assert snapshot["histograms"]["m"]["counts"] == [1, 0]
        assert snapshot["histograms"]["m"]["count"] == 1


class _FailingServer:
    """Actuation target that permanently rejects every resize."""

    def __init__(self, container):
        self.container = container
        self.balloon_limit_gb = None

    def set_container(self, spec):
        raise PermanentActuationError("host rejects the move")

    def set_balloon_limit(self, limit):
        self.balloon_limit_gb = limit


class TestDecisionIdJoin:
    """The refund ledger must join back to the resize that earned it."""

    def _scaler(self, tracer):
        budget = BudgetManager(
            budget=2000.0, n_intervals=100,
            min_cost=CATALOG.smallest.cost, max_cost=CATALOG.max_cost,
        )
        scaler = AutoScaler(
            catalog=CATALOG,
            initial_container=CATALOG.at_level(4),
            budget=budget,
        )
        scaler.attach_tracer(tracer)
        return scaler

    def test_refund_event_carries_the_resize_decision_id(self):
        tracer = Tracer("join")
        scaler = self._scaler(tracer)
        # Drain the (initially full) bucket so a later refund has headroom
        # to actually credit instead of clamping at the depth.
        scaler.budget.end_interval(200.0, "d00041")
        server = _FailingServer(CATALOG.at_level(4))
        executor = ResizeExecutor(scaler, server, max_attempts=2, tracer=tracer)

        # A decision to scale *down* that the actuator permanently rejects:
        # the tenant stays on the costlier container, so the difference is
        # refunded under the decision's id.
        decision = ScalingDecision(
            container=CATALOG.at_level(2),
            balloon_limit_gb=None,
            resized=True,
            decision_id="d00042",
        )
        report = executor.execute(decision)
        assert not report.succeeded
        assert report.refund_scheduled > 0

        (result,) = tracer.events(kind=EventKind.RESIZE_RESULT)
        assert result.decision_id == "d00042"

        # Settlement credits the refund under the same id and attributes
        # the charge to the (different) decision that chose the container.
        scaler._settle_budget(CATALOG.at_level(4).cost, "d00043")
        (refund,) = tracer.events(kind=EventKind.BUDGET_REFUND)
        (spend,) = tracer.events(
            kind=EventKind.BUDGET_SPEND, decision_id="d00043"
        )
        assert refund.decision_id == "d00042"
        assert refund.fields["credited"] == pytest.approx(
            report.refund_scheduled
        )

    def test_multiple_refunds_keep_their_own_ids(self):
        tracer = Tracer("join2")
        scaler = self._scaler(tracer)
        scaler.schedule_refund(2.0, "dA")
        scaler.schedule_refund(3.0, "dB")
        scaler._settle_budget(CATALOG.smallest.cost, "dC")
        refunds = tracer.events(kind=EventKind.BUDGET_REFUND)
        assert [(e.decision_id, e.fields["amount"]) for e in refunds] == [
            ("dA", 2.0),
            ("dB", 3.0),
        ]


class TestBudgetTraceEvents:
    def test_spend_fill_and_clamp_events(self):
        tracer = Tracer("budget")
        # Aggressive bucket: starts full, so the first fill clamps at depth.
        budget = BudgetManager(
            budget=100.0, n_intervals=10, min_cost=1.0, max_cost=20.0
        )
        budget.bind_tracer(tracer)
        budget.end_interval(0.0, "d0")
        kinds = [e.kind for e in tracer.events()]
        assert EventKind.BUDGET_SPEND in kinds
        assert EventKind.BUDGET_FILL in kinds
        assert EventKind.BUDGET_CLAMP in kinds
        (clamp,) = tracer.events(kind=EventKind.BUDGET_CLAMP)
        assert clamp.fields["bound"] == "depth"
        hist = tracer.metrics.histogram("budget.spend_cost", SPEND_BUCKETS)
        assert hist.count == 1

    def test_untraced_budget_emits_nothing(self):
        budget = BudgetManager(
            budget=100.0, n_intervals=10, min_cost=1.0, max_cost=20.0
        )
        budget.end_interval(5.0)
        budget.refund(1.0)
        assert budget.spent == pytest.approx(4.0)
        assert math.isfinite(budget.available)
