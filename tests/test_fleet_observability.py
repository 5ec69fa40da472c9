"""The columnar fleet observability pipeline.

Four pillars:

* **Drill-down byte identity** — ``explain(tenant, interval)`` replayed
  from the columnar store serializes byte-identically to a scalar
  ``AutoScaler`` + ``Tracer`` run over the same counter streams, across
  every configuration axis of the vectorized-equivalence suite.
* **Metrics equivalence** — :func:`fleet_metrics_registry` equals the
  :func:`merge_snapshots` of per-tenant scalar DECISION-level registries.
* **Exporters** — Prometheus exposition round-trips exactly; snapshot
  merging enforces histogram-boundary agreement.
* **Fleet health and reports** — threshold crossings fire in both
  directions and ``fleet report`` output is deterministic.

Plus the plumbing: store persistence, recorder copy semantics, stage
timing histograms, ring-drop surfacing in the CLI, and the chaos- and
population-level metrics hooks.
"""

from __future__ import annotations

import json
from collections import Counter

import numpy as np
import pytest

from repro.core.autoscaler import AutoScaler
from repro.core.damper import OscillationDamper
from repro.core.latency import LatencyGoal
from repro.engine.containers import default_catalog
from repro.errors import ConfigurationError
from repro.fleet.chaos import chaos_sweep
from repro.fleet.population import synthesize_population
from repro.fleet.vectorized import VectorizedAutoScaler, replay_decisions
from repro.obs.events import EventKind, TraceLevel, json_safe
from repro.obs.exporters import (
    merge_snapshots,
    parse_prometheus,
    snapshot_to_jsonl,
    to_prometheus,
)
from repro.obs.fleet import (
    FleetHealthMonitor,
    FleetParityError,
    FleetSloThresholds,
    FleetTraceRecorder,
    FleetTraceStore,
    explain,
    fleet_metrics_registry,
    fleet_report,
    record_synthetic_fleet,
    render_markdown,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer, events_to_jsonl
from tests.test_fleet_vectorized import CONFIG_AXES, make_streams

N_TENANTS, N_INTERVALS, SEED = 14, 40, 31

#: Drill-down sample: corners plus a mid-run tenant/interval.
SAMPLE_TENANTS = (0, 7, 13)
SAMPLE_INTERVALS = (0, 17, N_INTERVALS - 1)


def _axis_setup(config):
    """The exact fleet geometry of the vectorized-equivalence suite."""
    config = dict(config)
    goal_ms = config.pop("goal_ms")
    budgeted = config.pop("budgeted", False)
    damped = config.pop("damped", False)
    catalog = default_catalog()
    rng = np.random.default_rng(SEED + 999)
    levels = rng.integers(0, catalog.num_levels, N_TENANTS)
    streams = make_streams(N_TENANTS, N_INTERVALS, SEED, catalog, levels)
    goal = LatencyGoal(goal_ms) if goal_ms else None

    def budget_for(t):
        if not budgeted:
            return None
        from repro.core.budget import BudgetManager

        return BudgetManager(
            budget=catalog.at_level(int(levels[t])).cost * N_INTERVALS * 1.3
            + catalog.min_cost * 5,
            n_intervals=N_INTERVALS + 5,
            min_cost=catalog.min_cost,
            max_cost=catalog.max_cost,
        )

    return catalog, levels, streams, goal, budget_for, damped, config


def _record_store(catalog, levels, streams, goal, budget_for, damped, config):
    vec = VectorizedAutoScaler(
        catalog,
        N_TENANTS,
        initial_level=levels,
        goal=goal,
        budget=(
            [budget_for(t) for t in range(N_TENANTS)]
            if budget_for(0) is not None
            else None
        ),
        damper=OscillationDamper() if damped else None,
        **config,
    )
    recorder = FleetTraceRecorder()
    vec.attach_recorder(recorder)
    replay_decisions(streams, vec)
    return recorder.finish()


def _scalar_tracer(catalog, levels, streams, goal, budget_for, damped, config, t):
    tracer = Tracer(run_id=f"scalar-t{t}", level=TraceLevel.DEBUG)
    scaler = AutoScaler(
        catalog,
        initial_container=catalog.at_level(int(levels[t])),
        goal=goal,
        budget=budget_for(t),
        damper=OscillationDamper() if damped else None,
        tracer=tracer,
        **config,
    )
    for counters in streams[t]:
        scaler.decide(counters)
    return tracer


# -- drill-down byte identity -------------------------------------------------


@pytest.mark.parametrize("config", CONFIG_AXES)
def test_explain_byte_identical_to_scalar_tracer(config):
    setup = _axis_setup(config)
    store = _record_store(*setup)
    for t in SAMPLE_TENANTS:
        scalar = _scalar_tracer(*setup, t)
        for interval in SAMPLE_INTERVALS:
            result = explain(store, t, interval)
            want = events_to_jsonl(scalar.events(interval=interval))
            assert result.jsonl == want, f"tenant {t} interval {interval}"


def test_explain_parity_oracle_catches_corruption():
    setup = _axis_setup({"goal_ms": 100.0})
    store = _record_store(*setup)
    store.arrays["level_after"] = store.arrays["level_after"].copy()
    store.arrays["level_after"][5, 2] += 1
    with pytest.raises(FleetParityError, match="tenant 2 interval 5"):
        explain(store, 2, 9)


def test_explain_rejects_out_of_range_coordinates():
    store = record_synthetic_fleet(4, 6, seed=3)
    with pytest.raises(IndexError):
        explain(store, 4, 0)
    with pytest.raises(IndexError):
        explain(store, 0, 6)


# -- metrics equivalence ------------------------------------------------------


def test_fleet_metrics_equal_merged_scalar_registries():
    setup = _axis_setup({"goal_ms": 100.0})
    store = _record_store(*setup)
    columnar = fleet_metrics_registry(store).snapshot()
    catalog, levels, streams, goal, budget_for, damped, config = setup
    snapshots = []
    for t in range(N_TENANTS):
        tracer = Tracer(run_id=f"t{t}", level=TraceLevel.DECISION)
        scaler = AutoScaler(
            catalog,
            initial_container=catalog.at_level(int(levels[t])),
            goal=goal,
            tracer=tracer,
            **config,
        )
        for counters in streams[t]:
            scaler.decide(counters)
        snapshots.append(tracer.metrics.snapshot())
    assert columnar == merge_snapshots(snapshots)


# -- exporters ----------------------------------------------------------------


def test_merge_snapshots_sums_and_sorts():
    a = {
        "counters": {"x": 2.0, "y": 1.0},
        "gauges": {"g": 0.5},
        "histograms": {
            "h": {"boundaries": [1.0, 2.0], "counts": [1, 0, 2],
                  "count": 3, "sum": 5.0},
        },
    }
    b = {
        "counters": {"y": 4.0},
        "gauges": {"g": 1.5},
        "histograms": {
            "h": {"boundaries": [1.0, 2.0], "counts": [0, 2, 1],
                  "count": 3, "sum": 7.0},
        },
    }
    merged = merge_snapshots([a, b])
    assert merged["counters"] == {"x": 2.0, "y": 5.0}
    assert merged["gauges"] == {"g": 2.0}
    assert merged["histograms"]["h"] == {
        "boundaries": [1.0, 2.0], "counts": [1, 2, 3], "count": 6, "sum": 12.0,
    }


def test_merge_snapshots_rejects_mismatched_boundaries():
    a = {"histograms": {"h": {"boundaries": [1.0], "counts": [0, 0],
                              "count": 0, "sum": 0.0}}}
    b = {"histograms": {"h": {"boundaries": [2.0], "counts": [0, 0],
                              "count": 0, "sum": 0.0}}}
    with pytest.raises(ConfigurationError, match="mismatched boundaries"):
        merge_snapshots([a, b])


def test_prometheus_round_trip_is_exact():
    registry = MetricsRegistry()
    registry.counter("events.scaler.decision").inc(42.0)
    registry.gauge("fleet.health.oscillation_rate").set(0.125)
    hist = registry.histogram("estimator.steps", (-1.0, 0.0, 1.0, 2.0))
    for value in (-1.0, 0.0, 0.0, 1.0, 2.0, 3.0):
        hist.observe(value)
    snapshot = registry.snapshot()
    text = to_prometheus(snapshot)
    parsed = parse_prometheus(text)
    assert to_prometheus(parsed) == text
    assert parsed["counters"]["events_scaler_decision"] == 42.0
    assert parsed["histograms"]["estimator_steps"]["count"] == 6
    assert parsed["histograms"]["estimator_steps"]["counts"] == [1, 2, 1, 1, 1]


def test_snapshot_jsonl_is_canonical():
    registry = MetricsRegistry()
    registry.counter("b").inc(2.0)
    registry.counter("a").inc(1.0)
    lines = snapshot_to_jsonl(registry.snapshot()).splitlines()
    names = [json.loads(line)["name"] for line in lines]
    assert names == sorted(names)
    assert all(json.loads(line)["type"] == "counter" for line in lines)


# -- fleet health -------------------------------------------------------------


def test_health_monitor_emits_crossings_both_ways():
    tracer = Tracer(run_id="health", level=TraceLevel.DECISION)
    monitor = FleetHealthMonitor(
        window=2,
        thresholds=FleetSloThresholds(oscillation_rate=0.5),
        tracer=tracer,
    )
    quiet = dict(
        throttling_ms=np.zeros(4),
        budget_exhausted=np.zeros(4, dtype=bool),
        resize_failed=np.zeros(4, dtype=bool),
        safe_mode=np.zeros(4, dtype=bool),
    )
    monitor.observe(0, oscillating=np.zeros(4, dtype=bool), **quiet)
    monitor.observe(1, oscillating=np.ones(4, dtype=bool), **quiet)
    monitor.observe(2, oscillating=np.ones(4, dtype=bool), **quiet)
    monitor.observe(3, oscillating=np.zeros(4, dtype=bool), **quiet)
    monitor.observe(4, oscillating=np.zeros(4, dtype=bool), **quiet)
    directions = [
        (c["interval"], c["direction"])
        for c in monitor.crossings
        if c["metric"] == "oscillation_rate"
    ]
    assert directions == [(2, "above"), (3, "below")]
    events = tracer.events(kind=EventKind.FLEET_HEALTH)
    assert [e.fields["direction"] for e in events] == ["above", "below"]
    assert monitor.summary()["intervals"] == 5


def test_health_monitor_rejects_bad_window():
    with pytest.raises(ValueError):
        FleetHealthMonitor(window=0)


# -- store persistence and recorder semantics ---------------------------------


def test_store_save_load_round_trip(tmp_path):
    store = record_synthetic_fleet(6, 9, seed=11)
    path = tmp_path / "fleet.npz"
    store.save(path)
    loaded = FleetTraceStore.load(path)
    assert loaded.config == store.config
    assert loaded.actions == store.actions
    assert set(loaded.arrays) == set(store.arrays)
    for name, column in store.arrays.items():
        assert np.array_equal(column, loaded.arrays[name], equal_nan=True), name
    assert explain(loaded, 2, 8).jsonl == explain(store, 2, 8).jsonl


def test_recorder_copies_live_arrays():
    # decide_batch hands the recorder live references (tokens, spent,
    # balloon limits are mutated in place across intervals); the store
    # must hold each interval's values, not the final state.
    store = record_synthetic_fleet(4, 8, seed=5)
    spent = store.arrays["spent"]
    assert not np.array_equal(spent[0], spent[-1])


def test_attach_recorder_after_first_interval_raises():
    store_scaler = VectorizedAutoScaler(default_catalog(), 3)
    from repro.fleet.vectorized import synthesize_fleet_telemetry

    data = synthesize_fleet_telemetry(3, 2, seed=1)
    store_scaler.decide_batch(
        0.0, data.latency_ms[0], data.util_pct[0], data.wait_ms[0],
        data.wait_pct[0], data.memory_used_gb[0], data.disk_physical_reads[0],
    )
    with pytest.raises(ValueError, match="before the first decide_batch"):
        store_scaler.attach_recorder(FleetTraceRecorder())


def test_recorder_emits_one_aggregate_event_per_interval():
    tracer = Tracer(run_id="agg", level=TraceLevel.DECISION)
    record_synthetic_fleet(5, 7, seed=2, tracer=tracer)
    events = tracer.events(kind=EventKind.FLEET_INTERVAL)
    assert len(events) == 7
    assert [e.interval for e in events] == list(range(7))
    assert all(e.fields["tenants"] == 5 for e in events)
    # Aggregate-only payloads: no per-tenant vectors inside the event.
    assert all(
        not isinstance(v, list) or len(v) <= 11
        for e in events
        for v in e.fields.values()
    )


# -- stage timing spans -------------------------------------------------------


def test_stage_timing_histograms_with_injected_clock():
    ticks = iter(range(1000))

    def clock():
        return float(next(ticks))

    scaler = VectorizedAutoScaler(default_catalog(), 3, clock=clock)
    from repro.fleet.vectorized import synthesize_fleet_telemetry

    data = synthesize_fleet_telemetry(3, 4, seed=9)
    for i in range(4):
        scaler.decide_batch(
            float(i), data.latency_ms[i], data.util_pct[i], data.wait_ms[i],
            data.wait_pct[i], data.memory_used_gb[i],
            data.disk_physical_reads[i],
        )
    snapshot = scaler.metrics.snapshot()
    for stage in ("signals", "estimate_fleet", "actuation", "decide_batch"):
        hist = snapshot["histograms"][f"fleet.stage.{stage}"]
        assert hist["count"] == 4, stage
        assert hist["sum"] > 0.0, stage


def test_uninstrumented_scaler_reads_no_clock():
    scaler = VectorizedAutoScaler(default_catalog(), 2)
    from repro.fleet.vectorized import synthesize_fleet_telemetry

    data = synthesize_fleet_telemetry(2, 2, seed=4)
    scaler.decide_batch(
        0.0, data.latency_ms[0], data.util_pct[0], data.wait_ms[0],
        data.wait_pct[0], data.memory_used_gb[0], data.disk_physical_reads[0],
    )
    assert scaler.metrics.snapshot()["histograms"] == {}


# -- reports ------------------------------------------------------------------


def test_fleet_report_is_deterministic():
    first = fleet_report(record_synthetic_fleet(8, 12, seed=7))
    second = fleet_report(record_synthetic_fleet(8, 12, seed=7))
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
    assert first["fleet"]["n_tenants"] == 8
    assert sum(first["decisions"]["final_level_histogram"]) == 8


def test_live_recorder_agrees_with_fleet_report():
    """The report re-derives health and rule counts the recorder saw live."""
    tracer = Tracer(run_id="agree", level=TraceLevel.DECISION)
    health = FleetHealthMonitor()
    store = record_synthetic_fleet(12, 20, seed=7, tracer=tracer, health=health)
    report = fleet_report(store)
    assert health.summary()["intervals"] == 20
    assert json_safe(health.summary()) == report["health"]

    fired = Counter()
    for event in tracer.events(kind=EventKind.FLEET_INTERVAL):
        fired.update(event.fields["rules_fired"])
    assert fired and dict(fired) == report["decisions"]["rules_fired"]


def test_render_markdown_covers_sections():
    report = fleet_report(record_synthetic_fleet(4, 6, seed=3))
    text = render_markdown(report)
    for heading in ("# Fleet report", "## Decisions", "## Budget", "## Health"):
        assert heading in text


# -- CLI ----------------------------------------------------------------------


def test_cli_fleet_report_and_explain(tmp_path, capsys):
    from repro.cli import main

    store_path = tmp_path / "fleet.npz"
    report_path = tmp_path / "report.json"
    assert main([
        "fleet", "report", "--tenants", "6", "--intervals", "8",
        "--save-store", str(store_path), "--out", str(report_path),
    ]) == 0
    report = json.loads(report_path.read_text())
    assert report["fleet"]["n_tenants"] == 6

    capsys.readouterr()
    assert main([
        "trace", "explain", "--store", str(store_path),
        "--tenant", "2", "--interval", "5",
    ]) == 0
    out = capsys.readouterr().out
    store = FleetTraceStore.load(store_path)
    assert out == explain(store, 2, 5).jsonl

    assert main([
        "trace", "explain", "--store", str(tmp_path / "nope.npz"),
        "--tenant", "0", "--interval", "0",
    ]) == 2
    assert main([
        "trace", "explain", "--store", str(store_path),
        "--tenant", "99", "--interval", "0",
    ]) == 2


def test_cli_trace_summary_reports_ring_drops(tmp_path, capsys):
    from repro.cli import main

    tracer = Tracer(run_id="tiny", capacity=4)
    for i in range(10):
        tracer.set_interval(i)
        tracer.emit("scaler", EventKind.DECISION, container=f"C{i}")
    path = tmp_path / "tiny.jsonl"
    tracer.write(str(path))
    assert main(["trace", "summary", str(path), "--json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["dropped"] == 6
    assert summary["events"] == 4

    assert main(["trace", "summary", str(path)]) == 0
    assert "6 events were dropped" in capsys.readouterr().out


# -- chaos / population metrics hooks -----------------------------------------


def test_chaos_sweep_metrics_hook():
    metrics = MetricsRegistry()
    result = chaos_sweep(
        n_tenants=3, base_seed=100, n_intervals=8, n_faults=3,
        interval_ticks=6, warmup_intervals=3, metrics=metrics,
    )
    snapshot = metrics.snapshot()
    assert snapshot["counters"]["chaos.tenants"] == 3
    assert snapshot["gauges"]["chaos.total_refunded"] == pytest.approx(
        result.total_refunded
    )


def test_population_metrics_hook():
    metrics = MetricsRegistry()
    population = synthesize_population(50, seed=42, metrics=metrics)
    counters = metrics.snapshot()["counters"]
    pattern_counts = {
        name: value
        for name, value in counters.items()
        if name.startswith("population.pattern.")
    }
    assert sum(pattern_counts.values()) == 50
    for profile in population:
        assert f"population.pattern.{profile.pattern.value}" in pattern_counts
