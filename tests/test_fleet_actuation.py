"""Every branch of the degraded fleet's resize executor, hit on purpose.

:meth:`~repro.fleet.degraded.DegradedVectorizedAutoScaler.execute_interval`
takes each attempt number as one pass over the rows still retrying, and
runs refunds, level adoption, tallies and breaker steps as array ops.  A
hand-built trace and schedule drive each branch, and
:func:`~repro.fleet.degraded.run_fleet_chaos` must match
:func:`~repro.harness.chaos.run_chaos` byte for byte, the backoff-jitter
streams included:

* transient rejections that outlast every attempt, at one and at three
  attempts (the last attempt waits no backoff and draws no jitter);
* a permanent rejection;
* a one-level partial stall, which leaves the level where it was;
* a failed half-open trial, which opens the breaker again.

A resize failure and a balloon failure in the same interval must step
the breaker twice, resize first.  No single decision both resizes and
keeps a balloon cap (a resize cancels the probe), but one interval can
decide twice: when two intervals in a row are late, the next one admits
the held delivery as fresh and then its own.  The first decision can
shrink the container and the second start a probe, so the chaos drivers
reach that interval too; it is also driven on one row against a scalar
:class:`~repro.core.resize_executor.ResizeExecutor`, from each circuit
state.

The degraded engine admits every delivery wave of an interval and then
decides once; a row that owes a decision when its next delivery would
act takes it first.  The two-decision interval pins that order, and one
signal read per interval (one more when a row goes first) pins the
single pass.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.autoscaler import AutoScaler
from repro.core.latency import PerformanceSensitivity
from repro.core.resize_executor import CircuitState, ResizeExecutor
from repro.engine.containers import default_catalog
from repro.engine.server import DatabaseServer, EngineConfig
from repro.faults.chaos import FaultyServer
from repro.faults.schedule import FaultEvent, FaultKind, FaultSchedule
from repro.faults.vectorized import compile_schedules
from repro.fleet.degraded import (
    CIRCUIT_CODES,
    DegradedVectorizedAutoScaler,
    FaultPlane,
    MaskedFaultDataPlane,
    run_fleet_chaos,
)
from repro.fleet.vectorized import VectorizedTelemetry
from repro.harness.chaos import run_chaos
from repro.workloads.traces import Trace

from .test_fleet_degraded_parity import (
    TICKS,
    WARM,
    WORKLOAD,
    _assert_tenant_parity,
    _config,
)

CATALOG = default_catalog()


# -- every executor branch, through the chaos drivers -------------------------


def _trace(rates) -> Trace:
    return Trace(
        name="hand-built",
        rates=np.array(rates, dtype=float),
        description="a burst, then a long idle tail",
    )


#: With no goal demand alone scales: the burst scales up two levels an
#: interval over the first measured intervals, and the idle tail scales
#: down one level at a time.
BURST = _trace([150.0] * 8 + [5.0] * 20)


def _memory(server):
    """A server's container, balloon cap and cache contents, to the bit."""
    pool = server.bufferpool
    return (
        server.container.level,
        server.balloon_limit_gb,
        pool.cached_hot_gb,
        pool.cached_cold_gb,
    )


def _run_fleet_and_twins(
    trace, schedule, executor_kwargs, base_seed=7, n=2, scaler_kwargs=None
):
    """``n`` tenants on ``trace`` / ``schedule`` (seeds ``base_seed + t``).

    Asserts the fleet against each scalar twin byte for byte, its
    backoff-jitter stream and its server's memory included, and returns
    the scalar results.
    """
    seeds = [base_seed + t for t in range(n)]
    fleet = run_fleet_chaos(
        WORKLOAD,
        [trace] * n,
        [schedule] * n,
        config=_config(base_seed),
        seeds=seeds,
        goal=None,
        scaler_kwargs=scaler_kwargs,
        executor_kwargs=executor_kwargs,
    )
    results = []
    for t, seed in enumerate(seeds):
        res = run_chaos(
            WORKLOAD,
            trace,
            schedule,
            config=_config(seed),
            goal=None,
            scaler_kwargs=scaler_kwargs,
            executor_kwargs=executor_kwargs,
        )
        _assert_tenant_parity(fleet, t, res)
        assert (
            fleet.scaler._x_rngs[t].bit_generator.state
            == res.executor._rng.bit_generator.state
        ), f"tenant {t}: backoff jitter stream diverged"
        assert _memory(fleet.plane.servers[t]) == _memory(res.server.server), (
            f"tenant {t}: server memory diverged"
        )
        results.append(res)
    return results


def _failed_reports(results, needle):
    return [
        r
        for res in results
        for r in res.reports
        if any(needle in e.reason for e in r.explanations)
    ]


@pytest.mark.parametrize("max_attempts", [1, 3])
def test_transient_rejections_outlasting_every_attempt(max_attempts):
    # Magnitude 3 rejects every attempt at either setting; the last
    # attempt waits no backoff and draws no jitter.  Interval 3's
    # magnitude 1 fails once and then applies when retries are allowed.
    schedule = FaultSchedule(
        [
            FaultEvent(FaultKind.RESIZE_TRANSIENT, interval=0, duration=2, magnitude=3),
            FaultEvent(FaultKind.RESIZE_TRANSIENT, interval=3, magnitude=1),
        ]
    )
    results = _run_fleet_and_twins(
        BURST, schedule, dict(max_attempts=max_attempts, failure_threshold=5)
    )
    exhausted = _failed_reports(results, "TransientActuationError")
    assert exhausted and all(r.attempts == max_attempts for r in exhausted)
    assert any(r.backoff_ms > 0.0 for r in exhausted) == (max_attempts > 1)


def test_permanent_rejection_takes_one_attempt():
    schedule = FaultSchedule(
        [FaultEvent(FaultKind.RESIZE_PERMANENT, interval=1, duration=2)]
    )
    results = _run_fleet_and_twins(BURST, schedule, None)
    rejected = _failed_reports(results, "PermanentActuationError")
    assert rejected and all(
        r.attempts == 1 and r.backoff_ms == 0.0 for r in rejected
    )


def test_one_level_partial_stall_keeps_the_level():
    schedule = FaultSchedule(
        [FaultEvent(FaultKind.RESIZE_PARTIAL, interval=10, duration=8)]
    )
    results = _run_fleet_and_twins(BURST, schedule, None)
    assert any(
        abs(r.requested.level - r.applied.level) == 1
        and r.applied.name == res.containers[i]
        and "applied partially" in r.explanations[0].reason
        for res in results
        for i, r in enumerate(res.reports)
    )


def test_failed_half_open_trial_reopens_the_breaker():
    schedule = FaultSchedule(
        [FaultEvent(FaultKind.RESIZE_PERMANENT, interval=0, duration=20)]
    )
    results = _run_fleet_and_twins(
        BURST, schedule, dict(failure_threshold=1, open_intervals=1)
    )
    reopened = _failed_reports(results, "trial resize failed while half-open")
    assert reopened and all(r.circuit is CircuitState.OPEN for r in reopened)


# -- a resize and a balloon failure in one interval ---------------------------


def _one_row_planes(plane_kind: str, schedule: FaultSchedule):
    """A one-row plane at level 2 and its ``FaultyServer`` twin, one
    interval in."""
    rates = np.full(TICKS, 40.0)

    def server():
        return DatabaseServer(
            specs=WORKLOAD.specs,
            dataset=WORKLOAD.dataset,
            container=CATALOG.at_level(2),
            config=EngineConfig(interval_ticks=TICKS, seed=13),
            n_hot_locks=WORKLOAD.n_hot_locks,
        )

    masks = compile_schedules([schedule], 2)
    one = np.ones(1, dtype=bool)
    if plane_kind == "engines":
        plane = MaskedFaultDataPlane([server()], masks, CATALOG, [15])
        plane.run_interval_rows([rates], one)
    else:
        plane = FaultPlane(masks, CATALOG, 2)
        plane.begin_interval(one, ~one)
    scalar = FaultyServer(server(), schedule, CATALOG, seed=15)
    scalar.run_interval_with_rates(rates)
    return plane, scalar


@pytest.mark.parametrize("plane_kind", ["synthetic", "engines"])
@pytest.mark.parametrize(
    "fault",
    [FaultKind.RESIZE_PERMANENT, FaultKind.RESIZE_TRANSIENT, FaultKind.RESIZE_PARTIAL],
    ids=lambda k: k.value,
)
@pytest.mark.parametrize(
    "circuit,threshold", [("closed", 1), ("closed", 2), ("half-open", 3)]
)
def test_resize_and_balloon_failures_step_the_breaker_in_order(
    plane_kind, fault, circuit, threshold
):
    """Two ACTUATION_FAILED notes, then two breaker steps, resize first.

    From a closed breaker with threshold 1 each failure opens it, so it
    opens twice; with threshold 2 only the balloon's step opens it; a
    half-open breaker re-opens on the failed trial resize and the
    balloon's step only extends the streak.
    """
    schedule = FaultSchedule(
        [
            FaultEvent(fault, interval=0, magnitude=3),
            FaultEvent(FaultKind.BALLOON_FAIL, interval=0),
        ]
    )
    executor_kwargs = dict(max_attempts=3, failure_threshold=threshold)
    plane, server = _one_row_planes(plane_kind, schedule)
    scalar_scaler = AutoScaler(CATALOG, initial_container=CATALOG.at_level(4))
    executor = ResizeExecutor(scalar_scaler, server, seed=5, **executor_kwargs)
    fleet = DegradedVectorizedAutoScaler(
        CATALOG, 1, executor_seeds=5, **executor_kwargs
    )
    fleet.level[0] = 4
    fleet.balloon_limit_gb[0] = 1.5
    if circuit == "half-open":
        executor._state = CircuitState.HALF_OPEN
        fleet._x_state[0] = CIRCUIT_CODES.index("half-open")

    want = executor.execute(
        SimpleNamespace(container=CATALOG.at_level(4), balloon_limit_gb=1.5)
    )
    got = fleet.execute_interval(plane)

    assert [e.action.value for e in want.explanations].count("actuation-failed") == 2
    assert got.explanations[0] == tuple(
        (e.action.value, e.reason) for e in want.explanations
    )
    assert (
        int(got.attempts[0]),
        float(got.backoff_ms[0]),
        int(got.applied_level[0]),
        CIRCUIT_CODES[got.circuit[0]],
    ) == (want.attempts, want.backoff_ms, want.applied.level, want.circuit.value)
    assert (
        int(fleet._x_consec[0]),
        int(fleet.x_total_failures[0]),
        int(fleet.x_circuit_opens[0]),
        bool(fleet.safe_mode[0]),
        fleet._safe_reason[0],
    ) == (
        executor.consecutive_failures,
        executor.total_failures,
        executor.circuit_opens,
        scalar_scaler._safe_mode,
        scalar_scaler._safe_mode_reason,
    )
    assert executor.consecutive_failures == 2
    assert executor.circuit_opens == (2 if threshold == 1 else 1)


@pytest.mark.parametrize(
    "fault", [FaultKind.RESIZE_PERMANENT, FaultKind.RESIZE_TRANSIENT],
    ids=lambda k: k.value,
)
def test_resize_and_balloon_failures_in_one_interval_through_the_drivers(fault):
    # LOW sensitivity scales down after one idle interval.  Intervals 21
    # and 22 are late, so interval 23 decides 22's counters, which shrink
    # C3 to C2, and then its own, which start a probe below C2: the
    # actuated decision both resizes and caps the balloon, and both fail.
    schedule = FaultSchedule(
        [
            FaultEvent(FaultKind.TELEMETRY_LATE, interval=21, duration=2),
            FaultEvent(fault, interval=23, magnitude=3),
            FaultEvent(FaultKind.BALLOON_FAIL, interval=23),
        ]
    )
    results = _run_fleet_and_twins(
        BURST,
        schedule,
        dict(failure_threshold=1),
        scaler_kwargs=dict(sensitivity=PerformanceSensitivity.LOW),
    )
    notes = [
        [e.action.value for e in res.reports[23].explanations] for res in results
    ]
    assert ["actuation-failed", "safe-mode", "actuation-failed", "safe-mode"] in notes


def test_a_resized_row_reapplies_its_unchanged_balloon_cap():
    """The balloon hook skips unchanged caps, but not on a resized row.

    A prewarmed C3 cache shrunk to C1 is evicted by the resize and once
    more, in its last bit, by the cap call the scalar executor always
    makes after it; on an unmoved row the same call changes nothing.
    """

    def server():
        built = DatabaseServer(
            specs=WORKLOAD.specs,
            dataset=WORKLOAD.dataset,
            container=CATALOG.at_level(3),
            config=EngineConfig(interval_ticks=TICKS, seed=13),
            n_hot_locks=WORKLOAD.n_hot_locks,
        )
        built.prewarm()
        return built

    schedule = FaultSchedule.empty()
    plane = MaskedFaultDataPlane(
        [server()], compile_schedules([schedule], 4), CATALOG, [15]
    )
    scalar = FaultyServer(server(), schedule, CATALOG, seed=15)
    executor = ResizeExecutor(
        AutoScaler(CATALOG, initial_container=CATALOG.at_level(3)), scalar, seed=5
    )
    fleet = DegradedVectorizedAutoScaler(CATALOG, 1, executor_seeds=5)
    hooked = []
    apply_balloons = plane._apply_balloons

    def recording_apply_balloons(rows):
        hooked.append(rows.tolist())
        apply_balloons(rows)

    plane._apply_balloons = recording_apply_balloons
    one = np.ones(1, dtype=bool)
    for cap in (None, None, 1.5, 1.5):
        plane.begin_interval(one, ~one)
        fleet.level[0] = 1
        fleet.balloon_limit_gb[0] = np.nan if cap is None else cap
        executor.execute(
            SimpleNamespace(container=CATALOG.at_level(1), balloon_limit_gb=cap)
        )
        fleet.execute_interval(plane)
        assert _memory(plane.servers[0]) == _memory(scalar.server), cap
    assert hooked == [[0], [], [0], []]


# -- one decision pass per interval -------------------------------------------


#: The burst's first twelve intervals.
SHORT_BURST = _trace(BURST.rates[:12])


def test_back_to_back_late_intervals_decide_twice_in_one_interval():
    # Interval 3 delivers nothing and interval 4 only 3's late counters;
    # interval 5 delivers 4's held counters, admitted as fresh (nothing
    # marked 4 missing), and then its own: two full decisions.
    schedule = FaultSchedule(
        [FaultEvent(FaultKind.TELEMETRY_LATE, interval=3, duration=2)]
    )
    results = _run_fleet_and_twins(SHORT_BURST, schedule, None)
    assert [len(res.interval_decisions) for res in results] == [12, 12]
    assert [len(res.decisions) for res in results] == [13, 13]


def test_one_signal_read_per_interval_plus_one_when_a_row_goes_first(
    monkeypatch,
):
    """Waves are admitted first and decided in one pass.

    Duplicates add a passive wave and a single late interval adds a
    held wave; neither makes a row decide early.  Back-to-back late
    intervals do, once: that interval reads signals twice.
    """
    reads = []
    signals_rows = VectorizedTelemetry.signals_rows

    def counting_signals_rows(self, rows):
        reads[-1] += 1
        return signals_rows(self, rows)

    execute_interval = DegradedVectorizedAutoScaler.execute_interval
    in_order = []

    def closing_execute_interval(self, plane):
        in_order.append(self.metrics.counter("fleet.decide.in_order").value)
        reads.append(0)
        return execute_interval(self, plane)

    monkeypatch.setattr(VectorizedTelemetry, "signals_rows", counting_signals_rows)
    monkeypatch.setattr(
        DegradedVectorizedAutoScaler, "execute_interval", closing_execute_interval
    )
    late, duplicate = FaultKind.TELEMETRY_LATE, FaultKind.TELEMETRY_DUPLICATE
    schedules = [
        FaultSchedule([FaultEvent(late, interval=3, duration=2)]),
        FaultSchedule([FaultEvent(duplicate, interval=2, duration=6)]),
        FaultSchedule([FaultEvent(late, interval=7)]),
        FaultSchedule.empty(),
    ]
    reads.append(0)
    fleet = run_fleet_chaos(
        WORKLOAD,
        [SHORT_BURST] * 4,
        schedules,
        config=_config(7),
        seeds=[7, 8, 9, 10],
        goal=None,
    )
    reads.pop()  # opened by the last execute_interval
    went_first = np.diff(in_order, prepend=0.0)
    assert reads == [1 + int(n > 0) for n in went_first]
    assert went_first.tolist() == [0.0] * (WARM + 5) + [1.0] + [0.0] * 6
    waves = [len(w) for w in fleet.waves]
    assert max(waves[i] for i in range(12) if i != 5) >= 2
