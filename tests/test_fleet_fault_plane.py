"""The synthetic degraded fleet's fault plane against the scalar oracle.

:class:`~repro.fleet.degraded.DegradedSyntheticFleet` plans its
deliveries and actuates through the same
:class:`~repro.fleet.degraded.FaultPlane` that
:class:`~repro.fleet.degraded.MaskedFaultDataPlane` runs over engines.
Driven on one tenant, it must match a
:class:`~repro.faults.chaos.FaultyServer`:

* deliveries: the interval index each wave delivers, the injection
  tallies, and the guard's verdict tallies against a scalar
  :class:`~repro.core.telemetry_guard.TelemetryGuard` fed the same
  deliveries.  Corruption is left out: the synthetic fleet has no
  counters to corrupt and only flags the delivery anomalous;
* actuation: the failed-resize, partial-resize and failed-balloon
  tallies, call for call.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.latency import LatencyGoal
from repro.core.telemetry_guard import TelemetryGuard
from repro.engine.containers import default_catalog
from repro.engine.server import DatabaseServer, EngineConfig
from repro.faults.chaos import FaultyServer
from repro.faults.schedule import (
    ACTUATION_KINDS,
    TELEMETRY_KINDS,
    FaultEvent,
    FaultKind,
    FaultSchedule,
)
from repro.faults.vectorized import compile_schedules
from repro.fleet.degraded import DegradedSyntheticFleet, DegradedVectorizedAutoScaler
from repro.fleet.vectorized import synthesize_fleet_telemetry
from repro.workloads import cpuio_workload

from .test_faults_vectorized import _schedule_for

CATALOG = default_catalog()
N_INTERVALS = 10
TICKS = 6
RATES = np.full(TICKS, 40.0)
DELIVERY_KINDS = tuple(
    k for k in TELEMETRY_KINDS if k is not FaultKind.TELEMETRY_CORRUPT
)
TELEMETRY_TALLIES = ("dropped", "delayed", "duplicated", "corrupted", "skewed")
ACTUATION_TALLIES = ("failed_resizes", "partial_resizes", "failed_balloons")


def _faulty_server(schedule: FaultSchedule, seed: int = 13) -> FaultyServer:
    workload = cpuio_workload()
    server = DatabaseServer(
        specs=workload.specs,
        dataset=workload.dataset,
        container=CATALOG.at_level(0),
        config=EngineConfig(interval_ticks=TICKS, seed=seed),
        n_hot_locks=workload.n_hot_locks,
    )
    return FaultyServer(server, schedule, CATALOG, seed=seed + 2)


def _synthetic_fleet(schedule: FaultSchedule) -> DegradedSyntheticFleet:
    scaler = DegradedVectorizedAutoScaler(CATALOG, 1, goal=LatencyGoal(100.0))
    return DegradedSyntheticFleet(
        scaler,
        synthesize_fleet_telemetry(1, N_INTERVALS, seed=3),
        compile_schedules([schedule], N_INTERVALS),
    )


def _scalar_deliveries(schedule: FaultSchedule):
    """Per-interval delivered indexes, injection and guard tallies."""
    server = _faulty_server(schedule)
    guard = TelemetryGuard()
    waves = []
    for _ in range(N_INTERVALS):
        deliveries = server.run_interval_with_rates(RATES)
        if not deliveries:
            guard.note_missing_interval()
        for counters in deliveries:
            guard.inspect(counters)
        waves.append([c.interval_index for c in deliveries])
    stats = guard.stats
    return (
        waves,
        [getattr(server, name) for name in TELEMETRY_TALLIES],
        [stats.admitted, stats.admitted_late, stats.quarantined,
         stats.discarded, stats.missed],
    )


def _synthetic_deliveries(schedule: FaultSchedule):
    """The same three records from a one-tenant synthetic fleet."""
    fleet = _synthetic_fleet(schedule)
    scaler = fleet.scaler
    decide_wave = scaler.decide_wave
    waves: list[list[int]] = []

    def recording_decide_wave(**wave):
        if wave["present"][0]:
            waves[-1].append(int(wave["index"][0]))
        return decide_wave(**wave)

    scaler.decide_wave = recording_decide_wave
    for _ in range(N_INTERVALS):
        waves.append([])
        fleet.step()
    return (
        waves,
        [int(getattr(fleet.actuator, name)[0]) for name in TELEMETRY_TALLIES],
        [int(tally[0]) for tally in (
            scaler.g_admitted, scaler.g_admitted_late, scaler.g_quarantined,
            scaler.g_discarded, scaler.g_missed,
        )],
    )


@pytest.mark.parametrize(
    "kind", DELIVERY_KINDS, ids=[k.value for k in DELIVERY_KINDS]
)
def test_waves_and_guard_match_faulty_server_per_kind(kind):
    schedule = _schedule_for(kind)
    want = _scalar_deliveries(schedule)
    assert _synthetic_deliveries(schedule) == want
    # The fault fired.
    assert want != _scalar_deliveries(FaultSchedule.empty())


def test_fresh_interval_after_a_late_one_is_admitted():
    # Interval 2's delivery is held; interval 3 delivers it, then its own.
    schedule = FaultSchedule([FaultEvent(FaultKind.TELEMETRY_LATE, interval=2)])
    waves, _, guard = _synthetic_deliveries(schedule)
    assert waves[2:4] == [[], [2, 3]]
    admitted, admitted_late, quarantined, discarded, missed = guard
    assert (admitted_late, discarded, missed) == (1, 0, 1)


@settings(
    max_examples=20,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(min_value=0, max_value=2**20))
def test_waves_and_guard_match_faulty_server_randomized(seed):
    schedule = FaultSchedule.random(
        seed=seed, n_intervals=N_INTERVALS, n_faults=5, kinds=DELIVERY_KINDS
    )
    assert _synthetic_deliveries(schedule) == _scalar_deliveries(schedule)


def _outcome(call) -> str | None:
    try:
        call()
    except Exception as exc:  # noqa: BLE001 - compared across the two sides
        return f"{type(exc).__name__}: {exc}"
    return None


@pytest.mark.parametrize(
    "kind", ACTUATION_KINDS, ids=[k.value for k in ACTUATION_KINDS]
)
def test_actuation_tallies_match_faulty_server_call_for_call(kind):
    schedule = _schedule_for(kind)
    scalar = _faulty_server(schedule)
    plane = _synthetic_fleet(schedule).actuator
    alive, held = np.ones(1, dtype=bool), np.zeros(1, dtype=bool)

    def assert_same(label):
        assert [getattr(scalar, name) for name in ACTUATION_TALLIES] == [
            int(getattr(plane, name)[0]) for name in ACTUATION_TALLIES
        ], label
        assert scalar.container.level == plane.current_level(0), label
        cap = plane.balloon_limit_gb[0]
        assert scalar.balloon_limit_gb == (None if np.isnan(cap) else cap), label

    for i in range(N_INTERVALS):
        scalar.run_interval_with_rates(RATES)
        plane.begin_interval(alive, held)
        # Alternate up / down two-level resizes and a balloon poke.
        target = 4 if i % 2 == 0 else 2
        assert _outcome(
            lambda: scalar.set_container(CATALOG.at_level(target))
        ) == _outcome(lambda: plane.try_resize(0, target)), f"interval {i}"
        assert_same(f"resize, interval {i}")
        assert _outcome(lambda: scalar.set_balloon_limit(1.5)) == _outcome(
            lambda: plane.set_balloon_limit(0, 1.5)
        ), f"interval {i}"
        assert_same(f"balloon, interval {i}")
        scalar.set_balloon_limit(None)
        plane.set_balloon_limit(0, None)
    # The fault under test fired.
    assert sum(getattr(scalar, name) for name in ACTUATION_TALLIES) > 0
