"""The degraded fleet's fault plane against the scalar oracle.

:class:`~repro.fleet.degraded.DegradedSyntheticFleet` plans its
deliveries and actuates through the same
:class:`~repro.fleet.degraded.FaultPlane` that
:class:`~repro.fleet.degraded.MaskedFaultDataPlane` runs over engines.
Row by row, it must match a :class:`~repro.faults.chaos.FaultyServer`:

* deliveries: the interval index each wave delivers, the injection
  tallies, and the guard's verdict tallies against a scalar
  :class:`~repro.core.telemetry_guard.TelemetryGuard` fed the same
  deliveries.  Corruption is left out: the synthetic fleet has no
  counters to corrupt and only flags the delivery anomalous;
* actuation, on the synthetic plane and on
  :class:`~repro.fleet.degraded.MaskedFaultDataPlane` alike: each
  :meth:`~repro.fleet.degraded.FaultPlane.try_resizes` outcome and
  balloon cap, the failed-resize, partial-resize and failed-balloon
  tallies and the applied levels (and the engines' own containers),
  call for call, for one row per fault kind and for many rows that meet
  different faults in one call.
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
from repro.errors import PermanentActuationError, TransientActuationError
from repro.faults.chaos import FaultyServer
from repro.faults.schedule import (
    ACTUATION_KINDS,
    TELEMETRY_KINDS,
    FaultEvent,
    FaultKind,
    FaultSchedule,
)
from repro.faults.vectorized import compile_schedules
from repro.fleet.degraded import (
    _RESIZE_ERRORS,
    RESIZE_OUTCOMES,
    DegradedSyntheticFleet,
    DegradedVectorizedAutoScaler,
    FaultPlane,
    MaskedFaultDataPlane,
)
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
PLANES = ("synthetic", "engines")


def _server(level: int = 0, seed: int = 13) -> DatabaseServer:
    workload = cpuio_workload()
    return DatabaseServer(
        specs=workload.specs,
        dataset=workload.dataset,
        container=CATALOG.at_level(level),
        config=EngineConfig(interval_ticks=TICKS, seed=seed),
        n_hot_locks=workload.n_hot_locks,
    )


def _faulty_server(
    schedule: FaultSchedule, level: int = 0, seed: int = 13
) -> FaultyServer:
    return FaultyServer(_server(level, seed), schedule, CATALOG, seed=seed + 2)


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
    admit_wave = scaler._admit_wave
    waves: list[list[int]] = []

    def recording_admit_wave(**wave):
        if wave["present"][0]:
            waves[-1].append(int(wave["index"][0]))
        return admit_wave(**wave)

    scaler._admit_wave = recording_admit_wave
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


def _planes(kind: str, schedules, level: int):
    """The plane under test over ``schedules`` and one ``FaultyServer`` each.

    Every row starts at ``level``.  ``advance()`` starts the next
    interval on both sides.
    """
    n = len(schedules)
    masks = compile_schedules(schedules, N_INTERVALS)
    scalars = [_faulty_server(s, level) for s in schedules]
    active = np.ones(n, dtype=bool)
    if kind == "engines":
        plane = MaskedFaultDataPlane(
            [_server(level) for _ in range(n)], masks, CATALOG, [15] * n
        )

        def start_plane():
            plane.run_interval_rows([RATES] * n, active)
    else:
        plane = FaultPlane(masks, CATALOG, level)

        def start_plane():
            plane.begin_interval(active, np.zeros(n, dtype=bool))

    def advance():
        for scalar in scalars:
            scalar.run_interval_with_rates(RATES)
        start_plane()

    return plane, scalars, advance


def _scalar_resize(scalar: FaultyServer, level: int) -> tuple[str, str | None]:
    """One ``set_container`` call as a ``RESIZE_OUTCOMES`` name and error."""
    partial = scalar.partial_resizes
    try:
        scalar.set_container(CATALOG.at_level(level))
    except (PermanentActuationError, TransientActuationError) as exc:
        kind = "permanent" if isinstance(exc, PermanentActuationError) else "transient"
        return kind, f"{type(exc).__name__}: {exc}"
    return ("partial" if scalar.partial_resizes > partial else "applied"), None


def _assert_rows_match(plane, scalars, label):
    for r, scalar in enumerate(scalars):
        assert [getattr(scalar, name) for name in ACTUATION_TALLIES] == [
            int(getattr(plane, name)[r]) for name in ACTUATION_TALLIES
        ], f"{label}, row {r}: tallies"
        assert scalar.container.level == plane.level[r], f"{label}, row {r}"
        cap = plane.balloon_limit_gb[r]
        assert scalar.balloon_limit_gb == (None if np.isnan(cap) else cap), (
            f"{label}, row {r}: balloon cap"
        )
        if isinstance(plane, MaskedFaultDataPlane):
            server = plane.servers[r]
            assert server.container.level == plane.level[r], (
                f"{label}, row {r}: server container"
            )
            assert server.balloon_limit_gb == scalar.balloon_limit_gb, (
                f"{label}, row {r}: server balloon cap"
            )


@pytest.mark.parametrize("plane_kind", PLANES)
@pytest.mark.parametrize(
    "kind", ACTUATION_KINDS, ids=[k.value for k in ACTUATION_KINDS]
)
def test_actuation_round_trip(plane_kind, kind):
    """One row per fault kind, call for call, as the executor calls.

    Each interval retries an alternating up / down two-level resize
    while it is rejected transiently, up to three attempts, then pokes
    and clears a balloon cap.  The transient budget refills every
    interval: magnitude 2 fails two attempts in each of intervals 1
    and 2.
    """
    plane, (scalar,), advance = _planes(plane_kind, [_schedule_for(kind)], 2)
    rows = np.array([0])
    sequences = []
    for i in range(N_INTERVALS):
        advance()
        target = 4 if i % 2 == 0 else 2
        sequence = []
        for _ in range(3):
            want, error = _scalar_resize(scalar, target)
            (code,) = plane.try_resizes(rows, np.array([target]))
            assert RESIZE_OUTCOMES[code] == want, f"interval {i}"
            if error is not None:
                name = CATALOG.at_level(target).name
                assert _RESIZE_ERRORS[code].format(name) == error, f"interval {i}"
            _assert_rows_match(plane, [scalar], f"resize, interval {i}")
            sequence.append(want)
            if want != "transient":
                break
        sequences.append(sequence)
        for limit in (1.5, None):
            try:
                scalar.set_balloon_limit(limit)
                scalar_failed = False
            except TransientActuationError:
                scalar_failed = True
            (failed,) = plane.set_balloon_limits(
                np.array([np.nan if limit is None else limit]), np.ones(1, bool)
            )
            assert failed == scalar_failed, f"interval {i}"
            _assert_rows_match(plane, [scalar], f"balloon, interval {i}")
    # The fault under test fired.
    assert sum(getattr(scalar, name) for name in ACTUATION_TALLIES) > 0
    if kind is FaultKind.RESIZE_TRANSIENT:
        assert sequences[1] == sequences[2] == ["transient", "transient", "applied"]
        assert sequences[5] == ["transient", "applied"]


def _mixed_rows():
    """One row per fault a resize can meet in one interval, and its target.

    Every row starts at level 2.  Over the three calls below the budget
    of 1 is spent by the first, and the budget of 3 outlasts them all.
    """

    def only(kind, magnitude=1.0):
        return FaultSchedule([FaultEvent(kind, interval=0, magnitude=magnitude)])

    transient = FaultKind.RESIZE_TRANSIENT
    partial = FaultKind.RESIZE_PARTIAL
    return [
        ("permanent", only(FaultKind.RESIZE_PERMANENT), 4),
        ("transient-1", only(transient, 1), 4),
        ("transient-3", only(transient, 3), 0),
        ("partial-up", only(partial), 5),
        ("partial-down", only(partial), 0),
        ("partial-one-level", only(partial), 3),
        ("clean", FaultSchedule.empty(), 1),
        ("untouched", only(FaultKind.RESIZE_PERMANENT), 2),
    ]


@pytest.mark.parametrize("plane_kind", PLANES)
def test_try_resizes_over_rows_with_different_faults(plane_kind):
    """One call resizes rows that meet different faults in one interval.

    Outcome, tallies and level equal per-row ``FaultyServer.set_container``
    on every call, with the rows passed out of order; a row left out of
    the call is left alone.
    """
    cases = _mixed_rows()
    plane, scalars, advance = _planes(plane_kind, [s for _, s, _ in cases], 2)
    advance()
    order = np.array([5, 0, 3, 1, 6, 4, 2])  # every row but "untouched"
    targets = np.array([level for _, _, level in cases])[order]
    outcomes = []
    for call in range(3):
        codes = plane.try_resizes(order, targets)
        want = [_scalar_resize(scalars[r], int(t))[0] for r, t in zip(order, targets)]
        assert [RESIZE_OUTCOMES[c] for c in codes] == want, f"call {call}"
        _assert_rows_match(plane, scalars, f"call {call}")
        outcomes.append(dict(zip((cases[r][0] for r in order), want)))
    first, second = outcomes[0], outcomes[1]
    assert first == {
        "permanent": "permanent",
        "transient-1": "transient",
        "transient-3": "transient",
        "partial-up": "partial",
        "partial-down": "partial",
        "partial-one-level": "partial",
        "clean": "applied",
    }
    assert (second["transient-1"], second["transient-3"]) == ("applied", "transient")
    # Partial stalls land one level short; a one-level stall does not move.
    assert [int(plane.level[r]) for r in (3, 4, 5, 7)] == [4, 1, 2, 2]
