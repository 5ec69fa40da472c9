"""Unit tests for the compiled fault-mask layer (:mod:`repro.faults.vectorized`).

Two contracts:

* :func:`compile_schedules` is a faithful translation of
  ``FaultSchedule.active`` — every ``(kind, interval)`` cell, including
  first-covering-event overlap resolution, magnitudes, clipping, and the
  controller-kind exclusions;
* the masks, applied by :class:`~repro.fleet.degraded.MaskedFaultDataPlane`,
  inject exactly what the scalar :class:`~repro.faults.chaos.FaultyServer`
  injects — per kind, for a single tenant, delivery by delivery, and the
  transient resize budget refills every interval.  The actuation kinds
  are checked call by call in ``tests/test_fleet_fault_plane.py``, on
  both planes.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.engine.containers import default_catalog
from repro.engine.resources import ResourceKind
from repro.engine.server import DatabaseServer, EngineConfig
from repro.engine.waits import WaitClass
from repro.errors import ConfigurationError, TransientActuationError
from repro.faults.chaos import FaultyServer
from repro.faults.schedule import (
    ACTUATION_KINDS,
    CONTROLLER_KINDS,
    TELEMETRY_KINDS,
    FaultEvent,
    FaultKind,
    FaultSchedule,
)
from repro.faults.vectorized import (
    N_CORRUPTION_MODES,
    compile_schedules,
    corrupt_counters,
)
from repro.fleet.degraded import RESIZE_OUTCOMES, MaskedFaultDataPlane
from repro.workloads import cpuio_workload

from tests.helpers import make_interval_counters

CATALOG = default_catalog()
DATA_PLANE_KINDS = TELEMETRY_KINDS + ACTUATION_KINDS


def _mask_cell(masks, kind, tenant, interval):
    """The compiled equivalent of ``schedule.active(kind, interval)``."""
    rows = {
        FaultKind.TELEMETRY_DROP: masks.drop,
        FaultKind.TELEMETRY_LATE: masks.late,
        FaultKind.TELEMETRY_DUPLICATE: masks.duplicate,
        FaultKind.TELEMETRY_CORRUPT: masks.corrupt,
        FaultKind.CLOCK_SKEW: masks.skew,
        FaultKind.RESIZE_PERMANENT: masks.permanent,
        FaultKind.RESIZE_PARTIAL: masks.partial,
        FaultKind.BALLOON_FAIL: masks.balloon_fail,
    }
    if kind is FaultKind.RESIZE_TRANSIENT:
        return masks.transient_magnitude[tenant, interval] > 0
    return bool(rows[kind][tenant, interval])


class TestCompileSchedules:
    @pytest.mark.parametrize(
        "kind", DATA_PLANE_KINDS, ids=[k.value for k in DATA_PLANE_KINDS]
    )
    def test_single_event_window(self, kind):
        schedule = FaultSchedule(
            [FaultEvent(kind, interval=3, duration=4, magnitude=2)]
        )
        masks = compile_schedules([schedule], 12)
        for i in range(12):
            assert _mask_cell(masks, kind, 0, i) == (3 <= i <= 6)
        # Nothing of any other kind leaked into the masks.
        for other in DATA_PLANE_KINDS:
            if other is kind:
                continue
            assert not any(_mask_cell(masks, other, 0, i) for i in range(12))

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 6, 7])
    def test_random_schedule_matches_active_semantics(self, seed):
        n_intervals = 20
        schedule = FaultSchedule.random(
            seed=seed, n_intervals=n_intervals, n_faults=8
        )
        masks = compile_schedules([schedule], n_intervals)
        for i in range(n_intervals):
            for kind in DATA_PLANE_KINDS:
                event = schedule.active(kind, i)
                assert _mask_cell(masks, kind, 0, i) == (event is not None)
                if kind is FaultKind.CLOCK_SKEW:
                    expect = event.magnitude if event else 0.0
                    assert masks.skew_magnitude[0, i] == expect
                if kind is FaultKind.RESIZE_TRANSIENT:
                    expect = int(event.magnitude) if event else 0
                    assert masks.transient_magnitude[0, i] == expect

    def test_overlap_first_covering_event_wins(self):
        # Two overlapping skews with different magnitudes: the scalar
        # ``active`` scan returns the *first* event in schedule order
        # (events sort by start interval) for the shared intervals, so
        # the compiled magnitude must too.
        schedule = FaultSchedule(
            [
                FaultEvent(FaultKind.CLOCK_SKEW, interval=3, duration=4,
                           magnitude=2.0),
                FaultEvent(FaultKind.CLOCK_SKEW, interval=2, duration=3,
                           magnitude=5.0),
            ]
        )
        masks = compile_schedules([schedule], 10)
        assert list(masks.skew_magnitude[0]) == [
            0.0, 0.0, 5.0, 5.0, 5.0, 2.0, 2.0, 0.0, 0.0, 0.0
        ]
        for i in range(10):
            event = schedule.active(FaultKind.CLOCK_SKEW, i)
            assert masks.skew_magnitude[0, i] == (
                event.magnitude if event else 0.0
            )

    def test_events_clip_to_the_compiled_horizon(self):
        schedule = FaultSchedule(
            [
                FaultEvent(FaultKind.TELEMETRY_DROP, interval=6, duration=10),
                FaultEvent(FaultKind.TELEMETRY_DUPLICATE, interval=30),
            ]
        )
        masks = compile_schedules([schedule], 8)
        assert list(masks.drop[0]) == [False] * 6 + [True, True]
        assert not masks.duplicate.any()

    def test_controller_kinds_are_invisible_to_the_data_plane(self):
        schedule = FaultSchedule(
            [FaultEvent(kind, interval=1, duration=5)
             for kind in CONTROLLER_KINDS]
        )
        masks = compile_schedules([schedule], 8)
        assert not masks.any_telemetry.any()
        assert not masks.permanent.any()
        assert not masks.partial.any()
        assert not masks.balloon_fail.any()
        assert not masks.transient_magnitude.any()

    def test_shifted_schedule_shifts_the_masks(self):
        schedule = FaultSchedule(
            [FaultEvent(FaultKind.TELEMETRY_LATE, interval=2, duration=3)]
        )
        plain = compile_schedules([schedule], 12)
        shifted = compile_schedules([schedule.shifted(4)], 12)
        assert np.array_equal(shifted.late[0, 4:], plain.late[0, :-4])
        assert not shifted.late[0, :4].any()

    def test_any_telemetry_covers_exactly_the_telemetry_kinds(self):
        schedule = FaultSchedule(
            [
                FaultEvent(FaultKind.TELEMETRY_DROP, interval=0),
                FaultEvent(FaultKind.CLOCK_SKEW, interval=2),
                FaultEvent(FaultKind.RESIZE_PERMANENT, interval=4),
                FaultEvent(FaultKind.BALLOON_FAIL, interval=5),
            ]
        )
        masks = compile_schedules([schedule], 6)
        assert list(masks.any_telemetry[0]) == [
            True, False, True, False, False, False
        ]

    def test_rejects_empty_horizon(self):
        with pytest.raises(ConfigurationError):
            compile_schedules([FaultSchedule.empty()], 0)


class TestCorruptionModes:
    def counters(self):
        return make_interval_counters(
            3,
            CATALOG.at_level(2),
            latency_ms=40.0,
            cpu_util=0.5,
            cpu_wait_ms=10.0,
            memory_used_gb=2.0,
        )

    def test_every_mode_plants_an_impossible_value(self):
        base = self.counters()
        for mode in range(N_CORRUPTION_MODES):
            bad = corrupt_counters(base, mode)
            assert bad is not base
            assert len(bad.anomalies()) > 0 or mode in (1, 3)
        # The specific lies, mode by mode.
        assert np.isnan(corrupt_counters(base, 0).latencies_ms).any()
        assert (
            corrupt_counters(base, 1).waits.wait_ms[WaitClass.CPU] == -12_345.0
        )
        assert (
            corrupt_counters(base, 2).utilization_median[ResourceKind.CPU]
            == 4.2
        )
        assert corrupt_counters(base, 3).disk_physical_reads == -1_000.0
        assert corrupt_counters(base, 4).arrivals == -7

    def test_corruption_does_not_mutate_the_original(self):
        base = self.counters()
        lat = base.latencies_ms.copy()
        waits = dict(base.waits.wait_ms)
        for mode in range(N_CORRUPTION_MODES):
            corrupt_counters(base, mode)
        assert np.array_equal(base.latencies_ms, lat)
        assert base.waits.wait_ms == waits

    def test_empty_latency_vector_still_corrupts(self):
        base = dataclasses.replace(
            self.counters(), latencies_ms=np.array([], dtype=float)
        )
        bad = corrupt_counters(base, 0)
        assert bad.latencies_ms.size == 3
        assert np.isnan(bad.latencies_ms).all()


def _schedule_for(kind):
    """A small targeted schedule exercising ``kind`` several times."""
    return FaultSchedule(
        [
            FaultEvent(kind, interval=1, duration=2, magnitude=2),
            FaultEvent(kind, interval=5, duration=1, magnitude=1),
        ]
    )


def _counters_equal(a, b):
    assert a.interval_index == b.interval_index
    assert a.start_s == b.start_s and a.end_s == b.end_s
    assert a.container.name == b.container.name
    assert np.array_equal(a.latencies_ms, b.latencies_ms, equal_nan=True)
    assert (a.arrivals, a.completions, a.rejected) == (
        b.arrivals, b.completions, b.rejected
    )
    assert a.utilization_median == b.utilization_median
    assert a.waits.wait_ms == b.waits.wait_ms
    assert (a.memory_used_gb, a.disk_physical_reads) == (
        b.memory_used_gb, b.disk_physical_reads
    )


class TestScalarRoundTrip:
    """schedule -> masks -> applied effect == FaultyServer, one tenant."""

    N_INTERVALS = 8
    TICKS = 6

    def _pair(self, schedule, seed=13):
        workload = cpuio_workload()

        def build():
            return DatabaseServer(
                specs=workload.specs,
                dataset=workload.dataset,
                container=CATALOG.at_level(2),
                config=EngineConfig(interval_ticks=self.TICKS, seed=seed),
                n_hot_locks=workload.n_hot_locks,
            )

        scalar = FaultyServer(build(), schedule, CATALOG, seed=seed + 2)
        plane = MaskedFaultDataPlane(
            [build()],
            compile_schedules([schedule], self.N_INTERVALS),
            CATALOG,
            corrupt_seeds=[seed + 2],
        )
        return scalar, plane

    @pytest.mark.parametrize(
        "kind", TELEMETRY_KINDS, ids=[k.value for k in TELEMETRY_KINDS]
    )
    def test_telemetry_kind_round_trip(self, kind):
        schedule = _schedule_for(kind)
        scalar, plane = self._pair(schedule)
        rates = np.full(self.TICKS, 40.0)
        active = np.array([True])
        injected = 0
        for _ in range(self.N_INTERVALS):
            scalar_deliveries = scalar.run_interval_with_rates(rates)
            _, (vector_deliveries,) = plane.run_interval_rows([rates], active)
            assert len(scalar_deliveries) == len(vector_deliveries)
            for a, b in zip(scalar_deliveries, vector_deliveries):
                _counters_equal(a, b)
            injected = max(injected, len(scalar_deliveries))
        # The same tallies accumulated on both sides, and the fault fired.
        tallies = (
            ("dropped", FaultKind.TELEMETRY_DROP),
            ("delayed", FaultKind.TELEMETRY_LATE),
            ("duplicated", FaultKind.TELEMETRY_DUPLICATE),
            ("corrupted", FaultKind.TELEMETRY_CORRUPT),
            ("skewed", FaultKind.CLOCK_SKEW),
        )
        for name, tally_kind in tallies:
            scalar_count = getattr(scalar, name)
            vector_count = int(getattr(plane, name)[0])
            assert scalar_count == vector_count
            if tally_kind is kind:
                assert scalar_count == 3  # duration 2 + duration 1

    def test_transient_budget_resets_every_interval(self):
        # magnitude=2 transients fail exactly two attempts per interval,
        # then succeed — and the budget refills on the next interval.
        schedule = FaultSchedule(
            [FaultEvent(FaultKind.RESIZE_TRANSIENT, interval=0, duration=2,
                        magnitude=2)]
        )
        scalar, plane = self._pair(schedule)
        rates = np.full(self.TICKS, 40.0)
        active = np.array([True])
        row = np.array([0])
        for _ in range(2):
            scalar.run_interval_with_rates(rates)
            plane.run_interval_rows([rates], active)
            for attempt in range(3):
                scalar_failed = False
                try:
                    scalar.set_container(CATALOG.at_level(3))
                except TransientActuationError:
                    scalar_failed = True
                (code,) = plane.try_resizes(row, np.array([3]))
                vector_failed = RESIZE_OUTCOMES[code] == "transient"
                assert scalar_failed == vector_failed == (attempt < 2)
                assert scalar.container.level == plane.level[0]
                assert plane.servers[0].container.level == plane.level[0]
            # Reset for the next interval's budget check.
            scalar.set_container(CATALOG.at_level(2))
            plane.try_resizes(row, np.array([2]))
        assert scalar.failed_resizes == int(plane.failed_resizes[0]) == 4
