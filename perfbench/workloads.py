"""The benchmark's three workloads, driven through the package's public API.

A run builds a workload's world and warms it up (``setup``: the
``setup_s`` metric) a few times.  From each warmed-up world it runs one
or more identical *windows* of ``TIMED`` billing intervals, each on a
deep copy of that world (``fork``) except the last, which uses the world
itself.  Each interval is timed as a whole (``interval``), with untimed
output checks after every interval (``after_interval``) and at the end
(``finish``).  Windows of one seed are deterministic, so every window of
a run must produce the same decision digest; a traced window must match
an untraced one.

Output checks mark failed tenant-intervals in ``self.failed``, a
``(TIMED, n_tenants)`` boolean mask:

* budget tokens >= -1e-9, spend <= the tenant's budget, every level
  inside the catalog, no dead tenant, no exception;
* ``fleet_steady``: an untimed 64-row ``lo/hi`` slice of the same
  closed-loop fleet reproduces the wide run's rows exactly;
* ``service_ckpt``: restoring from ``store.latest()`` round-trips every
  tenant's controller state exactly.
"""

from __future__ import annotations

import asyncio
import copy
import hashlib
import json
import os
import shutil
import threading
import time
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from repro.core.budget import unconstrained_budget
from repro.core.latency import LatencyGoal
from repro.core.thresholds import default_thresholds
from repro.engine.containers import default_catalog
from repro.faults.schedule import FaultSchedule
from repro.faults.vectorized import compile_schedules
from repro.fleet import degraded as fleet_degraded
from repro.fleet import vectorized as fleet_vectorized
from repro.fleet.degraded import (
    DegradedSyntheticFleet,
    DegradedVectorizedAutoScaler,
)
from repro.fleet.vectorized import (
    ClosedLoopFleetSynthesizer,
    VectorizedAutoScaler,
    synthesize_fleet_telemetry,
)
from repro.harness.experiment import ExperimentConfig
from repro.service import (
    Checkpoint,
    CheckpointStore,
    ControllerService,
    TenantRuntime,
    TenantSpec,
    encode_state,
)
from repro.workloads import Trace, cpuio_workload

#: Budget tokens may dip below zero by float rounding only.
TOKEN_EPS = 1e-9

#: Stage histograms ``VectorizedAutoScaler(clock=...)`` fills.
STAGES = ("signals", "estimate_fleet", "actuation", "decide_batch")


def _kernel_patches(recorder) -> None:
    """Spans around the batched stats kernels and the rule-mask estimator."""
    recorder.patch(fleet_vectorized, "batched_detect_trend", "stats.batched.trend")
    recorder.patch(fleet_vectorized, "batched_spearman", "stats.batched.spearman")
    recorder.patch(
        fleet_vectorized, "batched_tail_median", "stats.batched.tail_median"
    )
    recorder.patch(fleet_vectorized, "estimate_fleet", "fleet.estimate")
    recorder.patch(fleet_degraded, "estimate_fleet", "fleet.estimate")


class Workload:
    """Shared window bookkeeping; subclasses fill in the world."""

    name: str
    N_TENANTS: int
    TIMED: int
    GOAL_MS: float
    #: Nominal wall seconds of one set-up, and of one timed window with
    #: its copy and checks, on a 2-core x86 VM.  With ``--seconds`` they
    #: fix a run's window count (see ``run.plan``).
    SETUP_S: float
    WINDOW_S: float

    def __init__(self, seed: int, trace: bool, work_dir: Path) -> None:
        self.seed = seed
        #: A ``--trace 1`` run: every world it builds reads the stage clock.
        self.trace = trace
        self.work_dir = work_dir
        self.catalog = default_catalog()
        self.n_levels = self.catalog.num_levels
        self.costs = np.array(
            [self.catalog.at_level(i).cost for i in range(self.n_levels)]
        )
        self.names = {
            self.catalog.at_level(i).name for i in range(self.n_levels)
        }
        self.budget = unconstrained_budget(self.catalog.max_cost)
        self.failed = np.zeros((self.TIMED, self.N_TENANTS), dtype=bool)
        self.digest = hashlib.sha256()
        self.cost = 0.0
        self.goal_busy = 0
        self.goal_miss = 0
        self.counts: dict[str, float] = {}

    @property
    def tenant_intervals(self) -> int:
        return self.TIMED * self.N_TENANTS

    def fork(self) -> "Workload":
        """A deep copy of this warmed-up world, for one more timed window.

        Call before ``begin``.  The copy repeats exactly the computation
        the original would, so the windows of one set-up are repeats of
        one measurement without paying for another warm-up.
        """
        memo = {id(self.digest): self.digest.copy()}
        memo.update((id(obj), obj) for obj in self._shared())
        return copy.deepcopy(self, memo)

    def _shared(self) -> list[object]:
        """Objects a fork shares with its original instead of copying."""
        return []

    def setup(self) -> Iterator[None]:
        """Build and warm up the world, yielding between its steps.

        Every set-up of a seed runs the same steps, so ``setup_s`` can
        take each step's fastest repeat, as the interval metrics do.
        """
        raise NotImplementedError

    def _level_ok(self, level: np.ndarray) -> np.ndarray:
        return (level >= 0) & (level < self.n_levels)

    def _tally_goal(self, latency_ms: np.ndarray) -> None:
        busy = ~np.isnan(latency_ms)
        self.goal_busy += int(np.count_nonzero(busy))
        self.goal_miss += int(np.count_nonzero(latency_ms[busy] > self.GOAL_MS))

    def begin(self) -> None:
        """Untimed, after set-up: snapshot counters the window is diffed on."""

    def instrument(self, recorder) -> None:
        raise NotImplementedError

    def traced_counts(self, calls: dict[str, int]) -> dict[str, float]:
        """Counts derived from span call counts (traced windows only)."""
        return {}


class FleetSteady(Workload):
    """10k tenants, healthy vectorized engine, closed-loop synthesizer."""

    name = "fleet_steady"
    SETUP_S = 2.0
    WINDOW_S = 3.1
    N_TENANTS = 10_000
    TIMED = 16
    GOAL_MS = 100.0
    SLICE = 64
    #: Warm-up ends when the per-interval resize rate moves less than
    #: this between consecutive intervals (after the ring has filled).
    SETTLE = 0.02

    def setup(self) -> Iterator[None]:
        n = self.N_TENANTS
        self.scaler = VectorizedAutoScaler(
            self.catalog,
            n,
            goal=LatencyGoal(self.GOAL_MS),
            budget=self.budget,
            record_actions=False,
            clock=time.perf_counter if self.trace else None,
        )
        self.synth = ClosedLoopFleetSynthesizer(n, self.catalog, self.seed)
        lo = int(np.random.default_rng(self.seed).integers(0, n - self.SLICE))
        self.rows = slice(lo, lo + self.SLICE)
        self.slice_levels: list[np.ndarray] = []
        self.i = 0
        window = self.scaler.thresholds.signal_window
        previous = None
        while True:
            yield
            self._fields = self.synth.interval(
                self.i, self.scaler.level, self.scaler.balloon_limit_gb
            )
            decision = self.scaler.decide_batch(float(self.i), **self._fields)
            self.i += 1
            self.slice_levels.append(decision.level[self.rows].copy())
            rate = float(np.mean(decision.resized))
            if (
                self.i >= window
                and previous is not None
                and abs(rate - previous) < self.SETTLE
            ):
                break
            if self.i >= 4 * window:
                raise RuntimeError("fleet_steady: resize rate did not settle")
            previous = rate

    def begin(self) -> None:
        self._counts0 = dict(self.scaler.action_counts)
        self._stage0 = (
            {stage: self._stage(stage) for stage in STAGES} if self.trace else {}
        )

    def _stage(self, stage: str) -> tuple[int, float]:
        h = self.scaler.metrics.histogram(f"fleet.stage.{stage}")
        return h.count, h.total

    def instrument(self, recorder) -> None:
        _kernel_patches(recorder)
        recorder.patch(self.synth, "interval", "fleet.synth")
        recorder.patch(self.scaler, "decide_batch", "fleet.actuation")
        recorder.patch(self.scaler.telemetry, "observe", "fleet.telemetry.observe")
        recorder.patch(self.scaler.telemetry, "signals", "fleet.telemetry.signals")

    def interval(self, k: int) -> None:
        scaler = self.scaler
        self._in_force = scaler.level
        self._fields = self.synth.interval(
            self.i, scaler.level, scaler.balloon_limit_gb
        )
        self._decision = scaler.decide_batch(float(self.i), **self._fields)
        self.i += 1

    def after_interval(self, k: int) -> None:
        d = self._decision
        self._tally_goal(self._fields["latency_ms"])
        self.cost += float(self.costs[self._in_force].sum())
        self.failed[k] |= ~self._level_ok(d.level)
        self.failed[k] |= self.scaler.budget_available < -TOKEN_EPS
        for array in (d.level, d.resized, d.balloon_limit_gb, d.steps, d.rules):
            self.digest.update(array.tobytes())
        self.slice_levels.append(d.level[self.rows].copy())

    def finish(self) -> None:
        spent = self.scaler.state_dict()["budget"]["spent"]
        self.failed[:, spent > self.budget.budget + TOKEN_EPS] = True
        self._check_slice()
        n = self.tenant_intervals
        c0, c1 = self._counts0, self.scaler.action_counts
        for key, name in (
            ("resizes", "resize_rate"),
            ("scale_up", "scale_up_rate"),
            ("scale_down", "scale_down_rate"),
            ("probe_started", "balloon_probe_rate"),
            ("balloon_aborted", "balloon_abort_rate"),
            ("balloon_confirmed", "balloon_confirm_rate"),
            ("budget_forced", "budget_forced_rate"),
            ("hold_latency", "hold_latency_rate"),
        ):
            self.counts[f"fleet.{name}"] = (c1[key] - c0[key]) / n
        for stage in self._stage0:
            count0, total0 = self._stage0[stage]
            count1, total1 = self._stage(stage)
            self.counts[f"fleet.stage.{stage}.ms"] = (total1 - total0) / (
                count1 - count0
            )

    def _check_slice(self) -> None:
        """Rows [lo, lo+64) of the wide fleet, rerun as a 64-tenant fleet."""
        scaler = VectorizedAutoScaler(
            self.catalog,
            self.SLICE,
            goal=LatencyGoal(self.GOAL_MS),
            budget=self.budget,
            record_actions=False,
        )
        synth = ClosedLoopFleetSynthesizer(
            self.N_TENANTS,
            self.catalog,
            self.seed,
            lo=self.rows.start,
            hi=self.rows.stop,
        )
        mismatch = np.zeros(self.SLICE, dtype=bool)
        for i, wide in enumerate(self.slice_levels):
            fields = synth.interval(i, scaler.level, scaler.balloon_limit_gb)
            mismatch |= scaler.decide_batch(float(i), **fields).level != wide
        self.failed[:, self.rows] |= mismatch


class FleetChaos(Workload):
    """10k tenants, degraded vectorized engine, 5% fault rate (open loop)."""

    name = "fleet_chaos"
    SETUP_S = 2.5
    WINDOW_S = 4.2
    N_TENANTS = 10_000
    TIMED = 16
    GOAL_MS = 100.0
    FAULT_RATE = 0.05

    def setup(self) -> Iterator[None]:
        n = self.N_TENANTS
        self.warmup_intervals = default_thresholds().signal_window
        n_intervals = self.warmup_intervals + self.TIMED
        arrays = synthesize_fleet_telemetry(n, n_intervals, seed=self.seed)
        n_faults = max(1, int(round(self.FAULT_RATE * n_intervals)))
        masks = compile_schedules(
            [
                FaultSchedule.random(
                    seed=self.seed + 17 * t,
                    n_intervals=n_intervals,
                    n_faults=n_faults,
                )
                for t in range(n)
            ],
            n_intervals,
        )
        self.scaler = DegradedVectorizedAutoScaler(
            self.catalog,
            n,
            goal=LatencyGoal(self.GOAL_MS),
            budget=self.budget,
            record_actions=False,
            record_guard_reasons=False,
            executor_seeds=self.seed,
        )
        self.fleet = DegradedSyntheticFleet(self.scaler, arrays, masks)
        for _ in range(self.warmup_intervals):
            yield
            self.fleet.step()

    def _tallies(self) -> dict[str, int]:
        s = self.scaler
        return {
            "guard.quarantined_rate": int(s.g_quarantined.sum()),
            "guard.missed_rate": int(s.g_missed.sum()),
            "guard.discarded_rate": int(s.g_discarded.sum()),
            "executor.attempt_rate": int(s.x_total_attempts.sum()),
            "executor.failure_rate": int(s.x_total_failures.sum()),
            "executor.circuit_opens": int(s.x_circuit_opens.sum()),
        }

    def begin(self) -> None:
        self._tallies0 = self._tallies()
        self._in_force = self.fleet.actuator.level.copy()
        self.waves = 0

    def instrument(self, recorder) -> None:
        _kernel_patches(recorder)
        telemetry = self.scaler.telemetry
        recorder.patch(self.fleet, "step", "fleet.degraded.deliver")
        recorder.patch(self.scaler, "decide_wave", "fleet.degraded.wave")
        recorder.patch(self.scaler, "execute_interval", "fleet.degraded.execute")
        recorder.patch(telemetry, "observe_rows", "fleet.telemetry.observe")
        recorder.patch(telemetry, "signals_rows", "fleet.telemetry.signals")

    def interval(self, k: int) -> None:
        self._waves = self.fleet.step()

    def after_interval(self, k: int) -> None:
        s = self.scaler
        i = self.fleet.interval - 1
        self._tally_goal(self.fleet.arrays.latency_ms[i])
        self.cost += float(self.costs[self._in_force].sum())
        applied = self.fleet.actuator.level
        self._in_force = applied.copy()
        self.failed[k] |= s.dead
        self.failed[k] |= s.budget_available < -TOKEN_EPS
        self.failed[k] |= ~self._level_ok(s.level) | ~self._level_ok(applied)
        self.waves += len(self._waves)
        for wave in self._waves:
            for array in (
                wave.participants,
                wave.level,
                wave.resized,
                wave.balloon_limit_gb,
                wave.died,
            ):
                self.digest.update(array.tobytes())
        self.digest.update(applied.tobytes())

    def finish(self) -> None:
        s = self.scaler
        self.failed[:, s.budget_spent > self.budget.budget + TOKEN_EPS] = True
        n = self.tenant_intervals
        m = self.fleet.masks
        window = slice(self.warmup_intervals, self.warmup_intervals + self.TIMED)
        faulted = (
            m.any_telemetry
            | m.permanent
            | m.partial
            | (m.transient_magnitude > 0)
            | m.balloon_fail
        )[:, window]
        self.counts["fleet.degraded.waves_per_interval"] = self.waves / self.TIMED
        self.counts["faults.faulted_frac"] = float(np.count_nonzero(faulted)) / n
        tallies = self._tallies()
        for key, before in self._tallies0.items():
            delta = tallies[key] - before
            self.counts[f"fleet.degraded.{key}"] = (
                delta if key.endswith("circuit_opens") else delta / n
            )


class ServiceCkpt(Workload):
    """16 ``repro serve``-shaped tenants; a checkpoint written every tick."""

    name = "service_ckpt"
    SETUP_S = 4.5
    WINDOW_S = 4.5
    N_TENANTS = 16
    TIMED = 8
    GOAL_MS = 150.0

    def _specs(self) -> list[TenantSpec]:
        """One base rate and one burst per tenant, as ``repro serve`` draws.

        The sixteen (base rate, burst peak, length, start) profiles are
        one fixed stratified table, so the fleet's load per tick is the
        same for every seed; the seed assigns profiles to tenants,
        jitters each rate by up to 5%, and seeds the simulator.  Without
        this, where the bursts of a few tenants overlap decides most of
        a run's tick-time median.
        """
        n, k = self.N_TENANTS, self.TIMED
        table = np.random.default_rng(0x5E5)

        def strata(lo: float, hi: float) -> np.ndarray:
            return lo + (hi - lo) * (table.permutation(n) + 0.5) / n

        base = strata(10.0, 40.0)
        peak = strata(6.0, 12.0)
        # Short bursts: ``repro serve`` draws 4-8 ticks of a 20+ interval
        # trace, so an 8-tick window sees about that share of burst ticks.
        length = table.permutation(np.resize(np.arange(1, 4), n))
        start = (strata(0.0, 1.0) * (k - length + 1)).astype(int)
        rng = np.random.default_rng([self.seed, 0x5E5])
        profile = rng.permutation(n)
        jitter = rng.uniform(0.95, 1.05, (2, n))
        goal = LatencyGoal(self.GOAL_MS)
        specs = []
        for i, p in enumerate(profile):
            rate = base[p] * jitter[0, i]
            rates = np.full(k, rate)
            rates[start[p] : start[p] + length[p]] = rate * peak[p] * jitter[1, i]
            specs.append(
                TenantSpec(
                    tenant_id=f"tenant-{i:03d}",
                    workload=cpuio_workload(),
                    trace=Trace(name=f"serve-{i}", rates=rates),
                    goal=goal,
                )
            )
        return specs

    def setup(self) -> Iterator[None]:
        config = ExperimentConfig(seed=self.seed)
        self.store_dir = self.work_dir / "ckpt" / str(os.getpid())
        self.runtimes = [TenantRuntime(spec, config) for spec in self._specs()]
        self.service = ControllerService(
            self.runtimes, store=CheckpointStore(directory=self.store_dir)
        )
        for runtime in self.runtimes:
            yield
            runtime.warmup()
        yield
        # Every tenant is warm by now, so this takes the first checkpoint.
        self.service.warmup()

    def _shared(self) -> list[object]:
        # The service's stop event holds a lock, which cannot be copied;
        # no window starts or stops the service's thread.
        return [
            value
            for value in vars(self.service).values()
            if isinstance(value, threading.Event)
        ]

    def begin(self) -> None:
        # Forks of one set-up write the same checkpoint files in turn; the
        # store only writes them, and each window removes them at its end.
        self.store_dir.mkdir(parents=True, exist_ok=True)
        self.loop = asyncio.new_event_loop()
        self._counters0 = [len(rt.counters) for rt in self.runtimes]
        self._cost0 = sum(rt.meter.total_cost for rt in self.runtimes)
        self._resizes0 = sum(rt.meter.resize_count for rt in self.runtimes)
        self.bytes_first = self.bytes_last = 0

    def instrument(self, recorder) -> None:
        for rt in self.runtimes:
            recorder.patch(
                rt.server.server, "run_interval_with_rates", "engine.run_interval"
            )
            recorder.patch(rt.scaler, "decide", "core.decide")
            recorder.patch(rt.scaler, "decide_missing", "core.decide")
            recorder.patch(rt.executor, "execute", "core.execute")
        recorder.patch(self.service, "state_dict", "service.state_dict")
        recorder.patch(Checkpoint, "capture", "service.capture")
        recorder.patch(Checkpoint, "to_json", "service.encode")
        recorder.patch(Checkpoint, "from_json", "service.decode")
        recorder.patch(Checkpoint, "save", "service.write")

    def interval(self, k: int) -> None:
        self.loop.run_until_complete(self.service.run_tick())

    def after_interval(self, k: int) -> None:
        for j, rt in enumerate(self.runtimes):
            budget = rt.scaler.budget
            self.failed[k, j] |= (
                budget.available < -TOKEN_EPS
                or budget.spent > budget.budget + TOKEN_EPS
                or rt.server.container.name not in self.names
            )
        latest = self.store_dir / "latest.json"
        payload = latest.read_bytes()
        self.digest.update(payload)
        if k == 0:
            self.bytes_first = len(payload)
        self.bytes_last = len(payload)

    def finish(self) -> None:
        for rt, before in zip(self.runtimes, self._counters0):
            for counters in rt.counters[before:]:
                if counters.completions > 0:
                    self.goal_busy += 1
                    self.goal_miss += int(
                        counters.latency_percentile(95.0) > self.GOAL_MS
                    )
        self.cost = sum(rt.meter.total_cost for rt in self.runtimes) - self._cost0
        resizes = sum(rt.meter.resize_count for rt in self.runtimes)
        resizes -= self._resizes0
        self.counts["core.resize_rate"] = resizes / self.tenant_intervals
        self.counts["service.checkpoint.bytes_first"] = self.bytes_first
        self.counts["service.checkpoint.bytes_last"] = self.bytes_last

        before = [self._tenant_state(rt) for rt in self.runtimes]
        self.service.restore_latest()
        after = [self._tenant_state(rt) for rt in self.runtimes]
        for j, (want, got) in enumerate(zip(before, after)):
            self.failed[:, j] |= want != got
        self.loop.close()
        shutil.rmtree(self.store_dir, ignore_errors=True)

    @staticmethod
    def _tenant_state(rt: TenantRuntime) -> str:
        return json.dumps(
            encode_state(rt.controller_state_dict()),
            sort_keys=True,
            separators=(",", ":"),
        )

    def traced_counts(self, calls: dict[str, int]) -> dict[str, float]:
        return {
            "service.encode.calls_per_checkpoint": calls.get("service.encode", 0)
            / self.TIMED
        }


WORKLOADS = {w.name: w for w in (FleetSteady, FleetChaos, ServiceCkpt)}
