"""The asyncio tick-loop controller service.

:class:`ControllerService` is the long-lived form of the batch chaos
harness: per interval tick it drives every tenant's control loop —
telemetry admission → decision → actuation — concurrently via
``asyncio.gather``, then writes a versioned checkpoint of *all*
controller state to a :class:`~repro.service.checkpoint.CheckpointStore`.

Each :class:`TenantRuntime` *is* a :class:`~repro.harness.chaos.ChaosTenant`
— the loop :func:`~repro.harness.chaos.run_chaos` runs, with the same
components, seeds, warm-up and per-interval flow — plus what a service
adds: decision-less ticks while no controller runs, gap reconciliation,
and controller checkpoints.  So a service run with an empty
controller-fault schedule is byte-identical to the batch harness, and a
service killed after any tick and restored from its last checkpoint
continues byte-identically too.

The split that makes restore meaningful: the *environment* (database
server, load generator, fault wrapper, billing meter) is the durable
world that keeps existing across controller crashes; the *controller*
(scaler, executor, tracer) is process state that dies with the process
and is rebuilt from the checkpoint.
"""

from __future__ import annotations

import asyncio
import threading
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field

from repro.core.autoscaler import ScalingDecision
from repro.core.budget import BudgetManager
from repro.core.latency import LatencyGoal
from repro.errors import CheckpointError
from repro.faults.schedule import FaultSchedule
from repro.harness.chaos import ChaosTenant
from repro.harness.experiment import ExperimentConfig
from repro.obs.events import EventKind, TraceLevel
from repro.obs.tracer import Tracer
from repro.service.checkpoint import Checkpoint, CheckpointStore
from repro.workloads.base import Workload
from repro.workloads.traces import Trace

__all__ = ["TenantSpec", "TenantRuntime", "ControllerService"]

#: Events each tenant's decision tracer keeps (checkpointed with it).
TRACER_CAPACITY = 65536


@dataclass(frozen=True)
class TenantSpec:
    """Declarative description of one tenant the service manages.

    ``schedule`` carries only data-plane faults (telemetry/actuation);
    controller-process faults live in the service harness's separate
    controller schedule, since they strike the shared controller, not a
    tenant's data plane.
    """

    tenant_id: str
    workload: Workload
    trace: Trace
    schedule: FaultSchedule = field(default_factory=FaultSchedule.empty)
    goal: LatencyGoal | None = None
    budget_factory: Callable[[], BudgetManager] | None = None
    trace_level: TraceLevel = TraceLevel.DECISION


class TenantRuntime(ChaosTenant):
    """One tenant's environment plus (restorable) controller state."""

    def __init__(self, spec: TenantSpec, config: ExperimentConfig) -> None:
        self.spec = spec
        super().__init__(
            spec.workload, spec.trace, spec.schedule, config, goal=spec.goal,
            budget=spec.budget_factory() if spec.budget_factory else None,
            tracer=Tracer(
                spec.tenant_id, level=spec.trace_level,
                capacity=TRACER_CAPACITY,
            ),
        )
        self.decided_intervals = 0  # measured intervals the controller decided
        self.warmed_up = False

    # -- lifecycle -------------------------------------------------------------

    def warmup(self) -> None:
        super().warmup()
        self.warmed_up = True

    def step(self) -> ScalingDecision:
        decision = super().step()
        self.decided_intervals += 1
        return decision

    def step_down(self) -> None:
        """One measured interval with no controller: the world keeps
        running (and billing) but the telemetry deliveries go unheard and
        no decision is made."""
        self._advance()  # deliveries lost
        self.interval_decisions.append(None)
        self.reports.append(None)

    def reconcile_gap(self) -> int:
        """Catch the restored controller up with the environment.

        One :meth:`AutoScaler.decide_missing` per lost interval keeps the
        guard's sequencing and the budget ledger in lock-step with the
        billing meter (each lost interval is settled exactly once, with
        budget enforcement), instead of letting the next fresh delivery's
        multi-interval settle risk an overdraw.  The catch-up decisions
        are actuated so the controller re-asserts its desired state.
        """
        lost = self.env_interval - self.decided_intervals  # ran unheard
        if lost <= 0:
            return 0
        fill_from = len(self.interval_decisions) - lost
        for offset in range(lost):
            decision = self.scaler.decide_missing()
            self.executor.execute(decision)
            if self.interval_decisions[fill_from + offset] is None:
                self.interval_decisions[fill_from + offset] = decision
            self.decisions.append(decision)
        self.decided_intervals = self.env_interval
        return lost

    # -- checkpointing ---------------------------------------------------------

    def controller_state_dict(self) -> dict:
        return {
            "scaler": self.scaler.state_dict(),
            "executor": self.executor.state_dict(),
            "tracer": self.tracer.state_dict(),
            "decided_intervals": self.decided_intervals,
        }

    def restore_controller(self, state: dict) -> None:
        """Rebuild the controller objects from a checkpointed state.

        The environment (server, load generator, meter, bookkeeping) is
        untouched — it is the durable world the controller reconnects to.
        """
        traced = state["tracer"]
        tracer = Tracer(
            run_id=traced["run_id"],
            level=TraceLevel(traced["level"]),
            capacity=traced["capacity"],
        )
        tracer.load_state_dict(traced)
        scaler = self._build_scaler(
            BudgetManager.from_state_dict(state["scaler"]["budget"])
        )
        scaler.load_state_dict(state["scaler"])
        executor = self._build_executor(scaler, tracer)
        executor.load_state_dict(state["executor"])
        self.tracer = tracer
        self.scaler = scaler
        self.executor = executor
        self.decided_intervals = int(state["decided_intervals"])


class ControllerService:
    """Asyncio tick loop over many tenants, checkpointing as it goes.

    Deterministic core: :meth:`run_sync` drives ``n`` ticks to completion
    on the calling thread (what the tests and harnesses use).  Service
    form: :meth:`start` runs the same loop on a daemon thread with a real
    tick period, :meth:`stop` requests a graceful exit at the next tick
    boundary, :meth:`join` waits for it — the SimulationRunner idiom.
    """

    LEASE_NAME = "controller-leader"

    def __init__(
        self,
        tenants: Sequence[TenantRuntime],
        store: CheckpointStore | None = None,
        checkpoint_every: int = 1,
        service_tracer: Tracer | None = None,
        holder: str = "primary",
    ) -> None:
        if checkpoint_every < 1:
            raise CheckpointError("checkpoint_every must be >= 1")
        ids = [runtime.spec.tenant_id for runtime in tenants]
        if len(set(ids)) != len(ids):
            raise CheckpointError(f"duplicate tenant ids: {ids}")
        self.tenants = list(tenants)
        self.store = store if store is not None else CheckpointStore()
        self.checkpoint_every = checkpoint_every
        self.holder = holder
        self.service_tracer = service_tracer or Tracer(run_id=f"service-{holder}")
        self.tick = 0  # next measured interval to run
        self._stop_event = threading.Event()
        self._thread: threading.Thread | None = None
        metrics = self.service_tracer.metrics
        self._ticks_counter = metrics.counter("service.ticks")
        self._checkpoint_counter = metrics.counter("service.checkpoints")
        self._restore_counter = metrics.counter("service.restores")
        self._lost_gauge = metrics.gauge("service.recovery.lost_intervals")

    # -- lifecycle -------------------------------------------------------------

    def warmup(self, checkpoint: bool = True) -> None:
        """Warm every tenant up and (by default) take the first snapshot,
        so a crash before the first measured tick is recoverable."""
        for runtime in self.tenants:
            if not runtime.warmed_up:
                runtime.warmup()
        if checkpoint:
            self.checkpoint()

    async def run_tick(self) -> None:
        """One measured interval across all tenants, concurrently."""

        async def step(runtime: TenantRuntime) -> None:
            runtime.step()

        await asyncio.gather(*(step(runtime) for runtime in self.tenants))
        self.tick += 1
        self._ticks_counter.inc()
        if self.tick % self.checkpoint_every == 0:
            self.checkpoint()

    async def run(
        self,
        n_intervals: int,
        tick_interval_s: float = 0.0,
        kill_at: Iterable[int] = (),
    ) -> None:
        """Drive ``n_intervals`` ticks.

        ``kill_at`` intervals inject a deterministic crash-restart
        immediately after that tick completes: the in-memory controllers
        are discarded and rebuilt from the store's latest checkpoint (the
        wire-format round trip a real process restart would perform).
        """
        kills = frozenset(int(k) for k in kill_at)
        for _ in range(n_intervals):
            if self._stop_event.is_set():
                break
            finished = self.tick
            await self.run_tick()
            if finished in kills:
                self.restore_latest()
            if tick_interval_s > 0:
                await asyncio.sleep(tick_interval_s)

    def run_sync(
        self,
        n_intervals: int,
        kill_at: Iterable[int] = (),
    ) -> None:
        asyncio.run(self.run(n_intervals, kill_at=kill_at))

    def start(self, n_intervals: int, tick_interval_s: float = 0.0) -> None:
        """Run the loop on a daemon thread (the long-lived service form)."""
        if self._thread is not None and self._thread.is_alive():
            raise RuntimeError("service already running")
        self._stop_event.clear()
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self.run(n_intervals, tick_interval_s)),
            name=f"controller-service-{self.holder}",
            daemon=True,
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop_event.set()

    def join(self, timeout: float | None = None) -> None:
        if self._thread is not None:
            self._thread.join(timeout)

    # -- checkpoint / restore --------------------------------------------------

    def state_dict(self) -> dict:
        return {
            "tick": self.tick,
            "tenants": {
                runtime.spec.tenant_id: runtime.controller_state_dict()
                for runtime in self.tenants
            },
        }

    def checkpoint(self) -> Checkpoint:
        """Snapshot all controller state into the store."""
        stored = self.store.put(
            Checkpoint.capture("controller", self.tick - 1, self.state_dict())
        )
        self._checkpoint_counter.inc()
        if self.service_tracer.enabled:
            self.service_tracer.emit(
                "service", EventKind.CHECKPOINT,
                interval=stored.interval,
                holder=self.holder,
                tenants=len(self.tenants),
                bytes=len(stored.wire()) + 1,
            )
        return stored

    def restore(self, checkpoint: Checkpoint) -> int:
        """Rebuild every tenant's controller from ``checkpoint``.

        Returns the total lost intervals reconciled across tenants.
        """
        state = checkpoint.state()
        by_id = state["tenants"]
        missing = [
            runtime.spec.tenant_id
            for runtime in self.tenants
            if runtime.spec.tenant_id not in by_id
        ]
        if missing or len(by_id) != len(self.tenants):
            raise CheckpointError(
                f"checkpoint tenants {sorted(by_id)} do not match service "
                f"tenants {sorted(r.spec.tenant_id for r in self.tenants)}"
            )
        for runtime in self.tenants:
            runtime.restore_controller(by_id[runtime.spec.tenant_id])
        lost = sum(runtime.reconcile_gap() for runtime in self.tenants)
        # The environment is the ground truth of global time: the service
        # resumes at the next interval the world will run, not where the
        # checkpoint was taken.
        self.tick = max(
            (runtime.env_interval for runtime in self.tenants),
            default=int(state["tick"]),
        )
        self._restore_counter.inc()
        self._lost_gauge.set(lost)
        if self.service_tracer.enabled:
            self.service_tracer.emit(
                "service", EventKind.RESTORE,
                interval=checkpoint.interval,
                holder=self.holder,
                tick=self.tick,
                lost_intervals=lost,
            )
        return lost

    def restore_latest(self) -> int:
        latest = self.store.latest()
        if latest is None:
            raise CheckpointError("no checkpoint to restore from")
        return self.restore(latest)
