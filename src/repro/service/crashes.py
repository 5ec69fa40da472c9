"""Kill-the-controller chaos: crash faults, lease failover, reconvergence.

Two entry points:

* :func:`run_service` — the single-controller service run, with optional
  deterministic crash-restarts (``kill_at``).  A kill discards the
  in-memory controllers and restores from the latest checkpoint through
  the JSON wire format, exactly as a process restart would; with
  ``checkpoint_every=1`` the resumed run is **byte-identical** to an
  uninterrupted one (the identity the golden-scenario tests pin).

* :func:`run_service_chaos` — the failover harness: a primary and a
  standby controller identity arbitrate through a
  :class:`~repro.service.lease.LeaseStore` while a seeded controller
  fault schedule kills the leader (``CONTROLLER_CRASH``) or partitions
  it from the lease store (``LEASE_EXPIRY``).  While no leader holds the
  lease the tenant environments keep running (and billing) decision-less;
  the promoted identity restores the shared checkpoint, reconciles the
  gap one ``decide_missing`` per lost interval, and carries on.

Fault semantics (measurement-relative intervals, like the data-plane
schedule):

* ``CONTROLLER_CRASH`` at interval ``c`` for ``d`` intervals: the
  current leaseholder's process dies at the start of ``c`` and cannot
  run (or renew) until ``c + d``.  Its lease outlives it briefly, so the
  outage window is governed by the lease duration, not the fault alone.
* ``LEASE_EXPIRY`` at interval ``f`` for ``d`` intervals: the identity
  holding the lease at ``f`` is partitioned from the lease store — it
  can neither renew nor re-acquire — but keeps stepping while its lease
  is still valid (it *is* still the legitimate leader) and demotes the
  moment another identity wins the expired lease.  No split brain: at
  most one identity steps any given tick.
"""

from __future__ import annotations

import asyncio
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.faults.schedule import CONTROLLER_KINDS, FaultKind, FaultSchedule
from repro.harness.experiment import ExperimentConfig
from repro.obs.events import EventKind
from repro.obs.tracer import Tracer
from repro.service.checkpoint import CheckpointStore
from repro.service.controller import ControllerService, TenantRuntime, TenantSpec
from repro.service.lease import LeaseStore

__all__ = [
    "ServiceRunResult",
    "ServiceChaosResult",
    "Takeover",
    "run_service",
    "run_service_chaos",
]


@dataclass
class ServiceRunResult:
    """Outcome of a single-controller service run."""

    service: ControllerService
    runtimes: list[TenantRuntime]
    store: CheckpointStore

    def runtime(self, tenant_id: str) -> TenantRuntime:
        for runtime in self.runtimes:
            if runtime.spec.tenant_id == tenant_id:
                return runtime
        raise KeyError(tenant_id)

    def decision_trace(self, tenant_id: str) -> list[str]:
        return [
            decision.container.name if decision is not None else "-"
            for decision in self.runtime(tenant_id).interval_decisions
        ]

    def trace_jsonl(self, tenant_id: str) -> str:
        return self.runtime(tenant_id).tracer.to_jsonl()


@dataclass
class Takeover:
    """One leadership change observed during a failover run."""

    tick: int
    from_holder: str | None
    to_holder: str
    lost_intervals: int
    fence: int


@dataclass
class ServiceChaosResult(ServiceRunResult):
    """Outcome of a primary/standby failover run."""

    controller_schedule: FaultSchedule = field(default_factory=FaultSchedule.empty)
    lease_store: LeaseStore | None = None
    leader_by_tick: list[str | None] = field(default_factory=list)
    takeovers: list[Takeover] = field(default_factory=list)

    @property
    def downtime_ticks(self) -> int:
        """Measured intervals that ran with no leader stepping."""
        return sum(1 for leader in self.leader_by_tick if leader is None)

    def containers(self, tenant_id: str) -> list[str]:
        """Ground-truth container in force per measured interval."""
        return self.runtime(tenant_id).containers


def _warm_service(
    specs: Sequence[TenantSpec],
    config: ExperimentConfig | None,
    n_intervals: int | None,
    **service_kwargs,
) -> tuple[ControllerService, int]:
    """One service over ``specs``' tenants, warmed up, with its bootstrap
    checkpoint taken, and the intervals to run (by default the shortest
    tenant trace's)."""
    if not specs:
        raise ConfigurationError("a service run needs at least one tenant spec")
    config = config or ExperimentConfig()
    service = ControllerService(
        [TenantRuntime(spec, config) for spec in specs], **service_kwargs
    )
    service.warmup()
    if n_intervals is None:
        n_intervals = min(spec.trace.n_intervals for spec in specs)
    return service, n_intervals


def _tick(service: ControllerService) -> None:
    asyncio.run(service.run_tick())


def run_service(
    specs: Sequence[TenantSpec],
    config: ExperimentConfig | None = None,
    n_intervals: int | None = None,
    checkpoint_every: int = 1,
    kill_at: Sequence[int] = (),
    store: CheckpointStore | None = None,
    service_tracer: Tracer | None = None,
) -> ServiceRunResult:
    """Run the controller service over ``specs``' tenants.

    ``n_intervals`` defaults to the shortest tenant trace.  ``kill_at``
    lists measured intervals after which the controller is killed and
    restored from its latest checkpoint (no downtime — the restart
    happens within the tick boundary).
    """
    service, n_intervals = _warm_service(
        specs, config, n_intervals, store=store,
        checkpoint_every=checkpoint_every, service_tracer=service_tracer,
    )
    service.run_sync(n_intervals, kill_at=kill_at)
    return ServiceRunResult(
        service=service, runtimes=service.tenants, store=service.store
    )


def run_service_chaos(
    specs: Sequence[TenantSpec],
    controller_schedule: FaultSchedule,
    config: ExperimentConfig | None = None,
    n_intervals: int | None = None,
    checkpoint_every: int = 1,
    lease_duration: int = 3,
    holders: tuple[str, str] = ("primary", "standby"),
    store: CheckpointStore | None = None,
    service_tracer: Tracer | None = None,
) -> ServiceChaosResult:
    """Primary/standby failover run under controller faults."""
    for event in controller_schedule:
        if event.kind not in CONTROLLER_KINDS:
            raise ConfigurationError(
                f"controller schedule may only carry controller faults, "
                f"got {event.kind.value}@{event.interval}"
            )
    service, n_intervals = _warm_service(
        specs, config, n_intervals, store=store,
        checkpoint_every=checkpoint_every, service_tracer=service_tracer,
        holder=holders[0],
    )
    runtimes = service.tenants
    tracer = service.service_tracer

    lease_store = LeaseStore()
    lease_name = ControllerService.LEASE_NAME
    down_until = {holder: 0 for holder in holders}
    needs_restore = {holder: False for holder in holders}
    incumbent: str | None = holders[0]  # identity whose state is live
    partitioned: str | None = None  # LEASE_EXPIRY victim, while active
    leader_by_tick: list[str | None] = []
    takeovers: list[Takeover] = []
    crashes = tracer.metrics.counter("service.controller_crashes")
    downtime = tracer.metrics.counter("service.downtime_ticks")

    for t in range(n_intervals):
        crash = controller_schedule.active(FaultKind.CONTROLLER_CRASH, t)
        expiry = controller_schedule.active(FaultKind.LEASE_EXPIRY, t)

        # Fault onset: CONTROLLER_CRASH kills the current leaseholder;
        # LEASE_EXPIRY partitions it from the lease store.
        if crash is not None and crash.interval == t:
            victim = lease_store.holder(lease_name, t) or incumbent
            if victim is not None:
                down_until[victim] = t + crash.duration
                needs_restore[victim] = True
                crashes.inc()
        if expiry is not None and expiry.interval == t:
            partitioned = lease_store.holder(lease_name, t)
        if expiry is None:
            partitioned = None

        def alive(holder: str) -> bool:
            return t >= down_until[holder]

        # Lease maintenance: the valid holder renews unless dead or
        # partitioned; when the lease is free, alive un-partitioned
        # candidates acquire in fixed priority order.
        current = lease_store.holder(lease_name, t)
        if current is not None and alive(current) and current != partitioned:
            lease_store.renew(lease_name, current, t)
        if lease_store.holder(lease_name, t) is None:
            for candidate in holders:
                if not alive(candidate) or candidate == partitioned:
                    continue
                lease = lease_store.try_acquire(
                    lease_name, candidate, t, lease_duration
                )
                if lease is not None:
                    if tracer.enabled:
                        tracer.emit(
                            "service", EventKind.LEASE,
                            interval=t,
                            action="acquired",
                            holder=candidate,
                            fence=lease.fence,
                            previous=current,
                        )
                    break

        leader = lease_store.holder(lease_name, t)
        if leader is None or not alive(leader):
            # No live leader this tick: the world runs decision-less.
            for runtime in runtimes:
                runtime.step_down()
            leader_by_tick.append(None)
            downtime.inc()
            continue

        if leader != incumbent or needs_restore[leader]:
            # Takeover (or crashed incumbent restarting): rebuild the
            # controllers from the shared store and close the gap.
            lost = service.restore_latest()
            service.holder = leader
            fence = lease_store.get(lease_name).fence
            takeovers.append(
                Takeover(
                    tick=t,
                    from_holder=incumbent,
                    to_holder=leader,
                    lost_intervals=lost,
                    fence=fence,
                )
            )
            if tracer.enabled:
                tracer.emit(
                    "service", EventKind.FAILOVER,
                    interval=t,
                    from_holder=incumbent,
                    to_holder=leader,
                    lost_intervals=lost,
                    fence=fence,
                )
            needs_restore[leader] = False
            incumbent = leader

        _tick(service)
        leader_by_tick.append(leader)

    return ServiceChaosResult(
        service=service,
        runtimes=runtimes,
        store=service.store,
        controller_schedule=controller_schedule,
        lease_store=lease_store,
        leader_by_tick=leader_by_tick,
        takeovers=takeovers,
    )
