"""Byte pins for the ``DatabaseServer`` simulator's per-interval output.

Each scenario runs a seeded server for a few billing intervals and hashes
every interval's :class:`~repro.engine.telemetry.IntervalCounters`:
latency bytes, per-class waits, utilisation medians and means, and the
request counts.  The expected digests were recorded before the admission
and retirement paths were batched; any change to RNG draw order, row
placement in the request table, or float summation order shows up here
as a digest mismatch.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np
import pytest

from repro.engine.containers import default_catalog
from repro.engine.resources import ResourceKind
from repro.engine.server import DatabaseServer, EngineConfig
from repro.engine.telemetry import IntervalCounters
from repro.engine.waits import WaitClass
from repro.workloads.cpuio import cpuio_workload
from repro.workloads.tpcc import tpcc_workload

CATALOG = default_catalog()
INTERVAL_TICKS = 20


def _float(value: float | None) -> bytes:
    return struct.pack("<d", float("nan") if value is None else value)


def counters_digest(history: list[IntervalCounters]) -> str:
    """sha256 over every interval's counters, field by field."""
    digest = hashlib.sha256()
    for counters in history:
        digest.update(np.ascontiguousarray(counters.latencies_ms, dtype="<f8"))
        for wait_class in WaitClass:
            digest.update(_float(counters.waits.get(wait_class)))
        for kind in ResourceKind:
            digest.update(_float(counters.utilization_median.get(kind)))
            digest.update(_float(counters.utilization_mean.get(kind)))
        digest.update(
            struct.pack(
                "<qqqq",
                counters.interval_index,
                counters.arrivals,
                counters.completions,
                counters.rejected,
            )
        )
        for value in (
            counters.start_s,
            counters.end_s,
            counters.memory_used_gb,
            counters.memory_hot_gb,
            counters.disk_physical_reads,
            counters.balloon_limit_gb,
        ):
            digest.update(_float(value))
    return digest.hexdigest()


def _server(
    workload, level: int, seed: int, interval_ticks: int = INTERVAL_TICKS, **config
) -> DatabaseServer:
    return DatabaseServer(
        specs=workload.specs,
        dataset=workload.dataset,
        container=CATALOG.at_level(level),
        config=EngineConfig(interval_ticks=interval_ticks, seed=seed, **config),
        n_hot_locks=workload.n_hot_locks,
    )


def _cpuio() -> tuple[list[IntervalCounters], DatabaseServer]:
    server = _server(cpuio_workload(), level=2, seed=11)
    server.prewarm()
    return [server.run_interval(rate) for rate in (20.0, 35.0, 50.0, 25.0)], server


def _tpcc() -> tuple[list[IntervalCounters], DatabaseServer]:
    # Lock-bound mix on a small container: hot-lock queues back up, so
    # the enqueue order of admitted rows matters.
    server = _server(tpcc_workload(), level=1, seed=23)
    server.prewarm()
    return [server.run_interval(rate) for rate in (30.0, 60.0, 90.0, 40.0)], server


def _resize_and_balloon() -> tuple[list[IntervalCounters], DatabaseServer]:
    server = _server(cpuio_workload(), level=3, seed=5)
    history = [server.run_interval(30.0)]
    server.set_container(CATALOG.at_level(1))
    history.append(server.run_interval(30.0))
    server.set_balloon_limit(1.0)
    history.append(server.run_interval(30.0))
    server.set_container(CATALOG.at_level(4))
    server.set_balloon_limit(None)
    rates = np.linspace(10.0, 60.0, INTERVAL_TICKS)
    history.append(server.run_interval_with_rates(rates))
    return history, server


def _overload() -> tuple[list[IntervalCounters], DatabaseServer]:
    # A first tick of ~400 arrivals outgrows the 256-row table inside one
    # admission batch; the backlog then grows past 512 rows and, with the
    # concurrency cap at 700, rejects arrivals too.  On this container
    # the CPU sums still depend on which rows the requests land in.
    server = _server(tpcc_workload(), level=1, seed=97, max_concurrency=700)
    history = [server.run_interval(400.0), server.run_interval(150.0)]
    return history, server


SCENARIOS = {
    "cpuio": (
        _cpuio,
        "0a709eb462dfa9a95e7acf955ec1a76934f27bf5cc2ccbf000f442088aaa813b",
    ),
    "tpcc": (
        _tpcc,
        "58ad8042c2a58c674719790e49fb0d7d7307dd2b27f183429ed006283bec59dc",
    ),
    "resize_balloon": (
        _resize_and_balloon,
        "89f8da15f68124baa59ca97c4057651e7c1706e87fe39e2152b49ba4d529361b",
    ),
    "overload": (
        _overload,
        "378f79fe8e623e00c83a83582904890224a9bbc2960c0a9f71d2a37d7eef4424",
    ),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_interval_counters_digest(name):
    build, expected = SCENARIOS[name]
    history, _ = build()
    assert counters_digest(history) == expected


def test_overload_grows_inside_one_batch():
    """The overload pin really exercises mid-batch growth and rejection."""
    history, server = _overload()
    assert server.table.capacity > 512
    assert sum(c.rejected for c in history) > 0
    # Same seed, one-tick intervals: the first tick's single admission
    # batch leaves more rows in flight than the table started with.
    probe = _server(
        tpcc_workload(), level=1, seed=97, interval_ticks=1, max_concurrency=700
    )
    probe.run_interval(400.0)
    assert probe.in_flight() > 256


def test_lock_path_runs():
    history, _ = _tpcc()
    assert sum(c.waits.get(WaitClass.LOCK) for c in history) > 0
