"""What one service tick's checkpoint holds, and the threaded service form.

* A tenant's checkpointed telemetry section holds its rings and the
  newest interval's summary, so its size does not follow the request
  rate (the per-request latency array is not kept).
* A tenant's checkpointed trace is its tracer's ``to_jsonl()`` text.
* A checkpoint of an older format version is refused.
* ``ControllerService.start`` / ``stop`` / ``join`` run the same ticks as
  ``run_sync``: stopping ends at a tick boundary, and the last checkpoint
  equals a synchronous run of as many ticks, byte for byte.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from repro.core.latency import LatencyGoal
from repro.core.telemetry_manager import TelemetryManager
from repro.core.thresholds import default_thresholds
from repro.engine.server import EngineConfig
from repro.errors import CheckpointError
from repro.harness.experiment import ExperimentConfig
from repro.obs.events import TraceLevel
from repro.service import (
    CHECKPOINT_VERSION,
    Checkpoint,
    ControllerService,
    TenantRuntime,
    TenantSpec,
    encode_state,
    run_service,
)
from repro.workloads import Trace, cpuio_workload


def _config() -> ExperimentConfig:
    return ExperimentConfig(
        engine=EngineConfig(interval_ticks=10), warmup_intervals=3, seed=5
    )


def _spec(tenant_id: str, rate: float, n_intervals: int = 6) -> TenantSpec:
    return TenantSpec(
        tenant_id=tenant_id,
        workload=cpuio_workload(),
        trace=Trace(name=f"flat-{rate:g}", rates=np.full(n_intervals, rate)),
        goal=LatencyGoal(100.0),
        trace_level=TraceLevel.DEBUG,
    )


def _encoded_bytes(node) -> int:
    return len(json.dumps(node, sort_keys=True, separators=(",", ":")))


class TestCheckpointSize:
    def test_telemetry_section_does_not_grow_with_request_rate(self):
        # Rings full of NaN plus room for the newest interval's summary:
        # a bound that holds at any rate.
        empty = encode_state(TelemetryManager(default_thresholds()).state_dict())
        bound = _encoded_bytes(empty) + 512
        sizes = {}
        for rate in (40.0, 400.0):
            result = run_service([_spec("t", rate)], config=_config())
            runtime = result.runtimes[0]
            assert runtime.counters[-1].latencies_ms.size > 0
            payload = result.store.latest().payload
            telemetry = payload["tenants"]["t"]["scaler"]["telemetry"]
            sizes[rate] = _encoded_bytes(telemetry)
        # At rate 400 the last interval alone completes thousands of
        # requests; their latencies would be tens of kilobytes.
        assert sizes[40.0] <= bound and sizes[400.0] <= bound, (sizes, bound)

    def test_checkpointed_trace_is_the_tracers_jsonl(self):
        specs = [_spec("a", 40.0), _spec("b", 150.0)]
        result = run_service(specs, config=_config(), kill_at=(2,))
        tenants = result.store.latest().state()["tenants"]
        for runtime in result.runtimes:
            text = runtime.tracer.to_jsonl()
            assert text and text.count("\n") == len(runtime.tracer)
            assert tenants[runtime.spec.tenant_id]["tracer"]["events"] == text

    def test_version_two_checkpoint_is_refused(self):
        # Version 2 carried each tracer ring as a list of event dicts and
        # the newest interval's full counters, latency array included.
        result = run_service([_spec("t", 40.0, 2)], config=_config())
        text = result.store.latest().wire()
        old = text.replace(f'"version":{CHECKPOINT_VERSION}', '"version":2', 1)
        assert CHECKPOINT_VERSION > 2 and old != text
        with pytest.raises(CheckpointError, match="unsupported checkpoint version 2"):
            Checkpoint.from_json(old)


def _service(n_intervals: int) -> ControllerService:
    config = _config()
    service = ControllerService(
        [
            TenantRuntime(_spec(f"t{i}", rate, n_intervals), config)
            for i, rate in enumerate((40.0, 120.0))
        ]
    )
    service.warmup()
    return service


class TestThreadedService:
    N_INTERVALS = 200  # far more than the test lets run

    def test_stop_ends_at_a_tick_boundary_like_run_sync(self):
        service = _service(self.N_INTERVALS)
        service.start(self.N_INTERVALS, tick_interval_s=0.02)
        deadline = time.monotonic() + 60.0
        while service.tick < 3 and time.monotonic() < deadline:
            time.sleep(0.005)
        service.stop()
        service.join(timeout=60.0)
        assert not service._thread.is_alive()

        ticks = service.tick
        assert 3 <= ticks < self.N_INTERVALS
        # Every tenant ran exactly the ticks the service counted, and the
        # last of them was checkpointed: no tick was cut short.
        assert all(rt.decided_intervals == ticks for rt in service.tenants)
        latest = service.store.latest()
        assert latest.interval == ticks - 1

        reference = _service(self.N_INTERVALS)
        reference.run_sync(ticks)
        assert latest.to_json() == reference.store.latest().to_json()

    def test_second_start_while_running_raises(self):
        service = _service(self.N_INTERVALS)
        service.start(self.N_INTERVALS, tick_interval_s=0.02)
        try:
            with pytest.raises(RuntimeError, match="already running"):
                service.start(self.N_INTERVALS)
        finally:
            service.stop()
            service.join(timeout=60.0)
        assert not service._thread.is_alive()
        assert service.tick < self.N_INTERVALS
