"""Tier-1 smoke run of the telemetry performance benchmark.

Runs ``benchmarks/bench_perf_telemetry.py`` in ``--smoke`` geometry
(seconds, not minutes) so a regression in the vectorized fleet engine or
the instrumentation — a slowdown below the smoke floors, a
scalar/vectorized decision divergence, or tracing that changes a
decision — fails the ordinary test suite fast, without waiting for the
full fleet sweep.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_PATH = REPO_ROOT / "benchmarks" / "bench_perf_telemetry.py"

#: The vectorized sweep amortizes per-interval overhead across tenants, so
#: a 24-tenant smoke fleet sees only a fraction of the 1000-tenant >= 10x
#: target; the floor catches "the sweep stopped being vectorized".
SMOKE_VECTORIZED_SPEEDUP_FLOOR = 2.0

#: Looser than the 10% full-sweep target for the same reason: a smoke run
#: is short enough that scheduler jitter alone can move the needle a few
#: percent, but a tracing layer that suddenly costs a quarter of the run
#: is a real regression.
SMOKE_TRACING_OVERHEAD_MAX_PCT = 25.0


@pytest.fixture(scope="module")
def bench_module():
    spec = importlib.util.spec_from_file_location("bench_perf_telemetry", BENCH_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def smoke_result(bench_module, tmp_path_factory):
    path = tmp_path_factory.mktemp("bench") / "BENCH_perf_telemetry.json"
    result = bench_module.run_benchmark(smoke=True, result_path=path)
    return result, path


def test_smoke_benchmark(smoke_result):
    result, path = smoke_result
    tracing = result["tracing"]
    assert tracing["byte_identical"], (
        "DECISION-level tracing changed decisions or bills"
    )
    assert tracing["events_per_run"] > 0
    assert tracing["overhead_pct"] < SMOKE_TRACING_OVERHEAD_MAX_PCT, (
        f"tracing overhead {tracing['overhead_pct']:.1f}% exceeds the smoke "
        f"ceiling ({SMOKE_TRACING_OVERHEAD_MAX_PCT:.0f}%) — hot-path emission "
        "in src/repro/obs/tracer.py or over-eager instrumentation?"
    )
    written = json.loads(path.read_text())
    assert written["benchmark"] == "perf_telemetry"
    assert written["tracing"] == tracing


def test_smoke_vectorized_sweep(smoke_result):
    """The vectorized engine must agree with the scalar loop and still win."""
    result, _ = smoke_result
    vec = result["fleet_vectorized"]
    assert vec["decisions_identical"], (
        "vectorized fleet sweep diverged from the scalar AutoScaler"
    )
    assert vec["decisions_compared"] == vec["tenants"] * vec["intervals"]
    assert vec["measured_intervals"] < vec["intervals"], (
        "warm-up intervals must be excluded from the measured window"
    )
    assert vec["speedup"] >= SMOKE_VECTORIZED_SPEEDUP_FLOOR, (
        f"vectorized sweep only {vec['speedup']:.2f}x faster than the scalar "
        f"decide loop (smoke floor {SMOKE_VECTORIZED_SPEEDUP_FLOOR}x) — "
        "regression in src/repro/fleet/vectorized.py?"
    )


def test_smoke_checkpoint_arm(smoke_result):
    """Checkpoint capture must stay consistent; timing gated on full runs only.

    The correctness flags (deferred-encode immutability, bit-identical
    resume) must hold even on a noisy runner; the <10% synchronous-capture
    ceiling is enforced by ``check_perf_gate.py`` against the committed
    full-mode numbers, where the sweep interval is large enough to time.
    """
    result, _ = smoke_result
    ckpt = result["checkpoint"]
    assert ckpt["snapshot_immutable"], (
        "state_dict() returned live views — encoding after the engine "
        "mutated produced different wire bytes"
    )
    assert ckpt["restore_identical"], (
        "engine restored from the JSON wire diverged from the "
        "uninterrupted twin"
    )
    assert ckpt["capture_ms"] > 0.0
    assert ckpt["wire_bytes"] > 0


def test_smoke_chaos_degraded_arm(smoke_result):
    """The degraded sweep must actually inject faults and report a ratio.

    The <= 2x degraded-over-healthy ceiling is timing and therefore gated
    by ``check_perf_gate.py`` against the committed full-mode numbers; the
    smoke run only verifies the arm is wired and the degraded path ran
    with a real fault load.
    """
    result, _ = smoke_result
    chaos = result["chaos_degraded"]
    assert chaos["fault_rate"] == pytest.approx(0.05)
    assert chaos["faulted_tenant_intervals"] > 0, (
        "degraded sweep ran without any faulted tenant-intervals — the "
        "schedules compiled to empty masks?"
    )
    assert chaos["degraded_mean_interval_s"] > 0.0
    assert chaos["healthy_mean_interval_s"] > 0.0
    assert chaos["degraded_over_healthy"] > 0.0
    assert chaos["max_ratio"] == 2.0


def test_smoke_fleet_scale_arm(smoke_result):
    """The fleet-scale arm must run closed-loop and actually actuate.

    The s/interval and peak-RSS ceilings are full-geometry numbers gated
    by ``check_perf_gate.py`` against the committed JSON; the smoke run
    verifies the truncated arm exercises the same machinery — subprocess
    isolation, the float64 rings, and a loop that resizes.
    """
    result, _ = smoke_result
    big = result["fleet_1m"]
    assert big["closed_loop"] is True
    assert "dtype" not in big and "tile" not in big
    assert big["actuated"], (
        "closed-loop sweep made no resizes / spent no budget / never "
        "probed a balloon — the synthesizer is not reacting to levels"
    )
    assert big["peak_rss_gb"] > 0.0
    assert big["mean_interval_s"] > 0.0
