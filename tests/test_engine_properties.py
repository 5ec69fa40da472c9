"""Property-style conservation and sanity laws for the engine.

These are the invariants the whole evaluation rests on: requests are
neither lost nor duplicated, latencies are physically plausible, and
utilization reflects the container actually allocated.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.bufferpool import DatasetSpec
from repro.engine.containers import default_catalog
from repro.engine.requests import TransactionSpec
from repro.engine.resources import ResourceKind
from repro.engine.server import DatabaseServer, EngineConfig

CATALOG = default_catalog()


def build_server(level: int, rate_seed: int, cpu_ms: float, reads: float) -> DatabaseServer:
    spec = TransactionSpec(
        name="q",
        weight=1.0,
        cpu_ms=cpu_ms,
        logical_reads=reads,
        log_kb=2.0,
        work_sigma=0.2,
    )
    server = DatabaseServer(
        specs=[spec],
        dataset=DatasetSpec(data_gb=6.0, working_set_gb=1.0),
        container=CATALOG.at_level(level),
        config=EngineConfig(interval_ticks=10, seed=rate_seed),
        n_hot_locks=0,
    )
    server.prewarm()
    return server


@settings(max_examples=15, deadline=None)
@given(
    level=st.integers(min_value=0, max_value=10),
    rate=st.floats(min_value=0.0, max_value=60.0),
    cpu_ms=st.floats(min_value=1.0, max_value=120.0),
    reads=st.floats(min_value=0.0, max_value=300.0),
    seed=st.integers(min_value=0, max_value=50),
)
def test_request_conservation(level, rate, cpu_ms, reads, seed):
    """arrivals == completions + rejected + still-in-flight, always."""
    server = build_server(level, seed, cpu_ms, reads)
    arrivals = completions = rejected = 0
    for _ in range(4):
        counters = server.run_interval(rate)
        arrivals += counters.arrivals
        completions += counters.completions
        rejected += counters.rejected
    assert arrivals == completions + rejected + server.in_flight()


@settings(max_examples=15, deadline=None)
@given(
    level=st.integers(min_value=2, max_value=10),
    rate=st.floats(min_value=0.5, max_value=30.0),
    seed=st.integers(min_value=0, max_value=50),
)
def test_latencies_physically_plausible(level, rate, seed):
    """Latency is positive, finite, and bounded by the simulated horizon."""
    server = build_server(level, seed, cpu_ms=10.0, reads=20.0)
    horizon_ms = 0.0
    for _ in range(3):
        counters = server.run_interval(rate)
        horizon_ms += counters.duration_s * 1000.0
        if counters.latencies_ms.size:
            assert np.isfinite(counters.latencies_ms).all()
            assert (counters.latencies_ms > 0).all()
            assert (counters.latencies_ms <= horizon_ms + 1000.0).all()


@settings(max_examples=15, deadline=None)
@given(
    level=st.integers(min_value=0, max_value=10),
    rate=st.floats(min_value=0.0, max_value=80.0),
    seed=st.integers(min_value=0, max_value=50),
)
def test_utilization_and_waits_bounded(level, rate, seed):
    server = build_server(level, seed, cpu_ms=20.0, reads=50.0)
    for _ in range(3):
        counters = server.run_interval(rate)
        for kind in ResourceKind:
            assert 0.0 <= counters.utilization_median[kind] <= 1.0
            assert 0.0 <= counters.utilization_mean[kind] <= 1.0
        assert counters.waits.total() >= 0.0
        percentages = counters.waits.percentages()
        total_pct = sum(percentages.values())
        assert total_pct == pytest.approx(100.0) or total_pct == 0.0


@settings(max_examples=10, deadline=None)
@given(
    small=st.integers(min_value=0, max_value=5),
    boost=st.integers(min_value=3, max_value=5),
    seed=st.integers(min_value=0, max_value=20),
)
def test_more_resources_never_hurt_throughput_much(small, boost, seed):
    """A strictly larger container completes at least ~as many requests."""
    rate = 25.0
    little = build_server(small, seed, cpu_ms=40.0, reads=60.0)
    big = build_server(min(small + boost, 10), seed, cpu_ms=40.0, reads=60.0)
    little_done = sum(little.run_interval(rate).completions for _ in range(4))
    big_done = sum(big.run_interval(rate).completions for _ in range(4))
    assert big_done >= little_done * 0.9


@settings(max_examples=60, deadline=None)
@given(
    weights=st.lists(
        st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=8
    ),
    n=st.integers(min_value=1, max_value=300),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_mix_draw_is_generator_choice(weights, n, seed):
    """Admission's type draw equals ``Generator.choice(len(p), n, p=p)``
    and leaves the generator where ``choice`` leaves it, so a numpy that
    changed ``choice`` would show here rather than drift silently."""
    specs = [
        TransactionSpec(
            name=f"q{i}", weight=w, cpu_ms=1.0, logical_reads=1.0, log_kb=1.0
        )
        for i, w in enumerate(weights)
    ]
    server = DatabaseServer(
        specs=specs,
        dataset=DatasetSpec(data_gb=6.0, working_set_gb=1.0),
        container=CATALOG.at_level(2),
        config=EngineConfig(seed=seed),
    )
    p = np.asarray(weights) / np.sum(weights)
    reference = np.random.default_rng(seed)
    want = reference.choice(len(p), n, p=p)
    got = server._draw_types(n)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)
    assert server._rng.bit_generator.state == reference.bit_generator.state
