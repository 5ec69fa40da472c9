"""Property tests: controller state round-trips exactly through the wire.

For every checkpointable structure, Hypothesis drives it through an
arbitrary operation history and asserts the durability contract:

    serialize → deserialize → serialize  is the identity,

both in-memory (``state_dict`` equality) and through the JSON wire
format the checkpoint store actually persists.
"""

from __future__ import annotations

import dataclasses
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.budget import BudgetManager, BurstStrategy
from repro.core.damper import OscillationDamper
from repro.core.latency import LatencyGoal
from repro.core.telemetry_manager import TelemetryManager
from repro.core.thresholds import default_thresholds
from repro.engine.containers import default_catalog
from repro.service import decode_state, encode_state
from repro.stats.rolling import RollingWindow
from tests.helpers import make_interval_counters

_finite = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e9, max_value=1e9
)


def _canon(state: dict) -> str:
    """Canonical wire bytes for a state dict (handles ndarray members)."""
    return json.dumps(encode_state(state), sort_keys=True, separators=(",", ":"))


def _wire(state: dict) -> dict:
    """Run a state dict through the exact bytes the store persists."""
    text = _canon(state)
    decoded = decode_state(json.loads(text))
    # The wire itself must be stable: re-encoding what came back yields
    # the same bytes.
    assert _canon(decoded) == text
    return decoded


@st.composite
def _budget_histories(draw):
    n_intervals = draw(st.integers(min_value=2, max_value=16))
    min_cost = draw(st.floats(min_value=0.5, max_value=4.0))
    max_cost = min_cost * draw(st.floats(min_value=1.0, max_value=8.0))
    headroom = draw(st.floats(min_value=1.0, max_value=3.0))
    budget = n_intervals * min_cost * headroom
    strategy = draw(st.sampled_from(list(BurstStrategy)))
    k = draw(st.integers(min_value=1, max_value=4))
    steps = draw(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1.0),  # cost fraction
                st.floats(min_value=0.0, max_value=0.3),  # refund fraction
            ),
            max_size=n_intervals - 1,
        )
    )
    return (budget, n_intervals, min_cost, max_cost, strategy, k, steps)


@settings(max_examples=60, deadline=None)
@given(_budget_histories())
def test_budget_ledger_round_trips_exactly(history):
    budget, n_intervals, min_cost, max_cost, strategy, k, steps = history
    manager = BudgetManager(
        budget=budget,
        n_intervals=n_intervals,
        min_cost=min_cost,
        max_cost=max_cost,
        strategy=strategy,
        conservative_k=k,
    )
    for cost_frac, refund_frac in steps:
        cost = min_cost + cost_frac * (max_cost - min_cost)
        if not manager.affordable(cost):
            cost = min_cost
        manager.end_interval(cost)
        if refund_frac > 0:
            manager.refund(refund_frac * cost)

    state = manager.state_dict()
    restored = BudgetManager.from_state_dict(_wire(state))
    assert _canon(restored.state_dict()) == _canon(state)
    # Behavioral identity, not just field identity: the restored ledger
    # answers affordability exactly like the original.
    probe = (min_cost + max_cost) / 2
    assert restored.affordable(probe) == manager.affordable(probe)
    assert restored.available == manager.available


@settings(max_examples=60, deadline=None)
@given(
    window=st.integers(min_value=2, max_value=8),
    max_reversals=st.integers(min_value=1, max_value=3),
    cooldown=st.integers(min_value=1, max_value=10),
    levels=st.lists(st.integers(min_value=0, max_value=5), max_size=40),
)
def test_damper_cooldown_round_trips_exactly(
    window, max_reversals, cooldown, levels
):
    damper = OscillationDamper(
        window=window,
        max_reversals=max_reversals,
        cooldown_intervals=cooldown,
    )
    previous = 0
    for level in levels:
        damper.observe(previous, level)
        previous = level

    state = damper.state_dict()
    restored = OscillationDamper.from_state_dict(_wire(state))
    assert _canon(restored.state_dict()) == _canon(state)
    # The restored damper continues the cooldown exactly in phase.
    for a, b in [(0, 1), (1, 0), (0, 1), (1, 0)]:
        assert restored.observe(a, b) == damper.observe(a, b)
        assert _canon(restored.state_dict()) == _canon(damper.state_dict())


@settings(max_examples=60, deadline=None)
@given(
    capacity=st.integers(min_value=1, max_value=32),
    values=st.lists(_finite, max_size=64),
)
def test_rolling_window_round_trips_exactly(capacity, values):
    window = RollingWindow(capacity)
    for value in values:
        window.append(value)

    state = window.state_dict()
    restored = RollingWindow(capacity)
    restored.load_state_dict(_wire(state))
    assert _canon(restored.state_dict()) == _canon(state)
    if len(window):
        assert restored.mean() == window.mean()
        assert restored.percentile(95.0) == window.percentile(95.0)


@settings(max_examples=60, deadline=None)
@given(
    window=st.integers(min_value=2, max_value=12),
    trend_window=st.integers(min_value=2, max_value=12),
    samples=st.lists(
        st.tuples(
            st.one_of(st.none(), st.floats(min_value=1.0, max_value=1e4)),
            st.floats(min_value=0.0, max_value=1.0),
            st.floats(min_value=0.0, max_value=1e6),
        ),
        max_size=30,
    ),
)
def test_telemetry_manager_round_trips_exactly(window, trend_window, samples):
    thresholds = dataclasses.replace(
        default_thresholds(), signal_window=window, trend_window=trend_window
    )
    level = default_catalog().at_level(3)

    def counters(i, latency, util, wait):
        return make_interval_counters(
            i, level,
            latency_ms=0.0 if latency is None else latency,
            n_latencies=0 if latency is None else 20,
            cpu_util=util, cpu_wait_ms=wait,
        )

    manager = TelemetryManager(thresholds, LatencyGoal(100.0))
    for i, sample in enumerate(samples):
        manager.observe(counters(i, *sample))

    state = manager.state_dict()
    restored = TelemetryManager(thresholds, LatencyGoal(100.0))
    restored.load_state_dict(_wire(state))
    assert _canon(restored.state_dict()) == _canon(state)
    # The restored rings resume in phase: same signals now and after the
    # next observation wraps past the restored cursor.
    n = len(samples)
    for step in range(2):
        if n + step:
            assert repr(restored.signals()) == repr(manager.signals())
        follow = counters(n + step, 50.0 + step, 0.5, 10.0 * step)
        manager.observe(follow)
        restored.observe(follow)
    assert _canon(restored.state_dict()) == _canon(manager.state_dict())


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_vectorized_scaler_round_trips_in_any_ring_layout(seed):
    """The fleet engine's rings, at any cursor position, must survive the
    wire and resume identically — a shard restored from a checkpoint is
    still the same controller."""
    import numpy as np

    from repro.engine.containers import default_catalog
    from repro.fleet.vectorized import (
        ClosedLoopFleetSynthesizer,
        VectorizedAutoScaler,
    )

    catalog = default_catalog()
    n_tenants, n_intervals = 7, 9
    half = n_intervals // 2

    def build():
        return VectorizedAutoScaler(catalog, n_tenants)

    synth = ClosedLoopFleetSynthesizer(n_tenants, catalog, seed)
    scaler = build()
    for i in range(half):
        fields = synth.interval(i, scaler.level, scaler.balloon_limit_gb)
        scaler.decide_batch(float(i), **fields)

    state = scaler.state_dict()
    assert state["dtype"] == "float64"
    restored = build()
    restored.load_state_dict(_wire(state))
    assert _canon(restored.state_dict()) == _canon(state)

    # Both copies must make byte-identical decisions from here on.
    for i in range(half, n_intervals):
        fields = synth.interval(i, scaler.level, scaler.balloon_limit_gb)
        live = scaler.decide_batch(float(i), **fields)
        twin = restored.decide_batch(float(i), **fields)
        assert np.array_equal(live.level, twin.level)
        assert np.array_equal(live.resized, twin.resized)
        assert np.array_equal(live.steps, twin.steps)
        assert np.array_equal(
            live.balloon_limit_gb, twin.balloon_limit_gb, equal_nan=True
        )
    assert _canon(restored.state_dict()) == _canon(scaler.state_dict())
