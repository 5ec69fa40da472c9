"""The fleet telemetry's checkpoint wire layout, pinned against its memory layout.

The rings live time-major in memory (``(W, T)`` / ``(W, K, T)``) while
checkpoints carry them tenant-major with the time axis last (``(T, W)`` for
the per-row clock and latency, ``(K, T, W)`` per resource).  These tests
build the wire arrays independently — each observed column written at its
ring slot — so a change to the in-memory layout can never leak into
checkpoint bytes, and a ring of the wrong shape is refused at load.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.latency import LatencyGoal
from repro.core.thresholds import default_thresholds
from repro.engine.resources import SCALABLE_KINDS
from repro.errors import ConfigurationError
from repro.fleet.vectorized import VectorizedTelemetry

K = len(SCALABLE_KINDS)
N = 7  # != the signal window, so a transposed ring has the wrong shape


def _inputs(rng, n):
    latency = rng.gamma(2.0, 30.0, n)
    latency[rng.random(n) < 0.1] = np.nan
    return (
        latency,
        rng.uniform(0.0, 100.0, (K, n)),
        rng.gamma(2.0, 5.0, (K, n)),
        rng.uniform(0.0, 60.0, (K, n)),
    )


def _reference(n, window):
    return {
        "t": np.full((n, window), np.nan),
        "lat": np.full((n, window), np.nan),
        "util": np.full((K, n, window), np.nan),
        "wait": np.full((K, n, window), np.nan),
        "wpct": np.full((K, n, window), np.nan),
    }


def _assert_signals_equal(a, b):
    for field in a._fields:
        assert np.array_equal(
            getattr(a, field), getattr(b, field), equal_nan=True
        ), field


def _assert_wire_equal(state, ref):
    for name, want in ref.items():
        got = state[name]
        assert got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


def test_healthy_wire_layout_is_tenant_major():
    thresholds = default_thresholds()
    window = thresholds.signal_window
    tel = VectorizedTelemetry(N, thresholds, LatencyGoal(100.0))
    ref = _reference(N, window)
    rng = np.random.default_rng(3)
    for i in range(window + 4):  # wraps the ring
        lat, util, wait, wpct = _inputs(rng, N)
        tel.observe(float(i), lat, util, wait, wpct)
        c = i % window
        ref["t"][:, c] = i
        ref["lat"][:, c] = lat
        ref["util"][:, :, c] = util
        ref["wait"][:, :, c] = wait
        ref["wpct"][:, :, c] = wpct
    state = tel.state_dict()
    _assert_wire_equal(state, ref)
    assert np.array_equal(state["cursor_rows"], np.full(N, (window + 4) % window))
    assert np.array_equal(state["count_rows"], np.full(N, window + 4))

    restored = VectorizedTelemetry(N, thresholds, LatencyGoal(100.0))
    restored.load_state_dict({**state, **ref})
    _assert_signals_equal(restored.signals(), tel.signals())


def test_masked_wire_layout_is_tenant_major():
    thresholds = default_thresholds()
    window = thresholds.signal_window
    tel = VectorizedTelemetry(N, thresholds, LatencyGoal(100.0))
    ref = _reference(N, window)
    count = np.zeros(N, dtype=np.int64)
    rng = np.random.default_rng(4)
    for i in range(2 * window):
        rows = np.flatnonzero(rng.random(N) < 0.8)  # rows fall out of step
        lat, util, wait, wpct = _inputs(rng, rows.size)
        t = np.full(rows.size, float(i))
        tel.observe_rows(rows, t, lat, util, wait, wpct)
        c = count[rows] % window
        ref["t"][rows, c] = t
        ref["lat"][rows, c] = lat
        ref["util"][:, rows, c] = util
        ref["wait"][:, rows, c] = wait
        ref["wpct"][:, rows, c] = wpct
        count[rows] += 1
    assert count.max() > window and len(set(count % window)) > 1
    state = tel.state_dict()
    _assert_wire_equal(state, ref)
    assert np.array_equal(state["cursor_rows"], count % window)
    assert np.array_equal(state["count_rows"], count)

    restored = VectorizedTelemetry(N, thresholds, LatencyGoal(100.0))
    restored.load_state_dict({**state, **ref})
    rows = np.flatnonzero(count > 0)
    _assert_signals_equal(restored.signals_rows(rows), tel.signals_rows(rows))


def _fed(lock_step):
    thresholds = default_thresholds()
    tel = VectorizedTelemetry(N, thresholds, LatencyGoal(100.0))
    rng = np.random.default_rng(5)
    for i in range(3):
        if lock_step:
            tel.observe(float(i), *_inputs(rng, N))
            continue
        # Every row reports first, then only some: per-row cursors diverge.
        rows = np.arange(N) if i == 0 else np.flatnonzero(rng.random(N) < 0.6)
        tel.observe_rows(
            rows, np.full(rows.size, float(i)), *_inputs(rng, rows.size)
        )
    return tel


# The ids keep the names of the two ring classes that VectorizedTelemetry
# replaced: one fed in lock step, one whose rows fall out of step.
@pytest.mark.parametrize(
    "lock_step",
    [
        pytest.param(True, id="VectorizedTelemetry"),
        pytest.param(False, id="MaskedVectorizedTelemetry"),
    ],
)
def test_restore_rejects_misshapen_rings(lock_step):
    tel = _fed(lock_step)
    state = tel.state_dict()
    bad = {
        "lat": state["lat"].T,  # (W, T): the memory layout, not the wire's
        "util": state["util"][:, :, :5],  # truncated window
        "t": state["t"][..., :-1],
        "wait": state["wait"][:2],
        "wpct": state["wpct"][:, :-1],
        "cursor_rows": state["cursor_rows"][:-1],
        "count_rows": np.zeros((N, 1), dtype=np.int64),
    }
    signals = tel.signals()
    for name, value in bad.items():
        fresh = VectorizedTelemetry(N, default_thresholds(), LatencyGoal(100.0))
        with pytest.raises(ConfigurationError, match=name):
            fresh.load_state_dict({**state, name: value})
        # A refused checkpoint leaves the target's rings as they were.
        with pytest.raises(ConfigurationError):
            tel.load_state_dict({**state, name: value})
        _assert_signals_equal(tel.signals(), signals)
