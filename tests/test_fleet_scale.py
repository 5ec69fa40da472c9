"""The closed-loop fleet sweep, its shards, and the ring checkpoint guard.

* **the closed loop actuates** — the reactive synthesizer drives real
  resizes, budget spend, and balloon transitions, sharded or not, and
  shards reproduce the unsharded run exactly.
* **fleet rings are float64** — checkpoints record ``"dtype": "float64"``;
  one recording any other dtype is refused before any state changes, and
  one without the key (written before the key existed) still loads.
"""

from __future__ import annotations

import json

import pytest

from repro.core.latency import LatencyGoal
from repro.engine.containers import default_catalog
from repro.errors import ConfigurationError
from repro.fleet.vectorized import (
    ClosedLoopFleetSynthesizer,
    VectorizedAutoScaler,
    run_synthetic_sweep,
)
from repro.service import encode_state


# -- the closed loop actuates -------------------------------------------------


def test_closed_loop_sweep_actuates():
    digest = run_synthetic_sweep(400, 12, seed=7)
    assert digest["n_shards"] == 1
    assert digest["resizes"] > 0
    assert digest["budget_spent"] > 0.0
    assert digest["balloon_transitions"] > 0
    counts = digest["actuation"]
    assert counts["scale_up"] > 0 and counts["scale_down"] > 0
    assert counts["probe_started"] > 0


def test_closed_loop_shards_match_unsharded_run():
    n_tenants, n_intervals, seed = 300, 10, 11
    whole = run_synthetic_sweep(n_tenants, n_intervals, seed=seed)
    sharded = run_synthetic_sweep(n_tenants, n_intervals, seed=seed, n_shards=3)
    assert sharded["n_shards"] == 3
    assert sharded["resizes"] == whole["resizes"]
    assert sharded["budget_spent"] == pytest.approx(whole["budget_spent"])
    assert sharded["balloon_transitions"] == whole["balloon_transitions"]
    assert sharded["final_level_histogram"] == whole["final_level_histogram"]
    assert sharded["actuation"] == whole["actuation"]
    assert len(sharded["per_interval_s"]) == n_intervals


# -- checkpoint guard rails ----------------------------------------------------


def _driven_scaler(n_tenants=6, n_intervals=4, seed=3):
    catalog = default_catalog()
    scaler = VectorizedAutoScaler(catalog, n_tenants, goal=LatencyGoal(100.0))
    synth = ClosedLoopFleetSynthesizer(n_tenants, catalog, seed)
    for i in range(n_intervals):
        fields = synth.interval(i, scaler.level, scaler.balloon_limit_gb)
        scaler.decide_batch(float(i), **fields)
    return scaler


def _canon(state: dict) -> str:
    """Canonical wire bytes for a state dict (ndarray dtypes included)."""
    return json.dumps(encode_state(state), sort_keys=True)


def test_checkpoint_dtype_mismatch_rejected():
    """A float32 scaler or telemetry checkpoint is refused, state untouched."""
    source = _driven_scaler(seed=3)
    target = _driven_scaler(seed=9)
    before = _canon(target.state_dict())
    for corrupt in ("scaler", "telemetry"):
        state = source.state_dict()
        inner = state if corrupt == "scaler" else state["telemetry"]
        inner["dtype"] = "float32"
        with pytest.raises(ConfigurationError, match="float32"):
            target.load_state_dict(state)
        assert _canon(target.state_dict()) == before

    tel = _driven_scaler(seed=4).telemetry
    tel_before = _canon(tel.state_dict())
    state = _driven_scaler(seed=5).telemetry.state_dict()
    state["dtype"] = "float32"
    with pytest.raises(ConfigurationError, match="float32"):
        tel.load_state_dict(state)
    assert _canon(tel.state_dict()) == tel_before


def test_checkpoint_without_dtype_key_round_trips():
    source = _driven_scaler(seed=3)
    state = source.state_dict()
    del state["dtype"]
    del state["telemetry"]["dtype"]
    restored = _driven_scaler(seed=9)
    restored.load_state_dict(state)
    assert _canon(restored.state_dict()) == _canon(source.state_dict())

    tel = _driven_scaler(seed=4).telemetry
    tel_state = tel.state_dict()
    del tel_state["dtype"]
    twin = _driven_scaler(seed=5).telemetry
    twin.load_state_dict(tel_state)
    assert _canon(twin.state_dict()) == _canon(tel.state_dict())
