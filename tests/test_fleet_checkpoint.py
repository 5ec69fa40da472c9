"""Vectorized fleet engine checkpointing: resume mid-sweep, bit for bit.

A 1000-tenant service can't afford to re-run history on restart; the
struct-of-arrays engine serializes its whole control loop (levels,
budget ledger, balloon machine, telemetry rings, damper rings) and a
restored engine must continue the sweep with decisions identical to one
that never stopped.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.budget import BudgetManager
from repro.core.damper import OscillationDamper
from repro.core.latency import LatencyGoal
from repro.engine.containers import default_catalog
from repro.errors import BudgetError, ConfigurationError
from repro.faults.schedule import FaultSchedule
from repro.faults.vectorized import compile_schedules
from repro.fleet.degraded import (
    DegradedSyntheticFleet,
    DegradedVectorizedAutoScaler,
)
from repro.fleet.vectorized import (
    ClosedLoopFleetSynthesizer,
    VectorizedAutoScaler,
    replay_decisions,
    synthesize_fleet_telemetry,
)
from repro.service import decode_state, encode_state

from .test_fleet_vectorized import make_streams

_N_TENANTS = 12
_N_INTERVALS = 36
_SEED = 31


def _build_engine(catalog, levels, n_intervals=_N_INTERVALS):
    budgets = [
        BudgetManager(
            budget=catalog.at_level(int(levels[t])).cost * n_intervals * 1.3
            + catalog.min_cost * 5,
            n_intervals=n_intervals + 5,
            min_cost=catalog.min_cost,
            max_cost=catalog.max_cost,
        )
        for t in range(_N_TENANTS)
    ]
    return VectorizedAutoScaler(
        default_catalog(),
        _N_TENANTS,
        initial_level=levels,
        goal=LatencyGoal(100.0),
        budget=budgets,
        damper=OscillationDamper(),
    )


def _assert_same_decisions(resumed, uninterrupted):
    assert len(resumed) == len(uninterrupted)
    for got, want in zip(resumed, uninterrupted):
        assert np.array_equal(got.level, want.level)
        assert np.array_equal(got.resized, want.resized)
        assert np.array_equal(
            got.balloon_limit_gb, want.balloon_limit_gb, equal_nan=True
        )
        assert np.array_equal(got.steps, want.steps)
        assert np.array_equal(got.rules, want.rules)
        assert got.actions == want.actions


def test_mid_sweep_restore_is_bit_identical():
    catalog = default_catalog()
    rng = np.random.default_rng(_SEED + 999)
    levels = rng.integers(0, catalog.num_levels, _N_TENANTS)
    streams = make_streams(_N_TENANTS, _N_INTERVALS, _SEED, catalog, levels)
    half = _N_INTERVALS // 2
    first = [s[:half] for s in streams]
    second = [s[half:] for s in streams]

    # Uninterrupted twin: all 36 intervals in one engine.
    twin = _build_engine(catalog, levels)
    all_decisions = replay_decisions(streams, twin)

    # Checkpointed run: stop at the halfway mark, serialize through the
    # exact JSON wire format, restore into a brand-new engine.
    engine = _build_engine(catalog, levels)
    replay_decisions(first, engine)
    wire = json.dumps(
        encode_state(engine.state_dict()),
        sort_keys=True,
        separators=(",", ":"),
    )
    restored = _build_engine(catalog, levels)
    restored.load_state_dict(decode_state(json.loads(wire)))

    resumed = replay_decisions(second, restored)
    _assert_same_decisions(resumed, all_decisions[half:])


def _wire(state):
    return json.dumps(encode_state(state), sort_keys=True, separators=(",", ":"))


@pytest.mark.parametrize("engine", ["healthy", "degraded"])
def test_deferred_encode_matches_the_snapshot_not_the_live_engine(engine):
    # The tick loop pays only for state_dict(); encoding and writing run
    # later, while the engine keeps deciding.  The snapshot must hold no
    # live views: encoding it two intervals on gives the same bytes.
    catalog = default_catalog()
    if engine == "healthy":
        rng = np.random.default_rng(_SEED + 999)
        levels = rng.integers(0, catalog.num_levels, _N_TENANTS)
        streams = make_streams(_N_TENANTS, _N_INTERVALS, _SEED, catalog, levels)
        live = _build_engine(catalog, levels)
        columns = iter(
            [[s[i : i + 1] for s in streams] for i in range(_N_INTERVALS)]
        )

        def step():
            replay_decisions(next(columns), live)

    else:
        live = _build_degraded_fleet(catalog)
        step = live.step
    for _ in range(_N_INTERVALS // 2):
        step()
    snapshot = live.state_dict()
    wire = _wire(snapshot)
    step()
    step()
    assert _wire(live.state_dict()) != wire
    assert _wire(snapshot) == wire


def _build_degraded_fleet(catalog, failure_threshold=2):
    arrays = synthesize_fleet_telemetry(_N_TENANTS, _N_INTERVALS, seed=_SEED)
    schedules = [
        FaultSchedule.random(
            seed=_SEED + 17 * t, n_intervals=_N_INTERVALS, n_faults=4
        )
        for t in range(_N_TENANTS)
    ]
    masks = compile_schedules(schedules, _N_INTERVALS)
    budgets = [
        BudgetManager(
            budget=catalog.max_cost * _N_INTERVALS * 0.4,
            n_intervals=_N_INTERVALS + 5,
            min_cost=catalog.min_cost,
            max_cost=catalog.max_cost,
        )
        for _ in range(_N_TENANTS)
    ]
    scaler = DegradedVectorizedAutoScaler(
        catalog,
        _N_TENANTS,
        goal=LatencyGoal(100.0),
        budget=budgets,
        damper=OscillationDamper(),
        executor_seeds=_SEED,
        failure_threshold=failure_threshold,
        open_intervals=3,
    )
    return DegradedSyntheticFleet(scaler, arrays, masks)


def _assert_same_waves(resumed, uninterrupted):
    assert len(resumed) == len(uninterrupted)
    for got_waves, want_waves in zip(resumed, uninterrupted):
        assert len(got_waves) == len(want_waves)
        for got, want in zip(got_waves, want_waves):
            assert np.array_equal(got.participants, want.participants)
            assert np.array_equal(got.level, want.level)
            assert np.array_equal(got.resized, want.resized)
            assert np.array_equal(
                got.balloon_limit_gb, want.balloon_limit_gb, equal_nan=True
            )
            assert got.actions == want.actions
            assert np.array_equal(got.died, want.died)


def test_mid_chaos_sweep_restore_is_bit_identical():
    # Kill the degraded fleet halfway through a faulted sweep — guard
    # gaps open, circuits possibly ajar, refunds pending, held late
    # deliveries in flight — serialize through the JSON wire, restore
    # into a brand-new fleet, and the continuation must be byte-identical
    # to the twin that never stopped.
    catalog = default_catalog()
    twin = _build_degraded_fleet(catalog)
    all_waves = [twin.step() for _ in range(_N_INTERVALS)]

    fleet = _build_degraded_fleet(catalog)
    half = _N_INTERVALS // 2
    # The checkpoint happens mid-chaos, not in a quiet patch.
    assert fleet.masks.any_telemetry[:, :half].any()
    for _ in range(half):
        fleet.step()
    wire = json.dumps(
        encode_state(fleet.state_dict()),
        sort_keys=True,
        separators=(",", ":"),
    )
    restored = _build_degraded_fleet(catalog)
    restored.load_state_dict(decode_state(json.loads(wire)))

    resumed = [restored.step() for _ in range(_N_INTERVALS - half)]
    _assert_same_waves(resumed, all_waves[half:])

    # The restored control plane's terminal state matches the twin's on
    # every degraded-path axis, not just the emitted decisions.
    got, want = restored.scaler, twin.scaler
    assert np.array_equal(got.level, want.level)
    assert np.array_equal(got._x_state, want._x_state)
    assert np.array_equal(got._x_consec, want._x_consec)
    assert np.array_equal(got._x_open_left, want._x_open_left)
    assert np.array_equal(got.x_circuit_opens, want.x_circuit_opens)
    assert np.array_equal(got._safe, want._safe)
    assert np.array_equal(got._tokens, want._tokens)
    assert np.array_equal(got._spent, want._spent)
    assert np.array_equal(got._refunded, want._refunded)
    assert np.array_equal(got._pending_refund, want._pending_refund)
    assert np.array_equal(got.g_admitted, want.g_admitted)
    assert np.array_equal(got.g_quarantined, want.g_quarantined)
    assert np.array_equal(got.g_discarded, want.g_discarded)
    assert np.array_equal(got.g_missed, want.g_missed)
    assert got._g_reasons == want._g_reasons
    assert got._dead_error == want._dead_error


def test_degraded_restore_rejects_executor_config_mismatch():
    catalog = default_catalog()
    fleet = _build_degraded_fleet(catalog, failure_threshold=2)
    fleet.step()
    state = fleet.state_dict()
    other = _build_degraded_fleet(catalog, failure_threshold=5)
    with pytest.raises(ConfigurationError):
        other.load_state_dict(state)


def test_restore_rejects_geometry_mismatch():
    catalog = default_catalog()
    rng = np.random.default_rng(_SEED)
    levels = rng.integers(0, catalog.num_levels, _N_TENANTS)
    engine = _build_engine(catalog, levels)
    state = engine.state_dict()

    wrong_size = VectorizedAutoScaler(
        default_catalog(), _N_TENANTS + 1, goal=LatencyGoal(100.0)
    )
    with pytest.raises(ConfigurationError):
        wrong_size.load_state_dict(state)

    # Damper presence is part of the configuration identity too.
    no_damper = VectorizedAutoScaler(
        default_catalog(),
        _N_TENANTS,
        initial_level=levels,
        goal=LatencyGoal(100.0),
    )
    with pytest.raises(ConfigurationError):
        no_damper.load_state_dict(state)


# -- a refused checkpoint leaves the live engine untouched --------------------


def _driven_engine(n_intervals):
    catalog = default_catalog()
    engine = VectorizedAutoScaler(
        catalog, 4, goal=LatencyGoal(100.0), damper=OscillationDamper()
    )
    synth = ClosedLoopFleetSynthesizer(4, catalog, _SEED)
    for i in range(n_intervals):
        fields = synth.interval(i, engine.level, engine.balloon_limit_gb)
        engine.decide_batch(float(i), **fields)
    return engine


def _assert_refused(engine, state):
    def wire():
        return json.dumps(encode_state(engine.state_dict()), sort_keys=True)

    before = wire()
    with pytest.raises(ConfigurationError):
        engine.load_state_dict(state)
    assert wire() == before


def test_restore_rejects_misshapen_level():
    state = _driven_engine(6).state_dict()
    state["level"] = state["level"][:3]
    _assert_refused(_driven_engine(2), state)


def test_restore_rejects_misshapen_budget_tokens():
    state = _driven_engine(6).state_dict()
    state["budget"]["tokens"] = state["budget"]["tokens"][:2]
    _assert_refused(_driven_engine(2), state)


def test_restore_rejects_level_outside_catalog():
    state = _driven_engine(6).state_dict()
    state["level"] = np.full(4, 99)
    _assert_refused(_driven_engine(2), state)


def test_restore_rejects_misshapen_ring_before_touching_levels():
    state = _driven_engine(6).state_dict()
    state["level"] = np.full(4, 5)
    state["telemetry"]["lat"] = state["telemetry"]["lat"][:, 1:]
    engine = _driven_engine(2)
    assert not np.array_equal(engine.level, state["level"])
    _assert_refused(engine, state)


def test_degraded_restore_rejects_misshapen_guard_array():
    catalog = default_catalog()
    source = _build_degraded_fleet(catalog)
    for _ in range(4):
        source.step()
    state = source.scaler.state_dict()
    guard = state["degraded"]["guard"]
    guard["admitted"] = guard["admitted"][:-1]
    target = _build_degraded_fleet(catalog)
    for _ in range(2):
        target.step()
    _assert_refused(target.scaler, state)


@pytest.mark.parametrize(
    "case",
    ["cursor_is_window", "negative_cursor", "negative_count", "cursor_off_count"],
)
def test_restore_rejects_impossible_ring_cursor(case):
    state = _driven_engine(6).state_dict()
    tel = state["telemetry"]
    w, c = tel["window"], 6
    cursor, count = {
        # The next observe would index one past the ring.
        "cursor_is_window": (w, w),
        "negative_cursor": (c - w, c),
        # The right residue, but no ring has a negative sample count.
        "negative_count": (c, c - w),
        "cursor_off_count": (c, c + 1),
    }[case]
    tel["cursor_rows"] = tel["cursor_rows"].copy()
    tel["count_rows"] = tel["count_rows"].copy()
    tel["cursor_rows"][1] = cursor
    tel["count_rows"][1] = count
    state["level"] = np.full(4, 5)
    _assert_refused(_driven_engine(2), state)


def test_restore_rejects_shared_clock_ring_layout():
    # One clock vector and one cursor for the whole fleet: the layout
    # before rings kept a clock and a cursor per row.
    state = _driven_engine(6).state_dict()
    tel = state["telemetry"]
    tel["t"] = tel["t"][0].copy()
    tel["cursor"] = int(tel.pop("cursor_rows")[0])
    tel["count"] = int(tel.pop("count_rows")[0])
    state["disk_cursor"] = tel["cursor"]
    _assert_refused(_driven_engine(2), state)


def _stepped_fleet(steps, **kwargs):
    fleet = _build_degraded_fleet(default_catalog(), **kwargs)
    for _ in range(steps):
        fleet.step()
    return fleet


def test_degraded_fleet_restore_refuses_before_moving_interval():
    state = _stepped_fleet(4).state_dict()
    _assert_refused(_stepped_fleet(1, failure_threshold=5), state)


@pytest.mark.parametrize(
    "part, key",
    [
        ("actuator", "level"),
        ("actuator", "transient_left"),
        ("held", "present"),
        ("held", "util_pct"),
    ],
)
def test_degraded_fleet_restore_rejects_misshapen_buffers(part, key):
    state = _stepped_fleet(4).state_dict()
    state[part][key] = state[part][key][..., :-1]
    _assert_refused(_stepped_fleet(2), state)


def test_degraded_fleet_restore_rejects_applied_level_outside_catalog():
    state = _stepped_fleet(4).state_dict()
    state["actuator"]["level"] = np.full(_N_TENANTS, 99)
    _assert_refused(_stepped_fleet(2), state)


# -- construction guard rails ---------------------------------------------------


@pytest.mark.parametrize(
    "option", [dict(failure_threshold=0), dict(open_intervals=0), dict(max_attempts=0)]
)
def test_degraded_engine_refuses_what_the_scalar_executor_refuses(option):
    with pytest.raises(ConfigurationError):
        DegradedVectorizedAutoScaler(default_catalog(), 4, **option)


@pytest.mark.parametrize(
    "option",
    [
        "guard_max_tracked_gaps",
        "guard_degraded_after",
        "backoff_base_ms",
        "backoff_factor",
        "jitter",
    ],
)
def test_degraded_engine_takes_scalar_guard_and_backoff_defaults(option):
    with pytest.raises(TypeError, match=option):
        DegradedVectorizedAutoScaler(default_catalog(), 4, **{option: 1})


def test_decide_batch_budget_error_leaves_engine_untouched():
    # The ledger refuses before the rings, the disk window or any token
    # move: a period that is over raises and the engine stays as it was.
    catalog = default_catalog()
    budget = BudgetManager(
        budget=catalog.min_cost * 2,
        n_intervals=2,
        min_cost=catalog.min_cost,
        max_cost=catalog.max_cost,
    )
    engine = VectorizedAutoScaler(catalog, 4, goal=LatencyGoal(100.0), budget=budget)
    synth = ClosedLoopFleetSynthesizer(4, catalog, _SEED)
    for i in range(2):
        fields = synth.interval(i, engine.level, engine.balloon_limit_gb)
        engine.decide_batch(float(i), **fields)
    before = json.dumps(encode_state(engine.state_dict()), sort_keys=True)
    fields = synth.interval(2, engine.level, engine.balloon_limit_gb)
    with pytest.raises(BudgetError, match="period already finished"):
        engine.decide_batch(2.0, **fields)
    assert json.dumps(encode_state(engine.state_dict()), sort_keys=True) == before
