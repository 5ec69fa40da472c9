"""Tests for transaction specs and the request table."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.requests import (
    LOCK_NONE,
    LOCK_QUEUED,
    RequestTable,
    TransactionSpec,
)
from repro.errors import WorkloadError


def spec(**kwargs) -> TransactionSpec:
    defaults = dict(name="t", weight=1.0, cpu_ms=10.0, logical_reads=5.0, log_kb=2.0)
    defaults.update(kwargs)
    return TransactionSpec(**defaults)


class TestTransactionSpec:
    def test_valid(self):
        assert spec().name == "t"

    def test_weight_positive(self):
        with pytest.raises(WorkloadError):
            spec(weight=0.0)

    def test_negative_work_rejected(self):
        with pytest.raises(WorkloadError):
            spec(cpu_ms=-1.0)

    def test_lock_probability_range(self):
        with pytest.raises(WorkloadError):
            spec(lock_probability=1.5)

    def test_contended_needs_hold_time(self):
        with pytest.raises(WorkloadError):
            spec(lock_probability=0.5, lock_hold_ms=0.0)

    def test_service_estimate_components(self):
        s = spec(cpu_ms=100.0, logical_reads=400.0, log_kb=0.0, max_read_iops=400.0)
        # 100 ms CPU + 1 s of reads at the stream cap.
        assert s.service_ms_estimate == pytest.approx(1100.0)


class TestRequestTable:
    def test_add_and_len(self):
        table = RequestTable()
        row = table.add(0, 0.0, spec(), lock_id=-1)
        assert len(table) == 1
        assert table.active[row]
        assert table.lock_state[row] == LOCK_NONE

    def test_lock_assignment(self):
        table = RequestTable()
        row = table.add(0, 0.0, spec(lock_probability=1.0, lock_hold_ms=5.0), lock_id=2)
        assert table.lock_id[row] == 2
        assert table.lock_state[row] == LOCK_QUEUED

    def test_work_multiplier(self):
        table = RequestTable()
        row = table.add(0, 0.0, spec(cpu_ms=10.0), lock_id=-1, work_multiplier=2.0)
        assert table.cpu_rem_ms[row] == 20.0

    def test_release_recycles_rows(self):
        table = RequestTable()
        row = table.add(0, 0.0, spec(), lock_id=-1)
        table.release(np.asarray([row]))
        assert len(table) == 0
        row2 = table.add(1, 1.0, spec(), lock_id=-1)
        assert row2 == row, "freed row should be reused"

    def test_double_release_is_noop(self):
        table = RequestTable()
        row = table.add(0, 0.0, spec(), lock_id=-1)
        table.release(np.asarray([row]))
        table.release(np.asarray([row]))
        assert len(table) == 0

    def test_growth_beyond_initial_capacity(self):
        table = RequestTable(capacity=16)
        rows = [table.add(0, 0.0, spec(), lock_id=-1) for _ in range(100)]
        assert len(table) == 100
        assert len(set(rows)) == 100
        assert table.capacity >= 100

    def test_growth_preserves_state(self):
        table = RequestTable(capacity=16)
        first = table.add(0, 0.0, spec(cpu_ms=42.0), lock_id=3)
        for _ in range(50):
            table.add(0, 0.0, spec(), lock_id=-1)
        assert table.cpu_rem_ms[first] == 42.0
        assert table.lock_id[first] == 3

    def test_runnable_excludes_queued(self):
        table = RequestTable()
        locked_spec = spec(lock_probability=1.0, lock_hold_ms=5.0)
        free_row = table.add(0, 0.0, spec(), lock_id=-1)
        queued_row = table.add(0, 0.0, locked_spec, lock_id=0)
        assert free_row in table.runnable_rows()
        assert queued_row not in table.runnable_rows()
        assert queued_row in table.blocked_rows()

    def test_work_done(self):
        table = RequestTable()
        row = table.add(0, 0.0, spec(cpu_ms=0.0, logical_reads=0.0, log_kb=0.0), -1)
        busy = table.add(0, 0.0, spec(), -1)
        rows = np.asarray([row, busy])
        done = table.work_done(rows)
        assert done[0] and not done[1]

    @given(st.integers(min_value=1, max_value=300))
    def test_active_count_matches_adds(self, n):
        table = RequestTable(capacity=16)
        for _ in range(n):
            table.add(0, 0.0, spec(), lock_id=-1)
        assert len(table) == n
        assert len(table.active_rows()) == n


# -- batched admission / retirement ------------------------------------------

#: Column name -> dtype of the values ``admit`` takes, in argument order.
_ADMIT_COLUMNS = (
    ("txn_type", np.int32),
    ("arrival_ms", float),
    ("cpu_rem_ms", float),
    ("reads_rem", float),
    ("log_rem_kb", float),
    ("lock_id", np.int32),
    ("max_read_iops", float),
    ("max_log_mb_s", float),
)


def _batch(n: int, start: int) -> list[tuple]:
    """``n`` distinguishable requests; two in three need a hot lock."""
    return [
        (
            (start + i) % 5,
            1000.0 + start + i,
            0.5 * (start + i),
            2.0 * (start + i),
            0.25 * (start + i),
            (start + i) % 3 - 1,
            100.0 + start + i,
            1.0 + (start + i) % 7,
        )
        for i in range(n)
    ]


def _admit(table: RequestTable, requests: list[tuple]) -> list[int]:
    columns = [
        np.asarray([r[k] for r in requests], dtype=dtype)
        for k, (_, dtype) in enumerate(_ADMIT_COLUMNS)
    ]
    rows = table.admit(*columns)
    return rows.tolist()


class ReferenceTable:
    """Per-row model of the table's free list: one pop per request."""

    def __init__(self, capacity: int) -> None:
        self.capacity = max(capacity, 16)
        self.free = list(range(self.capacity))[::-1]
        self.values: dict[int, tuple] = {}

    def add(self, request: tuple) -> int:
        if not self.free:
            old = self.capacity
            self.capacity *= 2
            self.free.extend(range(self.capacity - 1, old - 1, -1))
        row = self.free.pop()
        self.values[row] = request
        return row

    def release(self, rows: list[int]) -> None:
        for row in rows:
            if row in self.values:
                del self.values[row]
                self.free.append(row)


def _assert_same(table: RequestTable, model: ReferenceTable) -> None:
    assert table.capacity == model.capacity
    assert table._free == model.free
    assert len(table) == len(model.values)
    assert table.active_rows().tolist() == sorted(model.values)
    for row, request in model.values.items():
        for (name, _), value in zip(_ADMIT_COLUMNS, request):
            assert getattr(table, name)[row] == value, (name, row)
        assert table.hold_rem_ms[row] == 0.0
        expected_state = LOCK_QUEUED if request[5] >= 0 else LOCK_NONE
        assert table.lock_state[row] == expected_state
    inactive = np.flatnonzero(~table.active)
    assert (table.lock_id[inactive] == -1).all()
    assert (table.lock_state[inactive] == LOCK_NONE).all()


class TestBatchedRequestTable:
    def test_batch_grows_mid_batch_after_taking_every_free_row(self):
        table = RequestTable(capacity=16)
        assert _admit(table, _batch(10, 0)) == list(range(10))
        table.release(np.asarray([3, 7]))
        # Free rows first (last freed pops first), then the grown rows
        # in ascending order -- exactly what ten single adds would give.
        rows = _admit(table, _batch(10, 10))
        assert rows == [7, 3, 10, 11, 12, 13, 14, 15, 16, 17]
        assert table.capacity == 32

    def test_batch_spanning_two_growths(self):
        table = RequestTable(capacity=16)
        model = ReferenceTable(16)
        batch = _batch(70, 0)
        assert _admit(table, batch) == [model.add(r) for r in batch]
        assert table.capacity == 128
        _assert_same(table, model)

    def test_release_skips_inactive_and_frees_duplicates_once(self):
        table = RequestTable(capacity=16)
        _admit(table, _batch(8, 0))
        table.release(np.asarray([6, 2, 6, 12, 2, 5]))
        assert len(table) == 5
        assert table._free[-3:] == [6, 2, 5]
        table.release(np.asarray([6, 6]))
        assert len(table) == 5

    def test_release_accepts_scalar_and_empty(self):
        table = RequestTable(capacity=16)
        _admit(table, _batch(3, 0))
        table.release(np.int64(1))
        table.release(np.asarray([], dtype=np.int64))
        assert table.active_rows().tolist() == [0, 2]

    def test_empty_admit_is_noop(self):
        table = RequestTable(capacity=16)
        free = list(table._free)
        assert _admit(table, []) == []
        assert table._free == free and len(table) == 0

    def test_add_is_a_one_row_admit(self):
        batched, single = RequestTable(capacity=16), RequestTable(capacity=16)
        s = spec(cpu_ms=3.0, logical_reads=7.0, log_kb=1.5, max_read_iops=90.0)
        row = single.add(2, 5.0, s, lock_id=1, work_multiplier=1.25)
        rows = batched.admit(
            np.asarray([2]), np.asarray([5.0]), np.asarray([3.0 * 1.25]),
            np.asarray([7.0 * 1.25]), np.asarray([1.5 * 1.25]), np.asarray([1]),
            np.asarray([90.0]), np.asarray([s.max_log_mb_s]),
        )
        assert rows.tolist() == [row]
        for (name, _) in _ADMIT_COLUMNS + (("lock_state", None),):
            assert getattr(single, name)[row] == getattr(batched, name)[row]

    @settings(max_examples=60, deadline=None)
    @given(
        capacity=st.integers(min_value=1, max_value=40),
        data=st.data(),
    )
    def test_matches_per_row_reference(self, capacity, data):
        table = RequestTable(capacity=capacity)
        model = ReferenceTable(capacity)
        counter = 0
        for _ in range(data.draw(st.integers(min_value=1, max_value=12))):
            if data.draw(st.booleans()):
                n = data.draw(st.integers(min_value=0, max_value=60))
                batch = _batch(n, counter)
                counter += n
                assert _admit(table, batch) == [model.add(r) for r in batch]
            else:
                # Any row, live or not, with repeats: release must skip
                # inactive rows and free each live row once, in order.
                live = sorted(model.values)
                row = st.integers(min_value=0, max_value=table.capacity - 1)
                if live:
                    row = st.one_of(row, st.sampled_from(live))
                rows = data.draw(st.lists(row, max_size=30))
                table.release(np.asarray(rows, dtype=np.int64))
                model.release(rows)
            _assert_same(table, model)
