"""Tests for rolling windows."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, InsufficientDataError
from repro.stats.rolling import RollingWindow

# Sample pool: continuous values, heavy ties, and NaN gaps.
stream_samples = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6),
    st.sampled_from([0.0, 1.0, 1.0, 2.0, 5.0, 5.0, -3.0]),
    st.just(float("nan")),
)


class TestRollingWindow:
    def test_capacity_validation(self):
        with pytest.raises(ConfigurationError):
            RollingWindow(0)

    def test_fill_and_order(self):
        window = RollingWindow(3)
        for value in (1.0, 2.0, 3.0):
            window.append(value)
        assert list(window.values()) == [1.0, 2.0, 3.0]

    def test_eviction_order(self):
        window = RollingWindow(3)
        for value in (1.0, 2.0, 3.0, 4.0, 5.0):
            window.append(value)
        assert list(window.values()) == [3.0, 4.0, 5.0]

    def test_len_and_full(self):
        window = RollingWindow(2)
        assert len(window) == 0 and not window.is_full()
        window.append(1.0)
        assert len(window) == 1 and not window.is_full()
        window.append(2.0)
        window.append(3.0)
        assert len(window) == 2 and window.is_full()

    def test_last(self):
        window = RollingWindow(4)
        with pytest.raises(InsufficientDataError):
            window.last()
        window.extend([1.0, 9.0])
        assert window.last() == 9.0

    def test_median_and_mean(self):
        window = RollingWindow(5)
        window.extend([1.0, 2.0, 100.0])
        assert window.median() == 2.0
        assert window.mean() == pytest.approx(103.0 / 3)

    def test_percentile(self):
        window = RollingWindow(10)
        window.extend(range(10))
        assert window.percentile(50) == pytest.approx(4.5)

    def test_clear(self):
        window = RollingWindow(3)
        window.extend([1.0, 2.0])
        window.clear()
        assert len(window) == 0

    def test_iteration(self):
        window = RollingWindow(3)
        window.extend([5.0, 6.0])
        assert list(window) == [5.0, 6.0]

    @given(
        st.integers(min_value=1, max_value=20),
        st.lists(st.floats(allow_nan=False, allow_infinity=False,
                           min_value=-1e9, max_value=1e9), max_size=60),
    )
    def test_window_keeps_most_recent(self, capacity, values):
        window = RollingWindow(capacity)
        window.extend(values)
        expected = values[-capacity:]
        assert list(window.values()) == pytest.approx(expected)


class TestRollingWindowMedian:
    """``median()`` is the ``np.median`` of the finite retained samples."""

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(min_value=1, max_value=10),
        st.lists(stream_samples, min_size=1, max_size=50),
    )
    def test_rolling_window_median(self, capacity, values):
        window = RollingWindow(capacity)
        for value in values:
            window.append(value)
            retained = window.values()
            finite = retained[~np.isnan(retained)]
            if finite.size == 0:
                with pytest.raises(InsufficientDataError):
                    window.median()
            else:
                assert window.median() == float(np.median(finite))

    def test_rolling_window_median_after_extend(self):
        window = RollingWindow(5)
        window.extend([1.0, 2.0, 100.0])
        assert window.median() == 2.0
        window.extend([3.0, 4.0, 5.0, 6.0])  # wraps and evicts
        assert window.median() == float(np.median(window.values()))
        window.append(1000.0)
        assert window.median() == float(np.median(window.values()))

    def test_extend_interleaved_with_append_median(self):
        rng = np.random.default_rng(5)
        window = RollingWindow(7)
        for _ in range(60):
            if rng.random() < 0.5:
                window.extend(rng.normal(0, 10, size=int(rng.integers(0, 9))))
            else:
                window.append(float(rng.normal(0, 10)))
            if len(window):
                assert window.median() == float(np.median(window.values()))


class TestRollingWindowCheckpoint:
    def test_load_refuses_cursor_inside_partial_ring(self):
        # Three samples sit in slots 0-2, so the next write must go to
        # slot 3; a cursor of 1 would overwrite sample 2 and expose an
        # unwritten slot as a sample.
        window = RollingWindow(5)
        state = {"capacity": 5, "buffer": np.array([1.0, 2.0, 3.0]), "next": 1}
        with pytest.raises(ConfigurationError, match="cursor"):
            window.load_state_dict(state)
        assert len(window) == 0

    @pytest.mark.parametrize("cursor", [-1, 5, 6])
    def test_load_refuses_cursor_outside_ring(self, cursor):
        window = RollingWindow(5)
        state = {"capacity": 5, "buffer": np.arange(5.0), "next": cursor}
        with pytest.raises(ConfigurationError, match="cursor"):
            window.load_state_dict(state)
