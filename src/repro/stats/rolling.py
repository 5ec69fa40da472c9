"""Fixed-capacity rolling window over telemetry samples.

:class:`RollingWindow` is a small ring buffer with convenience accessors
for the robust aggregates the controller reads, such as the recent
physical-read baseline the balloon probe compares against.  Its queries
recompute from the retained samples; the per-tenant signal windows live
in :class:`repro.core.telemetry_manager.TelemetryManager`.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.errors import ConfigurationError, InsufficientDataError

__all__ = ["RollingWindow"]


class RollingWindow:
    """Ring buffer of the most recent ``capacity`` float samples."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        self._buffer = np.empty(capacity, dtype=float)
        self._size = 0
        self._next = 0

    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[float]:
        return iter(self.values())

    def append(self, value: float) -> None:
        """Add one sample, evicting the oldest when full."""
        self._buffer[self._next] = float(value)
        self._next = (self._next + 1) % self._capacity
        self._size = min(self._size + 1, self._capacity)

    def extend(self, values: "np.typing.ArrayLike") -> None:
        """Bulk-append, writing directly into the ring buffer."""
        arr = np.asarray(values, dtype=float).ravel()
        n = arr.size
        if n == 0:
            return
        if n >= self._capacity:
            # Everything currently buffered is evicted; keep the tail.
            self._buffer[:] = arr[n - self._capacity :]
            self._next = 0
            self._size = self._capacity
        else:
            end = self._next + n
            if end <= self._capacity:
                self._buffer[self._next : end] = arr
            else:
                split = self._capacity - self._next
                self._buffer[self._next :] = arr[:split]
                self._buffer[: end - self._capacity] = arr[split:]
            self._next = end % self._capacity
            self._size = min(self._size + n, self._capacity)

    def values(self) -> np.ndarray:
        """Samples in arrival order, oldest first."""
        if self._size < self._capacity:
            return self._buffer[: self._size].copy()
        return np.concatenate(
            [self._buffer[self._next :], self._buffer[: self._next]]
        )

    def is_full(self) -> bool:
        return self._size == self._capacity

    def clear(self) -> None:
        self._size = 0
        self._next = 0

    def last(self) -> float:
        """Most recent sample."""
        if self._size == 0:
            raise InsufficientDataError("window is empty")
        return float(self._buffer[(self._next - 1) % self._capacity])

    def median(self) -> float:
        """Robust central value of the window (non-finite samples skipped)."""
        values = self._buffer[: self._size]
        finite = values[np.isfinite(values)]
        if finite.size == 0:
            raise InsufficientDataError("need at least 1 finite sample, got 0")
        return float(np.median(finite))

    def mean(self) -> float:
        if self._size == 0:
            raise InsufficientDataError("window is empty")
        return float(self._buffer[: self._size].mean())

    def percentile(self, q: float) -> float:
        if self._size == 0:
            raise InsufficientDataError("window is empty")
        return float(np.percentile(self._buffer[: self._size], q))

    def state_dict(self) -> dict:
        """Serializable state: the raw ring layout, bit for bit.

        The ring cursor *is* observable: ``mean()``/``percentile()`` read
        ``_buffer[:_size]`` in buffer order, and numpy's pairwise
        summation is order-sensitive in the last ulp.  Capturing the
        buffer (not arrival-order values) keeps a restored window
        byte-identical to the original even after the ring has wrapped.
        """
        return {
            "capacity": self._capacity,
            "buffer": self._buffer[: self._size].copy(),
            "next": self._next,
        }

    def load_state_dict(self, state: dict) -> None:
        if int(state["capacity"]) != self._capacity:
            raise ConfigurationError(
                f"window capacity mismatch: checkpoint has {state['capacity']}, "
                f"live window has {self._capacity}"
            )
        buffer = np.asarray(state["buffer"], dtype=float).ravel()
        if buffer.size > self._capacity:
            raise ConfigurationError(
                f"window buffer overflow: checkpoint has {buffer.size} "
                f"samples, live window holds {self._capacity}"
            )
        cursor = int(state["next"])
        full = buffer.size == self._capacity
        if not 0 <= cursor < self._capacity or (not full and cursor != buffer.size):
            raise ConfigurationError(
                f"window cursor {cursor} is not a valid position for "
                f"{buffer.size} samples in a {self._capacity}-slot ring"
            )
        self.clear()
        self._buffer[: buffer.size] = buffer
        self._size = buffer.size
        self._next = cursor
