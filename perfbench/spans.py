"""In-memory span recorder for the traced benchmark run.

Spans are recorded from outside the program: the benchmark wraps public
instance methods of the objects a workload builds, and rebinds
module-level names (the ``batched_*`` kernels, ``estimate_fleet``, the
``Checkpoint`` codec methods) for the duration of the timed window only.
Every span keeps a name, start, end and the index of its parent span;
self time is a span's duration minus the durations of its children.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path

ROOT_NAME = "interval"
_ABSENT = object()


class SpanRecorder:
    """Collects ``[name, start, end, parent]`` rows, one per call."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()

        return traced

    def patch(self, owner: object, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a traced wrapper until :meth:`restore`.

        ``owner`` may be an instance (the wrapper shadows the class
        method on that object only), a module, or a class; classmethods
        are re-wrapped as classmethods.
        """
        own = vars(owner).get(attr, _ABSENT)
        if isinstance(own, classmethod):
            wrapped = classmethod(self.wrap(name, own.__func__))
        else:
            wrapped = self.wrap(name, getattr(owner, attr))
        self._patches.append((owner, attr, own))
        setattr(owner, attr, wrapped)

    def restore(self) -> None:
        while self._patches:
            owner, attr, own = self._patches.pop()
            if own is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    def self_times(self) -> dict[str, dict[str, float]]:
        """Per-name self time (s) and call count over recorded spans."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"self_s": 0.0, "calls": 0}
        )
        for index, (name, start, end, _) in enumerate(self.spans):
            entry = out[name]
            entry["self_s"] += (end - start) - child_time[index]
            entry["calls"] += 1
        return dict(out)

    def root_durations(self) -> list[float]:
        return [
            end - start
            for name, start, end, parent in self.spans
            if parent < 0 and name == ROOT_NAME
        ]

    def write(self, path: Path) -> None:
        """Dump every span as one JSON line (written once, at run end)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for name, start, end, parent in self.spans:
                out.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent}
                    )
                    + "\n"
                )
