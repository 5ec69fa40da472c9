"""CheckpointStore file handling: one encode per put, atomic writes, pruning."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.core.latency import LatencyGoal
from repro.engine.server import EngineConfig
from repro.harness.experiment import ExperimentConfig
from repro.obs.events import EventKind
from repro.service import Checkpoint, CheckpointStore, TenantSpec, run_service
from repro.workloads import Trace, cpuio_workload


def _checkpoint(interval: int) -> Checkpoint:
    return Checkpoint.capture(
        "controller", interval, {"i": interval, "x": np.arange(3) * interval}
    )


@pytest.fixture
def count_encodes(monkeypatch):
    """Count ``Checkpoint.to_json`` calls; returns the live counter list."""
    calls: list[int] = []
    original = Checkpoint.to_json

    def counted(self):
        calls.append(self.interval)
        return original(self)

    monkeypatch.setattr(Checkpoint, "to_json", counted)
    return calls


class TestEncodeOnce:
    def test_put_encodes_once_with_directory(self, tmp_path, count_encodes):
        store = CheckpointStore(directory=tmp_path)
        stored = store.put(_checkpoint(4))
        assert count_encodes == [4]
        # Both files hold the stored copy's canonical text.
        text = stored.wire() + "\n"
        assert (tmp_path / "checkpoint-000004.json").read_text() == text
        assert (tmp_path / "latest.json").read_text() == text
        assert count_encodes == [4]

    def test_memoised_text_is_canonical(self):
        original = _checkpoint(2)
        stored = CheckpointStore().put(original)
        assert stored.wire() == stored.to_json() == original.to_json()
        assert stored == original  # the memo takes no part in equality
        assert Checkpoint.from_json(stored.wire()).wire() == stored.wire()

    def test_service_checkpoint_byte_count_reuses_text(self, count_encodes):
        spec = TenantSpec(
            tenant_id="t",
            workload=cpuio_workload(),
            trace=Trace(name="flat", rates=np.full(4, 30.0)),
            goal=LatencyGoal(100.0),
        )
        config = ExperimentConfig(
            engine=EngineConfig(interval_ticks=5), warmup_intervals=2, seed=3
        )
        result = run_service([spec], config=config)
        assert len(count_encodes) == result.store.puts
        events = result.service.service_tracer.events(kind=EventKind.CHECKPOINT)
        assert events
        assert events[-1].fields["bytes"] == len(result.store.latest().to_json()) + 1


class TestAtomicSave:
    def test_torn_write_keeps_previous_latest(self, tmp_path, monkeypatch):
        store = CheckpointStore(directory=tmp_path)
        good = store.put(_checkpoint(1))
        original_write = Path.write_text

        def torn_write(self, data, *args, **kwargs):
            original_write(self, data[: len(data) // 2], *args, **kwargs)
            raise OSError("disk went away mid-write")

        monkeypatch.setattr(Path, "write_text", torn_write)
        with pytest.raises(OSError, match="mid-write"):
            store.put(_checkpoint(2))
        monkeypatch.undo()

        latest = Checkpoint.load(tmp_path / "latest.json")
        assert latest == good
        assert latest.to_json() == good.wire()
        # The half-written temporary file is cleaned up, not left behind.
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "checkpoint-000001.json",
            "latest.json",
        ]

    def test_save_replaces_existing_file(self, tmp_path):
        path = tmp_path / "c.json"
        _checkpoint(1).save(path)
        _checkpoint(2).save(path)
        assert Checkpoint.load(path).interval == 2
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]


class TestOnDiskPruning:
    def test_directory_holds_at_most_keep_files(self, tmp_path):
        keep = 3
        store = CheckpointStore(directory=tmp_path, keep=keep)
        store.put(_checkpoint(-1))
        for interval in range(20):
            store.put(_checkpoint(interval))
            names = sorted(p.name for p in tmp_path.iterdir())
            interval_files = [n for n in names if n != "latest.json"]
            assert "latest.json" in names
            assert len(interval_files) <= keep
        assert interval_files == [
            "checkpoint-000017.json",
            "checkpoint-000018.json",
            "checkpoint-000019.json",
        ]
        assert [c.interval for c in store.history()] == [17, 18, 19]
        assert Checkpoint.load(tmp_path / "latest.json").interval == 19

    def test_initial_snapshot_is_pruned_like_any_other(self, tmp_path):
        store = CheckpointStore(directory=tmp_path, keep=2)
        store.put(_checkpoint(-1))
        store.put(_checkpoint(0))
        assert (tmp_path / "checkpoint-initial.json").exists()
        store.put(_checkpoint(1))
        assert not (tmp_path / "checkpoint-initial.json").exists()

    def test_repeated_interval_keeps_its_file(self, tmp_path):
        """A restore re-runs intervals; dropping the old copy keeps the new."""
        store = CheckpointStore(directory=tmp_path, keep=2)
        store.put(_checkpoint(5))
        store.put(_checkpoint(6))
        store.put(_checkpoint(5))  # re-taken after a restore
        # The first interval-5 checkpoint left the history, but the file
        # now belongs to the second one, which is still kept.
        assert [c.interval for c in store.history()] == [6, 5]
        assert Checkpoint.load(tmp_path / "checkpoint-000005.json").interval == 5
        store.put(_checkpoint(7))
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "checkpoint-000005.json",
            "checkpoint-000007.json",
            "latest.json",
        ]
