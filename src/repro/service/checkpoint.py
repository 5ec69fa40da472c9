"""Versioned, exact-value checkpoints of controller state.

The control plane's determinism story is replay-based: every stateful
component exposes ``state_dict()`` / ``load_state_dict()`` whose payload
is a pure tree of Python scalars, lists, dicts, numpy arrays, and
``numpy`` bit-generator states.  This module is the codec and container
around those trees.

Exactness rules (what makes restored runs *byte-identical*):

* floats are serialized with :mod:`json`'s shortest-repr encoder, which
  round-trips IEEE-754 doubles exactly — checkpoints must never pass
  through :func:`repro.obs.events.json_safe`, whose rounding is a
  display convention;
* ``numpy`` arrays are tagged dicts carrying base64 payload bytes plus
  dtype and shape, restored with ``np.frombuffer`` — bit-exact for any
  dtype including float64 NaN payloads;
* RNG states (``Generator.bit_generator.state``) are plain dicts of
  Python ints and pass through untouched;
* top-level keys are sorted, so ``dumps(loads(text)) == text`` for any
  checkpoint this module wrote (stability is asserted by the tests).

Checkpoints are versioned; :func:`Checkpoint.from_json` refuses
payloads whose version it does not understand with a
:class:`~repro.errors.CheckpointError` rather than guessing.
"""

from __future__ import annotations

import base64
import json
import os
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

import numpy as np

from repro.errors import CheckpointError

__all__ = [
    "CHECKPOINT_VERSION",
    "Checkpoint",
    "CheckpointStore",
    "decode_state",
    "encode_state",
    "inspect_checkpoint",
]

#: Current checkpoint format version.  Bump on any incompatible change to
#: the payload structure and teach :func:`Checkpoint.from_json` to either
#: migrate or refuse the old version explicitly.
CHECKPOINT_VERSION = 3

#: Tag key marking an encoded ndarray.  Chosen to be implausible as a
#: real state-dict key.
_NDARRAY_TAG = "__ndarray__"


def encode_state(value: Any) -> Any:
    """Map a state tree onto pure JSON-serializable form, exactly.

    Unlike :func:`~repro.obs.events.json_safe` this never rounds, never
    stringifies, and raises on anything it cannot represent exactly —
    a checkpoint that silently lost precision would poison every run
    restored from it.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value  # json round-trips doubles exactly (shortest repr)
    if isinstance(value, np.ndarray):
        contiguous = np.ascontiguousarray(value)
        return {
            _NDARRAY_TAG: base64.b64encode(contiguous.tobytes()).decode("ascii"),
            "dtype": str(contiguous.dtype),
            "shape": list(contiguous.shape),
        }
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, dict):
        encoded = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise CheckpointError(
                    f"state-dict keys must be strings, got {key!r}"
                )
            if key == _NDARRAY_TAG:
                raise CheckpointError(
                    f"state-dict key {key!r} collides with the ndarray tag"
                )
            encoded[key] = encode_state(item)
        return encoded
    if isinstance(value, (list, tuple)):
        return [encode_state(item) for item in value]
    raise CheckpointError(
        f"cannot checkpoint value of type {type(value).__name__}: {value!r}"
    )


def decode_state(value: Any) -> Any:
    """Inverse of :func:`encode_state`."""
    if isinstance(value, dict):
        if _NDARRAY_TAG in value:
            try:
                raw = base64.b64decode(value[_NDARRAY_TAG].encode("ascii"))
                array = np.frombuffer(raw, dtype=np.dtype(value["dtype"]))
                return array.reshape(tuple(value["shape"])).copy()
            except (KeyError, ValueError, TypeError) as exc:
                raise CheckpointError(f"malformed ndarray payload: {exc}") from exc
        return {key: decode_state(item) for key, item in value.items()}
    if isinstance(value, list):
        return [decode_state(item) for item in value]
    return value


@dataclass(frozen=True)
class Checkpoint:
    """One immutable controller snapshot.

    Attributes:
        version: checkpoint format version (see :data:`CHECKPOINT_VERSION`).
        kind: what produced the snapshot (``"controller"`` for the
            service tick loop, ``"fleet"`` for the vectorized sweep).
        interval: interval-clock position the snapshot was taken at —
            state reflects everything up to and including this interval.
        payload: the (already ``encode_state``-encoded) state tree.

    A copy built by :meth:`CheckpointStore.put` also remembers the exact
    wire text it was parsed from; :meth:`wire` hands that text back
    instead of encoding the payload again.
    """

    version: int
    kind: str
    interval: int
    payload: dict[str, Any]
    _wire: str | None = field(default=None, compare=False, repr=False)

    @classmethod
    def capture(cls, kind: str, interval: int, state: dict[str, Any]) -> "Checkpoint":
        """Build a checkpoint from a raw (unencoded) state tree."""
        return cls(
            version=CHECKPOINT_VERSION,
            kind=kind,
            interval=int(interval),
            payload=encode_state(state),
        )

    def state(self) -> dict[str, Any]:
        """The decoded state tree (ndarrays and RNG states rebuilt)."""
        return decode_state(self.payload)

    # -- wire format -----------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {
                "version": self.version,
                "kind": self.kind,
                "interval": self.interval,
                "payload": self.payload,
            },
            sort_keys=True,
            separators=(",", ":"),
        )

    def wire(self) -> str:
        """The :meth:`to_json` text, without re-encoding when it is known."""
        return self._wire if self._wire is not None else self.to_json()

    @classmethod
    def from_json(cls, text: str) -> "Checkpoint":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CheckpointError(f"checkpoint is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise CheckpointError(
                f"checkpoint must be a JSON object, got {type(raw).__name__}"
            )
        missing = {"version", "kind", "interval", "payload"} - raw.keys()
        if missing:
            raise CheckpointError(
                f"checkpoint missing fields: {', '.join(sorted(missing))}"
            )
        version = raw["version"]
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"unsupported checkpoint version {version!r} "
                f"(this build reads version {CHECKPOINT_VERSION})"
            )
        if not isinstance(raw["payload"], dict):
            raise CheckpointError("checkpoint payload must be a JSON object")
        return cls(
            version=int(version),
            kind=str(raw["kind"]),
            interval=int(raw["interval"]),
            payload=raw["payload"],
        )

    def save(self, path: str | Path) -> Path:
        """Write the wire text to ``path``, atomically.

        The text goes to a temporary file in the same directory, which
        then replaces ``path`` in one rename: a crash mid-write leaves
        the previous file intact, never a torn one.  (No fsync: this
        guards against a dying process, not against power loss.)
        """
        path = Path(path)
        temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            temporary.write_text(self.wire() + "\n")
            os.replace(temporary, path)
        except BaseException:
            temporary.unlink(missing_ok=True)
            raise
        return path

    @classmethod
    def load(cls, path: str | Path) -> "Checkpoint":
        path = Path(path)
        try:
            text = path.read_text()
        except OSError as exc:
            raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
        return cls.from_json(text)


def _file_name(interval: int) -> str:
    """File name of the checkpoint taken at ``interval``."""
    # The pristine pre-run snapshot has interval -1; a signed %06d would
    # render it "checkpoint--00001.json".
    if interval < 0:
        return "checkpoint-initial.json"
    return f"checkpoint-{interval:06d}.json"


class CheckpointStore:
    """Latest-wins checkpoint storage shared by primary and standby.

    In-memory by default (the lease-store analogue: both controller
    identities see the same object); pass ``directory`` to also persist
    every checkpoint as ``checkpoint-<interval>.json`` plus a
    ``latest.json`` alias, which is what `repro serve` and the CI
    crash-recovery job archive.  The directory mirrors the in-memory
    history: when a checkpoint falls out of the last ``keep``, its file
    is removed too.  The pre-run snapshot (``checkpoint-initial.json``)
    is no exception; ``latest.json`` always stays.

    Snapshots always round-trip through the JSON wire format on ``put``,
    so what a restore sees is exactly what a process restart would read
    from disk — no in-memory shortcuts that could mask codec bugs.  The
    payload is encoded once per ``put``: both file writes and the copy
    ``put`` returns reuse that text.
    """

    def __init__(self, directory: str | Path | None = None, keep: int = 8) -> None:
        if keep < 1:
            raise CheckpointError("CheckpointStore keep must be >= 1")
        self._directory = Path(directory) if directory is not None else None
        if self._directory is not None:
            self._directory.mkdir(parents=True, exist_ok=True)
        self._keep = keep
        self._history: list[Checkpoint] = []
        self.puts = 0

    @property
    def directory(self) -> Path | None:
        return self._directory

    def put(self, checkpoint: Checkpoint) -> Checkpoint:
        """Store a checkpoint; returns the wire-round-tripped copy kept.

        The returned copy equals ``latest()`` and also carries its wire
        text, so callers can measure or re-send it without re-encoding.
        """
        text = checkpoint.to_json()
        parsed = Checkpoint.from_json(text)
        # ``text`` came from ``to_json``, so it is also the parsed copy's
        # canonical wire form (``from_json(t).to_json() == t``).  Only the
        # returned copy carries it: the history does not hold a megabyte
        # of text per kept checkpoint.
        stored = replace(parsed, _wire=text)
        self._history.append(parsed)
        dropped = self._history[: -self._keep]
        del self._history[: -self._keep]
        self.puts += 1
        if self._directory is not None:
            stored.save(self._directory / _file_name(stored.interval))
            stored.save(self._directory / "latest.json")
            kept = {_file_name(c.interval) for c in self._history}
            for old in dropped:
                name = _file_name(old.interval)
                if name not in kept:
                    (self._directory / name).unlink(missing_ok=True)
        return stored

    def latest(self) -> Checkpoint | None:
        return self._history[-1] if self._history else None

    def history(self) -> tuple[Checkpoint, ...]:
        return tuple(self._history)

    def __len__(self) -> int:
        return len(self._history)


def _summarize(node: Any) -> Any:
    """Shape-preserving size summary of an encoded payload subtree."""
    if isinstance(node, dict):
        if _NDARRAY_TAG in node:
            return f"ndarray{tuple(node.get('shape', []))} {node.get('dtype')}"
        return {key: _summarize(item) for key, item in sorted(node.items())}
    if isinstance(node, list):
        return f"list[{len(node)}]"
    return type(node).__name__


def _encoded_bytes(node: Any) -> int:
    """Bytes ``node`` takes in the checkpoint's wire text."""
    return len(json.dumps(node, sort_keys=True, separators=(",", ":")))


def inspect_checkpoint(checkpoint: Checkpoint) -> dict[str, Any]:
    """Human-oriented summary used by ``repro checkpoint inspect``.

    Each tenant's entry also carries its trace event count and the
    encoded bytes of its ``scaler`` and ``tracer`` sections, so growth
    between two checkpoints can be attributed to a tenant and a section.
    """
    payload = checkpoint.payload
    summary: dict[str, Any] = {
        "version": checkpoint.version,
        "kind": checkpoint.kind,
        "interval": checkpoint.interval,
        "size_bytes": len(checkpoint.to_json()) + 1,
        "top_level_keys": sorted(payload.keys()),
    }
    tenants = payload.get("tenants")
    if isinstance(tenants, dict):
        per_tenant: dict[str, Any] = {}
        for tenant_id, state in sorted(tenants.items()):
            if not isinstance(state, dict):
                state = {}
            scaler = state.get("scaler", {})
            tracer = state.get("tracer", {})
            budget = scaler.get("budget") or {}
            events = tracer.get("events", "")
            per_tenant[tenant_id] = {
                "container": scaler.get("container"),
                "decision_seq": scaler.get("decision_seq"),
                "safe_mode": scaler.get("safe_mode"),
                "budget_spent": budget.get("spent"),
                "budget_tokens": budget.get("tokens"),
                "trace_events": events.count("\n") if isinstance(events, str) else None,
                "scaler_bytes": _encoded_bytes(scaler),
                "tracer_bytes": _encoded_bytes(tracer),
            }
        summary["tenants"] = per_tenant
        summary["n_tenants"] = len(per_tenant)
    fleet = payload.get("fleet")
    if isinstance(fleet, dict):
        summary["fleet"] = _summarize(fleet)
    return summary
