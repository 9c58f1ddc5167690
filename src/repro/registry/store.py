"""The on-disk registry: locked single-writer layout, JSONL index.

Layout under the registry directory::

    registry.json          # store meta (version), written once
    index.jsonl            # append-only, one summary line per record
    objects/<id[:2]>/<id>.json   # full record payloads, content-addressed
    .lock                  # writer mutual exclusion (flock)

Writers (publish, import, salvage) take an exclusive ``flock`` on
``.lock`` for the whole operation, so two processes publishing
simultaneously serialise instead of interleaving index appends.  Objects
land via :func:`~repro.core.atomicio.atomic_write_json` and index lines
via :func:`~repro.core.atomicio.append_jsonl`, so a crash can tear at
most the final index line — and because the objects are the ground truth
(the index is a derived summary), a damaged or missing index is
*salvaged* by rebuilding it from the object store rather than treated as
data loss.

Readers never take the lock: the index reader is lenient (damaged lines
are counted and skipped) and object reads re-verify the content hash.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

from repro.core.atomicio import append_jsonl, atomic_write_bytes, atomic_write_json
from repro.core.telemetry import RegistryEvent
from repro.obs.spans import emit
from repro.errors import CheckpointError, RegistryError
from repro.registry.record import RegistryRecord

REGISTRY_FILE = "registry.json"
INDEX_FILE = "index.jsonl"
OBJECTS_DIR = "objects"
LOCK_FILE = ".lock"

#: Bumped when the store layout changes incompatibly.
REGISTRY_VERSION = 1

#: Shortest record-id prefix ``get`` will resolve.
MIN_REF_LENGTH = 6


@dataclass(frozen=True)
class PublishOutcome:
    """What one publish did: the id, where it landed, and whether the
    record was already present (content-addressed dedup)."""

    record_id: str
    path: str
    deduped: bool
    wall_s: float = 0.0


class StressmarkRegistry:
    """A content-addressed stressmark library at *directory*."""

    def __init__(self, directory):
        self.directory = Path(directory)
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            (self.directory / OBJECTS_DIR).mkdir(exist_ok=True)
        except OSError as error:
            raise RegistryError(
                f"cannot create registry directory {directory!r}: {error}"
            ) from error
        if not self.meta_path.exists():
            # Two processes may race to initialise the same directory;
            # the writer lock serialises them (atomic_write_bytes uses a
            # fixed-name tmp sibling, so unserialised twins can steal
            # each other's tmp file mid-replace).
            try:
                with self._locked():
                    if not self.meta_path.exists():
                        atomic_write_json(
                            self.meta_path,
                            {"registry_version": REGISTRY_VERSION},
                        )
            except CheckpointError as error:
                raise RegistryError(str(error)) from error
        self._check_meta()

    # ------------------------------------------------------------------
    @property
    def meta_path(self) -> Path:
        return self.directory / REGISTRY_FILE

    @property
    def index_path(self) -> Path:
        return self.directory / INDEX_FILE

    @property
    def lock_path(self) -> Path:
        return self.directory / LOCK_FILE

    def object_path(self, record_id: str) -> Path:
        return self.directory / OBJECTS_DIR / record_id[:2] / f"{record_id}.json"

    def _check_meta(self) -> None:
        try:
            payload = json.loads(self.meta_path.read_text())
        except (OSError, json.JSONDecodeError, UnicodeDecodeError) as error:
            raise RegistryError(
                f"corrupt registry meta {self.meta_path}: {error}"
            ) from error
        version = payload.get("registry_version") if isinstance(payload, dict) else None
        if version != REGISTRY_VERSION:
            raise RegistryError(
                f"registry version {version!r} at {self.meta_path} is not "
                f"supported (expected {REGISTRY_VERSION})"
            )

    @contextmanager
    def _locked(self):
        """Exclusive writer lock for the whole operation.

        ``flock`` blocks until the competing writer finishes — publishes
        are milliseconds, so waiting beats failing.  On platforms without
        ``fcntl`` the store degrades to lockless (single-writer is then
        the operator's responsibility).
        """
        handle = open(self.lock_path, "a+b")
        try:
            if fcntl is not None:
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            yield
        finally:
            try:
                if fcntl is not None:
                    fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
            finally:
                handle.close()

    # ------------------------------------------------------------------
    # Publish
    # ------------------------------------------------------------------
    def publish(self, record: RegistryRecord) -> PublishOutcome:
        """Land one record; a no-op (dedup) when its id is already stored."""
        start = time.perf_counter()
        record_id = record.record_id
        path = self.object_path(record_id)
        try:
            with self._locked():
                deduped = path.exists()
                if not deduped:
                    path.parent.mkdir(parents=True, exist_ok=True)
                    atomic_write_json(path, record.to_payload())
                    append_jsonl(self.index_path, record.index_entry())
        except CheckpointError as error:
            raise RegistryError(str(error)) from error
        outcome = PublishOutcome(
            record_id=record_id,
            path=str(path),
            deduped=deduped,
            wall_s=time.perf_counter() - start,
        )
        emit(RegistryEvent(
            action="publish",
            record_id=record_id,
            path=str(path),
            detail=f"{record.kind}/{record.name}",
            deduped=deduped,
            wall_s=outcome.wall_s,
        ))
        return outcome

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------
    def _read_index(self) -> tuple[list[dict], int]:
        """All parseable index entries plus the count of damaged lines."""
        entries: list[dict] = []
        skipped = 0
        try:
            lines = self.index_path.read_bytes().splitlines()
        except FileNotFoundError:
            return [], 0
        except OSError as error:
            raise RegistryError(
                f"cannot read registry index {self.index_path}: {error}"
            ) from error
        for line in lines:
            if not line.strip():
                continue
            try:
                entry = json.loads(line.decode("utf-8"))
            except (json.JSONDecodeError, UnicodeDecodeError):
                skipped += 1
                continue
            if isinstance(entry, dict) and isinstance(entry.get("record_id"), str):
                entries.append(entry)
            else:
                skipped += 1
        return entries, skipped

    def _object_ids(self) -> list[str]:
        ids = []
        objects = self.directory / OBJECTS_DIR
        if not objects.is_dir():
            return ids
        for shard in sorted(objects.iterdir()):
            if not shard.is_dir():
                continue
            for path in sorted(shard.glob("*.json")):
                ids.append(path.stem)
        return ids

    def entries(self) -> list[dict]:
        """The index, salvaging it from the objects when damaged or stale.

        The objects are ground truth; any damaged index line — or any
        stored object the index has no line for (a crash between the
        object write and the append) — triggers a locked rebuild.
        """
        entries, skipped = self._read_index()
        known = {entry["record_id"] for entry in entries}
        missing = [rid for rid in self._object_ids() if rid not in known]
        if skipped or missing:
            return self.rebuild_index()
        return entries

    def rebuild_index(self) -> list[dict]:
        """Regenerate ``index.jsonl`` from the object store, atomically."""
        entries = []
        unreadable = 0
        for record_id in self._object_ids():
            try:
                record = self._load_object(record_id)
            except RegistryError:
                unreadable += 1
                continue
            entries.append(record.index_entry())
        entries.sort(key=lambda e: (e.get("created_at", 0.0), e["record_id"]))
        lines = "".join(json.dumps(entry) + "\n" for entry in entries)
        try:
            with self._locked():
                atomic_write_bytes(self.index_path, lines.encode("utf-8"))
        except CheckpointError as error:
            raise RegistryError(str(error)) from error
        detail = f"index rebuilt from {len(entries)} object(s)"
        if unreadable:
            detail += f" ({unreadable} unreadable object(s) skipped)"
        emit(RegistryEvent(
            action="salvage", path=str(self.index_path), detail=detail,
        ))
        return entries

    def _load_object(self, record_id: str) -> RegistryRecord:
        path = self.object_path(record_id)
        try:
            payload = json.loads(path.read_text())
        except FileNotFoundError:
            raise RegistryError(
                f"registry object {record_id[:12]}… is missing from "
                f"{self.directory}"
            ) from None
        except (OSError, json.JSONDecodeError, UnicodeDecodeError) as error:
            raise RegistryError(
                f"corrupt registry object {path}: {error}"
            ) from error
        return RegistryRecord.from_payload(payload, source=str(path))

    def get(self, ref: str) -> RegistryRecord:
        """Resolve a full record id or a unique prefix to its record."""
        ref = ref.strip().lower()
        if len(ref) < MIN_REF_LENGTH:
            raise RegistryError(
                f"record reference {ref!r} is too short "
                f"(need at least {MIN_REF_LENGTH} hex characters)"
            )
        matches = sorted({
            rid for rid in self._object_ids() if rid.startswith(ref)
        })
        if not matches:
            raise RegistryError(
                f"no record matches {ref!r} in {self.directory}"
            )
        if len(matches) > 1:
            preview = ", ".join(rid[:12] for rid in matches[:4])
            raise RegistryError(
                f"record reference {ref!r} is ambiguous "
                f"({len(matches)} matches: {preview}…)"
            )
        return self._load_object(matches[0])

    def query(self, *, kind: str | None = None, chip: str | None = None,
              verdict: str | None = None, campaign: str | None = None,
              platform_hash: str | None = None,
              min_droop_v: float | None = None,
              max_droop_v: float | None = None) -> list[dict]:
        """Index entries matching every given filter."""
        selected = []
        for entry in self.entries():
            if kind is not None and entry.get("kind") != kind:
                continue
            if chip is not None and entry.get("chip") != chip:
                continue
            if verdict is not None and entry.get("verdict") != verdict:
                continue
            if campaign is not None and entry.get("campaign") != campaign:
                continue
            if platform_hash is not None and (
                    entry.get("platform_hash") != platform_hash):
                continue
            droop = entry.get("droop_v")
            if min_droop_v is not None and (
                    not isinstance(droop, (int, float)) or droop < min_droop_v):
                continue
            if max_droop_v is not None and (
                    not isinstance(droop, (int, float)) or droop > max_droop_v):
                continue
            selected.append(entry)
        return selected

    def records(self) -> list[RegistryRecord]:
        """Every stored record, index order."""
        return [self._load_object(e["record_id"]) for e in self.entries()]
