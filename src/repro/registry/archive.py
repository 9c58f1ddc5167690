"""Portable registry archives: export/import as a tarball.

An export is a ``.tar.gz`` holding a manifest plus the selected records'
full object payloads::

    registry-export/manifest.json
    registry-export/objects/<record_id>.json

Import never extracts to the filesystem — members are read in memory and
republished through the normal store path, so a hostile archive cannot
path-traverse, and every record re-proves its content hash (tampered
payloads are rejected by :meth:`RegistryRecord.from_payload`).  Because
publishing is content-addressed, importing an archive twice — or into a
registry that already holds some of its records — deduplicates.
"""

from __future__ import annotations

import io
import json
import tarfile
import time
from dataclasses import dataclass

from repro import package_version
from repro.errors import RegistryError
from repro.obs.spans import span
from repro.registry.record import RegistryRecord
from repro.registry.store import StressmarkRegistry

#: Bumped when the archive layout changes incompatibly.
ARCHIVE_VERSION = 1

_ROOT = "registry-export"


@dataclass(frozen=True)
class ImportOutcome:
    """What one import did: new records vs. already-present ones."""

    imported: tuple
    deduped: tuple

    @property
    def total(self) -> int:
        return len(self.imported) + len(self.deduped)


def export_records(registry: StressmarkRegistry, out_path, *,
                   refs=None) -> list[str]:
    """Write the selected records (default: all) to *out_path*.

    Returns the exported record ids.
    """
    with span("registry.export", path=str(out_path)) as exporting:
        if refs:
            records = [registry.get(ref) for ref in refs]
        else:
            records = registry.records()
        if not records:
            raise RegistryError(f"nothing to export from {registry.directory}")
        manifest = {
            "archive_version": ARCHIVE_VERSION,
            "exported_at": time.time(),
            "repro_version": package_version(),
            "records": [record.record_id for record in records],
        }
        try:
            with tarfile.open(out_path, "w:gz") as tar:
                _add_member(tar, f"{_ROOT}/manifest.json", manifest)
                for record in records:
                    _add_member(
                        tar,
                        f"{_ROOT}/objects/{record.record_id}.json",
                        record.to_payload(),
                    )
        except OSError as error:
            raise RegistryError(
                f"cannot write archive {out_path}: {error}"
            ) from error
        exporting.set(detail=f"{len(records)} record(s)")
    return [record.record_id for record in records]


def import_archive(registry: StressmarkRegistry, archive_path) -> ImportOutcome:
    """Publish every record of *archive_path* into *registry*."""
    with span("registry.import", path=str(archive_path)) as importing:
        try:
            tar = tarfile.open(archive_path, "r:*")
        except (OSError, tarfile.TarError) as error:
            raise RegistryError(
                f"cannot read archive {archive_path}: {error}"
            ) from error
        imported: list[str] = []
        deduped: list[str] = []
        with tar:
            manifest = _read_manifest(tar, archive_path)
            expected = manifest.get("records")
            members = [
                member for member in tar.getmembers()
                if member.isfile()
                and member.name.startswith(f"{_ROOT}/objects/")
                and member.name.endswith(".json")
            ]
            if not members:
                raise RegistryError(f"archive {archive_path} holds no records")
            for member in members:
                payload = _read_json(tar, member, archive_path)
                record = RegistryRecord.from_payload(
                    payload, source=f"{archive_path}:{member.name}"
                )
                outcome = registry.publish(record)
                (deduped if outcome.deduped else imported).append(outcome.record_id)
            if isinstance(expected, list):
                seen = set(imported) | set(deduped)
                missing = [rid for rid in expected if rid not in seen]
                if missing:
                    raise RegistryError(
                        f"archive {archive_path} manifest lists "
                        f"{len(missing)} record(s) absent from the archive "
                        f"(first: {str(missing[0])[:12]}…)"
                    )
        importing.set(detail=f"{len(imported)} new, {len(deduped)} already present")
    return ImportOutcome(imported=tuple(imported), deduped=tuple(deduped))


# ----------------------------------------------------------------------
def _add_member(tar: tarfile.TarFile, name: str, payload: dict) -> None:
    data = json.dumps(payload, indent=2, sort_keys=True).encode("utf-8")
    info = tarfile.TarInfo(name)
    info.size = len(data)
    # Fixed mtime keeps same-content exports byte-comparable.
    info.mtime = 0
    tar.addfile(info, io.BytesIO(data))


def _read_manifest(tar: tarfile.TarFile, archive_path) -> dict:
    payload = None
    for member in tar.getmembers():
        if member.name == f"{_ROOT}/manifest.json" and member.isfile():
            payload = _read_json(tar, member, archive_path)
            break
    if payload is None:
        raise RegistryError(
            f"archive {archive_path} has no {_ROOT}/manifest.json "
            f"(not a registry export?)"
        )
    version = payload.get("archive_version")
    if version != ARCHIVE_VERSION:
        raise RegistryError(
            f"archive version {version!r} in {archive_path} is not "
            f"supported (expected {ARCHIVE_VERSION})"
        )
    return payload


def _read_json(tar: tarfile.TarFile, member: tarfile.TarInfo,
               archive_path) -> dict:
    handle = tar.extractfile(member)
    if handle is None:  # pragma: no cover - isfile() filtered already
        raise RegistryError(
            f"archive member {member.name} in {archive_path} is unreadable"
        )
    try:
        payload = json.loads(handle.read().decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as error:
        raise RegistryError(
            f"corrupt archive member {member.name} in {archive_path}: "
            f"{error}"
        ) from error
    if not isinstance(payload, dict):
        raise RegistryError(
            f"corrupt archive member {member.name} in {archive_path}: "
            f"expected a JSON object"
        )
    return payload
