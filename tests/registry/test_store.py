"""Store semantics: dedup, prefix lookup, queries, salvage, full disks."""

import errno
import json

import pytest

from repro.core.telemetry import RecentEventsObserver
from repro.errors import RegistryError
from repro.obs.spans import Tracer, tracing
from repro.registry.store import MIN_REF_LENGTH, REGISTRY_VERSION, StressmarkRegistry
from repro.supervision.chaos import (
    bitflip_file,
    inject_write_failures,
    truncate_file,
)

from tests.registry.conftest import synthetic_record


@pytest.fixture
def registry(tmp_path):
    return StressmarkRegistry(tmp_path / "reg")


def publish_many(registry, count, **kwargs):
    return [registry.publish(synthetic_record(n, **kwargs))
            for n in range(count)]


class TestPublish:
    def test_publish_then_dedup(self, registry):
        first = registry.publish(synthetic_record(1))
        again = registry.publish(synthetic_record(1))
        assert not first.deduped
        assert again.deduped
        assert first.record_id == again.record_id
        assert len(registry.entries()) == 1

    def test_restamped_record_dedups(self, registry):
        import dataclasses

        base = synthetic_record(1)
        registry.publish(base)
        restamped = dataclasses.replace(
            base, provenance={**base.provenance, "git": "elsewhere"})
        assert registry.publish(restamped).deduped

    def test_object_layout_is_sharded(self, registry):
        outcome = registry.publish(synthetic_record(2))
        path = registry.object_path(outcome.record_id)
        assert path.parent.name == outcome.record_id[:2]
        assert json.loads(path.read_text())["record_id"] == outcome.record_id

    def test_publish_emits_event(self, tmp_path):
        recorder = RecentEventsObserver()
        registry = StressmarkRegistry(tmp_path / "reg")
        with tracing(Tracer([recorder])):
            registry.publish(synthetic_record(1))
        kinds = [event["kind"] for event in recorder.tail()]
        assert "registry" in kinds

    def test_enospc_publish_raises_registry_error(self, registry):
        with inject_write_failures(count=1, errno=errno.ENOSPC):
            with pytest.raises(RegistryError, match="No space left"):
                registry.publish(synthetic_record(3))
        # The failed publish left no object behind; a retry lands cleanly.
        outcome = registry.publish(synthetic_record(3))
        assert not outcome.deduped

    def test_version_mismatch_rejected(self, tmp_path):
        registry = StressmarkRegistry(tmp_path / "reg")
        meta = json.loads(registry.meta_path.read_text())
        meta["registry_version"] = REGISTRY_VERSION + 1
        registry.meta_path.write_text(json.dumps(meta))
        with pytest.raises(RegistryError, match="version"):
            StressmarkRegistry(tmp_path / "reg")


class TestLookup:
    def test_get_by_prefix(self, registry):
        outcome = registry.publish(synthetic_record(1))
        record = registry.get(outcome.record_id[:MIN_REF_LENGTH + 2])
        assert record.record_id == outcome.record_id

    def test_short_ref_rejected(self, registry):
        registry.publish(synthetic_record(1))
        with pytest.raises(RegistryError, match="too short"):
            registry.get("ab")

    def test_unknown_ref_rejected(self, registry):
        with pytest.raises(RegistryError, match="no record matches"):
            registry.get("feedfacefeed")

    def test_ambiguous_ref_rejected(self, registry, monkeypatch):
        ids = [outcome.record_id for outcome in publish_many(registry, 40)]
        shared = None
        for rid in ids:
            twins = [x for x in ids if x[:1] == rid[:1]]
            if len(twins) > 1:
                shared = rid[:1]
                break
        assert shared is not None, "40 sha256 ids share no first nibble?"
        monkeypatch.setattr("repro.registry.store.MIN_REF_LENGTH", 1)
        with pytest.raises(RegistryError, match="ambiguous"):
            registry.get(shared)


class TestQuery:
    def test_query_filters_compose(self, registry):
        publish_many(registry, 3, campaign="alpha")
        publish_many(registry, 2, campaign="beta", verdict="PASS")
        assert len(registry.query(campaign="alpha")) == 3
        assert len(registry.query(campaign="beta", verdict="PASS")) == 2
        assert registry.query(campaign="beta", verdict="ARTIFACT") == []

    def test_query_droop_range(self, registry):
        publish_many(registry, 5)  # droops 0.030 .. 0.034
        hits = registry.query(min_droop_v=0.031, max_droop_v=0.033)
        assert sorted(e["droop_v"] for e in hits) == [0.031, 0.032, 0.033]

    def test_query_platform_hash(self, registry):
        publish_many(registry, 3)
        assert len(registry.query(platform_hash="hash-0001")) == 1


class TestSalvage:
    def test_truncated_index_rebuilt_from_objects(self, registry):
        ids = {o.record_id for o in publish_many(registry, 4)}
        truncate_file(registry.index_path, keep_fraction=0.4)
        entries = registry.entries()
        assert {e["record_id"] for e in entries} == ids
        # The rebuild persisted: a fresh handle reads a clean index.
        fresh = StressmarkRegistry(registry.directory)
        assert len(fresh._read_index()[0]) == 4

    def test_bitflipped_index_rebuilt(self, registry):
        ids = {o.record_id for o in publish_many(registry, 3)}
        bitflip_file(registry.index_path, offset=4, bit=4)
        assert {e["record_id"] for e in registry.entries()} == ids

    def test_missing_index_line_rebuilt(self, registry):
        """A crash between object write and index append self-heals."""
        ids = {o.record_id for o in publish_many(registry, 3)}
        registry.index_path.write_text("")  # the appends never landed
        assert {e["record_id"] for e in registry.entries()} == ids

    def test_corrupt_object_skipped_by_rebuild(self, registry):
        outcomes = publish_many(registry, 3)
        bitflip_file(registry.object_path(outcomes[0].record_id),
                     offset=60, bit=3)
        registry.index_path.unlink()
        survivors = {e["record_id"] for e in registry.rebuild_index()}
        assert survivors == {o.record_id for o in outcomes[1:]}

    def test_salvage_emits_event(self, tmp_path):
        recorder = RecentEventsObserver()
        registry = StressmarkRegistry(tmp_path / "reg")
        registry.publish(synthetic_record(1))
        truncate_file(registry.index_path, keep_bytes=5)
        with tracing(Tracer([recorder])):
            registry.entries()
        details = [event.get("detail", "") for event in recorder.tail()]
        assert any("rebuilt" in detail for detail in details)

    def test_hand_edited_object_fails_hash_check(self, registry):
        outcome = registry.publish(synthetic_record(1))
        path = registry.object_path(outcome.record_id)
        payload = json.loads(path.read_text())
        payload["droop_v"] = 99.0
        path.write_text(json.dumps(payload))
        with pytest.raises(RegistryError, match="tampered or corrupt"):
            registry.get(outcome.record_id)
