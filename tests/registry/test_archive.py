"""Export/import round trips, dedup on re-import, hostile archives."""

import io
import json
import tarfile

import pytest

from repro.errors import RegistryError
from repro.registry.archive import export_records, import_archive
from repro.registry.store import StressmarkRegistry

from tests.registry.conftest import synthetic_record


@pytest.fixture
def populated(tmp_path):
    registry = StressmarkRegistry(tmp_path / "reg")
    ids = [registry.publish(synthetic_record(n)).record_id for n in range(3)]
    return registry, ids


class TestRoundTrip:
    def test_export_import_round_trip(self, populated, tmp_path):
        registry, ids = populated
        archive = tmp_path / "marks.tar.gz"
        assert sorted(export_records(registry, archive)) == sorted(ids)

        target = StressmarkRegistry(tmp_path / "reg2")
        outcome = import_archive(target, archive)
        assert sorted(outcome.imported) == sorted(ids)
        assert outcome.deduped == ()
        assert {r.record_id for r in target.records()} == set(ids)

    def test_reimport_deduplicates(self, populated, tmp_path):
        registry, ids = populated
        archive = tmp_path / "marks.tar.gz"
        export_records(registry, archive)
        target = StressmarkRegistry(tmp_path / "reg2")
        import_archive(target, archive)
        again = import_archive(target, archive)
        assert again.imported == ()
        assert sorted(again.deduped) == sorted(ids)

    def test_selective_export(self, populated, tmp_path):
        registry, ids = populated
        archive = tmp_path / "one.tar.gz"
        exported = export_records(registry, archive, refs=[ids[0][:12]])
        assert exported == [ids[0]]
        target = StressmarkRegistry(tmp_path / "reg2")
        assert import_archive(target, archive).total == 1

    def test_same_content_exports_are_byte_identical(self, populated,
                                                     tmp_path):
        """Fixed member mtimes make exports comparable across machines."""
        registry, ids = populated
        a, b = tmp_path / "a.tar.gz", tmp_path / "b.tar.gz"
        export_records(registry, a, refs=[ids[0]])
        export_records(registry, b, refs=[ids[0]])
        with tarfile.open(a) as ta, tarfile.open(b) as tb:
            for ma, mb in zip(ta.getmembers(), tb.getmembers()):
                assert ma.name == mb.name
                assert ma.mtime == mb.mtime == 0

    def test_empty_export_rejected(self, tmp_path):
        registry = StressmarkRegistry(tmp_path / "reg")
        with pytest.raises(RegistryError, match="nothing to export"):
            export_records(registry, tmp_path / "empty.tar.gz")


def _retar(src_path, dst_path, mutate):
    """Copy an archive, passing each (name, payload) through *mutate*."""
    with tarfile.open(src_path, "r:gz") as src, \
            tarfile.open(dst_path, "w:gz") as dst:
        for member in src.getmembers():
            payload = json.loads(src.extractfile(member).read())
            name, payload = mutate(member.name, payload)
            if name is None:
                continue
            data = json.dumps(payload).encode("utf-8")
            info = tarfile.TarInfo(name)
            info.size = len(data)
            dst.addfile(info, io.BytesIO(data))


class TestHostileArchives:
    def test_tampered_member_rejected(self, populated, tmp_path):
        registry, ids = populated
        archive = tmp_path / "marks.tar.gz"
        export_records(registry, archive)

        def deepen(name, payload):
            if "objects/" in name:
                payload["droop_v"] = 9.9  # forged measurement
            return name, payload

        forged = tmp_path / "forged.tar.gz"
        _retar(archive, forged, deepen)
        target = StressmarkRegistry(tmp_path / "reg2")
        with pytest.raises(RegistryError, match="tampered or corrupt"):
            import_archive(target, forged)

    def test_manifest_missing_rejected(self, populated, tmp_path):
        registry, _ = populated
        archive = tmp_path / "marks.tar.gz"
        export_records(registry, archive)
        headless = tmp_path / "headless.tar.gz"
        _retar(archive, headless,
               lambda name, payload: (None, None) if "manifest" in name
               else (name, payload))
        target = StressmarkRegistry(tmp_path / "reg2")
        with pytest.raises(RegistryError, match="manifest"):
            import_archive(target, headless)

    def test_manifest_promising_absent_record_rejected(self, populated,
                                                       tmp_path):
        registry, ids = populated
        archive = tmp_path / "marks.tar.gz"
        export_records(registry, archive)

        def drop_one(name, payload):
            if name.endswith(f"{ids[0]}.json"):
                return None, None
            return name, payload

        torn = tmp_path / "torn.tar.gz"
        _retar(archive, torn, drop_one)
        target = StressmarkRegistry(tmp_path / "reg2")
        with pytest.raises(RegistryError, match="absent from the archive"):
            import_archive(target, torn)

    def test_not_a_tarball_rejected(self, tmp_path):
        registry = StressmarkRegistry(tmp_path / "reg")
        junk = tmp_path / "junk.tar.gz"
        junk.write_bytes(b"\x00" * 64)
        with pytest.raises(RegistryError, match="cannot read archive"):
            import_archive(registry, junk)
