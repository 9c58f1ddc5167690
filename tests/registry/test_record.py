"""Record identity: content addressing, provenance exclusion, tampering."""

import dataclasses

import pytest

from repro.errors import RegistryError
from repro.registry.record import RECORD_VERSION, RegistryRecord

from tests.registry.conftest import synthetic_record, with_provenance


class TestIdentity:
    def test_id_is_deterministic(self):
        assert synthetic_record(1).record_id == synthetic_record(1).record_id

    def test_id_changes_with_measured_fields(self):
        base = synthetic_record(1)
        assert base.record_id != synthetic_record(2).record_id
        deeper = dataclasses.replace(base, droop_v=base.droop_v + 1e-12)
        assert deeper.record_id != base.record_id

    def test_provenance_excluded_from_id(self):
        base = synthetic_record(1)
        restamped = with_provenance(base, created_at=9e9, git="elsewhere")
        assert restamped.record_id == base.record_id

    def test_index_entry_carries_campaign(self):
        entry = synthetic_record(3, campaign="nightly").index_entry()
        assert entry["campaign"] == "nightly"
        assert entry["record_id"] == synthetic_record(3).record_id
        assert entry["chip"] == "bulldozer"


class TestPayloadRoundTrip:
    def test_round_trip_preserves_identity(self):
        base = synthetic_record(4, verdict="PASS")
        decoded = RegistryRecord.from_payload(base.to_payload())
        assert decoded == base
        assert decoded.record_id == base.record_id

    def test_droop_survives_json_bit_exactly(self):
        base = dataclasses.replace(synthetic_record(5),
                                   droop_v=0.03633692588394366)
        import json

        decoded = RegistryRecord.from_payload(
            json.loads(json.dumps(base.to_payload()))
        )
        assert decoded.droop_v == base.droop_v

    def test_tampered_payload_rejected(self):
        payload = synthetic_record(6).to_payload()
        payload["droop_v"] = 0.999
        with pytest.raises(RegistryError, match="tampered or corrupt"):
            RegistryRecord.from_payload(payload)

    def test_unknown_version_rejected(self):
        payload = synthetic_record(7).to_payload()
        payload["record_version"] = RECORD_VERSION + 1
        with pytest.raises(RegistryError, match="version"):
            RegistryRecord.from_payload(payload)

    def test_unknown_program_source_rejected(self):
        payload = synthetic_record(8).to_payload()
        payload["program"] = {"source": "carrier-pigeon"}
        with pytest.raises(RegistryError, match="program source"):
            RegistryRecord.from_payload(payload)

    def test_non_object_rejected(self):
        with pytest.raises(RegistryError, match="expected a JSON object"):
            RegistryRecord.from_payload(["not", "a", "record"])


class TestAuditBuilder:
    def test_audit_record_fields(self, audit_record, audit_result):
        assert audit_record.kind == "audit"
        assert audit_record.name == audit_result.name
        assert audit_record.droop_v == audit_result.max_droop_v
        assert audit_record.threads == audit_result.threads
        assert audit_record.mode == "resonant"
        assert audit_record.program["source"] == "genome"
        assert audit_record.program["subblock"] == list(
            audit_result.genome.subblock)
        assert audit_record.provenance["campaign"] == "unit"

    def test_audit_record_round_trips(self, audit_record):
        decoded = RegistryRecord.from_payload(audit_record.to_payload())
        assert decoded.record_id == audit_record.record_id
        assert decoded.droop_v == audit_record.droop_v
