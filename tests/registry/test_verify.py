"""Replay verification: recorded droops must reproduce bit for bit."""

import dataclasses
import math

import pytest

from repro.core.qualify import QualifyConfig, StressmarkQualifier
from repro.errors import RegistryError
from repro.isa.opcodes import default_table
from repro.registry.provenance import platform_descriptor
from repro.registry.record import RegistryRecord, record_from_qualification
from repro.registry.verify import VerifyResult, rebuild_program, verify_record
from repro.workloads.stressmarks import canned_stressmark, stressmark_program


class TestAuditRoundTrip:
    def test_audit_record_verifies_bit_identically(self, audit_record):
        result = verify_record(audit_record)
        assert result.droop_identical
        assert result.measured_droop_v == audit_record.droop_v
        assert not result.platform_drifted
        assert result.ok
        assert "bit-identically" in result.describe()

    def test_rebuilt_program_matches_the_original(self, audit_record,
                                                  audit_result, platform):
        program = rebuild_program(audit_record, platform)
        assert program.kernel.name == audit_result.name
        measured = platform.measure_program(program, audit_record.threads)
        assert measured.max_droop_v == audit_record.droop_v

    def test_altered_droop_fails_verification(self, audit_record):
        tampered = dataclasses.replace(
            audit_record, droop_v=audit_record.droop_v + 1e-9)
        result = verify_record(tampered)
        assert not result.droop_identical
        assert not result.ok
        assert "FAILED" in result.describe()

    def test_platform_drift_detected(self, audit_record):
        drifted = dataclasses.replace(audit_record,
                                      platform_hash="0123456789abcdef")
        result = verify_record(drifted)
        assert result.platform_drifted
        assert not result.ok
        assert "drift" in result.describe()


class TestQualifyRoundTrip:
    def test_canned_record_verifies(self, platform):
        pool = default_table().supported_on(platform.chip.extensions)
        program = stressmark_program(canned_stressmark("a-res", pool))
        qualifier = StressmarkQualifier(
            platform, threads=2,
            config=QualifyConfig(jitter_repeats=2, supply_points=3),
        )
        report = qualifier.qualify_program(program, name="a-res")
        record = record_from_qualification(
            report, platform=platform,
            descriptor=platform_descriptor("bulldozer"),
        )
        result = verify_record(record)
        assert result.ok
        assert result.measured_droop_v == report.nominal_droop_v


class TestVerifyResult:
    def test_nan_never_verifies(self):
        result = VerifyResult(
            record_id="cafe", recorded_droop_v=math.nan,
            measured_droop_v=math.nan,
            platform_hash_recorded="x", platform_hash_rebuilt="x",
            wall_s=0.0,
        )
        assert not result.droop_identical
        assert not result.ok


class TestRebuildErrors:
    def test_unknown_chip_rejected(self, audit_record):
        bogus = dataclasses.replace(
            audit_record, platform={**audit_record.platform, "chip": "epyc"})
        with pytest.raises(RegistryError, match="unknown chip"):
            verify_record(bogus)

    def test_unknown_program_source_rejected(self, audit_record, platform):
        bogus = dataclasses.replace(
            audit_record, program={"source": "carrier-pigeon"})
        with pytest.raises(RegistryError):
            rebuild_program(bogus, platform)

    def test_unknown_canned_name_rejected(self, platform, audit_record):
        bogus = dataclasses.replace(
            audit_record,
            program={"source": "canned", "stressmark": "nonesuch"})
        with pytest.raises(Exception):
            rebuild_program(bogus, platform)


class TestThrottledDescriptor:
    def test_throttled_platform_round_trips(self):
        """A record published from a throttled testbed rebuilds and
        re-measures identically (the audit CLI's --throttle path)."""
        from repro.registry.provenance import build_platform, hash_platform

        descriptor = platform_descriptor("bulldozer", throttle=1)
        platform = build_platform(descriptor)
        pool = default_table().supported_on(platform.chip.extensions)
        program = stressmark_program(canned_stressmark("a-res", pool))
        droop = platform.measure_program(program, 2).max_droop_v
        record = RegistryRecord(
            kind="qualify", name="a-res",
            program={"source": "canned", "stressmark": "a-res"},
            platform=descriptor,
            platform_hash=hash_platform(platform),
            threads=2, droop_v=droop,
        )
        assert verify_record(record).ok
