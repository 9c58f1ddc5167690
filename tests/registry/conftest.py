"""Shared fixtures: one real audit record, cheap synthetic records."""

import dataclasses

import pytest

from repro.core.audit import AuditConfig, AuditRunner
from repro.core.ga import GaConfig
from repro.core.platform import MeasurementPlatform
from repro.pdn.elements import bulldozer_pdn
from repro.registry.provenance import platform_descriptor, provenance_stamp
from repro.registry.record import RegistryRecord, record_from_audit
from repro.uarch.config import bulldozer_chip


@pytest.fixture(scope="session")
def platform():
    chip = bulldozer_chip()
    return MeasurementPlatform(chip, bulldozer_pdn(vdd=chip.vdd))


@pytest.fixture(scope="session")
def audit_result(platform):
    """One tiny but real campaign result shared by the whole package."""
    config = AuditConfig(
        threads=2, ga=GaConfig(population_size=4, generations=1, seed=7),
    )
    return AuditRunner(platform, config=config).run()


@pytest.fixture(scope="session")
def audit_record(audit_result, platform):
    return record_from_audit(
        audit_result,
        platform=platform,
        descriptor=platform_descriptor("bulldozer"),
        seed=7,
        provenance=provenance_stamp(argv=["test"], campaign="unit"),
    )


def synthetic_record(n: int = 0, *, campaign: str = "synthetic",
                     verdict: str = "", chip: str = "bulldozer",
                     threads: int = 2) -> RegistryRecord:
    """A cheap, valid record (canned program, fabricated measurements)."""
    return RegistryRecord(
        kind="qualify",
        name=f"mark-{n}",
        program={"source": "canned", "stressmark": "a-res"},
        platform=platform_descriptor(chip),
        platform_hash=f"hash-{n:04d}",
        threads=threads,
        droop_v=0.030 + n * 0.001,
        verdict=verdict,
        provenance={"campaign": campaign, "created_at": float(n)},
    )


def with_provenance(record: RegistryRecord, **updates) -> RegistryRecord:
    return dataclasses.replace(
        record, provenance={**record.provenance, **updates},
    )
