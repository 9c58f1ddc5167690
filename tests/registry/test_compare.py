"""Record and campaign comparisons."""

import dataclasses

import pytest

from repro.errors import RegistryError
from repro.registry.compare import (
    compare_campaigns,
    compare_records,
    render_campaign_comparison,
    render_record_comparison,
)
from repro.registry.store import StressmarkRegistry

from tests.registry.conftest import synthetic_record


def _axis(rows, name):
    return next(row for row in rows if row["axis"] == name)


class TestCompareRecords:
    def test_numeric_axes_carry_deltas(self):
        a, b = synthetic_record(1), synthetic_record(4)
        rows = compare_records(a, b)
        droop = _axis(rows, "droop_v")
        assert droop["delta"] == pytest.approx(b.droop_v - a.droop_v)
        assert _axis(rows, "threads")["delta"] == 0

    def test_canned_genome_label(self):
        rows = compare_records(synthetic_record(1), synthetic_record(2))
        assert _axis(rows, "genome")["a"] == "canned:a-res"

    def test_genome_slot_difference(self, audit_record):
        mutated = dataclasses.replace(
            audit_record,
            program={**audit_record.program,
                     "subblock": list(reversed(
                         audit_record.program["subblock"]))},
        )
        rows = compare_records(audit_record, mutated)
        a_changed, b_changed = (_axis(rows, "genome slots changed")["a"],
                                _axis(rows, "genome slots changed")["b"])
        assert a_changed == 0
        assert b_changed >= 0

    def test_render_is_a_table(self):
        text = render_record_comparison(
            compare_records(synthetic_record(1), synthetic_record(2)))
        assert "record comparison" in text
        assert "droop_v" in text


class TestCompareCampaigns:
    @pytest.fixture
    def registry(self, tmp_path):
        registry = StressmarkRegistry(tmp_path / "reg")
        for n in range(3):
            registry.publish(synthetic_record(n, campaign="before"))
        # After: mark-0 identical droop, mark-1 deeper, mark-2 shallower.
        # (A distinct platform hash keeps the bit-identical rerun from
        # content-deduping against its "before" twin.)
        for n, delta in ((0, 0.0), (1, 0.004), (2, -0.004)):
            record = synthetic_record(n, campaign="after")
            record = dataclasses.replace(
                record, droop_v=record.droop_v + delta,
                platform_hash=record.platform_hash + "-after")
            registry.publish(record)
        return registry

    def test_join_and_tallies(self, registry):
        diff = compare_campaigns(registry, "before", "after")
        assert diff["shared"] == 3
        assert diff["identical"] == 1
        assert diff["improved"] == 1
        assert diff["regressed"] == 1

    def test_render_summarises(self, registry):
        text = render_campaign_comparison(
            compare_campaigns(registry, "before", "after"))
        assert "campaign comparison" in text
        assert "1 bit-identical" in text

    def test_unknown_campaign_rejected(self, registry):
        with pytest.raises(RegistryError, match="no records for campaign"):
            compare_campaigns(registry, "before", "nonesuch")

    def test_disjoint_scenarios_listed_without_delta(self, tmp_path):
        registry = StressmarkRegistry(tmp_path / "reg")
        registry.publish(synthetic_record(1, campaign="alpha"))
        registry.publish(synthetic_record(2, campaign="beta"))
        diff = compare_campaigns(registry, "alpha", "beta")
        assert diff["shared"] == 0
        assert len(diff["scenarios"]) == 2
        assert all(entry["delta_v"] is None for entry in diff["scenarios"])
