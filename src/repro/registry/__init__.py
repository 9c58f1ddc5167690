"""The stressmark registry: a content-addressed library of AUDIT results.

AUDIT's product is its artifacts — stressmarks, their measured droops,
their qualification verdicts — and this package gives them a durable,
queryable, deduplicated home.  ``repro audit``, ``repro qualify`` and
``repro fleet run`` publish a :class:`RegistryRecord` per result into a
:class:`StressmarkRegistry` (``--registry DIR``); the ``repro registry``
command group lists, queries, compares, exports/imports, and — because
the whole simulation stack is deterministic — *verifies* records by
re-measuring them and demanding the recorded droop bit for bit.

Layout and schema are documented in DESIGN.md §12.
"""

from repro.registry.archive import ImportOutcome, export_records, import_archive
from repro.registry.compare import (
    compare_campaigns,
    compare_records,
    render_campaign_comparison,
    render_record_comparison,
)
from repro.registry.provenance import (
    build_platform,
    git_describe,
    hash_config,
    hash_platform,
    platform_config,
    platform_descriptor,
    provenance_stamp,
    telemetry_summary,
)
from repro.registry.record import (
    RECORD_VERSION,
    RegistryRecord,
    record_from_audit,
    record_from_qualification,
    record_from_shard,
)
from repro.registry.store import PublishOutcome, StressmarkRegistry
from repro.registry.verify import VerifyResult, rebuild_program, verify_record

__all__ = [
    "RECORD_VERSION",
    "ImportOutcome",
    "PublishOutcome",
    "RegistryRecord",
    "StressmarkRegistry",
    "VerifyResult",
    "build_platform",
    "compare_campaigns",
    "compare_records",
    "export_records",
    "git_describe",
    "hash_config",
    "hash_platform",
    "import_archive",
    "platform_config",
    "platform_descriptor",
    "provenance_stamp",
    "rebuild_program",
    "record_from_audit",
    "record_from_qualification",
    "record_from_shard",
    "render_campaign_comparison",
    "render_record_comparison",
    "telemetry_summary",
    "verify_record",
]
