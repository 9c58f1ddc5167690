"""The stressmark registry: a content-addressed library of AUDIT results.

AUDIT's product is its artifacts — stressmarks, their measured droops,
their qualification verdicts — and this package gives them a durable,
queryable, deduplicated home.  ``repro audit``, ``repro qualify`` and
``repro fleet run`` publish a
:class:`~repro.registry.record.RegistryRecord` per result into a
:class:`~repro.registry.store.StressmarkRegistry` (``--registry DIR``);
the ``repro registry`` command group lists, queries, compares,
exports/imports, and — because the whole simulation stack is
deterministic — *verifies* records by re-measuring them and demanding the recorded droop bit for bit.

Layout and schema are documented in DESIGN.md §12.
"""
