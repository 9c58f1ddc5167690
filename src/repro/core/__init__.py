"""AUDIT core: the paper's contribution — closed-loop stressmark generation.

* :class:`~repro.core.platform.MeasurementPlatform` — the "Measure HW" box
  over a pluggable :class:`~repro.core.platform.MeasurementBackend`.
* :class:`~repro.core.engine.EvaluationEngine` — batched, cached, observable
  genome fitness with serial/process-pool executors.
* :class:`~repro.core.audit.AuditRunner` — the full Fig. 5 loop.
* :mod:`~repro.core.telemetry` — run observers (console/JSONL/collector).
* :mod:`~repro.core.dithering` — exact/approximate thread alignment.
* :mod:`~repro.core.resonance` — automatic resonance detection.
"""
