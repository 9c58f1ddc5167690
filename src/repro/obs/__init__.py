"""repro.obs: the unified observability layer.

Three pieces, one spine:

* :mod:`repro.obs.spans` — hierarchical trace spans with monotonic
  timing and trace/span ids that survive process-pool workers, fleet
  shard subprocesses, and supervisor respawns;
* :mod:`repro.obs.metrics` — the mergeable, serializable registry of
  counters / gauges / fixed-bucket histograms, the one counter ledger:
  the pipeline, the chip simulator, pool workers and the run collector
  all count into it;
* :mod:`repro.obs.trace` — JSONL trace → span tree → self-time /
  cache / fault analysis, backing the ``repro telemetry`` CLI group.

Instrumented code calls :func:`repro.obs.spans.span` — a no-op until a
:class:`~repro.obs.spans.Tracer` is installed, so the library stays
effectively free when nobody is watching (the bench baseline gates the
watched overhead ≤3 %).
"""
