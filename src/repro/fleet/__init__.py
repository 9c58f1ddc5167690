"""Fleet orchestration: scenario matrices run as sharded campaigns.

The paper's cross-platform story (Table 3) needs the closed loop re-run
per chip, PDN variant, thread count, and GA budget.  This package turns
that portfolio into one declarative
:class:`~repro.fleet.matrix.ScenarioMatrix`, runs its expansion as
resumable shards under
:class:`~repro.fleet.orchestrator.FleetOrchestrator`, and aggregates the
winners into a deterministic :class:`~repro.fleet.report.FleetReport`.
"""
