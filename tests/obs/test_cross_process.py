"""Cross-process trace coherence: pools, chaos, and lost spans.

The acceptance test for the observability layer: a ``--workers``-style
campaign whose workers hang and abort (and whose pool is killed and
respawned) must still yield ONE coherent span tree — worker spans nest
under the parent's batch spans, and a SIGKILLed worker's in-flight span
appears as a ``status="lost"`` leaf instead of a dangling parent id.
"""

import os

import pytest

from repro.core.audit import AuditConfig, AuditRunner, StressmarkMode
from repro.core.engine import EvaluationEngine, make_executor
from repro.core.faults import (
    FaultInjectingBackend,
    FaultInjectionConfig,
    FaultPolicy,
)
from repro.core.ga import GaConfig
from repro.core.platform import MeasurementPlatform
from repro.core.telemetry import JsonlObserver, SpanEvent, TelemetryCollector
from repro.experiments.setup import bulldozer_testbed
from repro.obs.spans import SpanBuffer, Tracer, tracing
from repro.obs.trace import analyze_trace, build_tree

#: Hash-targeted hard-fault rates: deterministic per genome, so a given
#: seed yields the same chaos schedule in every run and on every respawn.
CHAOS = FaultInjectionConfig(
    seed=2,
    abort_rate=0.18,
    hang_forever_rate=0.12,
    hang_forever_s=3600.0,
)

CONFIG = AuditConfig(
    threads=2,
    mode=StressmarkMode.RESONANT,
    ga=GaConfig(population_size=8, generations=2, seed=5),
)


# Module-level so worker processes can rebuild the chaotic platform.
def chaotic_platform():
    return MeasurementPlatform(
        backend=FaultInjectingBackend(bulldozer_testbed().backend,
                                      config=CHAOS)
    )


def _tiny_platform():
    from repro.pdn.elements import bulldozer_pdn
    from repro.uarch.config import bulldozer_chip

    chip = bulldozer_chip()
    return MeasurementPlatform(chip, bulldozer_pdn(vdd=chip.vdd))


class TestWorkerSpanPropagation:
    def test_parallel_engine_ships_worker_spans_back(self):
        import numpy as np

        from repro.core.genome import GenomeSpace
        from repro.isa.opcodes import default_table

        space = GenomeSpace(table=default_table(), slots=4, replications=1,
                            lp_nops_min=0, lp_nops_max=16)
        rng = np.random.default_rng(0)
        genomes = [space.random_genome(rng) for _ in range(4)]
        buffer = SpanBuffer()
        tracer = Tracer([buffer])
        executor = make_executor(2)
        engine = EvaluationEngine.for_stressmarks(
            _tiny_platform(), space, threads=2, executor=executor,
            platform_factory=_tiny_platform,
        )
        try:
            with tracing(tracer):
                engine.evaluate_many(genomes)
        finally:
            executor.close()
        worker_spans = [e for e in buffer.records if e.name == "worker.eval"]
        assert len(worker_spans) == len(genomes)
        # Recorded in the pool, not in this process.
        assert all(e.pid != os.getpid() for e in worker_spans)
        assert all(e.trace_id == tracer.trace_id for e in worker_spans)
        # They nest under this process's engine.evaluate_batch span.
        batch = next(e for e in buffer.records
                     if e.name == "engine.evaluate_batch")
        assert {e.parent_id for e in worker_spans} == {batch.span_id}


@pytest.mark.slow
class TestChaosCampaignTrace:
    def test_chaos_campaign_yields_one_coherent_tree(self, tmp_path):
        trace_path = tmp_path / "chaos.jsonl"
        collector = TelemetryCollector()
        jsonl = JsonlObserver(trace_path, flush_every=16)
        tracer = Tracer([collector, jsonl])
        from repro.supervision.executor import SupervisedExecutor

        executor = SupervisedExecutor(
            2,
            task_timeout_s=3.0,
            max_pool_rebuilds=30,
            poll_s=0.05,
        )
        # The parent keeps a clean platform (resonance hunt and final
        # verification run in-process); only workers see the chaos.
        runner = AuditRunner(
            bulldozer_testbed(),
            config=CONFIG,
            executor=executor,
            platform_factory=chaotic_platform,
            fault_policy=FaultPolicy(max_retries=0, on_exhaust="skip"),
        )
        try:
            with tracing(tracer):
                result = runner.run()
        finally:
            executor.close()
            jsonl.close()
        assert result.max_droop_v > 0
        # The chaos actually happened: workers were killed mid-span.
        assert (collector.metrics.counter("supervisor.hang-kill")
                + collector.metrics.counter("supervisor.crash")) >= 1

        analysis = analyze_trace(trace_path)
        tree = analysis.tree
        # ONE rooted tree, no dangling parent ids, despite kills/respawns.
        assert len(tree.roots) == 1
        assert tree.roots[0].name == "audit.campaign"
        assert tree.orphans == 0
        # Killed workers' spans were closed on their behalf as "lost".
        assert tree.lost >= 1
        assert collector.metrics.counter("span.lost") >= 1
        lost = [n for n in tree.walk() if n.status == "lost"]
        assert all(n.name == "worker.eval" for n in lost)
        # Surviving workers' spans made it back across the pickle with
        # their worker pids intact.
        worker_pids = {n.pid for n in tree.walk() if n.name == "worker.eval"}
        assert worker_pids - {os.getpid()}
        # Every span in the file belongs to the one trace.
        from repro.obs.trace import load_events

        rows = [r for r in load_events(trace_path) if r.get("kind") == "span"]
        assert {r["trace_id"] for r in rows} == {tracer.trace_id}

    def test_lost_span_events_reach_observers_at_kill_time(self):
        # Cheap check of the emit path: a SupervisorFault outcome makes
        # the engine close the worker's span as lost in the parent.
        from repro.supervision.executor import SupervisorFault

        events: list = []

        class Sink:
            def on_event(self, event):
                events.append(event)

        tracer = Tracer([Sink()])
        engine = EvaluationEngine(
            lambda g: 0.0,
            fault_policy=FaultPolicy(max_retries=0, on_exhaust="skip"),
        )
        fault = SupervisorFault(kind="hang", error="deadline", wall_s=3.0,
                                attempts=1)
        with tracing(tracer):
            outcome = engine._resolve_supervised("genome-x", fault)
        assert outcome.value is None
        lost = [e for e in events
                if isinstance(e, SpanEvent) and e.status == "lost"]
        assert len(lost) == 1
        assert lost[0].name == "worker.eval"
        assert lost[0].attrs["fault"] == "hang"
        assert lost[0].wall_s == pytest.approx(3.0)

    def test_orphaned_rows_from_a_dead_flush_still_build_one_tree(self):
        # Backstop path: even if lost-closure never ran (parent also died
        # between flushes), the loader adopts strays under the root.
        tracer_rows = [
            {"kind": "span", "name": "audit.campaign", "trace_id": "t",
             "span_id": "root", "parent_id": "", "t0_s": 0.0, "wall_s": 30.0,
             "status": "ok", "attrs": {}, "pid": 1},
            {"kind": "span", "name": "pipeline.pdn_solve", "trace_id": "t",
             "span_id": "stray", "parent_id": "died-with-worker",
             "t0_s": 4.0, "wall_s": 0.2, "status": "ok", "attrs": {},
             "pid": 999},
        ]
        tree = build_tree(tracer_rows)
        assert len(tree.roots) == 1
        assert tree.orphans == 1
        stray = tree.roots[0].children[0]
        assert stray.status == "lost"
