"""The tentpole acceptance test: a campaign survives hangs and aborts.

Workers measure through a :class:`FaultInjectingBackend` armed with
hang-forever and worker-abort (``os._exit``) injections.  The supervised
executor must kill stuck workers at the hard deadline, respawn the pool
after crashes, hand the poisoned genomes to the fault policy's
quarantine, and still complete the campaign.
"""

import pytest

from repro.core.audit import AuditConfig, AuditRunner, StressmarkMode
from repro.core.faults import FaultInjectingBackend, FaultInjectionConfig, FaultPolicy
from repro.core.ga import GaConfig
from repro.core.platform import MeasurementPlatform
from repro.core.telemetry import TelemetryCollector
from repro.experiments.setup import bulldozer_testbed
from repro.obs.spans import Tracer, tracing
from repro.supervision.executor import SupervisedExecutor

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


@pytest.mark.slow
class TestChaosCampaign:
    def test_campaign_completes_under_hangs_and_aborts(self):
        collector = TelemetryCollector()
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
            with tracing(Tracer([collector])):
                result = runner.run()
        finally:
            executor.close()

        # The campaign finished with a real winner despite the chaos.
        assert result.max_droop_v > 0
        assert result.ga_result.best_fitness > float("-inf")
        # Both injection kinds actually fired and were supervised.
        assert collector.metrics.counter("supervisor.hang-kill") >= 1, "no hang was injected/killed"
        assert collector.metrics.counter("supervisor.crash") >= 1, "no worker abort was seen"
        assert collector.metrics.counter("supervisor.respawn") >= 2
        # Poisoned genomes landed in quarantine, not in the result.
        assert collector.metrics.counter("fault.quarantines") >= 1
