"""Bench AUDIT: the full closed-loop generation run (the paper's core claim).

Runs the real GA against the Bulldozer testbed for both stressmark modes
and checks the headline: automatically generated stressmarks match or beat
the hand-tuned ones that took "on the order of a week per stressmark from a
highly skilled engineer".
"""

from repro.core.audit import AuditConfig, AuditRunner, StressmarkMode
from repro.core.ga import GaConfig
from repro.core.telemetry import TelemetryCollector
from repro.experiments.setup import bulldozer_testbed
from repro.isa.encoder import encode_kernel_listing
from repro.isa.opcodes import default_table
from repro.obs.spans import Tracer, tracing
from repro.workloads.stressmarks import sm_res, stressmark_program


def test_audit_generates_resonant_stressmark(benchmark, save_report):
    platform = bulldozer_testbed()
    config = AuditConfig(
        threads=4,
        mode=StressmarkMode.RESONANT,
        ga=GaConfig(population_size=16, generations=12, seed=1,
                    stagnation_patience=10),
    )
    collector = TelemetryCollector()
    runner = AuditRunner(platform, config=config)

    def traced_run():
        # Every event reaches the collector through the installed tracer.
        with tracing(Tracer([collector])):
            return runner.run()

    result = benchmark.pedantic(traced_run, rounds=1, iterations=1)

    hand_tuned = platform.measure_program(
        stressmark_program(sm_res(default_table())), 4
    ).max_droop_v

    lines = [
        f"AUDIT resonance sweep: {result.resonance.resonance_hz / 1e6:.1f} MHz "
        f"(period {result.resonance.best_period_cycles} cycles)",
        f"GA evaluations: {result.ga_result.evaluations} "
        f"(stopped early: {result.ga_result.stopped_early})",
        f"A-Res droop: {result.max_droop_v * 1e3:.1f} mV",
        f"hand-tuned SM-Res droop: {hand_tuned * 1e3:.1f} mV",
        f"A-Res / SM-Res: {result.max_droop_v / hand_tuned:.2f}",
        "",
        "winning kernel:",
        encode_kernel_listing(result.kernel),
        "",
        collector.summary_table(platform.metrics),
    ]
    save_report("audit_generation", "\n".join(lines))

    # AUDIT finds the PDN resonance automatically...
    assert result.resonance.resonance_hz == __import__("pytest").approx(
        100e6, rel=0.15
    )
    # ...and matches or beats the week-of-expert-effort stressmark.
    assert result.max_droop_v >= 0.95 * hand_tuned
