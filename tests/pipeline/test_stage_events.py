"""Stage telemetry: every measurement narrates its activity stage.

In particular the transient fallback is a modelling event, not a silent
counter bump — the ``pipeline.activity`` span must carry the reason in
its ``fallback`` attribute and the collector must count it.
"""

from repro.core.platform import MeasurementPlatform
from repro.core.resonance import probe_program
from repro.core.telemetry import SpanEvent, TelemetryCollector
from repro.experiments.setup import bulldozer_chip, bulldozer_pdn
from repro.isa.instruction import make_instruction
from repro.isa.kernels import ThreadProgram, build_kernel
from repro.isa.opcodes import default_table
from repro.isa.registers import RegisterAllocator
from repro.obs.spans import Tracer, tracing
from repro.pipeline.artifacts import MeasureRequest

TABLE = default_table()


def resonant_program():
    return probe_program(TABLE, hp_count=32, lp_nops=95)


def divider_program():
    # divpd's long unit occupancy defeats periodicity verification under
    # a tight warmup budget (see test_stages.divider_program).
    alloc = RegisterAllocator()
    sub = tuple(make_instruction(TABLE.get(m), alloc)
                for m in ("divpd", "mulpd", "divpd", "add"))
    kernel = build_kernel(sub, replications=3, lp_nops=17, nop_spec=TABLE.nop)
    return ThreadProgram(kernel, 4096)


class Recorder:
    def __init__(self):
        self.events = []

    def on_event(self, event):
        self.events.append(event)

    def spans(self, name):
        return [e for e in self.events
                if isinstance(e, SpanEvent) and e.name == name]


def measure_traced(program, threads=4, *, observer=None, **kwargs):
    """Measure *program* under a tracer; returns the recorder."""
    chip = bulldozer_chip()
    platform = MeasurementPlatform(chip, bulldozer_pdn(vdd=chip.vdd), **kwargs)
    recorder = Recorder()
    sinks = [recorder] if observer is None else [recorder, observer]
    with tracing(Tracer(sinks)):
        platform.measure_program(program, threads)
    return recorder


class TestStageEvents:
    def test_every_stage_reports_once_per_measurement(self):
        recorder = measure_traced(resonant_program())
        (measure,) = recorder.spans("pipeline.measure")
        (activity,) = recorder.spans("pipeline.activity")
        assert activity.parent_id == measure.span_id
        assert activity.attrs["path"] == measure.attrs["path"] == "periodic"
        assert activity.attrs["cache_hit"] is False
        (solve,) = recorder.spans("pipeline.pdn_solve")
        assert solve.attrs["path"] == "periodic"

    def test_one_activity_span_per_measurement_in_a_batch(self):
        chip = bulldozer_chip()
        platform = MeasurementPlatform(chip, bulldozer_pdn(vdd=chip.vdd))
        recorder = Recorder()
        with tracing(Tracer([recorder])):
            platform.measure_programs([
                MeasureRequest(program=program, threads=4)
                for program in (resonant_program(), resonant_program(),
                                probe_program(TABLE, hp_count=16, lp_nops=40))
            ])
        measures = recorder.spans("pipeline.measure")
        activities = recorder.spans("pipeline.activity")
        assert len(measures) == 3
        assert sorted(a.parent_id for a in activities) == sorted(
            m.span_id for m in measures)
        # The repeated program's profile is served from the cache.
        assert [a.attrs["cache_hit"] for a in activities] == [
            False, True, False]

    def test_transient_fallback_emits_reason(self):
        recorder = measure_traced(divider_program(), warmup_iterations=8)
        (activity,) = recorder.spans("pipeline.activity")
        assert activity.attrs["path"] == "transient"
        assert "periodic" in activity.attrs["fallback"]
        assert "8 iterations" in activity.attrs["fallback"]

    def test_periodic_path_has_no_fallback_detail(self):
        recorder = measure_traced(resonant_program())
        (activity,) = recorder.spans("pipeline.activity")
        assert activity.attrs["path"] == "periodic"
        assert "fallback" not in activity.attrs


class TestCollectorCountsFallbacks:
    def test_collector_counts_transient_fallbacks(self):
        collector = TelemetryCollector()
        measure_traced(divider_program(), observer=collector,
                       warmup_iterations=8)
        assert collector.metrics.counter("stage.fallbacks") == 1
        assert collector.metrics.counter("span.count.pipeline.activity") == 1
        assert collector.metrics.counter("span.count.pipeline.pdn_solve") == 1

    def test_periodic_measurements_do_not_count_as_fallbacks(self):
        collector = TelemetryCollector()
        measure_traced(resonant_program(), observer=collector)
        assert collector.metrics.counter("span.count.pipeline.activity") == 1
        assert collector.metrics.counter("stage.fallbacks") == 0
