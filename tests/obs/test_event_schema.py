"""Golden-schema conformance tests for the telemetry wire format.

The telemetry stream is a wire format: JSONL traces written by one
version of the code are analyzed (and CI-gated) by another.  These tests
pin the schema of both event kinds — field names, field types, JSON
round-trip — so a field rename or type change fails loudly here instead
of silently corrupting trace analysis.  ``EVENT_TYPES`` is the registry
the trace loader uses; a new event kind cannot ship without a golden
entry below.  Everything else the loop records travels as span
attributes (evaluations, qualification, fleet shards, registry
operations, faults, invariant violations, supervisor actions), so the
attributes the collector, console and trace analyzer read off those
spans are pinned here too, as are the console lines they render.
"""

import dataclasses
import io
import json
import os
import time

import pytest

from repro.core.atomicio import atomic_write_json
from repro.core.engine import EvaluationEngine
from repro.core.faults import FaultPolicy
from repro.core.qualify import QualifyConfig, StressmarkQualifier
from repro.core.telemetry import (
    EVENT_TYPES,
    ConsoleObserver,
    PlatformMetricsEvent,
    SpanEvent,
    TelemetryEvent,
    event_from_dict,
    event_to_dict,
)
from repro.errors import InvariantViolation
from repro.experiments.setup import bulldozer_testbed
from repro.fleet.matrix import ScenarioMatrix
from repro.fleet.orchestrator import FleetOrchestrator
from repro.fleet.shard import ShardResult, result_path
from repro.isa.opcodes import default_table
from repro.obs.spans import Tracer, tracing
from repro.registry.store import StressmarkRegistry
from repro.registry.verify import verify_record
from repro.supervision.executor import SupervisedExecutor
from repro.supervision.shutdown import ShutdownCoordinator
from repro.workloads.stressmarks import a_res_canned, stressmark_program
from tests.registry.conftest import synthetic_record

#: The golden schema: kind -> ordered {field name: annotated type}.
#: Changing an event dataclass without updating this table is a
#: conformance failure by design.
GOLDEN_SCHEMAS = {
    "platform-stats": {"counters": "dict", "source": "str"},
    "span": {
        "name": "str", "trace_id": "str", "span_id": "str", "parent_id": "str",
        "t0_s": "float", "wall_s": "float", "status": "str", "attrs": "dict",
        "pid": "int",
    },
}

#: One fully-populated sample per kind (no field left at its default), so
#: the round-trip tests exercise every field.
SAMPLES = {
    "platform-stats": PlatformMetricsEvent(
        counters={"pipeline.measurements": 7, "uarch.sim_s": 1.25},
        source="workers"),
    "span": SpanEvent(
        name="ga.generation", trace_id="t" * 16, span_id="s" * 16,
        parent_id="p" * 16, t0_s=100.5, wall_s=2.25, status="lost",
        attrs={"generation": 3, "path": "periodic"}, pid=4242),
}


class TestRegistry:
    def test_every_kind_has_a_golden_schema(self):
        assert set(EVENT_TYPES) == set(GOLDEN_SCHEMAS)

    def test_every_kind_has_a_sample(self):
        assert set(EVENT_TYPES) == set(SAMPLES)

    def test_union_matches_registry(self):
        # The TelemetryEvent union and EVENT_TYPES must not drift apart:
        # the union is what sinks type against, the registry is what
        # the trace loader rebuilds from.
        assert set(TelemetryEvent.__args__) == set(EVENT_TYPES.values())

    def test_kind_tags_are_consistent(self):
        for kind, cls in EVENT_TYPES.items():
            assert cls.kind == kind

    def test_all_events_are_frozen(self):
        for event in SAMPLES.values():
            with pytest.raises(dataclasses.FrozenInstanceError):
                event.kind = "tampered"


@pytest.mark.parametrize("kind", sorted(EVENT_TYPES))
class TestGoldenSchema:
    def test_field_names_and_types(self, kind):
        fields = dataclasses.fields(EVENT_TYPES[kind])
        observed = {spec.name: str(spec.type) for spec in fields}
        assert observed == GOLDEN_SCHEMAS[kind], (
            f"schema drift on kind={kind!r}: update GOLDEN_SCHEMAS (and the "
            f"trace analyzer) deliberately, not by accident"
        )

    def test_sample_populates_every_field(self, kind):
        event = SAMPLES[kind]
        for spec in dataclasses.fields(event):
            value = getattr(event, spec.name)
            if spec.default is not dataclasses.MISSING:
                assert value != spec.default, (
                    f"{kind}.{spec.name} sample left at default; the "
                    f"round-trip test would not exercise it"
                )

    def test_dict_round_trip(self, kind):
        event = SAMPLES[kind]
        payload = event_to_dict(event)
        assert payload["kind"] == kind
        assert event_from_dict(payload) == event

    def test_json_round_trip(self, kind):
        event = SAMPLES[kind]
        line = json.dumps(event_to_dict(event))
        assert event_from_dict(json.loads(line)) == event

    def test_json_payload_is_flat_primitives(self, kind):
        # Every value must survive JSON without type drift (no tuples,
        # sets, or custom objects) so the JSONL trace is self-describing.
        payload = json.loads(json.dumps(event_to_dict(SAMPLES[kind])))
        assert payload == event_to_dict(SAMPLES[kind])


#: Golden attributes of the spans that carry evaluation and qualification
#: facts: span name -> {attribute name: Python type name}, as emitted.
GOLDEN_SPAN_ATTRS = {
    "engine.evaluate_batch": {
        "backend": "str", "size": "int", "hits": "int", "eval_wall_s": "float",
    },
    "qualify.axis": {
        "axis": "str", "samples": "int", "min_droop_v": "float",
        "max_droop_v": "float", "retention": "float",
    },
    "qualify.stressmark": {
        "stressmark": "str", "threads": "int", "verdict": "str",
        "robustness": "float", "samples": "int",
    },
}

_PROGRESS = {
    "total": "int", "done": "int", "failed": "int", "running": "int",
    "elapsed_s": "float",
}
_OUTCOME = {
    "scenario": "str", "status": "str", "droop_v": "float",
    "evaluations": "int", "exit_code": "int", "error": "str",
}
_FAULT = {"genome": "str", "error": "str", "attempt": "int", "timeout": "bool"}
_SUPERVISOR = {"task": "str", "detail": "str"}

#: Golden attributes of the fleet, registry, fault, invariant and
#: supervisor spans, as emitted by the code that records them.
GOLDEN_OPERATION_ATTRS = {
    "fleet.schedule": {**_PROGRESS, "detail": "str"},
    "fleet.shard": {**_OUTCOME, **_PROGRESS},
    "fleet.shard/banked": _OUTCOME,
    "registry.publish": {
        "record_id": "str", "path": "str", "detail": "str", "deduped": "bool",
    },
    "registry.verify": {"record_id": "str", "detail": "str"},
    "fault.retry": _FAULT,
    "fault.quarantine": _FAULT,
    "invariant.violation": {
        "guard": "str", "layer": "str", "error": "str", "genome": "str",
    },
    "supervisor.hang-kill": {**_SUPERVISOR, "elapsed_s": "float"},
    "supervisor.respawn": {**_SUPERVISOR, "respawns": "int"},
    "supervisor.crash": _SUPERVISOR,
    "supervisor.give-up": _SUPERVISOR,
    "supervisor.shutdown": {**_SUPERVISOR, "elapsed_s": "float"},
}


class _Recorder:
    def __init__(self):
        self.events = []

    def on_event(self, event):
        self.events.append(event)


def _first_spans(events, first=None) -> dict:
    first = {} if first is None else first
    for event in events:
        if isinstance(event, SpanEvent):
            first.setdefault(event.name, event)
    return first


@pytest.fixture(scope="module")
def emitted_spans():
    """The first span of each golden name from one small qualification."""
    platform = bulldozer_testbed()
    pool = default_table().supported_on(platform.chip.extensions)
    program = stressmark_program(a_res_canned(pool))
    config = QualifyConfig(
        jitter_repeats=1, smt_offsets=(2,), supply_points=1,
        pdn_stages=("die",), pdn_fields=("resistance_ohm",),
    )
    recorder = _Recorder()
    with tracing(Tracer([recorder])):
        StressmarkQualifier(platform, threads=2, config=config).qualify_program(
            program, name="a-res")
    return _first_spans(recorder.events)


@pytest.mark.parametrize("name", sorted(GOLDEN_SPAN_ATTRS))
class TestSpanAttributeSchema:
    def test_attribute_names_and_types(self, name, emitted_spans):
        attrs = emitted_spans[name].attrs
        observed = {key: type(value).__name__ for key, value in attrs.items()}
        assert observed == GOLDEN_SPAN_ATTRS[name], (
            f"attribute drift on span {name!r}: update GOLDEN_SPAN_ATTRS "
            f"(and the collector, console and trace analyzer) deliberately"
        )

    def test_json_round_trip(self, name, emitted_spans):
        event = emitted_spans[name]
        line = json.dumps(event_to_dict(event))
        assert event_from_dict(json.loads(line)) == event


# Module-level so the process pool can pickle them.
def _pool_task(kind):
    if kind == "hang":
        time.sleep(60)
    if kind == "abort":
        os._exit(86)
    return kind


def _ok_shard(spec):
    """Banks an OK result, as a finished shard does."""
    result = ShardResult(
        scenario=spec.scenario.axes(),
        scenario_id=spec.scenario.scenario_id,
        status="ok",
        droop_v=0.05,
        evaluations=8,
    )
    os.makedirs(spec.shard_dir, exist_ok=True)
    atomic_write_json(result_path(spec.shard_dir), result.to_payload())
    return result


def _corrupt_fitness(genome):
    raise InvariantViolation("voltage-finite", "platform", "droop is NaN")


@pytest.fixture(scope="module")
def operation_spans(tmp_path_factory):
    """The first span of each operation name, from small runs of the code
    that records them (a banked shard under ``fleet.shard/banked``)."""
    root = tmp_path_factory.mktemp("operations")
    matrix = ScenarioMatrix.from_cli(["chip=bulldozer", "threads=1", "budget=4x2", "seed=1"])
    recorder = _Recorder()
    with tracing(Tracer([recorder])):
        FleetOrchestrator(matrix, root / "fleet", workers=1, task_fn=_ok_shard).run()
        first = _first_spans(recorder.events)
        recorder.events.clear()
        FleetOrchestrator.resume(root / "fleet", task_fn=_ok_shard).run()
        first["fleet.shard/banked"] = _first_spans(recorder.events)["fleet.shard"]
        registry = StressmarkRegistry(root / "registry")
        outcome = registry.publish(synthetic_record(1))
        verify_record(registry.get(outcome.record_id))
        EvaluationEngine(
            _corrupt_fitness,
            fault_policy=FaultPolicy(max_retries=1, on_exhaust="penalize"),
        ).evaluate_many([1])
        coordinator = ShutdownCoordinator(signals=())
        coordinator.request("operator stop")
        coordinator.stop_requested()
        for kinds, deadline in ((["ok", "hang"], 0.5), (["abort"], None)):
            pool = SupervisedExecutor(2, task_timeout_s=deadline, crash_retries=0, poll_s=0.05)
            try:
                pool.map(_pool_task, kinds)
            finally:
                pool.close()
    return _first_spans(recorder.events, first)


@pytest.mark.parametrize("name", sorted(GOLDEN_OPERATION_ATTRS))
class TestOperationSpanSchema:
    def test_attribute_names_and_types(self, name, operation_spans):
        attrs = operation_spans[name].attrs
        observed = {key: type(value).__name__ for key, value in attrs.items()}
        assert observed == GOLDEN_OPERATION_ATTRS[name], (
            f"attribute drift on span {name!r}: update GOLDEN_OPERATION_ATTRS "
            f"(and the collector, console and trace analyzer) deliberately"
        )

    def test_json_round_trip(self, name, operation_spans):
        event = operation_spans[name]
        line = json.dumps(event_to_dict(event))
        assert event_from_dict(json.loads(line)) == event


def _span(name, *, wall_s=0.0, span_status="ok", **attrs):
    return SpanEvent(name=name, trace_id="t" * 16, span_id="s" * 16,
                     parent_id="p" * 16, t0_s=0.0, wall_s=wall_s,
                     status=span_status, attrs=attrs)


_SHARD_OK = "[shard] s1: 36.3 mV  6 evals  0.2s\n"
_FLEET_PROGRESS = "[fleet] 3/4 shards done, 1 failed, 1 running  12.3s\n"
_PROGRESS_ATTRS = {"total": 4, "done": 3, "failed": 1, "running": 1,
                   "elapsed_s": 12.34}

#: Each span, and the exact text the console printed for the same fact
#: when it was still a dedicated event row (a ``fleet.shard`` span
#: carries what the shard and fleet-progress rows carried).
CONSOLE_LINES = {
    "fault.quarantine": (
        _span("fault.quarantine", genome="g2", error="ValueError: boom",
              attempt=3, timeout=True),
        "[fault/quarantine] attempt 3: ValueError: boom\n"),
    "fault.retry": (
        _span("fault.retry", genome="g2", error="ValueError: boom",
              attempt=1, timeout=False),
        ""),
    "invariant.violation": (
        _span("invariant.violation", guard="voltage-finite", layer="platform",
              error="droop is NaN", genome="g3"),
        "[invariant/platform] voltage-finite: droop is NaN\n"),
    "supervisor.hang-kill": (
        _span("supervisor.hang-kill", task="g4",
              detail="no result after 2.0s (deadline 1.0s); worker pool killed",
              elapsed_s=2.0),
        "[supervisor/hang-kill] g4: no result after 2.0s (deadline 1.0s); "
        "worker pool killed\n"),
    "supervisor.respawn": (
        _span("supervisor.respawn", task="", detail="worker process crash",
              respawns=1),
        "[supervisor/respawn]: worker process crash\n"),
    "supervisor.crash": (
        _span("supervisor.crash", task="",
              detail="worker process died; 2 in-flight task(s) condemned"),
        "[supervisor/crash]: worker process died; 2 in-flight task(s) condemned\n"),
    "supervisor.shutdown": (
        _span("supervisor.shutdown", task="", detail="operator stop",
              elapsed_s=1.0),
        "[supervisor/shutdown]: operator stop\n"),
    "supervisor.salvage": (
        _span("supervisor.salvage", task="generation 3",
              detail="state.json corrupt"),
        "[supervisor/salvage] generation 3: state.json corrupt\n"),
    "registry.publish": (
        _span("registry.publish", record_id="cf514013f36a0123456789",
              path="r/objects/cf/x.json", detail="fleet/s1", deduped=False),
        "[registry/publish] cf514013f36a: fleet/s1\n"),
    "registry.publish/deduped": (
        _span("registry.publish", record_id="cf514013f36a0123456789",
              path="p", detail="fleet/s1", deduped=True),
        ""),
    "registry.verify": (
        _span("registry.verify", record_id="cf514013f36a0123456789",
              detail="OK: droop 36.336926 mV reproduced bit-identically"),
        "[registry/verify] cf514013f36a: OK: droop 36.336926 mV reproduced "
        "bit-identically\n"),
    "registry.export": (
        _span("registry.export", path="exp.tar.gz", detail="2 record(s)"),
        "[registry/export]: 2 record(s)\n"),
    "registry.import": (
        _span("registry.import", path="exp.tar.gz",
              detail="2 new, 0 already present"),
        "[registry/import]: 2 new, 0 already present\n"),
    "registry.salvage": (
        _span("registry.salvage", path="r/index.jsonl",
              detail="index rebuilt from 2 object(s)"),
        "[registry/salvage]: index rebuilt from 2 object(s)\n"),
    "fleet.shard/ok": (
        _span("fleet.shard", wall_s=0.25, scenario="s1", status="ok",
              droop_v=0.0363369, evaluations=6, exit_code=0, error="",
              **_PROGRESS_ATTRS),
        _SHARD_OK + _FLEET_PROGRESS),
    "fleet.shard/lost": (
        _span("fleet.shard", span_status="lost", scenario="s2", status="failed",
              droop_v=0.0, evaluations=0, exit_code=70,
              error="WorkerCrashError: died", **_PROGRESS_ATTRS),
        "[span/lost] fleet.shard  0.0ms\n"
        "[shard] s2: FAILED (exit 70) WorkerCrashError: died\n"
        + _FLEET_PROGRESS),
    "fleet.shard/banked": (
        _span("fleet.shard", scenario="s1", status="banked",
              droop_v=0.0363369, evaluations=6, exit_code=0, error=""),
        "[shard] s1: banked (36.3 mV)\n"),
    "fleet.shard/interrupted": (
        _span("fleet.shard", scenario="s1", status="interrupted"),
        ""),
    "fleet.schedule": (
        _span("fleet.schedule", total=2, done=0, failed=0, running=0,
              elapsed_s=0.0, detail="1 chain(s), 2 worker(s)"),
        "[fleet] 0/2 shards done, 0 running  0.0s  (1 chain(s), 2 worker(s))\n"),
}


@pytest.mark.parametrize("case", sorted(CONSOLE_LINES))
def test_console_renders_the_event_rows_text(case):
    event, expected = CONSOLE_LINES[case]
    stream = io.StringIO()
    ConsoleObserver(stream).on_event(event)
    assert stream.getvalue() == expected


class TestFromDict:
    def test_unknown_keys_are_dropped(self):
        payload = event_to_dict(SAMPLES["platform-stats"])
        payload["added_in_a_future_version"] = 17
        assert event_from_dict(payload) == SAMPLES["platform-stats"]

    def test_unknown_kind_raises_key_error(self):
        with pytest.raises(KeyError):
            event_from_dict({"kind": "no-such-kind"})

    def test_payload_is_not_mutated(self):
        payload = event_to_dict(SAMPLES["span"])
        copy = dict(payload)
        event_from_dict(payload)
        assert payload == copy
