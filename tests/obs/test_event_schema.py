"""Golden-schema conformance tests for every telemetry event kind.

The telemetry stream is a wire format: JSONL traces written by one
version of the code are analyzed (and CI-gated) by another.  These tests
pin the schema of every event kind — field names, field types, JSON
round-trip — so a field rename or type change fails loudly here instead
of silently corrupting trace analysis.  ``EVENT_TYPES`` is the registry
the trace loader uses; a new event kind cannot ship without a golden
entry below.  Evaluation and qualification facts travel as span
attributes, so the attributes the collector, console and trace analyzer
read off those spans are pinned here too.
"""

import dataclasses
import json

import pytest

from repro.core.qualify import QualifyConfig, StressmarkQualifier
from repro.core.telemetry import (
    EVENT_TYPES,
    FaultEvent,
    FleetEvent,
    InvariantEvent,
    PlatformMetricsEvent,
    RegistryEvent,
    ShardEvent,
    SpanEvent,
    SupervisorEvent,
    TelemetryEvent,
    event_from_dict,
    event_to_dict,
)
from repro.experiments.setup import bulldozer_testbed
from repro.isa.opcodes import default_table
from repro.obs.spans import Tracer, tracing
from repro.workloads.stressmarks import a_res_canned, stressmark_program

#: The golden schema: kind -> ordered {field name: annotated type}.
#: Changing an event dataclass without updating this table is a
#: conformance failure by design.
GOLDEN_SCHEMAS = {
    "fault": {
        "genome": "str", "error": "str", "attempt": "int", "action": "str",
        "timeout": "bool",
    },
    "invariant": {
        "guard": "str", "layer": "str", "error": "str", "genome": "str",
    },
    "platform-stats": {"counters": "dict", "source": "str"},
    "supervisor": {
        "action": "str", "task": "str", "detail": "str", "respawns": "int",
        "wall_s": "float",
    },
    "shard": {
        "scenario": "str", "status": "str", "droop_v": "float",
        "evaluations": "int", "wall_s": "float", "error": "str",
        "exit_code": "int",
    },
    "fleet": {
        "total": "int", "done": "int", "failed": "int", "running": "int",
        "wall_s": "float", "detail": "str",
    },
    "registry": {
        "action": "str", "record_id": "str", "path": "str", "detail": "str",
        "deduped": "bool", "wall_s": "float",
    },
    "span": {
        "name": "str", "trace_id": "str", "span_id": "str", "parent_id": "str",
        "t0_s": "float", "wall_s": "float", "status": "str", "attrs": "dict",
        "pid": "int",
    },
}

#: One fully-populated sample per kind (no field left at its default), so
#: the round-trip tests exercise every field.
SAMPLES = {
    "fault": FaultEvent(
        genome="g2", error="boom", attempt=2, action="quarantine", timeout=True),
    "invariant": InvariantEvent(
        guard="voltage-finite", layer="platform", error="NaN", genome="g3"),
    "platform-stats": PlatformMetricsEvent(
        counters={"pipeline.measurements": 7, "uarch.sim_s": 1.25},
        source="workers"),
    "supervisor": SupervisorEvent(
        action="hang-kill", task="g4", detail="deadline", respawns=2, wall_s=3.0),
    "shard": ShardEvent(
        scenario="bulldozer-4t", status="failed", droop_v=0.081,
        evaluations=48, wall_s=12.5, error="crash", exit_code=70),
    "fleet": FleetEvent(
        total=8, done=5, failed=1, running=2, wall_s=60.0, detail="draining"),
    "registry": RegistryEvent(
        action="publish", record_id="abc123", path="library/", detail="new",
        deduped=True, wall_s=0.2),
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


class _Recorder:
    def __init__(self):
        self.events = []

    def on_event(self, event):
        self.events.append(event)


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
    first = {}
    for event in recorder.events:
        if isinstance(event, SpanEvent):
            first.setdefault(event.name, event)
    return first


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


class TestFromDict:
    def test_unknown_keys_are_dropped(self):
        payload = event_to_dict(SAMPLES["fault"])
        payload["added_in_a_future_version"] = 17
        assert event_from_dict(payload) == SAMPLES["fault"]

    def test_unknown_kind_raises_key_error(self):
        with pytest.raises(KeyError):
            event_from_dict({"kind": "no-such-kind"})

    def test_payload_is_not_mutated(self):
        payload = event_to_dict(SAMPLES["span"])
        copy = dict(payload)
        event_from_dict(payload)
        assert payload == copy
