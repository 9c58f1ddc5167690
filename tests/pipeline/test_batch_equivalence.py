"""Property test: batched PDN solves are bit-identical to serial ones.

Measurement has one path, and a single measurement is a batch of one.
Its whole contract is that how requests are grouped never changes a
float: N batches of one must reproduce one batch of N exactly — every
``max_droop_v`` and sensitivity vector — across the periodic path, the
jittered 2-SMT path, supply sweeps, and dithering phase offsets.  Both
sides run on the same platform, batches of one first: the batched solve
only ever populates the PDN response cache, never reads it, so the
grouped rows are solved afresh and equality is earned, not served.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.codegen import genome_to_program
from repro.core.genome import GenomeSpace
from repro.core.platform import MeasurementPlatform
from repro.core.resonance import probe_program
from repro.experiments.setup import bulldozer_chip, bulldozer_pdn
from repro.isa.opcodes import default_table
from repro.obs.spans import SpanBuffer, Tracer, tracing
from repro.pipeline.artifacts import MeasureRequest

TABLE = default_table()
SPACE = GenomeSpace(table=TABLE, slots=8, replications=2,
                    lp_nops_min=0, lp_nops_max=48)


def _platform():
    chip = bulldozer_chip()
    return MeasurementPlatform(chip, bulldozer_pdn(vdd=chip.vdd))


# Shared across hypothesis examples so module-trace caches warm up.
PLATFORM = _platform()


def _one_at_a_time(platform, requests):
    return [platform.measure_programs([r])[0] for r in requests]


def _random_requests(rng):
    """A mixed batch: 4T periodic and 8T jittered, random grid points."""
    requests = []
    for threads in (4, 4, 8):
        genome = SPACE.random_genome(rng)
        program = genome_to_program(genome, SPACE)
        supply = (
            float(rng.uniform(1.08, 1.32)) if rng.random() < 0.5 else None
        )
        phases = (
            tuple(int(p) for p in rng.integers(0, 64, size=4))
            if rng.random() < 0.5 else None
        )
        # Two grid points per program, so the batch has groups to stack.
        for _ in range(2):
            requests.append(MeasureRequest(
                program=program, threads=threads,
                supply_v=supply, module_phases=phases,
            ))
            supply = float(rng.uniform(1.08, 1.32))
    return requests


class TestBatchSerialEquivalence:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_bit_identical_across_random_grids(self, seed):
        rng = np.random.default_rng(seed)
        requests = _random_requests(rng)
        serial = _one_at_a_time(PLATFORM, requests)
        batched = PLATFORM.measure_programs(requests)
        assert len(batched) == len(serial)
        for expect, got in zip(serial, batched):
            assert got.max_droop_v == expect.max_droop_v
            assert np.array_equal(got.sensitivity, expect.sensitivity)
            assert np.array_equal(got.voltage.samples, expect.voltage.samples)
            assert got.supply_v == expect.supply_v
            assert got.period_cycles == expect.period_cycles

    def test_batch_actually_batches(self):
        rng = np.random.default_rng(7)
        platform = _platform()
        genome = SPACE.random_genome(rng)
        program = genome_to_program(genome, SPACE)
        supplies = np.linspace(1.1, 1.3, 6)
        platform.measure_programs([
            MeasureRequest(program=program, threads=4, supply_v=float(v))
            for v in supplies
        ])
        metrics = platform.metrics
        assert metrics.counter("pipeline.batched_solves") >= 1
        assert metrics.counter("pipeline.batched_rows") == len(supplies)

    def test_order_preserved_in_mixed_path_batch(self):
        """Requests regrouped by path must come back in request order."""
        rng = np.random.default_rng(11)
        programs = [
            genome_to_program(SPACE.random_genome(rng), SPACE)
            for _ in range(3)
        ]
        requests = [
            MeasureRequest(program=programs[0], threads=8),   # jittered
            MeasureRequest(program=programs[1], threads=4),   # periodic
            MeasureRequest(program=programs[2], threads=4),
        ]
        serial = _one_at_a_time(PLATFORM, requests)
        batched = PLATFORM.measure_programs(requests)
        for expect, got in zip(serial, batched):
            assert got.max_droop_v == expect.max_droop_v


class TestBatchSpans:
    def test_one_measure_span_per_request(self):
        """A mixed-period batch still traces every measurement."""
        platform = _platform()
        requests = [
            MeasureRequest(
                program=probe_program(TABLE, hp_count=8, lp_nops=nops),
                threads=threads, supply_v=supply,
            )
            for nops in (8, 40)
            for threads in (2, 8)
            for supply in (1.15, 1.2)
        ]
        buffer = SpanBuffer(cap=1024)
        with tracing(Tracer([buffer])):
            platform.measure_programs(requests)
        names = [record.name for record in buffer.records]
        assert platform.metrics.counter("pipeline.batched_solves") >= 1
        assert (names.count("pipeline.measure")
                == platform.metrics.counter("pipeline.measurements")
                == len(requests))
