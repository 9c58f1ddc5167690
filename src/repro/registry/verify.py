"""Replay verification: re-measure a stored record, demand bit identity.

The whole simulation stack is deterministic — same genome, same platform
configuration, same thread count ⇒ the same voltage trace to the last
ulp — so a registry record doubles as a regression oracle: rebuild the
platform from its descriptor, rebuild the program from its genome (or
canned name), re-measure, and the droop must equal the recorded value
*bit for bit* (floats survive the JSON round trip exactly).

A mismatch therefore means the *code* changed the physics (a PDN solver
tweak, a scheduler fix, a preset edit) since the record was published —
precisely the class of silent regression the AUDIT methodology exists to
catch.  A platform-hash mismatch is reported separately: it pinpoints
"the preset drifted" before any measurement runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.codegen import DEFAULT_ITERATIONS, genome_to_kernel
from repro.core.genome import GenomeSpace, StressmarkGenome
from repro.core.telemetry import RegistryEvent
from repro.errors import RegistryError
from repro.obs.spans import emit
from repro.isa.kernels import ThreadProgram
from repro.isa.opcodes import default_table
from repro.registry.provenance import build_platform, hash_platform
from repro.registry.record import RegistryRecord


@dataclass(frozen=True)
class VerifyResult:
    """The outcome of replaying one record."""

    record_id: str
    recorded_droop_v: float
    measured_droop_v: float
    platform_hash_recorded: str
    platform_hash_rebuilt: str
    wall_s: float

    @property
    def droop_identical(self) -> bool:
        """Bit-identical replay (NaN never verifies)."""
        return self.measured_droop_v == self.recorded_droop_v

    @property
    def platform_drifted(self) -> bool:
        return self.platform_hash_rebuilt != self.platform_hash_recorded

    @property
    def ok(self) -> bool:
        return self.droop_identical and not self.platform_drifted

    def describe(self) -> str:
        if self.ok:
            return (
                f"OK: droop {self.measured_droop_v * 1e3:.6f} mV "
                f"reproduced bit-identically"
            )
        parts = []
        if self.platform_drifted:
            parts.append(
                f"platform drift: recorded config hash "
                f"{self.platform_hash_recorded}, rebuilt "
                f"{self.platform_hash_rebuilt} (a chip/PDN preset changed "
                f"since publication)"
            )
        if not self.droop_identical:
            delta = self.measured_droop_v - self.recorded_droop_v
            parts.append(
                f"droop mismatch: recorded {self.recorded_droop_v!r} V, "
                f"measured {self.measured_droop_v!r} V (delta {delta:+.3e} V)"
            )
        return "FAILED: " + "; ".join(parts)


def rebuild_program(record: RegistryRecord, platform) -> ThreadProgram:
    """The runnable program a record describes, against *platform*'s pool.

    Genome records rebuild through the same
    :func:`~repro.core.codegen.genome_to_kernel` path the campaign used
    (kernel named after the record, so instruction scheduling is
    identical); canned records rebuild through the shared
    :func:`~repro.workloads.stressmarks.canned_stressmark` table.
    """
    program = record.program
    pool = default_table().supported_on(platform.chip.extensions)
    source = program.get("source")
    if source == "genome":
        try:
            genome = StressmarkGenome(
                subblock=tuple(program["subblock"]),
                lp_nops=int(program["lp_nops"]),
            )
            replications = int(program["replications"])
        except (KeyError, TypeError, ValueError) as error:
            raise RegistryError(
                f"record {record.record_id[:12]}… has a malformed genome "
                f"program: {error}"
            ) from error
        space = GenomeSpace(
            table=pool,
            slots=len(genome.subblock),
            replications=replications,
            lp_nops_min=0,
            lp_nops_max=max(genome.lp_nops, 0),
        )
        kernel = genome_to_kernel(genome, space, name=record.name)
        return ThreadProgram(kernel, DEFAULT_ITERATIONS)
    if source == "canned":
        from repro.workloads.stressmarks import canned_stressmark, stressmark_program

        return stressmark_program(
            canned_stressmark(program.get("stressmark", ""), pool)
        )
    raise RegistryError(
        f"record {record.record_id[:12]}… has unknown program source "
        f"{source!r}"
    )


def verify_record(record: RegistryRecord) -> VerifyResult:
    """Re-run *record* through the measurement pipeline and compare."""
    start = time.perf_counter()
    platform = build_platform(record.platform)
    rebuilt_hash = hash_platform(platform)
    program = rebuild_program(record, platform)
    measurement = platform.measure_program(program, record.threads)
    result = VerifyResult(
        record_id=record.record_id,
        recorded_droop_v=float(record.droop_v),
        measured_droop_v=float(measurement.max_droop_v),
        platform_hash_recorded=record.platform_hash,
        platform_hash_rebuilt=rebuilt_hash,
        wall_s=time.perf_counter() - start,
    )
    emit(RegistryEvent(
        action="verify",
        record_id=record.record_id,
        detail=result.describe(),
        wall_s=result.wall_s,
    ))
    return result
