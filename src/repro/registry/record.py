"""Registry records: content-addressed results with provenance.

A :class:`RegistryRecord` is the durable form of one discovered (or
qualified) stressmark: what was run (genome or canned kernel), where it
was run (platform descriptor + configuration hash), how (threads, mode,
seed), and what came out (droop, fitness, qualification verdict).

The record id is the sha256 of the *identity payload* — every field
above, canonically serialised.  Provenance (timestamps, git describe,
argv, campaign label, telemetry summary) travels with the record but is
excluded from the hash, so re-running the same campaign tomorrow
republishes the same id and the store deduplicates instead of growing a
twin.  Floats survive the JSON round-trip bit-exactly (Python serialises
them via shortest round-trip repr), which is what lets ``registry
verify`` demand bit-identical droops.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from repro.errors import RegistryError
from repro.registry.provenance import (
    hash_config,
    hash_platform,
    platform_config,
    platform_descriptor,
)

#: Bumped when the record layout changes incompatibly.
RECORD_VERSION = 1

#: How one record's program is described: a raw genome (the common case
#: for campaign winners) or a canned stressmark built by name.
PROGRAM_SOURCES = ("genome", "canned")


@dataclass(frozen=True)
class RegistryRecord:
    """One content-addressed stressmark result."""

    kind: str
    """``"audit"``, ``"qualify"``, or ``"fleet"`` — which pipeline
    published the record."""
    name: str
    """Stressmark label (``A-Res``, a scenario id, a canned name)."""
    program: dict
    """``{"source": "genome", "subblock": [...], "lp_nops": int,
    "replications": int}`` or ``{"source": "canned", "stressmark": str}``."""
    platform: dict
    """Platform descriptor (see
    :func:`repro.registry.provenance.platform_descriptor`)."""
    platform_hash: str
    """Configuration fingerprint of the constructed platform."""
    threads: int
    droop_v: float
    mode: str = ""
    seed: int | None = None
    best_fitness: float | None = None
    evaluations: int | None = None
    resonance_hz: float | None = None
    verdict: str = ""
    robustness: float | None = None
    qualification: dict | None = None
    provenance: dict = field(default_factory=dict)
    """Context excluded from the content hash: created_at, git,
    repro_version, argv, campaign, telemetry summary."""

    # ------------------------------------------------------------------
    def identity(self) -> dict:
        """The fields the record id is computed over."""
        return {
            "record_version": RECORD_VERSION,
            "kind": self.kind,
            "name": self.name,
            "program": self.program,
            "platform": self.platform,
            "platform_hash": self.platform_hash,
            "threads": self.threads,
            "droop_v": self.droop_v,
            "mode": self.mode,
            "seed": self.seed,
            "best_fitness": self.best_fitness,
            "evaluations": self.evaluations,
            "resonance_hz": self.resonance_hz,
            "verdict": self.verdict,
            "robustness": self.robustness,
            "qualification": self.qualification,
        }

    @property
    def record_id(self) -> str:
        data = json.dumps(self.identity(), sort_keys=True,
                          separators=(",", ":")).encode("utf-8")
        return hashlib.sha256(data).hexdigest()

    def to_payload(self) -> dict:
        return {
            "record_id": self.record_id,
            **self.identity(),
            "provenance": self.provenance,
        }

    @classmethod
    def from_payload(cls, payload: dict, *, source="record") -> "RegistryRecord":
        """Decode a stored object, re-verifying its content hash.

        The recomputed id must match the stored one — a mismatch means
        the object was hand-edited, bit-rotted, or tampered with in
        transit (import), and is rejected rather than trusted.
        """
        if not isinstance(payload, dict):
            raise RegistryError(
                f"corrupt registry object {source}: expected a JSON "
                f"object, found {type(payload).__name__}"
            )
        version = payload.get("record_version")
        if version != RECORD_VERSION:
            raise RegistryError(
                f"registry record version {version!r} in {source} is not "
                f"supported (expected {RECORD_VERSION})"
            )
        try:
            record = cls(
                kind=str(payload["kind"]),
                name=str(payload["name"]),
                program=dict(payload["program"]),
                platform=dict(payload["platform"]),
                platform_hash=str(payload["platform_hash"]),
                threads=int(payload["threads"]),
                droop_v=float(payload["droop_v"]),
                mode=str(payload.get("mode", "")),
                seed=payload.get("seed"),
                best_fitness=payload.get("best_fitness"),
                evaluations=payload.get("evaluations"),
                resonance_hz=payload.get("resonance_hz"),
                verdict=str(payload.get("verdict", "")),
                robustness=payload.get("robustness"),
                qualification=payload.get("qualification"),
                provenance=dict(payload.get("provenance") or {}),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise RegistryError(
                f"corrupt registry object {source}: {error}"
            ) from error
        if record.program.get("source") not in PROGRAM_SOURCES:
            raise RegistryError(
                f"corrupt registry object {source}: program source "
                f"{record.program.get('source')!r} is not one of "
                f"{PROGRAM_SOURCES}"
            )
        stored_id = payload.get("record_id")
        if stored_id != record.record_id:
            raise RegistryError(
                f"registry object {source} fails its content hash "
                f"(stored {str(stored_id)[:12]}…, recomputed "
                f"{record.record_id[:12]}…) — tampered or corrupt"
            )
        return record

    # ------------------------------------------------------------------
    def index_entry(self) -> dict:
        """The one-line summary the JSONL index carries."""
        return {
            "record_id": self.record_id,
            "kind": self.kind,
            "name": self.name,
            "chip": self.platform.get("chip", ""),
            "pdn_scale": self.platform.get("pdn_scale", 1.0),
            "platform_hash": self.platform_hash,
            "threads": self.threads,
            "mode": self.mode,
            "seed": self.seed,
            "droop_v": self.droop_v,
            "verdict": self.verdict,
            "campaign": self.provenance.get("campaign", ""),
            "created_at": self.provenance.get("created_at", 0.0),
        }


# ----------------------------------------------------------------------
# Builders for the three publish paths
# ----------------------------------------------------------------------
def _genome_program(genome, replications: int) -> dict:
    return {
        "source": "genome",
        "subblock": list(genome.subblock),
        "lp_nops": int(genome.lp_nops),
        "replications": int(replications),
    }


def record_from_audit(result, *, platform, descriptor: dict,
                      seed: int | None = None,
                      provenance: dict | None = None) -> RegistryRecord:
    """A record for one :class:`~repro.core.audit.AuditResult`."""
    config = result.config
    qualification = None
    verdict = ""
    robustness = None
    if result.qualification is not None:
        chosen = result.qualification.chosen_report
        verdict = result.qualification.verdict
        robustness = chosen.robustness
        qualification = chosen.to_payload()
    return RegistryRecord(
        kind="audit",
        name=result.name,
        program=_genome_program(result.genome, result.space.replications),
        platform=dict(descriptor),
        platform_hash=hash_platform(platform),
        threads=result.threads,
        droop_v=float(result.max_droop_v),
        mode=(config.mode.value if config is not None else ""),
        seed=seed,
        best_fitness=float(result.ga_result.best_fitness),
        evaluations=int(result.ga_result.evaluations),
        resonance_hz=float(result.resonance.resonance_hz),
        verdict=verdict,
        robustness=robustness,
        qualification=qualification,
        provenance=dict(provenance or {}),
    )


def record_from_qualification(report, *, platform, descriptor: dict,
                              provenance: dict | None = None) -> RegistryRecord:
    """A record for one standalone ``repro qualify`` run.

    The program is the canned stressmark by name; the recorded droop is
    the *nominal* (unperturbed) droop, which is exactly what a replay of
    the canned kernel re-measures.
    """
    return RegistryRecord(
        kind="qualify",
        name=report.stressmark,
        program={"source": "canned", "stressmark": report.stressmark},
        platform=dict(descriptor),
        platform_hash=hash_platform(platform),
        threads=report.threads,
        droop_v=float(report.nominal_droop_v),
        seed=int(report.config.seed),
        evaluations=int(report.evaluations),
        verdict=report.verdict,
        robustness=float(report.robustness),
        qualification=report.to_payload(),
        provenance=dict(provenance or {}),
    )


def record_from_shard(result, *, provenance: dict | None = None) -> RegistryRecord:
    """A record for one banked OK fleet shard (:class:`ShardResult`)."""
    from repro.core.audit import AuditConfig

    if result.genome is None:
        raise RegistryError(
            f"shard {result.scenario_id} banked no genome; only OK shards "
            f"can be published"
        )
    scenario = result.scenario
    scale = _pdn_label_scale(scenario.get("pdn", "nominal"))
    descriptor = platform_descriptor(scenario["chip"], pdn_scale=scale)
    # Fleet shards run the default audit replication count.
    replications = AuditConfig(threads=int(scenario["threads"])).replications
    genome = _GenomeView(
        subblock=tuple(result.genome["subblock"]),
        lp_nops=int(result.genome["lp_nops"]),
    )
    return RegistryRecord(
        kind="fleet",
        name=result.scenario_id,
        program=_genome_program(genome, replications),
        platform=descriptor,
        platform_hash=hash_config(*platform_config(descriptor)),
        threads=int(scenario["threads"]),
        droop_v=float(result.droop_v),
        mode=str(scenario.get("mode", "")),
        seed=int(scenario["seed"]),
        best_fitness=result.best_fitness,
        evaluations=result.evaluations,
        resonance_hz=result.resonance_hz,
        verdict=result.verdict or "",
        robustness=result.robustness,
        qualification=None,
        provenance=dict(provenance or {}),
    )


@dataclass(frozen=True)
class _GenomeView:
    """Duck-typed stand-in so shard genome dicts reuse _genome_program."""

    subblock: tuple
    lp_nops: int


def _pdn_label_scale(label: str) -> float:
    from repro.fleet.matrix import parse_pdn_label

    return parse_pdn_label(label)
