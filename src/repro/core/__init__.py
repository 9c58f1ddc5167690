"""AUDIT core: the paper's contribution — closed-loop stressmark generation.

* :class:`~repro.core.platform.MeasurementPlatform` — the "Measure HW" box
  over a pluggable :class:`~repro.core.platform.MeasurementBackend`.
* :class:`~repro.core.engine.EvaluationEngine` — batched, cached, observable
  genome fitness with serial/process-pool executors.
* :class:`~repro.core.audit.AuditRunner` — the full Fig. 5 loop.
* :mod:`~repro.core.telemetry` — run observers (console/JSONL/collector).
* :mod:`~repro.core.dithering` — exact/approximate thread alignment.
* :mod:`~repro.core.resonance` — automatic resonance detection.
"""

from repro.core.audit import (
    AuditConfig,
    AuditResult,
    AuditRunner,
    CampaignQualification,
    StressmarkMode,
)
from repro.core.checkpoint import (
    CampaignCheckpoint,
    CampaignState,
    rng_from_state,
    rng_state_to_jsonable,
    validate_campaign_meta,
)
from repro.core.codegen import genome_to_kernel, genome_to_program
from repro.core.cost import DroopPerPowerCost, MaxDroopCost, SensitivePathCost
from repro.core.dithering import (
    DitherSchedule,
    alignment_sweep_cycles,
    alignment_sweep_seconds,
    dither_schedules,
    droop_for_alignment,
    encode_dithered_program,
    visited_alignments,
    worst_case_alignment,
)
from repro.core.engine import (
    EvaluationEngine,
    SerialExecutor,
    StressmarkFitness,
    make_executor,
)
from repro.core.faults import (
    EvalOutcome,
    FaultInjectingBackend,
    FaultInjectionConfig,
    FaultPolicy,
    GuardedFitness,
    fault_record_from,
)
from repro.core.ga import GaConfig, GaResult, GaSnapshot, GenerationStats, GeneticAlgorithm
from repro.core.genome import GenomeSpace, StressmarkGenome
from repro.core.platform import (
    Measurement,
    MeasurementBackend,
    MeasurementPlatform,
)
from repro.core.qualify import (
    ARTIFACT,
    FRAGILE,
    NOMINAL,
    PASS,
    AxisDistribution,
    Perturbation,
    QualificationCheckpoint,
    QualificationFitness,
    QualificationReport,
    QualifyConfig,
    StressmarkQualifier,
)
from repro.core.resonance import (
    ResonancePoint,
    ResonanceSweepResult,
    find_resonance,
    probe_program,
)
from repro.core.telemetry import (
    ConsoleObserver,
    EvaluationEvent,
    FaultEvent,
    InvariantEvent,
    JsonlObserver,
    QualificationEvent,
    RecentEventsObserver,
    RunObserver,
    TelemetryCollector,
)

__all__ = [
    "ARTIFACT",
    "AuditConfig",
    "AuditResult",
    "AuditRunner",
    "AxisDistribution",
    "CampaignCheckpoint",
    "CampaignQualification",
    "CampaignState",
    "ConsoleObserver",
    "EvalOutcome",
    "FRAGILE",
    "FaultEvent",
    "FaultInjectingBackend",
    "FaultInjectionConfig",
    "FaultPolicy",
    "GaSnapshot",
    "GuardedFitness",
    "DitherSchedule",
    "DroopPerPowerCost",
    "EvaluationEngine",
    "EvaluationEvent",
    "GaConfig",
    "GaResult",
    "GenerationStats",
    "GeneticAlgorithm",
    "GenomeSpace",
    "InvariantEvent",
    "JsonlObserver",
    "MaxDroopCost",
    "Measurement",
    "MeasurementBackend",
    "MeasurementPlatform",
    "NOMINAL",
    "PASS",
    "Perturbation",
    "QualificationCheckpoint",
    "QualificationEvent",
    "QualificationFitness",
    "QualificationReport",
    "QualifyConfig",
    "RecentEventsObserver",
    "ResonancePoint",
    "ResonanceSweepResult",
    "RunObserver",
    "SensitivePathCost",
    "SerialExecutor",
    "StressmarkFitness",
    "StressmarkGenome",
    "StressmarkMode",
    "StressmarkQualifier",
    "TelemetryCollector",
    "fault_record_from",
    "make_executor",
    "rng_from_state",
    "rng_state_to_jsonable",
    "validate_campaign_meta",
    "alignment_sweep_cycles",
    "alignment_sweep_seconds",
    "dither_schedules",
    "droop_for_alignment",
    "encode_dithered_program",
    "find_resonance",
    "genome_to_kernel",
    "genome_to_program",
    "probe_program",
    "visited_alignments",
    "worst_case_alignment",
]
