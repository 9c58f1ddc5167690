"""The staged measurement pipeline (compile → activity → pdn → analyze).

See :mod:`repro.pipeline.artifacts` for the typed artifacts,
:mod:`repro.pipeline.stages` for the stage implementations, and
:mod:`repro.pipeline.pipeline` for the orchestrator (the default
measurement backend).
"""

from repro.pipeline.artifacts import (
    ActivityProfile,
    CompiledProgram,
    Measurement,
    MeasureRequest,
    ModuleActivity,
    PdnResponse,
    artifact_key,
)
from repro.pipeline.cache import StageCache
from repro.pipeline.pipeline import MeasurementPipeline
from repro.pipeline.stages import (
    ActivityStage,
    AnalyzeStage,
    CompileStage,
    PdnStage,
    PipelineCounters,
    Stage,
)

__all__ = [
    "ActivityProfile",
    "ActivityStage",
    "AnalyzeStage",
    "CompileStage",
    "CompiledProgram",
    "Measurement",
    "MeasureRequest",
    "MeasurementPipeline",
    "ModuleActivity",
    "PdnResponse",
    "PdnStage",
    "PipelineCounters",
    "Stage",
    "StageCache",
    "artifact_key",
]
