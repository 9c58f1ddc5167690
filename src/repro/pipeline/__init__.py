"""The staged measurement pipeline (compile → activity → pdn → analyze).

See :mod:`repro.pipeline.artifacts` for the typed artifacts,
:mod:`repro.pipeline.stages` for the stage implementations, and
:mod:`repro.pipeline.pipeline` for the orchestrator (the default
measurement backend).
"""
