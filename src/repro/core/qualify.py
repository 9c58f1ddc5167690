"""Stressmark qualification: is a measured droop real, or an artifact?

Paper Section V shows that one droop number is an untrustworthy verdict:
droop magnitude does not predict the failure voltage, OS-tick dithering
shifts alignment between runs, and SMT skew damps expected droops.  A GA
winner tuned to one exact measurement configuration can therefore be a
*measurement artifact* rather than a robust worst-case stressmark.

:class:`StressmarkQualifier` re-measures a candidate under controlled
perturbations along four axes —

* **jitter** — different seeds of the SMT loop-phase random walk,
* **smt** — explicit SMT sibling phase offsets instead of the natural
  half-period misalignment,
* **supply** — a span of supply voltages around nominal,
* **pdn** — ±tolerance scaling of individual PDN R/L/C/ESR parameters
  (component tolerances: the same stressmark on the next board),

— and condenses the per-axis droop distributions into a *robustness*
score (worst-axis droop retention relative to nominal) and a
``PASS`` / ``FRAGILE`` / ``ARTIFACT`` verdict.  All perturbed
re-measurements are batched through the
:class:`~repro.core.engine.EvaluationEngine`, so they run in parallel
under any executor, hit the fitness cache (the nominal point of every
axis is one shared cache entry), and inherit fault-policy retries.  The
whole run is deterministic under ``QualifyConfig.seed`` and resumable
through :class:`QualificationCheckpoint`.
"""

from __future__ import annotations

import dataclasses
import json
import pickle
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from repro.analysis.report import format_table
from repro.core.atomicio import atomic_write_json
from repro.core.cost import MaxDroopCost
from repro.core.engine import (
    _WORKER_PLATFORMS,
    EvaluationEngine,
    FitnessExecutor,
    SerialExecutor,
    _as_platform,
)
from repro.core.faults import EvalOutcome, FaultPolicy
from repro.core.platform import MeasurementPlatform
from repro.core.telemetry import PlatformMetricsEvent
from repro.errors import CheckpointError, ConfigurationError
from repro.isa.kernels import ThreadProgram
from repro.obs.spans import emit, span
from repro.pipeline.artifacts import MeasureRequest
from repro.pipeline.pipeline import MeasurementPipeline

#: Verdicts, strongest first.
PASS = "PASS"
FRAGILE = "FRAGILE"
ARTIFACT = "ARTIFACT"
VERDICTS = (PASS, FRAGILE, ARTIFACT)

#: PDN stage / field names a perturbation may scale.
PDN_STAGES = ("board", "package", "die")
PDN_FIELDS = ("resistance_ohm", "inductance_h", "capacitance_f", "esr_ohm")


# ----------------------------------------------------------------------
# Perturbations
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Perturbation:
    """One controlled deviation from the nominal measurement setup.

    ``axis`` and ``label`` are presentation-only (``compare=False``), so
    two perturbations describing the same *physical* point — e.g. the
    nominal anchor that every axis includes — hash equal and share one
    engine cache entry.
    """

    axis: str = field(default="nominal", compare=False)
    label: str = field(default="nominal", compare=False)
    jitter_seed: int | None = None
    smt_phase_cycles: int | None = None
    supply_v: float | None = None
    pdn_stage: str | None = None
    pdn_field: str | None = None
    pdn_scale: float | None = None

    def __post_init__(self) -> None:
        pdn_knobs = (self.pdn_stage, self.pdn_field, self.pdn_scale)
        if any(k is not None for k in pdn_knobs) and None in pdn_knobs:
            raise ConfigurationError(
                "pdn_stage, pdn_field, and pdn_scale must be set together"
            )
        if self.pdn_stage is not None and self.pdn_stage not in PDN_STAGES:
            raise ConfigurationError(
                f"pdn_stage must be one of {PDN_STAGES}, got {self.pdn_stage!r}"
            )
        if self.pdn_field is not None and self.pdn_field not in PDN_FIELDS:
            raise ConfigurationError(
                f"pdn_field must be one of {PDN_FIELDS}, got {self.pdn_field!r}"
            )
        if self.pdn_scale is not None and self.pdn_scale <= 0:
            raise ConfigurationError("pdn_scale must be positive")
        if self.supply_v is not None and self.supply_v <= 0:
            raise ConfigurationError("supply_v must be positive")


#: The unperturbed measurement (each axis re-uses it as its anchor).
NOMINAL = Perturbation()


def encode_perturbation(perturbation: Perturbation) -> dict:
    return asdict(perturbation)


def decode_perturbation(payload: dict) -> Perturbation:
    return Perturbation(**payload)


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class QualifyConfig:
    """Shape and thresholds of a qualification run.

    Verdict rule (on *robustness* = worst-axis droop retention relative
    to nominal): ``>= pass_retention`` → PASS, ``>= artifact_retention``
    → FRAGILE, below → ARTIFACT.  A nominal droop under ``min_droop_v``
    is ARTIFACT outright — there is no droop to qualify.
    """

    seed: int = 0
    jitter_repeats: int = 4
    smt_offsets: tuple = (0, 2, 5, 9, 13)
    supply_span_v: float = 0.05
    supply_points: int = 5
    pdn_tolerance: float = 0.10
    pdn_stages: tuple = ("die",)
    pdn_fields: tuple = PDN_FIELDS
    pass_retention: float = 0.60
    artifact_retention: float = 0.30
    min_droop_v: float = 1e-6
    max_fallbacks: int = 3

    def __post_init__(self) -> None:
        if self.jitter_repeats < 1:
            raise ConfigurationError("jitter_repeats must be >= 1")
        if self.supply_points < 1:
            raise ConfigurationError("supply_points must be >= 1")
        if not 0.0 < self.supply_span_v:
            raise ConfigurationError("supply_span_v must be positive")
        if not 0.0 < self.pdn_tolerance < 1.0:
            raise ConfigurationError("pdn_tolerance must be in (0, 1)")
        if not 0.0 <= self.artifact_retention <= self.pass_retention <= 1.0:
            raise ConfigurationError(
                "need 0 <= artifact_retention <= pass_retention <= 1"
            )
        for stage in self.pdn_stages:
            if stage not in PDN_STAGES:
                raise ConfigurationError(f"unknown pdn stage {stage!r}")
        for name in self.pdn_fields:
            if name not in PDN_FIELDS:
                raise ConfigurationError(f"unknown pdn field {name!r}")
        if self.max_fallbacks < 0:
            raise ConfigurationError("max_fallbacks must be >= 0")


# ----------------------------------------------------------------------
# Perturbation -> droop, ready for any executor
# ----------------------------------------------------------------------
class QualificationFitness:
    """Measure one program under a :class:`Perturbation`, return its droop.

    The same picklable-callable contract as
    :class:`~repro.core.engine.StressmarkFitness`: in-process calls use
    the live platform, workers rebuild one from ``platform_factory``.
    Supply and SMT knobs are plain request fields; jitter
    and PDN knobs need a rebuilt pipeline, which is cached per physical
    configuration and **shares the base activity stage** — a PDN
    tolerance sweep re-solves only the network, never the chip model.
    """

    requires_platform_factory = True

    def __init__(
        self,
        program: ThreadProgram,
        threads: int,
        *,
        cost=None,
        platform: MeasurementPlatform | None = None,
        platform_factory: Callable[[], MeasurementPlatform] | None = None,
    ):
        if platform is None and platform_factory is None:
            raise ConfigurationError(
                "QualificationFitness needs a platform or a platform_factory"
            )
        self.program = program
        self.threads = threads
        self.cost = cost if cost is not None else MaxDroopCost()
        self.platform_factory = platform_factory
        self._platform = platform
        self._perturbed: dict[tuple, MeasurementPlatform] = {}

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_platform"] = None
        state["_perturbed"] = {}
        return state

    def _base_platform(self) -> MeasurementPlatform:
        if self._platform is None:
            key = pickle.dumps(self.platform_factory)
            platform = _WORKER_PLATFORMS.get(key)
            if platform is None:
                platform = _as_platform(self.platform_factory())
                _WORKER_PLATFORMS[key] = platform
            self._platform = platform
        return self._platform

    def _platform_for(self, p: Perturbation) -> MeasurementPlatform:
        key = (p.jitter_seed, p.pdn_stage, p.pdn_field, p.pdn_scale)
        if all(k is None for k in key):
            return self._base_platform()
        platform = self._perturbed.get(key)
        if platform is None:
            base = self._base_platform().pipeline
            if base is None:
                raise ConfigurationError(
                    "jitter and PDN perturbations need a simulator backend"
                )
            pdn = base.pdn_stage.pdn
            if p.pdn_stage is not None:
                stage = getattr(pdn, p.pdn_stage)
                stage = dataclasses.replace(
                    stage,
                    **{p.pdn_field: getattr(stage, p.pdn_field) * p.pdn_scale},
                )
                pdn = dataclasses.replace(pdn, **{p.pdn_stage: stage})
            # The chip model is untouched by every perturbation axis, so
            # perturbed pipelines share the base activity stage — module
            # simulator, trace cache, profile cache, and counter ledger: a
            # full PDN sweep costs only PDN re-solves, and the base
            # platform's metrics hold the whole qualification's work.
            platform = MeasurementPlatform(backend=MeasurementPipeline(
                base.chip,
                pdn,
                jitter_seed=(
                    base.pdn_stage.jitter_seed
                    if p.jitter_seed is None else p.jitter_seed
                ),
                activity=base.activity,
            ))
            self._perturbed[key] = platform
        return platform

    def _request_for(self, perturbation: Perturbation) -> MeasureRequest:
        return MeasureRequest(
            program=self.program,
            threads=self.threads,
            supply_v=perturbation.supply_v,
            smt_phase_cycles=perturbation.smt_phase_cycles,
        )

    def __call__(self, perturbation: Perturbation) -> float:
        (measurement,) = self._platform_for(perturbation).measure_programs(
            [self._request_for(perturbation)]
        )
        return float(self.cost.evaluate(measurement))

    @property
    def metrics(self):
        """The base platform's registry (perturbed pipelines share it)."""
        return self._base_platform().metrics

    def evaluate_batch(self, perturbations) -> list[EvalOutcome]:
        """Batch perturbation measurements per physical platform.

        Perturbations sharing a platform (one jitter seed, one PDN
        variant, the whole supply/SMT grid) measure as one batch, so
        their PDN solves stack into one matrix.
        """
        perturbations = list(perturbations)
        start = time.perf_counter()
        groups: dict[int, list[int]] = {}
        platforms: dict[int, MeasurementPlatform] = {}
        for idx, perturbation in enumerate(perturbations):
            platform = self._platform_for(perturbation)
            platforms[id(platform)] = platform
            groups.setdefault(id(platform), []).append(idx)
        values: list[float] = [float("nan")] * len(perturbations)
        for platform_id, indices in groups.items():
            platform = platforms[platform_id]
            requests = [self._request_for(perturbations[i]) for i in indices]
            measurements = platform.measure_programs(requests)
            for i, measurement in zip(indices, measurements):
                values[i] = float(self.cost.evaluate(measurement))
        wall = time.perf_counter() - start
        per_item = wall / max(1, len(perturbations))
        return [
            EvalOutcome(value=value, wall_s=per_item, attempts=1)
            for value in values
        ]


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AxisDistribution:
    """Droop distribution along one perturbation axis."""

    axis: str
    labels: tuple
    droops: tuple
    nominal_droop_v: float

    @property
    def valid_droops(self) -> tuple:
        """Droops from measurements that produced a finite value."""
        return tuple(d for d in self.droops if np.isfinite(d))

    @property
    def failed(self) -> int:
        """Perturbed measurements that never produced a finite droop."""
        return len(self.droops) - len(self.valid_droops)

    @property
    def min_droop_v(self) -> float:
        valid = self.valid_droops
        return min(valid) if valid else float("nan")

    @property
    def max_droop_v(self) -> float:
        valid = self.valid_droops
        return max(valid) if valid else float("nan")

    @property
    def mean_droop_v(self) -> float:
        valid = self.valid_droops
        return float(np.mean(valid)) if valid else float("nan")

    @property
    def retention(self) -> float:
        """Worst droop on this axis relative to nominal (1.0 = unmoved).

        An axis with no valid measurement retains nothing (0.0): if the
        droop cannot even be measured under the perturbation it cannot
        be trusted.
        """
        if not self.valid_droops:
            return 0.0
        if self.nominal_droop_v <= 0:
            return 1.0
        return self.min_droop_v / self.nominal_droop_v


@dataclass(frozen=True)
class QualificationReport:
    """Everything a qualification run concluded about one stressmark."""

    stressmark: str
    threads: int
    nominal_droop_v: float
    axes: tuple
    robustness: float
    verdict: str
    evaluations: int
    cache_hits: int
    wall_s: float
    config: QualifyConfig

    def axis(self, name: str) -> AxisDistribution:
        for dist in self.axes:
            if dist.axis == name:
                return dist
        raise KeyError(name)

    def to_payload(self) -> dict:
        """A JSON-ready summary of the verdict and per-axis distributions.

        Deterministic for a given run configuration — ``wall_s`` is
        deliberately excluded so the payload can take part in
        content-addressed registry records.
        """
        return {
            "stressmark": self.stressmark,
            "threads": self.threads,
            "nominal_droop_v": self.nominal_droop_v,
            "robustness": self.robustness,
            "verdict": self.verdict,
            "evaluations": self.evaluations,
            "cache_hits": self.cache_hits,
            "axes": [
                {
                    "axis": dist.axis,
                    "samples": len(dist.droops),
                    "min_droop_v": dist.min_droop_v,
                    "max_droop_v": dist.max_droop_v,
                    "mean_droop_v": dist.mean_droop_v,
                    "retention": dist.retention,
                    "failed": dist.failed,
                }
                for dist in self.axes
            ],
        }

    def summary_table(self) -> str:
        rows = []
        for dist in self.axes:
            rows.append([
                dist.axis,
                str(len(dist.droops)),
                f"{dist.min_droop_v * 1e3:.2f} mV",
                f"{dist.max_droop_v * 1e3:.2f} mV",
                f"{dist.retention:.2f}",
                str(dist.failed) if dist.failed else "-",
            ])
        rows.append([
            "=> " + self.verdict,
            str(self.evaluations),
            f"{self.nominal_droop_v * 1e3:.2f} mV",
            "(nominal)",
            f"{self.robustness:.2f}",
            "-",
        ])
        return format_table(
            ["axis", "samples", "min droop", "max droop", "retention", "failed"],
            rows,
            title=f"qualification — {self.stressmark} @ {self.threads}T",
        )


# ----------------------------------------------------------------------
# Resumable qualification state
# ----------------------------------------------------------------------
class QualificationCheckpoint:
    """Atomic store for in-progress qualification runs.

    One ``qualify_<stressmark>.json`` file per qualified candidate, so a
    campaign's winner and its fallback runner-ups each resume
    independently — and the file names are disjoint from
    :class:`~repro.core.checkpoint.CampaignCheckpoint`'s, so a
    qualification can live in the same ``--checkpoint-dir`` as the
    campaign that produced the candidate.
    """

    STATE_VERSION = 1

    def __init__(self, directory):
        self.directory = Path(directory)
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
        except OSError as error:
            raise CheckpointError(
                f"cannot create checkpoint directory {directory!r}: {error}"
            ) from error

    def state_path(self, stressmark: str) -> Path:
        slug = "".join(
            c if c.isalnum() else "-" for c in stressmark.lower()
        ).strip("-") or "stressmark"
        return self.directory / f"qualify_{slug}.json"

    def save(self, *, stressmark: str, seed: int, measured: dict) -> Path:
        path = self.state_path(stressmark)
        atomic_write_json(path, {
            "kind": "qualification",
            "version": self.STATE_VERSION,
            "stressmark": stressmark,
            "seed": seed,
            "measured": [
                [encode_perturbation(p), value] for p, value in measured.items()
            ],
        })
        return path

    def load(self, *, stressmark: str, seed: int) -> dict:
        """Measured perturbation → droop pairs, or ``{}`` when fresh.

        A checkpoint written for a different stressmark or seed is a
        hard error: silently mixing measurements would corrupt verdicts.
        """
        path = self.state_path(stressmark)
        try:
            with open(path) as handle:
                payload = json.load(handle)
        except FileNotFoundError:
            return {}
        except OSError as error:
            raise CheckpointError(
                f"unreadable qualification state {path}: {error}"
            ) from error
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            raise CheckpointError(
                f"corrupt qualification state {path}: {error}"
            ) from error
        if not isinstance(payload, dict):
            raise CheckpointError(
                f"malformed qualification checkpoint {path}: "
                "expected a JSON object"
            )
        if payload.get("version") != self.STATE_VERSION:
            raise CheckpointError(
                f"qualification checkpoint version {payload.get('version')!r} "
                f"in {path} is not supported (expected {self.STATE_VERSION})"
            )
        if (payload.get("stressmark") != stressmark
                or payload.get("seed") != seed):
            raise CheckpointError(
                f"qualification checkpoint {path} belongs to "
                f"{payload.get('stressmark')!r} "
                f"(seed {payload.get('seed')!r}), "
                f"not {stressmark!r} (seed {seed!r})"
            )
        measured = payload.get("measured")
        if not isinstance(measured, list):
            raise CheckpointError(
                f"malformed qualification state {path}: "
                "'measured' must be a list"
            )
        out = {}
        try:
            for entry, value in measured:
                out[decode_perturbation(entry)] = float(value)
        except (TypeError, ValueError, KeyError) as error:
            raise CheckpointError(
                f"malformed qualification state {path}: {error}"
            ) from error
        return out


# ----------------------------------------------------------------------
# The qualifier
# ----------------------------------------------------------------------
class StressmarkQualifier:
    """Re-measure a candidate under perturbations and render a verdict."""

    def __init__(
        self,
        platform: MeasurementPlatform,
        *,
        threads: int,
        config: QualifyConfig | None = None,
        cost=None,
        executor: FitnessExecutor | None = None,
        platform_factory: Callable[[], MeasurementPlatform] | None = None,
        fault_policy: FaultPolicy | None = None,
        checkpoint: QualificationCheckpoint | None = None,
    ):
        self.platform = platform
        self.threads = threads
        self.config = config if config is not None else QualifyConfig()
        self.cost = cost
        self.executor = executor if executor is not None else SerialExecutor()
        self.platform_factory = platform_factory
        self.fault_policy = fault_policy
        self.checkpoint = checkpoint

    # ------------------------------------------------------------------
    def perturbation_axes(self) -> list[tuple[str, list[Perturbation]]]:
        """The deterministic perturbation grid, one entry per axis.

        Every axis leads with the nominal anchor — physically equal to
        :data:`NOMINAL`, so the engine serves it from cache after the
        first measurement.
        """
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        vdd = self.platform.chip.vdd

        jitter = [Perturbation(axis="jitter", label="nominal")]
        for seed in rng.integers(0, 2**31, size=cfg.jitter_repeats):
            jitter.append(Perturbation(
                axis="jitter", label=f"seed={int(seed)}",
                jitter_seed=int(seed),
            ))

        smt = [Perturbation(axis="smt", label="nominal")]
        for offset in cfg.smt_offsets:
            smt.append(Perturbation(
                axis="smt", label=f"offset={int(offset)}",
                smt_phase_cycles=int(offset),
            ))

        supply = [Perturbation(axis="supply", label="nominal")]
        for volts in np.linspace(
            vdd - cfg.supply_span_v, vdd + cfg.supply_span_v,
            cfg.supply_points,
        ):
            supply.append(Perturbation(
                axis="supply", label=f"vdd={volts:.4f}",
                supply_v=float(volts),
            ))

        pdn = [Perturbation(axis="pdn", label="nominal")]
        for stage in cfg.pdn_stages:
            for name in cfg.pdn_fields:
                for scale in (1.0 - cfg.pdn_tolerance, 1.0 + cfg.pdn_tolerance):
                    pdn.append(Perturbation(
                        axis="pdn",
                        label=f"{stage}.{name} x{scale:.2f}",
                        pdn_stage=stage,
                        pdn_field=name,
                        pdn_scale=float(scale),
                    ))

        return [("jitter", jitter), ("smt", smt), ("supply", supply),
                ("pdn", pdn)]

    # ------------------------------------------------------------------
    def _verdict(self, nominal: float, robustness: float) -> str:
        cfg = self.config
        if not np.isfinite(nominal) or nominal < cfg.min_droop_v:
            return ARTIFACT
        if robustness >= cfg.pass_retention:
            return PASS
        if robustness >= cfg.artifact_retention:
            return FRAGILE
        return ARTIFACT

    def qualify_program(
        self, program: ThreadProgram, *, name: str = "stressmark"
    ) -> QualificationReport:
        """Measure *program* across every axis and render the verdict.

        The ``qualify.stressmark`` span carries the ``verdict``,
        ``robustness`` and ``samples`` (requests served); each axis is a
        ``qualify.axis`` span carrying its ``samples``, ``min_droop_v``,
        ``max_droop_v`` and ``retention``.
        """
        with span("qualify.stressmark", stressmark=name,
                  threads=self.threads) as qualified:
            report = self._qualify_program(program, name=name)
            qualified.set(
                verdict=report.verdict,
                robustness=report.robustness,
                samples=report.evaluations + report.cache_hits,
            )
        return report

    def _qualify_program(
        self, program: ThreadProgram, *, name: str
    ) -> QualificationReport:
        start = time.perf_counter()
        fitness = QualificationFitness(
            program,
            self.threads,
            cost=self.cost,
            platform=self.platform,
            platform_factory=self.platform_factory,
        )
        engine = EvaluationEngine(
            fitness,
            executor=self.executor,
            platform=self.platform,
            fault_policy=self.fault_policy,
        )
        if self.checkpoint is not None:
            engine.restore_cache(self.checkpoint.load(
                stressmark=name, seed=self.config.seed,
            ))
        nominal = engine.evaluate(NOMINAL)

        axes = []
        for axis_name, perturbations in self.perturbation_axes():
            with span("qualify.axis", axis=axis_name,
                      samples=len(perturbations)) as axis_span:
                dist = AxisDistribution(
                    axis=axis_name,
                    labels=tuple(p.label for p in perturbations),
                    droops=tuple(engine.evaluate_many(perturbations)),
                    nominal_droop_v=nominal,
                )
                axis_span.set(
                    min_droop_v=dist.min_droop_v,
                    max_droop_v=dist.max_droop_v,
                    retention=dist.retention,
                )
            axes.append(dist)
            if self.checkpoint is not None:
                self.checkpoint.save(
                    stressmark=name,
                    seed=self.config.seed,
                    measured=engine.cache_snapshot(),
                )

        robustness = min(dist.retention for dist in axes)
        verdict = self._verdict(nominal, robustness)
        wall = time.perf_counter() - start
        metrics = getattr(self.platform, "metrics", None)
        if metrics is not None:
            emit(PlatformMetricsEvent(
                counters=metrics.counters(), source="qualify",
            ))
        return QualificationReport(
            stressmark=name,
            threads=self.threads,
            nominal_droop_v=nominal,
            axes=tuple(axes),
            robustness=robustness,
            verdict=verdict,
            evaluations=engine.evaluations,
            cache_hits=engine.cache_hits,
            wall_s=wall,
            config=self.config,
        )
