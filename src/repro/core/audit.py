"""AUDIT: the full closed-loop stressmark generation framework.

Ties together everything in paper Fig. 5: opcode pool filtering (adapting to
the plugged-in processor), the resonance sweep, hierarchical sub-block code
generation, the GA, the measurement platform, and the dithering-equivalent
worst-case alignment — producing first-droop **resonance** stressmarks
(A-Res) or first-droop **excitation** stressmarks (A-Ex) without manual
intervention.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

from repro.errors import CampaignInterrupted, CheckpointError, SearchError
from repro.isa.kernels import LoopKernel, ThreadProgram
from repro.isa.opcodes import OpcodeTable, default_table
from repro.core.checkpoint import CampaignCheckpoint
from repro.core.codegen import DEFAULT_ITERATIONS, genome_to_kernel
from repro.core.cost import MaxDroopCost
from repro.core.engine import EvaluationEngine, FitnessExecutor
from repro.core.faults import FaultPolicy, RetryingMeasurements
from repro.core.ga import GaConfig, GaResult, GaSnapshot, GeneticAlgorithm
from repro.core.genome import GenomeSpace, StressmarkGenome
from repro.core.platform import Measurement, MeasurementPlatform
from repro.core.qualify import (
    ARTIFACT,
    FRAGILE,
    PASS,
    QualificationCheckpoint,
    QualificationReport,
    QualifyConfig,
    StressmarkQualifier,
)
from repro.core.resonance import ResonanceSweepResult, find_resonance
from repro.core.telemetry import PlatformMetricsEvent
from repro.obs.spans import emit, span


class StressmarkMode(str, Enum):
    """What kind of first-droop stressmark to synthesise."""

    RESONANT = "resonant"
    """Periodic HP/LP loop at the PDN resonance (A-Res)."""

    EXCITATION = "excitation"
    """Long-LP loop producing isolated low→high events (A-Ex)."""


@dataclass(frozen=True)
class AuditConfig:
    """AUDIT run parameters.

    ``subblock_cycles`` is K and ``replications`` is S from the paper's
    hierarchical generation; the evolved sub-block has
    ``K × decode_width`` instruction slots.  Setting ``replications=1`` and
    scaling ``subblock_cycles`` up gives the flat (non-hierarchical)
    baseline used in the Section III.C comparison.
    """

    threads: int = 4
    mode: StressmarkMode = StressmarkMode.RESONANT
    subblock_cycles: int = 6
    replications: int = 3
    ga: GaConfig = field(default_factory=GaConfig)
    resonance_hp_count: int = 8
    lp_sweep_step: int = 8

    def __post_init__(self) -> None:
        if self.threads < 1:
            raise SearchError("threads must be >= 1")
        if self.subblock_cycles < 1:
            raise SearchError("subblock_cycles must be >= 1")
        if self.replications < 1:
            raise SearchError("replications must be >= 1")


@dataclass(frozen=True)
class CampaignQualification:
    """Qualification outcome of a campaign's winner (plus any fallbacks).

    ``reports[0]`` is always the GA winner; further entries are the
    runner-ups qualified after an ARTIFACT verdict, in fitness order.
    ``chosen`` indexes the candidate the campaign finally promoted —
    nonzero means the GA winner was demoted as a measurement artifact.
    """

    reports: tuple
    chosen: int

    @property
    def winner_report(self) -> QualificationReport:
        return self.reports[0]

    @property
    def chosen_report(self) -> QualificationReport:
        return self.reports[self.chosen]

    @property
    def demoted(self) -> bool:
        return self.chosen != 0

    @property
    def verdict(self) -> str:
        return self.chosen_report.verdict


@dataclass(frozen=True)
class AuditResult:
    """Everything an AUDIT run produces."""

    name: str
    kernel: LoopKernel
    genome: StressmarkGenome
    space: GenomeSpace
    measurement: Measurement
    resonance: ResonanceSweepResult
    ga_result: GaResult
    threads: int
    qualification: CampaignQualification | None = None
    config: AuditConfig | None = None
    """The configuration the campaign ran under — provenance for the
    registry (mode, replications, GA budget alongside the genome)."""

    @property
    def max_droop_v(self) -> float:
        return self.measurement.max_droop_v

    def program(self, iterations: int = DEFAULT_ITERATIONS) -> ThreadProgram:
        """A runnable program of the winning stressmark."""
        return ThreadProgram(self.kernel, iterations)


class AuditRunner:
    """Drives the full AUDIT loop against one measurement platform."""

    def __init__(
        self,
        platform: MeasurementPlatform,
        *,
        table: OpcodeTable | None = None,
        cost=None,
        config: AuditConfig | None = None,
        executor: FitnessExecutor | None = None,
        platform_factory: Callable[[], MeasurementPlatform] | None = None,
        fault_policy: FaultPolicy | None = None,
    ):
        self.platform = platform
        full_table = table or default_table()
        # Adapt the opcode pool to the processor actually plugged in
        # (Section V.C: SM1's FMA4 ops do not run on the Phenom II).
        self.table = full_table.supported_on(platform.chip.extensions)
        self.cost = cost or MaxDroopCost()
        self.config = config or AuditConfig()
        self.executor = executor
        self.platform_factory = platform_factory
        self.fault_policy = fault_policy

    # ------------------------------------------------------------------
    def build_space(self, resonance: ResonanceSweepResult) -> GenomeSpace:
        """Genome space sized from the machine and the detected resonance."""
        cfg = self.config
        slots = cfg.subblock_cycles * self.platform.chip.module.decode_width
        period = resonance.best_period_cycles
        if cfg.mode is StressmarkMode.RESONANT:
            # LP range bracketing the resonant loop length generously: the
            # GA tunes the exact length to put the period on the peak.
            lp_min = 0
            lp_max = max(resonance.best_lp_nops * 2,
                         4 * period * self.platform.chip.module.decode_width // 4)
        else:
            # Excitation: long quiet stretch so each HP burst is isolated.
            lp_min = period * 8
            lp_max = period * 24
        return GenomeSpace(
            table=self.table,
            slots=slots,
            replications=cfg.replications,
            lp_nops_min=lp_min,
            lp_nops_max=lp_max,
        )

    def default_seeds(self, space: GenomeSpace,
                      resonance: ResonanceSweepResult) -> list[StressmarkGenome]:
        """Convergence-rate seeds (paper Fig. 5's 'Initial Seed Entries').

        Three expert-shaped genomes: a saturated high-power block, the same
        diluted with NOPs, and an FP+integer mix — the structures manual
        stressmarks use.  The GA is free to discard them.
        """
        pipelined = [s for s in self.table
                     if s.issue_interval <= 2 and s.energy_pj > 0]
        if not pipelined:
            return []
        hot = max(pipelined, key=lambda s: s.energy_pj).mnemonic
        int_ops = [s for s in pipelined
                   if not s.is_fp and s.operand_class is not None]
        alt = max(int_ops, key=lambda s: s.energy_pj).mnemonic if int_ops else hot
        lp = int(min(max(resonance.best_lp_nops, space.lp_nops_min),
                     space.lp_nops_max))
        has_nop = "nop" in self.table
        seeds = [StressmarkGenome(subblock=(hot,) * space.slots, lp_nops=lp)]
        if has_nop:
            seeds.append(StressmarkGenome(
                subblock=tuple(hot if i % 2 == 0 else "nop"
                               for i in range(space.slots)),
                lp_nops=lp,
            ))
        seeds.append(StressmarkGenome(
            subblock=tuple(hot if i % 2 == 0 else alt
                           for i in range(space.slots)),
            lp_nops=lp,
        ))
        return seeds

    def build_engine(self, space: GenomeSpace) -> EvaluationEngine:
        """The evaluation engine the GA scores generations through."""
        return EvaluationEngine.for_stressmarks(
            self.platform,
            space,
            threads=self.config.threads,
            cost=self.cost,
            executor=self.executor,
            platform_factory=self.platform_factory,
            fault_policy=self.fault_policy,
        )

    # ------------------------------------------------------------------
    def run(
        self,
        *,
        name: str | None = None,
        seeds: list[StressmarkGenome] | None = None,
        checkpoint: CampaignCheckpoint | None = None,
        resume: bool = False,
        qualify: QualifyConfig | None = None,
        qualify_checkpoint: QualificationCheckpoint | None = None,
        seed_cache: dict | None = None,
        stop: Callable[[], str | None] | None = None,
    ) -> AuditResult:
        """Execute the complete AUDIT flow and return the best stressmark.

        With ``checkpoint``, a :class:`~repro.core.checkpoint
        .CampaignCheckpoint` snapshot (GA state + fitness cache) is written
        atomically at every generation boundary.  With ``resume=True`` the
        newest snapshot in that store is restored first and the campaign
        continues from it — same seeds, same final stressmark as an
        uninterrupted run, because both the GA's RNG stream and the
        evaluator's memoised fitness values survive the restart.  (The
        resonance sweep is deterministic, so it is simply re-run, though
        it takes about a fifth of a short campaign's wall time.)

        With ``qualify``, the GA winner is qualified under perturbations
        (see :class:`~repro.core.qualify.StressmarkQualifier`); an
        ARTIFACT winner is demoted and the best-qualified runner-up from
        the engine's fitness cache is promoted in its place — graceful
        degradation of the campaign result instead of shipping an
        artifact.

        ``seed_cache`` pre-populates the engine's fitness cache with
        genome → fitness pairs measured elsewhere on an identical
        platform (the fleet orchestrator's cross-shard seeding).  Seeded
        entries never override a resumed checkpoint's own cache.

        ``stop`` is a poll callable (typically
        :meth:`~repro.supervision.shutdown.ShutdownCoordinator.stop_requested`)
        checked at each generation boundary after its checkpoint lands; a
        non-``None`` reason stops the campaign gracefully by raising
        :class:`~repro.errors.CampaignInterrupted`.
        """
        with span("audit.campaign", mode=self.config.mode.value,
                  threads=self.config.threads, campaign=name or ""):
            return self._run(
                name=name, seeds=seeds, checkpoint=checkpoint, resume=resume,
                qualify=qualify, qualify_checkpoint=qualify_checkpoint,
                seed_cache=seed_cache, stop=stop,
            )

    def _run(
        self, *, name, seeds, checkpoint, resume, qualify,
        qualify_checkpoint, seed_cache, stop,
    ) -> AuditResult:
        cfg = self.config
        if resume and checkpoint is None:
            raise CheckpointError("resume=True needs a checkpoint store")
        # GA evaluations are guarded inside the engine; the sweep and the
        # final verification measure directly, so guard them here too.
        measure_platform = self.platform
        if self.fault_policy is not None:
            measure_platform = RetryingMeasurements(
                self.platform, self.fault_policy, label="closed-loop-measurement",
            )
        with span("audit.resonance-sweep") as phase:
            resonance = find_resonance(
                measure_platform,
                self.table,
                threads=1,
                period_candidates=list(range(8, 133, cfg.lp_sweep_step)),
            )
            phase.set(detail=f"{len(resonance.points)} probes, "
                             f"{resonance.resonance_hz / 1e6:.1f} MHz")
        space = self.build_space(resonance)
        engine = self.build_engine(space)
        if seed_cache:
            engine.seed_cache(seed_cache)
        ga = GeneticAlgorithm(
            random_fn=space.random_genome,
            mutate_fn=lambda g, rng, rate: space.mutate(g, rng, rate=rate),
            crossover_fn=space.crossover,
            fitness_fn=engine,
            config=cfg.ga,
        )
        resume_snapshot: GaSnapshot | None = None
        if resume:
            state = checkpoint.load()
            if state is None:
                raise CheckpointError(
                    f"nothing to resume in {checkpoint.directory} "
                    "(no state.json; did the campaign checkpoint at least "
                    "one generation?)"
                )
            if state.salvaged:
                span(
                    "supervisor.salvage",
                    task=f"generation {state.ga.generation}",
                    detail=state.salvage_reason,
                ).close()
            resume_snapshot = state.ga
            engine.restore_cache(
                state.fitness_cache,
                cache_hits=state.cache_hits,
                evaluations=state.ga.evaluations,
            )
        checkpoint_fn = None
        if checkpoint is not None:
            def checkpoint_fn(snapshot: GaSnapshot) -> None:
                with span("checkpoint.save",
                          generation=snapshot.generation) as save:
                    path = checkpoint.save(
                        snapshot,
                        fitness_cache=engine.cache_snapshot(),
                        cache_hits=engine.cache_hits,
                    )
                    save.set(path=str(path))
        if seeds is None:
            seeds = self.default_seeds(space, resonance)
        try:
            with span("audit.ga-search", generations=cfg.ga.generations) as phase:
                ga_result = ga.run(
                    seeds=seeds, resume=resume_snapshot,
                    checkpoint_fn=checkpoint_fn, stop_fn=stop,
                )
                phase.set(detail=f"{ga_result.evaluations} evaluations, "
                                 f"{len(ga_result.history)} generations")
        except CampaignInterrupted as error:
            # Re-raise with the resume point attached: the generation
            # boundary's checkpoint landed just before the stop check.
            raise CampaignInterrupted(
                error.reason,
                generation=error.generation,
                checkpoint_path=(
                    str(checkpoint.state_path) if checkpoint is not None else ""
                ),
            ) from None
        label = name or (
            "A-Res" if cfg.mode is StressmarkMode.RESONANT else "A-Ex"
        )
        kernel = genome_to_kernel(ga_result.best_genome, space, name=label)
        program = ThreadProgram(kernel, DEFAULT_ITERATIONS)
        with span("audit.final-measurement", threads=cfg.threads) as phase:
            measurement = measure_platform.measure_program(program, cfg.threads)
            phase.set(detail=f"{label} at {cfg.threads}T")
        genome = ga_result.best_genome
        qualification = None
        if qualify is not None:
            with span("audit.qualification") as phase:
                qualification, genome, kernel = self._qualify_winner(
                    engine=engine,
                    space=space,
                    winner=genome,
                    label=label,
                    kernel=kernel,
                    config=qualify,
                    checkpoint=qualify_checkpoint,
                )
                if qualification.demoted:
                    measurement = measure_platform.measure_program(
                        ThreadProgram(kernel, DEFAULT_ITERATIONS), cfg.threads
                    )
                phase.set(detail=(
                    f"{qualification.verdict}"
                    + (", winner demoted" if qualification.demoted else "")
                ))
        metrics = getattr(self.platform, "metrics", None)
        if metrics is not None:
            emit(PlatformMetricsEvent(
                counters=metrics.counters(), source="audit",
            ))
        return AuditResult(
            name=label,
            kernel=kernel,
            genome=genome,
            space=space,
            measurement=measurement,
            resonance=resonance,
            ga_result=ga_result,
            threads=cfg.threads,
            qualification=qualification,
            config=cfg,
        )

    # ------------------------------------------------------------------
    def _qualify_winner(
        self,
        *,
        engine: EvaluationEngine,
        space: GenomeSpace,
        winner: StressmarkGenome,
        label: str,
        kernel: LoopKernel,
        config: QualifyConfig,
        checkpoint: QualificationCheckpoint | None,
    ) -> tuple[CampaignQualification, StressmarkGenome, LoopKernel]:
        """Qualify the winner; on ARTIFACT, try the best runner-ups.

        Runner-ups come from the engine's fitness cache (every genome the
        campaign ever measured) in fitness order, quarantined genomes
        excluded.  The first PASS stops the search; otherwise the best
        verdict (ties broken by robustness, then fitness rank) wins.
        """
        qualifier = StressmarkQualifier(
            self.platform,
            threads=self.config.threads,
            config=config,
            cost=self.cost,
            executor=self.executor,
            platform_factory=self.platform_factory,
            fault_policy=self.fault_policy,
            checkpoint=checkpoint,
        )
        genomes = [winner]
        reports = [qualifier.qualify_program(
            ThreadProgram(kernel, DEFAULT_ITERATIONS), name=label,
        )]
        if reports[0].verdict == ARTIFACT and config.max_fallbacks > 0:
            runner_ups = sorted(
                (
                    (g, fitness)
                    for g, fitness in engine.cache_snapshot().items()
                    if g != winner and g not in engine.quarantined
                ),
                key=lambda item: item[1],
                reverse=True,
            )
            for rank, (genome, _fitness) in enumerate(
                runner_ups[: config.max_fallbacks], start=1
            ):
                fallback_name = f"{label}-runnerup{rank}"
                fallback_kernel = genome_to_kernel(
                    genome, space, name=fallback_name
                )
                report = qualifier.qualify_program(
                    ThreadProgram(fallback_kernel, DEFAULT_ITERATIONS),
                    name=fallback_name,
                )
                genomes.append(genome)
                reports.append(report)
                if report.verdict == PASS:
                    break
        verdict_rank = {PASS: 0, FRAGILE: 1, ARTIFACT: 2}
        chosen = min(
            range(len(reports)),
            key=lambda i: (
                verdict_rank[reports[i].verdict],
                -reports[i].robustness,
                i,
            ),
        )
        qualification = CampaignQualification(
            reports=tuple(reports), chosen=chosen,
        )
        if chosen != 0:
            genome = genomes[chosen]
            kernel = genome_to_kernel(genome, space, name=label)
        else:
            genome = winner
        return qualification, genome, kernel
