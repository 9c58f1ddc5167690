"""The fleet orchestrator: matrix → shards → cross-platform report.

:class:`FleetOrchestrator` expands a :class:`~repro.fleet.matrix
.ScenarioMatrix` into shards, schedules them across a process pool under
a global worker budget, and aggregates the banked results into a
:class:`~repro.fleet.report.FleetReport`.

Scheduling is *chain-based*: scenarios sharing a
:attr:`~repro.fleet.matrix.Scenario.platform_key` (identical chip, PDN
variant, thread count and mode — hence an identical fitness landscape)
form a chain that runs sequentially, each shard seeding its evaluation
cache from the state banked by its completed in-chain predecessors.
Distinct chains run in parallel.  Because seeding only ever flows down a
chain in expansion order, the final report is independent of worker
count, completion order, and any number of kill/resume cycles.

Everything durable lives under the fleet directory::

    fleet-dir/
      fleet.json            # matrix + options (written once, read on resume)
      report.json           # canonical cross-scenario report
      report.md             # the same report as GitHub markdown
      shards/<scenario_id>/ # one campaign checkpoint dir + result.json each

A killed fleet (SIGKILL included) resumes with
:meth:`FleetOrchestrator.resume`: banked shards are served from their
``result.json``, half-run shards continue from their campaign
checkpoint, and the rebuilt report is bit-identical to an uninterrupted
run's.
"""

from __future__ import annotations

import dataclasses
import json
import signal
import time
from collections import deque
from pathlib import Path

from repro.core.atomicio import atomic_write_json, atomic_write_text
from repro.core.faults import FaultPolicy
from repro.core.telemetry import FleetEvent, ShardEvent, SupervisorEvent, event_from_dict
from repro.errors import (
    EXIT_CRASH,
    CampaignInterrupted,
    CheckpointError,
    ConfigurationError,
)
from repro.fleet.matrix import ScenarioMatrix
from repro.fleet.report import REPORT_FILE, REPORT_MD_FILE, FleetReport
from repro.fleet.shard import (
    ShardResult,
    ShardSpec,
    load_result,
    run_shard,
)
from repro.obs.spans import current_tracer, emit, span
from repro.supervision.executor import (
    DEFAULT_MAX_POOL_REBUILDS,
    SupervisedExecutor,
    SupervisorFault,
)

FLEET_FILE = "fleet.json"

#: Bumped when the fleet meta layout changes incompatibly.
FLEET_VERSION = 1


def chain_schedule(scenarios) -> tuple:
    """Group scenarios into platform chains, expansion order preserved.

    Returns a tuple of chains (tuples of scenarios); chains are ordered
    by first appearance of their platform key, scenarios within a chain
    keep their expansion order.  This grouping is what makes cache
    seeding deterministic: a shard only ever seeds from predecessors in
    its own chain.
    """
    chains: dict = {}
    for scenario in scenarios:
        chains.setdefault(scenario.platform_key, []).append(scenario)
    return tuple(tuple(chain) for chain in chains.values())


class FleetOrchestrator:
    """Runs one scenario matrix as a resumable fleet of shards."""

    def __init__(
        self,
        matrix: ScenarioMatrix,
        fleet_dir,
        *,
        workers: int = 2,
        qualify: bool = False,
        failure_voltage: bool = False,
        fault_policy: FaultPolicy | None = None,
        stop_after: int | None = None,
        shard_timeout_s: float | None = None,
        shard_retries: int = 1,
        max_pool_rebuilds: int = DEFAULT_MAX_POOL_REBUILDS,
        shard_max_wall_clock_s: float | None = None,
        stop_check=None,
        task_fn=None,
        registry_dir=None,
    ):
        if workers < 1:
            raise ConfigurationError("fleet workers must be >= 1")
        if shard_timeout_s is not None and shard_timeout_s <= 0:
            raise ConfigurationError(
                f"shard_timeout_s must be > 0, got {shard_timeout_s}"
            )
        if shard_retries < 0:
            raise ConfigurationError(
                f"shard_retries must be >= 0, got {shard_retries}"
            )
        if max_pool_rebuilds < 0:
            raise ConfigurationError(
                f"max_pool_rebuilds must be >= 0, got {max_pool_rebuilds}"
            )
        self.matrix = matrix
        self.fleet_dir = Path(fleet_dir)
        self.workers = workers
        self.qualify = qualify
        self.failure_voltage = failure_voltage
        self.fault_policy = fault_policy
        self.stop_after = stop_after
        """Test hook: raise KeyboardInterrupt after this many shard
        completions — a deterministic stand-in for kill -9."""
        self.shard_timeout_s = shard_timeout_s
        """Hard wall-clock deadline per running shard: overrun kills the
        worker pool, requeues innocents, and retries or fails the shard."""
        self.shard_retries = shard_retries
        """Hang/crash retries per shard before it is declared failed.
        A retry resumes from the shard's campaign checkpoint, so only
        the in-flight generation is re-run."""
        self.max_pool_rebuilds = max_pool_rebuilds
        """Total pool respawns (hangs + crashes) tolerated per fleet run
        before the host is declared systemically unstable."""
        self.shard_max_wall_clock_s = shard_max_wall_clock_s
        """Per-shard graceful wall-clock budget, forwarded to ShardSpec."""
        self.stop_check = stop_check
        """Graceful-stop poll (e.g. ShutdownCoordinator.stop_requested):
        a reason string drains the fleet, writes the report, and raises
        CampaignInterrupted."""
        self.task_fn = task_fn if task_fn is not None else run_shard
        """The picklable per-shard callable; a test seam for injecting
        hanging or crashing stand-ins for run_shard."""
        self.registry_dir = None if registry_dir is None else Path(registry_dir)
        """When set, every OK shard is published into the stressmark
        registry at this directory once the fleet report is banked (the
        fleet directory's name becomes the campaign label).  Persisted
        in ``fleet.json`` so a resumed fleet keeps publishing."""
        self.scenarios = matrix.expand()
        self._completed = 0
        self._stopping = False

    # ------------------------------------------------------------------
    # Fleet meta
    # ------------------------------------------------------------------
    @property
    def meta_path(self) -> Path:
        return self.fleet_dir / FLEET_FILE

    def shard_dir(self, scenario) -> Path:
        return self.fleet_dir / "shards" / scenario.scenario_id

    def write_meta(self) -> None:
        policy = self.fault_policy
        meta = {
            "fleet_version": FLEET_VERSION,
            "matrix": self.matrix.to_dict(),
            "workers": self.workers,
            "qualify": self.qualify,
            "failure_voltage": self.failure_voltage,
            "fault_policy": None if policy is None else dataclasses.asdict(policy),
            # Additive field (absent in pre-registry fleets — .get() on
            # resume keeps FLEET_VERSION at 1).
            "registry": None if self.registry_dir is None else str(self.registry_dir),
        }
        atomic_write_json(self.meta_path, meta)

    @classmethod
    def resume(
        cls,
        fleet_dir,
        *,
        workers: int | None = None,
        stop_after: int | None = None,
        shard_timeout_s: float | None = None,
        shard_retries: int = 1,
        max_pool_rebuilds: int = DEFAULT_MAX_POOL_REBUILDS,
        shard_max_wall_clock_s: float | None = None,
        stop_check=None,
        task_fn=None,
        registry_dir=None,
    ) -> "FleetOrchestrator":
        """Rebuild the orchestrator a fleet directory was written by."""
        meta_path = Path(fleet_dir) / FLEET_FILE
        try:
            payload = json.loads(meta_path.read_text())
        except OSError:
            msg = f"no fleet meta at {meta_path} (was this directory written by `repro fleet run`?)"
            raise CheckpointError(msg) from None
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            raise CheckpointError(f"corrupt fleet meta {meta_path}: {error}") from error
        version = payload.get("fleet_version")
        if version != FLEET_VERSION:
            msg = f"fleet meta version {version!r} in {meta_path} is not supported"
            raise CheckpointError(f"{msg} (expected {FLEET_VERSION})")
        policy = payload.get("fault_policy")
        if policy is not None:
            known = {field.name for field in dataclasses.fields(FaultPolicy)}
            for key in sorted(set(policy) - known):
                # A field this version no longer has (an older fleet's
                # cooperative timeout): unset it changes nothing, set it
                # cannot be honoured.
                if policy.pop(key) is not None:
                    msg = f"fault_policy.{key} in {meta_path} is no longer supported"
                    raise CheckpointError(msg)
        return cls(
            ScenarioMatrix.from_dict(payload["matrix"]),
            fleet_dir,
            workers=workers if workers is not None else payload["workers"],
            qualify=bool(payload.get("qualify", False)),
            failure_voltage=bool(payload.get("failure_voltage", False)),
            fault_policy=None if policy is None else FaultPolicy(**policy),
            stop_after=stop_after,
            shard_timeout_s=shard_timeout_s,
            shard_retries=shard_retries,
            max_pool_rebuilds=max_pool_rebuilds,
            shard_max_wall_clock_s=shard_max_wall_clock_s,
            stop_check=stop_check,
            task_fn=task_fn,
            registry_dir=(registry_dir if registry_dir is not None
                          else payload.get("registry")),
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _spec(self, chain, index) -> ShardSpec:
        """The shard spec for ``chain[index]``, seeded by banked
        in-chain predecessors that completed OK."""
        seed_dirs = []
        for predecessor in chain[:index]:
            directory = self.shard_dir(predecessor)
            banked = load_result(directory)
            if banked is not None and banked.ok:
                seed_dirs.append(str(directory))
        scenario = chain[index]
        tracer = current_tracer()
        return ShardSpec(
            scenario=scenario,
            shard_dir=str(self.shard_dir(scenario)),
            seed_state_dirs=tuple(seed_dirs),
            qualify=self.qualify,
            failure_voltage=self.failure_voltage,
            fault_policy=self.fault_policy,
            max_wall_clock_s=self.shard_max_wall_clock_s,
            trace_context=None if tracer is None else tracer.context(),
        )

    def _on_result(self, result: ShardResult, results: list, start: float, running: int) -> None:
        results.append(result)
        self._completed += 1
        self._emit_shard_spans(result)
        emit(ShardEvent(
            scenario=result.scenario_id,
            status=result.status,
            droop_v=result.droop_v or 0.0,
            evaluations=result.evaluations or 0,
            wall_s=result.timing.get("wall_s", 0.0),
            error=result.error,
            exit_code=result.exit_code,
        ))
        emit(FleetEvent(
            total=len(self.scenarios),
            done=len(results),
            failed=len([r for r in results if not r.ok]),
            running=running,
            wall_s=time.perf_counter() - start,
        ))
        if self.stop_after is not None and self._completed >= self.stop_after:
            raise KeyboardInterrupt(f"fleet stop_after={self.stop_after} reached")
        if (result.status == "interrupted" and "signal" in result.error
                and not self._stopping):
            # The shard itself was TERMed (not by our drain): somebody is
            # shutting the host down — stop the whole fleet gracefully.
            raise CampaignInterrupted(
                f"signal stop propagated from shard {result.scenario_id}"
            )

    def _emit_shard_spans(self, result: ShardResult) -> None:
        """Stitch a shard's buffered spans into the orchestrator trace.

        Only spans carrying *this* trace's id are re-emitted — spans from
        any other trace would seed orphans in the current tree.
        """
        tracer = current_tracer()
        payloads = (
            result.timing.get("spans") if isinstance(result.timing, dict) else None
        )
        if tracer is None or not payloads:
            return
        for payload in payloads:
            try:
                event = event_from_dict(payload)
            except (KeyError, TypeError):
                continue
            if getattr(event, "trace_id", "") == tracer.trace_id:
                tracer.emit(event)

    def _banked(self, results: list) -> dict:
        """Serve already-banked OK shards without scheduling them."""
        banked = {}
        for scenario in self.scenarios:
            result = load_result(self.shard_dir(scenario))
            if result is not None and result.ok:
                banked[scenario.scenario_id] = result
                results.append(result)
                emit(ShardEvent(
                    scenario=result.scenario_id,
                    status="banked",
                    droop_v=result.droop_v or 0.0,
                    evaluations=result.evaluations or 0,
                ))
        return banked

    def run(self) -> FleetReport:
        """Run every shard not yet banked, then write and return the report.

        Shard failures never abort the fleet — they land in the report
        with their taxonomy exit code and the fleet's aggregate exit
        code reflects the most severe one.  A KeyboardInterrupt (Ctrl-C
        or the ``stop_after`` hook) propagates without writing a report,
        like a kill would; ``resume`` picks the fleet up afterwards.

        A *graceful* stop (``stop_check`` reporting a signal or an
        exhausted wall-clock budget) instead drains the in-flight shards
        down to their final checkpoints, writes a report covering
        everything finished so far, and raises
        :class:`~repro.errors.CampaignInterrupted` (CLI exit 75).
        """
        with span("fleet.campaign", scenarios=len(self.scenarios),
                  workers=self.workers):
            return self._run()

    def _run(self) -> FleetReport:
        self.fleet_dir.mkdir(parents=True, exist_ok=True)
        if not self.meta_path.exists():
            self.write_meta()
        start = time.perf_counter()
        results: list = []
        banked = self._banked(results)
        full_chains = chain_schedule(self.scenarios)
        chains = []
        for chain in full_chains:
            chains.append([s for s in chain if s.scenario_id not in banked])
        pending = [chain_index for chain_index, chain in enumerate(chains) if chain]
        emit(FleetEvent(
            total=len(self.scenarios),
            done=len(results),
            failed=0,
            running=0,
            wall_s=0.0,
            detail=f"{len(pending)} chain(s), {self.workers} worker(s)",
        ))
        try:
            if pending:
                if self.workers == 1 and self.shard_timeout_s is None:
                    self._run_serial(chains, full_chains, results, start)
                else:
                    self._run_pool(chains, full_chains, results, start)
        except CampaignInterrupted as error:
            # Sanctioned stop: every drained shard has a final checkpoint,
            # so bank a report over what finished and exit resumable.
            partial = FleetReport.build(self.scenarios, results)
            self.write_report(partial)
            self.publish_results(partial)
            raise CampaignInterrupted(
                error.reason,
                generation=error.generation,
                checkpoint_path=str(self.fleet_dir),
            ) from None
        report = FleetReport.build(self.scenarios, results)
        self.write_report(report)
        self.publish_results(report)
        return report

    def _full_spec(self, chains, full_chains, chain_index, index) -> ShardSpec:
        """Spec for ``chains[chain_index][index]`` with seeding resolved
        against the *full* chain (banked predecessors included)."""
        scenario = chains[chain_index][index]
        full_chain = full_chains[chain_index]
        return self._spec(full_chain, full_chain.index(scenario))

    def _check_stop(self) -> str | None:
        if self.stop_check is None:
            return None
        return self.stop_check()

    def _run_serial(self, chains, full_chains, results, start) -> None:
        for chain_index, chain in enumerate(chains):
            for index in range(len(chain)):
                reason = self._check_stop()
                if reason:
                    raise CampaignInterrupted(reason)
                spec = self._full_spec(chains, full_chains, chain_index, index)
                emit(ShardEvent(scenario=spec.scenario.scenario_id, status="started"))
                result = self.task_fn(spec)
                self._on_result(result, results, start, running=0)

    def _failed_shard(self, scenario, error: str) -> ShardResult:
        """A synthesized result for a shard the supervisor gave up on.

        Deliberately *not* banked to ``result.json``: the next fleet run
        retries the shard from its campaign checkpoint, so a transient
        host problem does not permanently poison the scenario.
        """
        tracer = current_tracer()
        if tracer is not None:
            # The shard died holding its span buffer: close the loss
            # explicitly so the trace tree has no dangling branch.
            tracer.lost("fleet.shard", scenario=scenario.scenario_id, error=error)
        return ShardResult(
            scenario=scenario.axes(),
            scenario_id=scenario.scenario_id,
            status="failed",
            exit_code=EXIT_CRASH,
            error=error,
        )

    def _run_pool(self, chains, full_chains, results, start) -> None:
        """Run the chains on a :class:`SupervisedExecutor`.

        Chain scheduling is the submit policy: a shard's spec is built
        when a worker slot frees up (its seeding reads what its chain
        predecessors banked), and a finished shard queues its chain
        successor.  The supervisor enforces the hard per-shard deadline
        (``shard_timeout_s``, from the first ``running()`` observation),
        recovers worker crashes by suspect isolation (``shard_retries``
        crash strikes), and draws both from one ``max_pool_rebuilds``
        budget.  A hung shard comes back as a fault; it is resubmitted —
        resuming from its checkpoint — while it has ``shard_retries``
        left.  A ``stop_check`` reason drains the fleet: no new
        submissions, SIGTERM to the shard workers (each runs its own
        ShutdownCoordinator, checkpoints, and returns an ``interrupted``
        result), then :class:`~repro.errors.CampaignInterrupted`.
        """
        queue: deque = deque()
        for chain_index, chain in enumerate(chains):
            if chain:
                queue.append((chain_index, 0))
        positions: dict = {}  # in-flight scenario_id -> (chain_index, index)
        hang_strikes: dict = {}
        stop_reason: str | None = None
        executor = SupervisedExecutor(
            self.workers,
            task_timeout_s=self.shard_timeout_s,
            max_pool_rebuilds=self.max_pool_rebuilds,
            crash_retries=self.shard_retries,
        )

        def next_task():
            if not queue:
                return None
            chain_index, index = queue.popleft()
            spec = self._full_spec(chains, full_chains, chain_index, index)
            scenario_id = spec.scenario.scenario_id
            positions[scenario_id] = (chain_index, index)
            emit(ShardEvent(scenario=scenario_id, status="started"))
            return scenario_id, spec

        def on_result(scenario_id: str, result) -> None:
            chain_index, index = positions.pop(scenario_id)
            if isinstance(result, SupervisorFault):
                if result.kind == "interrupted":
                    # Killed by the drain's SIGTERM; the shard resumes
                    # from its checkpoint on the next fleet run.
                    emit(ShardEvent(scenario=scenario_id, status="interrupted"))
                    return
                if result.kind == "hang":
                    strikes = hang_strikes.get(scenario_id, 0) + 1
                    hang_strikes[scenario_id] = strikes
                    if strikes <= self.shard_retries:
                        # Retry resumes from the shard checkpoint, so only
                        # the in-flight generation is re-run.
                        queue.appendleft((chain_index, index))
                        return
                    error = f"WorkerHangError: {result.error}; gave up after {strikes} attempt(s)"
                    # The supervisor gives up on crashes itself; hangs it
                    # hands back for the retry decision made here.
                    emit(SupervisorEvent(action="give-up", task=scenario_id, detail=error))
                else:
                    error = f"WorkerCrashError: {result.error}"
                result = self._failed_shard(chains[chain_index][index], error)
            # Next-in-chain first, so its seeding sees whatever the
            # finished shard banked.  Nothing new is queued once a drain
            # has begun.
            if not self._stopping and index + 1 < len(chains[chain_index]):
                queue.append((chain_index, index + 1))
            self._on_result(result, results, start, running=len(positions))

        def drain_on_stop() -> None:
            nonlocal stop_reason
            reason = None if self._stopping else self._check_stop()
            if not reason:
                return
            stop_reason = reason
            self._stopping = True
            queue.clear()
            detail = f"{reason}: draining {len(positions)} shard(s)"
            emit(SupervisorEvent(action="shutdown", detail=detail))
            # Ask running shards to stop at their next generation
            # boundary.  Idle workers die on SIGTERM and break the pool;
            # the supervisor then reports the shards still in flight as
            # interrupted — every shard checkpoints per generation, so at
            # most the in-flight generation is lost.
            executor.drain(signal.SIGTERM)

        try:
            executor.stream(
                self.task_fn,
                next_task,
                on_result,
                on_poll=None if self.stop_check is None else drain_on_stop,
            )
        finally:
            executor.close()
        if stop_reason is not None:
            raise CampaignInterrupted(stop_reason)

    # ------------------------------------------------------------------
    # Report
    # ------------------------------------------------------------------
    def write_report(self, report: FleetReport) -> None:
        atomic_write_text(self.fleet_dir / REPORT_FILE, report.to_json())
        atomic_write_text(self.fleet_dir / REPORT_MD_FILE, report.to_markdown())

    def publish_results(self, report: FleetReport) -> list:
        """Publish every OK shard of *report* into the registry.

        A no-op without ``registry_dir``.  Publishing is content-addressed
        and deduplicating, so re-running (or resuming) a fleet republishes
        the same records harmlessly.  Returns the publish outcomes.
        """
        if self.registry_dir is None:
            return []
        from repro.registry.provenance import provenance_stamp
        from repro.registry.record import record_from_shard
        from repro.registry.store import StressmarkRegistry

        registry = StressmarkRegistry(self.registry_dir)
        stamp = provenance_stamp(
            campaign=self.fleet_dir.name,
            extra={"fleet_report_key": report.content_key},
        )
        outcomes = []
        for result in report.ok_shards:
            if result.genome is None:
                continue
            outcomes.append(registry.publish(
                record_from_shard(result, provenance=stamp)
            ))
        return outcomes

    def collect_report(self) -> FleetReport:
        """Aggregate whatever is banked right now, without running."""
        results = []
        for scenario in self.scenarios:
            result = load_result(self.shard_dir(scenario))
            if result is not None:
                results.append(result)
        return FleetReport.build(self.scenarios, results)
