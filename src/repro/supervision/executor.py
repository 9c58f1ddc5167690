"""Supervised process-pool execution: hard deadlines, crash recovery.

Every process pool in the repo runs on :class:`SupervisedExecutor` — the
evaluation engine's ``--workers`` pool and the fleet orchestrator's shard
pool alike.  A worker can fail in two ways it cannot report itself: it
hangs, or it dies (segfault, ``os._exit``, OOM kill), which surfaces as
:class:`~concurrent.futures.process.BrokenProcessPool`.  The supervisor
handles both at the process level:

hard deadlines
    A task's wall time counts from the first moment its future is
    observed ``running()``, so a task queued behind a busy worker is never
    charged for the wait.  A task that outlives ``task_timeout_s`` has its
    pool killed (``SIGKILL`` to every worker — a hung worker ignores
    polite requests), the pool is respawned, innocent in-flight tasks are
    requeued, and the hung task resolves to a :class:`SupervisorFault`
    sentinel instead of a result.  Hung tasks are *not* retried by the
    supervisor: each retry would burn another full deadline of wall
    clock.  The caller decides — the engine folds the sentinel into the
    :class:`~repro.core.faults.FaultPolicy` quarantine taxonomy, the fleet
    resubmits the shard while it has retries left.

crash recovery
    ``BrokenProcessPool`` condemns every in-flight future, so the culprit
    is unidentifiable from the exception alone.  The supervisor moves all
    condemned tasks into an *isolation* queue and replays them one at a
    time: a lone task that crashes again is definitively the culprit and
    takes a strike (``crash_retries`` strikes allowed — transient crashes
    deserve one more chance; deterministic crashers resolve to a
    ``SupervisorFault``), while innocent tasks simply complete on replay.
    Every pool rebuild — hang or crash — draws from one shared
    ``max_pool_rebuilds`` budget so a pathological batch cannot respawn
    forever; exhausting it raises :class:`SupervisionExhaustedError`.

:meth:`SupervisedExecutor.stream` is the one event loop: tasks are pulled
from the caller as worker slots free up and each result is handed back as
it lands.  :meth:`~SupervisedExecutor.map` is a thin ordered wrapper over
it.  Everything the supervisor does is narrated through
:class:`~repro.core.telemetry.SupervisorEvent` so operators can see hangs,
crashes, respawns, and requeues in the run summary.
"""

from __future__ import annotations

import os
import signal
import time
from collections import deque
from collections.abc import Callable, Iterable
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

from repro.core.telemetry import SupervisorEvent
from repro.obs.spans import emit
from repro.errors import ConfigurationError, QuarantineExhaustedError, ReproError

__all__ = [
    "SupervisedExecutor",
    "SupervisorFault",
    "SupervisionExhaustedError",
    "WorkerCrashError",
    "WorkerHangError",
    "kill_pool_processes",
]

#: Default total pool-rebuild budget per executor.  Generous enough for a
#: handful of poison genomes per generation, small enough that a
#: systemically broken platform fails fast instead of thrashing.
DEFAULT_MAX_POOL_REBUILDS = 5

#: Wake-up cadence (seconds) for deadline sweeps and ``on_poll`` hooks.
POLL_S = 0.1


class SupervisionExhaustedError(ReproError):
    """The supervised executor ran out of pool-rebuild budget.

    So many hangs/crashes occurred in one batch that continuing would mean
    respawning pools indefinitely — the platform (or the chaos injection
    rate) is systemically broken, not one bad genome.
    """


class WorkerHangError(QuarantineExhaustedError):
    """An evaluation blew its hard deadline and its worker was killed.

    Subclasses :class:`~repro.errors.QuarantineExhaustedError` so a
    hang surfaced with ``on_exhaust="raise"`` (or with no fault policy at
    all) classifies as a fault-budget failure (exit code 3).
    """


class WorkerCrashError(QuarantineExhaustedError):
    """A worker process died (segfault / ``os._exit``) under an evaluation."""


@dataclass(frozen=True)
class SupervisorFault:
    """Sentinel result for a task the supervisor gave up on.

    Takes the slot an :class:`~repro.core.faults.EvalOutcome` (or plain
    fitness value) would occupy in the executor's results.  The evaluation
    engine converts it into the fault-policy taxonomy — quarantine,
    penalty, or a raised :class:`WorkerHangError` /
    :class:`WorkerCrashError`.

    ``kind`` is ``"hang"``, ``"crash"``, or ``"interrupted"`` (the task
    was in flight when a :meth:`~SupervisedExecutor.drain` broke its
    pool); ``attempts`` counts executions (1 for a hang, 1 + retries for a
    crash); ``wall_s`` is the wall time burned across all attempts.
    """

    kind: str
    error: str
    attempts: int = 1
    wall_s: float = 0.0


#: What a task left unfinished by a :meth:`SupervisedExecutor.drain` gets.
_INTERRUPTED = SupervisorFault(
    kind="interrupted", error="in flight when a drain stopped the worker pool"
)


def _signal_workers(pool: ProcessPoolExecutor | None, signum: int) -> None:
    for process in list((getattr(pool, "_processes", None) or {}).values()):
        try:
            os.kill(process.pid, signum)
        except (OSError, TypeError):  # pragma: no cover - already reaped
            pass


def kill_pool_processes(pool: ProcessPoolExecutor | None) -> None:
    """Hard-kill a pool's workers and abandon it.

    ``shutdown(wait=True)`` on a pool with a hung worker never returns, so
    the only reliable teardown is SIGKILL to each worker process first.
    """
    if pool is None:
        return
    _signal_workers(pool, signal.SIGKILL)
    pool.shutdown(wait=False, cancel_futures=True)


@dataclass
class _Flight:
    """Book-keeping for one submitted task."""

    key: str
    item: object
    submitted_at: float = 0.0
    started_at: float | None = None
    """First moment the future was observed ``running()``; the hard
    deadline counts from here."""


class SupervisedExecutor:
    """Process-pool executor with hard deadlines and crash recovery.

    A :class:`~repro.core.engine.FitnessExecutor`: ``map`` preserves
    request order and propagates ordinary exceptions raised *by the task
    function* unwrapped — supervision only intervenes when the worker
    process itself misbehaves (hang past ``task_timeout_s``, death under a
    task).  Those slots resolve to :class:`SupervisorFault` sentinels for
    the caller to adjudicate.

    With ``task_timeout_s=None`` the deadline sweep is disabled and only
    crash recovery is active; without an ``on_poll`` hook the executor
    then adds no polling overhead (the event loop blocks until a future
    completes).
    """

    name = "supervised"

    def __init__(
        self,
        workers: int,
        *,
        task_timeout_s: float | None = None,
        max_pool_rebuilds: int = DEFAULT_MAX_POOL_REBUILDS,
        crash_retries: int = 1,
        poll_s: float = POLL_S,
    ):
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        if task_timeout_s is not None and task_timeout_s <= 0:
            raise ConfigurationError(
                f"task_timeout_s must be positive, got {task_timeout_s}"
            )
        if max_pool_rebuilds < 0:
            raise ConfigurationError(
                f"max_pool_rebuilds must be >= 0, got {max_pool_rebuilds}"
            )
        self.workers = workers
        self.task_timeout_s = task_timeout_s
        self.max_pool_rebuilds = max_pool_rebuilds
        self.crash_retries = max(0, crash_retries)
        self.poll_s = poll_s
        self.rebuilds = 0
        self._pool: ProcessPoolExecutor | None = None
        self._draining = False

    # -- pool lifecycle ----------------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        return self._pool

    def _kill_and_respawn(self, *, reason: str) -> None:
        """Destroy the current pool and account one rebuild."""
        kill_pool_processes(self._pool)
        self._pool = None
        self.rebuilds += 1
        emit(SupervisorEvent(
            action="respawn", detail=reason, respawns=self.rebuilds
        ))
        if self.rebuilds > self.max_pool_rebuilds:
            raise SupervisionExhaustedError(
                f"pool rebuilt {self.rebuilds} times (budget "
                f"{self.max_pool_rebuilds}); the platform is systemically "
                f"unstable — last cause: {reason}"
            )

    def drain(self, signum: int) -> None:
        """Submit nothing more and send *signum* to every worker.

        Tasks in flight still deliver their results.  If the signal breaks
        the pool (an idle worker dies of it), the tasks still in flight
        and any awaiting replay resolve to ``SupervisorFault(kind=
        "interrupted")`` and the stream ends without a respawn.
        """
        self._draining = True
        _signal_workers(self._pool, signum)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "SupervisedExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- the supervised event loop ----------------------------------------

    def map(self, fn: Callable, items: Iterable) -> list:
        tasks = [(f"task[{index}]", item) for index, item in enumerate(items)]
        pending = iter(tasks)
        results: dict = {}
        self.stream(fn, lambda: next(pending, None), results.__setitem__)
        return [results[key] for key, _ in tasks]

    def stream(
        self,
        fn: Callable,
        next_task: Callable[[], tuple[str, object] | None],
        on_result: Callable[[str, object], None],
        *,
        on_poll: Callable[[], None] | None = None,
    ) -> None:
        """Run ``fn`` over tasks pulled as worker slots free up.

        ``next_task()`` returns a ``(key, item)`` pair, or ``None`` when
        nothing is ready to submit; the stream ends once it returns
        ``None`` with nothing in flight.  ``key`` is a unique string that
        names the task in supervisor events.  Each result — or a
        :class:`SupervisorFault` — is handed to ``on_result(key, result)``
        as it lands, so the callback may make further tasks ready.
        ``on_poll()``, when given, runs at every wake-up (at least every
        ``poll_s``) and may call :meth:`drain`.

        An exception raised by ``fn`` in a worker, or by either callback,
        kills the pool's workers and propagates unchanged.
        """
        inflight: dict[Future, _Flight] = {}
        # Innocents of a hang-kill, resubmitted ahead of new work.
        requeued: deque[_Flight] = deque()
        # Isolation queue: tasks condemned by a pool crash, replayed one
        # at a time so a repeat crash identifies its culprit.
        suspects: deque[_Flight] = deque()
        strikes: dict[str, int] = {}
        wall_spent: dict[str, float] = {}

        def submit(flight: _Flight) -> None:
            future = self._ensure_pool().submit(fn, flight.item)
            flight.submitted_at = time.monotonic()
            flight.started_at = None
            inflight[future] = flight

        def fill() -> None:
            if self._draining:
                for flight in (*requeued, *suspects):
                    on_result(flight.key, _INTERRUPTED)
                requeued.clear()
                suspects.clear()
                return
            if suspects:
                # Isolation mode: drain in-flight work first, then replay
                # suspects strictly one at a time.
                if not inflight:
                    submit(suspects.popleft())
                return
            while len(inflight) < self.workers:
                if requeued:
                    submit(requeued.popleft())
                    continue
                task = next_task()
                if task is None:
                    return
                submit(_Flight(*task))

        polling = self.task_timeout_s is not None or on_poll is not None
        try:
            while True:
                if on_poll is not None:
                    on_poll()
                fill()
                if not inflight:
                    return
                now = time.monotonic()
                for future, flight in inflight.items():
                    if flight.started_at is None and future.running():
                        flight.started_at = now
                done, _ = wait(
                    set(inflight),
                    timeout=self.poll_s if polling else None,
                    return_when=FIRST_COMPLETED,
                )
                broken = False
                for future in done:
                    try:
                        result = future.result()
                    except BrokenProcessPool:
                        broken = True
                        continue
                    on_result(inflight.pop(future).key, result)
                if broken:
                    self._handle_crash(
                        self._condemn(inflight, on_result),
                        suspects, strikes, wall_spent, on_result,
                    )
                elif self.task_timeout_s is not None:
                    self._sweep_deadlines(
                        inflight, requeued, suspects, wall_spent, on_result
                    )
        except BaseException:
            kill_pool_processes(self._pool)
            self._pool = None
            raise

    @staticmethod
    def _condemn(inflight: dict, on_result) -> list[_Flight]:
        """Empty *inflight*: deliver finished results, return the rest."""
        condemned: list[_Flight] = []
        for future, flight in inflight.items():
            if future.done() and future.exception() is None:
                on_result(flight.key, future.result())
            else:
                condemned.append(flight)
        inflight.clear()
        return condemned

    # -- hang handling -----------------------------------------------------

    def _sweep_deadlines(self, inflight, requeued, suspects, wall_spent,
                         on_result):
        now = time.monotonic()
        hung = [
            future
            for future, flight in inflight.items()
            if not future.done()
            and flight.started_at is not None
            and now - flight.started_at > self.task_timeout_s
        ]
        if not hung:
            return
        hung_flights = [inflight.pop(future) for future in hung]
        innocents = self._condemn(inflight, on_result)
        for flight in hung_flights:
            wall = now - flight.started_at
            emit(SupervisorEvent(
                action="hang-kill",
                task=flight.key,
                detail=(
                    f"no result after {wall:.1f}s "
                    f"(deadline {self.task_timeout_s:.1f}s); "
                    f"worker pool killed"
                ),
                wall_s=wall,
            ))
            on_result(flight.key, SupervisorFault(
                kind="hang",
                error=(
                    f"task hung: no result after {wall:.1f}s "
                    f"(hard deadline {self.task_timeout_s:.1f}s); "
                    f"worker killed"
                ),
                attempts=1,
                wall_s=wall + wall_spent.get(flight.key, 0.0),
            ))
        # Innocent in-flight tasks go back to the *front* of the line —
        # they were already scheduled, so they keep their place.
        for flight in innocents:
            wall_spent[flight.key] = (
                wall_spent.get(flight.key, 0.0) + (now - flight.submitted_at)
            )
            emit(SupervisorEvent(
                action="requeue",
                task=flight.key,
                detail="in flight during a hang-kill; rescheduled",
            ))
        (suspects if suspects else requeued).extendleft(reversed(innocents))
        self._kill_and_respawn(
            reason=f"{len(hung)} task(s) past the {self.task_timeout_s:.1f}s "
            f"hard deadline"
        )

    # -- crash handling ----------------------------------------------------

    def _handle_crash(self, condemned, suspects, strikes, wall_spent,
                      on_result):
        if self._draining:
            # The drain's signal took the pool down: nothing is replayed.
            kill_pool_processes(self._pool)
            self._pool = None
            for flight in condemned:
                on_result(flight.key, _INTERRUPTED)
            return
        now = time.monotonic()
        emit(SupervisorEvent(
            action="crash",
            task=condemned[0].key if len(condemned) == 1 else "",
            detail=(
                f"worker process died; {len(condemned)} in-flight "
                f"task(s) condemned"
            ),
        ))
        for flight in condemned:
            wall_spent[flight.key] = (
                wall_spent.get(flight.key, 0.0) + (now - flight.submitted_at)
            )
        if len(condemned) == 1:
            # Running alone (isolation mode, or a one-task tail): the
            # culprit is identified beyond doubt.
            flight = condemned[0]
            key = flight.key
            strikes[key] = strikes.get(key, 0) + 1
            if strikes[key] > self.crash_retries:
                emit(SupervisorEvent(
                    action="give-up",
                    task=key,
                    detail=(
                        f"crashed the worker {strikes[key]} time(s); "
                        f"handing to the caller"
                    ),
                ))
                on_result(key, SupervisorFault(
                    kind="crash",
                    error=(
                        f"worker process died under this task "
                        f"{strikes[key]} time(s) (segfault/os._exit?)"
                    ),
                    attempts=strikes[key],
                    wall_s=wall_spent[key],
                ))
            else:
                suspects.appendleft(flight)
        else:
            # The culprit is unidentifiable: isolate everyone.  No strikes
            # for the innocent — they are simply replayed one at a time.
            for flight in condemned:
                emit(SupervisorEvent(
                    action="requeue",
                    task=flight.key,
                    detail="condemned by a worker crash; isolating",
                ))
            suspects.extend(condemned)
        self._kill_and_respawn(reason="worker process crash")
