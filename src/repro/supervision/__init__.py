"""Process supervision: hard deadlines, crash recovery, graceful shutdown.

The fault layer in :mod:`repro.core.faults` handles errors a worker can
*report*; this package handles the failures it cannot — hung evaluations
and shards (:class:`SupervisedExecutor` hard deadlines, the only deadline
in the repo), dead worker processes (pool respawn + crash isolation),
operator interruption
(:class:`ShutdownCoordinator` → final checkpoint + distinct exit code),
and damaged checkpoints (verified salvage in
:mod:`repro.core.checkpoint`, exercised by :mod:`repro.supervision.chaos`).

See DESIGN.md §11 for the deadline/respawn/salvage state machine.
"""

from repro.supervision.executor import (
    SupervisedExecutor,
    SupervisionExhaustedError,
    SupervisorFault,
    WorkerCrashError,
    WorkerHangError,
    kill_pool_processes,
)
from repro.supervision.shutdown import ShutdownCoordinator

__all__ = [
    "ShutdownCoordinator",
    "SupervisedExecutor",
    "SupervisionExhaustedError",
    "SupervisorFault",
    "WorkerCrashError",
    "WorkerHangError",
    "kill_pool_processes",
]
