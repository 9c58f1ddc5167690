"""Process supervision: hard deadlines, crash recovery, graceful shutdown.

The fault layer in :mod:`repro.core.faults` handles errors a worker can
*report*; this package handles the failures it cannot — hung evaluations
and shards (:class:`~repro.supervision.executor.SupervisedExecutor` hard
deadlines, the only deadline in the repo), dead worker processes (pool
respawn + crash isolation), operator interruption
(:class:`~repro.supervision.shutdown.ShutdownCoordinator` → final
checkpoint + distinct exit code), and damaged checkpoints (verified salvage in
:mod:`repro.core.checkpoint`, exercised by :mod:`repro.supervision.chaos`).

See DESIGN.md §11 for the deadline/respawn/salvage state machine.
"""
