"""Exception hierarchy for the AUDIT reproduction library.

All errors raised by :mod:`repro` derive from :class:`ReproError`, so callers
can catch library failures without catching unrelated bugs.
"""

from __future__ import annotations


#: Process exit codes (``sysexits``-adjacent; 70 = EX_SOFTWARE).  They live
#: here rather than in :mod:`repro.cli` because the fleet orchestrator
#: classifies shard failures with the same taxonomy without importing the
#: CLI package.
EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_CONFIG = 2
EXIT_FAULTS = 3
EXIT_INVARIANT = 4
EXIT_CRASH = 70
EXIT_INTERRUPTED = 75
"""A run stopped *on purpose* (SIGTERM/SIGINT or a ``--max-wall-clock``
budget) after finishing its in-flight generation and writing a final
checkpoint.  75 is sysexits' EX_TEMPFAIL: "try again later" — fleet
automation retries an interrupted shard, it does not triage it."""

#: Failure severity, worst first — a fleet with mixed shard failures exits
#: with the most severe code so automation sees the worst problem.  An
#: interruption is the least severe non-zero outcome: nothing is broken,
#: the work is merely unfinished.
EXIT_SEVERITY = (EXIT_CRASH, EXIT_INVARIANT, EXIT_FAULTS, EXIT_CONFIG,
                 EXIT_FAILURE, EXIT_INTERRUPTED)


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """A component was configured with inconsistent or out-of-range values."""


class IsaError(ReproError):
    """Invalid instruction, operand, or kernel construction."""


class SchedulingError(ReproError):
    """The pipeline scheduler could not place an instruction stream."""


class PdnError(ReproError):
    """Power-distribution-network model construction or simulation failed."""


class MeasurementError(ReproError):
    """An oscilloscope / measurement operation was misused."""


class InvariantViolation(MeasurementError):
    """A runtime invariant guard caught corrupt numerics mid-measurement.

    Raised by the always-on guards in :mod:`repro.validation` (wired into
    the chip simulator, the PDN transient solver, and the measurement
    platform) so that non-finite or physically impossible values surface as
    a structured fault — routed through the
    :class:`~repro.core.faults.FaultPolicy` — instead of scoring as
    fitness.  ``guard`` names the specific invariant (e.g.
    ``"voltage-finite"``) and ``layer`` the stack layer that fired
    (``"platform"``, ``"pdn"``, ``"uarch"``).
    """

    def __init__(self, guard: str, layer: str, message: str):
        super().__init__(f"[{layer}/{guard}] {message}")
        self.guard = guard
        self.layer = layer


class QuarantineExhaustedError(MeasurementError):
    """A genome's evaluation kept failing and the policy says to raise.

    Always raised ``from`` the last underlying error, so ``__cause__``
    carries the original fault; the CLI maps this class to its own exit
    code (fault budget exhausted, as opposed to a single hard error).
    """


class SearchError(ReproError):
    """A GA / AUDIT search was configured or driven incorrectly."""


class CheckpointError(ReproError):
    """A campaign checkpoint could not be written, read, or resumed."""


class CheckpointCorrupt(CheckpointError):
    """A checkpoint file failed integrity verification.

    Raised when a snapshot's bytes do not parse, do not match any hash in
    the store's sha256 manifest, or cannot be confirmed against the
    journal.  Distinct from plain :class:`CheckpointError` so resume
    logic can tell "the file is damaged — try salvage" apart from "the
    store was misused" (wrong version, wrong directory, bad config).
    """

    def __init__(self, path, reason: str):
        super().__init__(f"corrupt checkpoint {path}: {reason}")
        self.path = str(path)
        self.reason = reason


class CampaignInterrupted(ReproError):
    """A run was stopped gracefully (signal or wall-clock budget).

    Raised at a generation boundary after the final checkpoint landed, so
    the campaign is resumable from exactly where it stopped.  The CLI maps
    this to :data:`EXIT_INTERRUPTED` — "interrupted", not "crashed".
    """

    def __init__(self, reason: str, *, generation: int | None = None,
                 checkpoint_path: str = ""):
        detail = f" at generation {generation}" if generation is not None else ""
        where = f" (checkpoint: {checkpoint_path})" if checkpoint_path else ""
        super().__init__(f"campaign interrupted by {reason}{detail}{where}")
        self.reason = reason
        self.generation = generation
        self.checkpoint_path = checkpoint_path


class WorkloadError(ReproError):
    """A benchmark or stressmark definition is invalid."""


class RegistryError(ReproError):
    """A stressmark-registry operation failed (bad record, tampered
    object, unresolvable reference, or a damaged store)."""
