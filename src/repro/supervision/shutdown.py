"""Graceful-shutdown coordination: signals and wall-clock budgets.

A fleet host stops a campaign in one of two sanctioned ways: it sends
SIGTERM/SIGINT, or the run exhausts a ``--max-wall-clock`` budget.  Either
way the campaign should *finish its in-flight generation, write a final
checkpoint, and exit with the distinct* :data:`~repro.errors.EXIT_INTERRUPTED`
*code* — "try again later", not "crashed".

:class:`ShutdownCoordinator` funnels both triggers into one poll-style
API.  The GA loop calls :meth:`stop_requested` at each generation boundary
(right after the checkpoint for that boundary has landed) and raises
:class:`~repro.errors.CampaignInterrupted` when it returns a reason.

Signal handling is cooperative-with-an-escape-hatch: the *first* SIGTERM or
SIGINT requests a graceful stop; a *second* delivery of the same signal
restores the default disposition and re-raises it, so an operator who has
lost patience can still kill the process the ordinary way (Ctrl-C twice).

The coordinator degrades gracefully off the main thread (where Python
forbids ``signal.signal``): the wall-clock budget still works, signals are
simply not intercepted.
"""

from __future__ import annotations

import os
import signal
import time
from collections.abc import Sequence

from repro.errors import ConfigurationError
from repro.obs.spans import current_tracer, span

__all__ = ["ShutdownCoordinator"]

_DEFAULT_SIGNALS = (signal.SIGTERM, signal.SIGINT)


class ShutdownCoordinator:
    """Turns SIGTERM/SIGINT and wall-clock budgets into a stop reason.

    Use as a context manager around the campaign::

        coordinator = ShutdownCoordinator(max_wall_clock_s=3600)
        with coordinator:
            runner.run(..., stop=coordinator.stop_requested)

    ``stop_requested()`` returns ``None`` while the run may continue, or a
    human-readable reason string (``"signal SIGTERM"``,
    ``"wall-clock budget (3600.0s)"``) once a stop has been requested.
    The reason is sticky — once set it never clears.
    """

    def __init__(
        self,
        *,
        max_wall_clock_s: float | None = None,
        signals: Sequence[signal.Signals] = _DEFAULT_SIGNALS,
    ):
        if max_wall_clock_s is not None and max_wall_clock_s < 0:
            raise ConfigurationError(
                f"max_wall_clock_s must be >= 0, got {max_wall_clock_s}"
            )
        self.max_wall_clock_s = max_wall_clock_s
        self.signals = tuple(signals)
        self.started_at = time.monotonic()
        self._reason: str | None = None
        self._announced = False
        self._previous: dict[int, object] = {}

    # -- signal plumbing ---------------------------------------------------

    def _on_signal(self, signum, frame) -> None:  # noqa: ARG002
        name = signal.Signals(signum).name
        if self._reason is not None:
            # Second delivery: the operator means it.  Restore the default
            # disposition and re-deliver so the process dies the normal way.
            signal.signal(signum, signal.SIG_DFL)
            os.kill(os.getpid(), signum)
            return
        self._request(f"signal {name}")

    def install(self) -> ShutdownCoordinator:
        """Install signal handlers (no-op off the main thread)."""
        for sig in self.signals:
            try:
                self._previous[sig] = signal.signal(sig, self._on_signal)
            except ValueError:
                # Not the main thread — wall-clock budget still applies.
                break
        return self

    def uninstall(self) -> None:
        for sig, previous in self._previous.items():
            try:
                signal.signal(sig, previous)
            except (ValueError, TypeError):  # pragma: no cover
                pass
        self._previous.clear()

    def __enter__(self) -> ShutdownCoordinator:
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()
        self.flush_sinks()

    # -- the stop poll -----------------------------------------------------

    def _request(self, reason: str) -> None:
        if self._reason is None:
            self._reason = reason

    def request(self, reason: str) -> None:
        """Programmatically request a graceful stop (first request wins)."""
        self._request(reason)

    def elapsed_s(self) -> float:
        return time.monotonic() - self.started_at

    def stop_requested(self) -> str | None:
        """Return the stop reason, or ``None`` to keep running.

        Checks the wall-clock budget on every call, so a budget overrun is
        noticed at the next generation boundary without any timer thread.
        """
        if (
            self._reason is None
            and self.max_wall_clock_s is not None
            and self.elapsed_s() >= self.max_wall_clock_s
        ):
            self._request(
                f"wall-clock budget ({self.max_wall_clock_s:g}s)"
            )
        if self._reason is not None and not self._announced:
            self._announced = True
            span(
                "supervisor.shutdown",
                task="",
                detail=self._reason,
                elapsed_s=self.elapsed_s(),
            ).close()
            # A drain is the last chance buffered sinks get before the
            # campaign unwinds: a SIGTERM that lands mid-generation must not
            # lose that generation's telemetry to an in-memory JSONL buffer.
            self.flush_sinks()
        return self._reason

    @staticmethod
    def flush_sinks() -> None:
        """Flush every sink of the installed tracer that has ``flush()``."""
        tracer = current_tracer()
        for sink in tracer.sinks if tracer is not None else ():
            flush = getattr(sink, "flush", None)
            if callable(flush):
                flush()
