"""Back-end resource trackers used by the pipeline scheduler.

These are the structural hazards the paper's loop analysis names explicitly
(Section V.A.5): "resource hazards such as physical register availability,
decode width capabilities, token-based scheduling restrictions, and result
bus utilization impact the final outcome".
"""

from __future__ import annotations

from repro.errors import SchedulingError


class TokenPool:
    """A counted resource pool with deferred releases (physical registers).

    ``acquire`` takes a token immediately; ``release_at`` schedules the
    token's return at a future cycle, applied by ``advance_to``.
    """

    def __init__(self, capacity: int, name: str = "tokens"):
        if capacity < 1:
            raise SchedulingError(f"{name}: capacity must be >= 1")
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._releases: dict[int, int] = {}

    @property
    def available(self) -> int:
        return self.capacity - self._in_use

    def try_acquire(self) -> bool:
        """Take one token if available; return success."""
        if self._in_use >= self.capacity:
            return False
        self._in_use += 1
        return True

    def release_at(self, cycle: int) -> None:
        """Schedule one token to come back at *cycle*."""
        self._releases[cycle] = self._releases.get(cycle, 0) + 1

    def advance_to(self, cycle: int) -> None:
        """Apply all releases scheduled at or before *cycle*."""
        due = [c for c in self._releases if c <= cycle]
        for c in due:
            self._in_use -= self._releases.pop(c)
        if self._in_use < 0:
            raise SchedulingError(f"{self.name}: released more tokens than acquired")

    def state(self, now: int) -> tuple:
        """Tokens in use and pending releases, with release times relative to *now*."""
        pending = tuple(sorted((c - now, n) for c, n in self._releases.items()))
        return self._in_use, pending

    def shift(self, cycles: int) -> None:
        """Move every pending release *cycles* later."""
        self._releases = {c + cycles: n for c, n in self._releases.items()}


class UnitPool:
    """A pool of identical execution pipes with per-pipe busy times.

    Fully pipelined ops occupy a pipe for one cycle; long ops (dividers)
    block a pipe for their issue interval.
    """

    def __init__(self, count: int, name: str = "unit"):
        if count < 1:
            raise SchedulingError(f"{name}: need at least one pipe")
        self.name = name
        self._busy_until = [0] * count

    def try_issue(self, cycle: int, occupy_cycles: int) -> bool:
        """Claim a free pipe at *cycle* for *occupy_cycles*; return success."""
        if occupy_cycles < 1:
            raise SchedulingError(f"{self.name}: occupy_cycles must be >= 1")
        for idx, busy_until in enumerate(self._busy_until):
            if busy_until <= cycle:
                self._busy_until[idx] = cycle + occupy_cycles
                return True
        return False

    def free_pipes(self, cycle: int) -> int:
        """Number of pipes idle at *cycle*."""
        return sum(1 for b in self._busy_until if b <= cycle)

    def state(self, now: int) -> tuple:
        """Per-pipe busy times relative to *now*; an idle pipe reads 0."""
        return tuple(max(0, b - now) for b in self._busy_until)

    def shift(self, cycles: int) -> None:
        """Move every pipe's busy time *cycles* later."""
        self._busy_until = [b + cycles for b in self._busy_until]


class PerCycleLimiter:
    """Limits events per cycle (result buses, FP throttle).

    Stateless across cycles except a (cycle → count) map; ``try_take``
    increments the count for a cycle if under the limit.
    """

    def __init__(self, limit: int, name: str = "limiter"):
        if limit < 1:
            raise SchedulingError(f"{name}: limit must be >= 1")
        self.limit = limit
        self.name = name
        self._counts: dict[int, int] = {}

    def try_take(self, cycle: int) -> bool:
        """Reserve one slot in *cycle* if the limit allows."""
        used = self._counts.get(cycle, 0)
        if used >= self.limit:
            return False
        self._counts[cycle] = used + 1
        return True

    def used(self, cycle: int) -> int:
        return self._counts.get(cycle, 0)

    def forget_before(self, cycle: int) -> None:
        """Drop bookkeeping for cycles before *cycle* (bounded memory)."""
        stale = [c for c in self._counts if c < cycle]
        for c in stale:
            del self._counts[c]

    def state(self, now: int) -> tuple:
        """Counts at cycles >= *now*, relative to *now* (earlier ones never matter)."""
        return tuple(sorted((c - now, n) for c, n in self._counts.items() if c >= now))

    def shift(self, cycles: int) -> None:
        """Move every recorded count *cycles* later."""
        self._counts = {c + cycles: n for c, n in self._counts.items()}
