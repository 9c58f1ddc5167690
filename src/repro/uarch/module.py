"""Cycle-level module simulator.

Executes one or two :class:`~repro.isa.kernels.ThreadProgram` loops on a
module and produces the per-cycle **dynamic energy** and **path
sensitivity** traces the measurement platform converts into load current and
failure requirements.

The model is a steady-state loop scheduler with the structural hazards the
paper names (Section V.A.5): shared decode width, per-core integer unit
pools, the module-shared FP pipes (and optional FPU throttle), physical
register tokens, result buses, and true data dependencies through a rename
table.  NOPs retire at decode — they spend fetch/decode energy but no
back-end resources, which is why AUDIT's NOP-sprinkled loops can hold a
resonant period where an ADD-filled loop stretches (paper Section V.A.5,
reproduced by ``benchmarks/test_sec5a5_nop_analysis.py``).

Loops are assumed perfectly predicted (they are: a fixed-trip-count ``dec
rcx; jnz``), so there is no misprediction modelling here; benchmark-style
irregular activity is modelled separately in :mod:`repro.workloads`.

Because the scheduler is deterministic and the loop branch always goes the
same way, a run whose machine state repeats is periodic from then on.  Each
time thread 0 starts an iteration, :func:`_fast_forward` takes the state
relative to the current cycle (:func:`_machine_state`); at its first
repeat it copies whole periods of the trace forward instead of simulating
them, then simulates the remaining iterations and the drain.  The result is
bit-identical to simulating every cycle.  Runs that never repeat (threads
that do not share a period) are simulated in full.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from repro.errors import SchedulingError
from repro.isa.data_patterns import toggle_factor
from repro.isa.instruction import Instruction
from repro.isa.kernels import ThreadProgram
from repro.isa.opcodes import IClass, OpcodeSpec, Unit
from repro.uarch.caches import CacheLevel
from repro.uarch.config import DECODE_ENERGY_PJ, ChipConfig
from repro.uarch.resources import PerCycleLimiter, TokenPool, UnitPool

#: Synthetic macro-fused loop-close op (dec rcx + jnz): one ALU slot per
#: iteration, no modelled operands (the rcx chain is 1-cycle and never binds).
LOOP_CLOSE_SPEC = OpcodeSpec(
    mnemonic="dec+jnz",
    iclass=IClass.BRANCH,
    unit=Unit.IALU,
    latency=1,
    issue_interval=1,
    energy_pj=110.0,
    num_sources=0,
    has_dest=False,
    operand_class=None,
)

#: Hard cap on simulated cycles per run — a scheduling bug must fail loudly,
#: not hang a GA generation.
_MAX_CYCLES = 2_000_000


class _InFlight:
    """A decoded, not-yet-issued (or executing) instruction."""

    __slots__ = ("inst", "slot", "producers", "ready_cycle", "is_loop_close",
                 "token_pool")

    def __init__(self, inst: Instruction, slot: int, producers: list["_InFlight"],
                 is_loop_close: bool = False):
        self.inst = inst
        self.slot = slot  # position in the thread's loop body
        self.producers = producers
        self.ready_cycle: int | None = None  # set at issue
        self.is_loop_close = is_loop_close
        self.token_pool: TokenPool | None = None


class _ThreadState:
    """Decode/issue state of one hardware thread."""

    def __init__(self, program: ThreadProgram, config: ChipConfig, tid: int):
        core = config.module.core
        self.tid = tid
        self.program = program
        body = list(program.kernel.body)
        loop_close = Instruction(spec=LOOP_CLOSE_SPEC)
        self.body: list[Instruction] = body + [loop_close]
        self.pos = 0
        self.iteration = 0
        self.target_iterations = program.iterations
        self.start_cycle = program.phase_cycles
        self.iter_start_cycles: list[int] = []
        self.window: list[_InFlight] = []
        self.window_capacity = core.scheduler_window
        self.rename: dict = {}
        self.ialu = UnitPool(core.int_alu_count, "ialu")
        self.agu = UnitPool(core.agu_count, "agu")
        self.imul = UnitPool(core.imul_count, "imul")
        self.result_bus = PerCycleLimiter(core.result_buses, "result-bus")
        self.int_tokens = TokenPool(core.int_phys_regs, "int-prf")
        self.rob: list[_InFlight] = []
        self.retire_width = core.retire_width

    @property
    def decode_done(self) -> bool:
        return self.iteration >= self.target_iterations

    @property
    def drained(self) -> bool:
        return self.decode_done and not self.window and not self.rob

    def next_instruction(self) -> Instruction:
        return self.body[self.pos]

    def advance(self) -> None:
        self.pos += 1
        if self.pos >= len(self.body):
            self.pos = 0
            self.iteration += 1


@dataclass(frozen=True)
class ModuleStats:
    """Occupancy and stall counters from one module run.

    The observability the paper's loop analysis relies on: which unit pools
    a stressmark exercises and which resource hazards throttled it
    ("physical register availability, decode width capabilities,
    token-based scheduling restrictions, and result bus utilization").
    """

    issues_by_unit: dict
    decode_stalls: dict
    decoded_instructions: int
    retired_instructions: int

    def issue_share(self, unit_name: str) -> float:
        """Fraction of all issued ops that went to *unit_name*."""
        total = sum(self.issues_by_unit.values())
        if total == 0:
            return 0.0
        return self.issues_by_unit.get(unit_name, 0) / total


@dataclass(frozen=True)
class ModuleTrace:
    """Result of one module run.

    ``energy_pj``/``sensitivity`` are per-cycle; ``iter_start_cycles`` holds,
    per thread, the decode cycle of each loop iteration's first instruction.
    """

    energy_pj: np.ndarray
    sensitivity: np.ndarray
    iter_start_cycles: tuple[tuple[int, ...], ...]
    cycles: int
    stats: ModuleStats | None = None

    def steady_period(self, thread: int = 0, *, max_group: int = 12) -> float | None:
        """Average steady-state cycles per loop iteration for *thread*.

        Real loops often settle into a repeating *group* of iteration
        spacings rather than a single constant (e.g. 14,15,15,15 when the
        true initiation interval is 14.75 cycles), so this returns a float:
        the mean spacing over the smallest repeating group found in the last
        iterations.  Returns None when no group of size <= *max_group*
        repeats.
        """
        starts = self.iter_start_cycles[thread]
        diffs = [b - a for a, b in zip(starts, starts[1:])]
        for group in range(1, max_group + 1):
            # Verify over several repetitions (not just one) so a short run
            # of equal spacings inside a longer pattern does not fool the
            # detector, while staying short enough to exclude the warm-up.
            window = min(len(diffs), max(12, 3 * group))
            if window < 3 * group:
                continue
            tail = diffs[-window:]
            if all(tail[i] == tail[i - group] for i in range(group, window)):
                return sum(tail[-group:]) / group
        return None

    def periodic_profile(
        self, *, max_group: int = 12
    ) -> tuple[np.ndarray, np.ndarray, int] | None:
        """A verified steady-state period of the module-combined activity.

        Returns ``(energy_pj, sensitivity, period_cycles)`` for one full
        period of the *combined* (all threads) per-cycle activity, or None
        when the run never became periodic (heterogeneous threads that do
        not share a period — the caller then falls back to the raw trace).
        The check is literal: the extracted window must equal the window
        that precedes it, sample for sample.
        """
        starts = self.iter_start_cycles[0]
        for group in range(1, max_group + 1):
            if len(starts) < 2 * group + 2:
                break
            anchor = starts[-1]
            period = anchor - starts[-1 - group]
            if period <= 0 or anchor - 2 * period < 0:
                continue
            current = self.energy_pj[anchor - period : anchor]
            previous = self.energy_pj[anchor - 2 * period : anchor - period]
            if not np.allclose(current, previous, rtol=1e-9, atol=1e-9):
                continue
            sens = self.sensitivity[anchor - period : anchor]
            prev_sens = self.sensitivity[anchor - 2 * period : anchor - period]
            if not np.allclose(sens, prev_sens, rtol=1e-9, atol=1e-9):
                continue
            return current.copy(), sens.copy(), period
        return None


class ModuleSimulator:
    """Runs thread programs on one module of a :class:`ChipConfig`."""

    def __init__(self, config: ChipConfig):
        self.config = config

    def run(
        self,
        programs: list[ThreadProgram],
        *,
        max_iterations: int | None = None,
    ) -> ModuleTrace:
        """Simulate *programs* (one per thread) to completion.

        ``max_iterations`` caps each thread's loop trips below its program's
        own count — callers measuring a steady-state profile only need a few
        dozen iterations, not the M thousands a real run would execute.
        """
        module = self.config.module
        if not 1 <= len(programs) <= module.threads:
            raise SchedulingError(
                f"module supports 1..{module.threads} threads, got {len(programs)}"
            )
        for program in programs:
            self._check_extensions(program)

        threads = []
        for tid, program in enumerate(programs):
            state = _ThreadState(program, self.config, tid)
            if max_iterations is not None:
                state.target_iterations = min(state.target_iterations, max_iterations)
            threads.append(state)

        capacity = max(
            sum(t.target_iterations for t in threads) * (max(len(t.body) for t in threads) + 8) * 4,
            4096,
        )
        energy = np.zeros(capacity)
        sens = np.zeros(capacity)

        fp_pools = {
            Unit.FPU: UnitPool(module.fp_arith_pipes, "fp-arith"),
            Unit.FSIMD: UnitPool(module.fp_simd_pipes, "fp-simd"),
        }
        fp_tokens = TokenPool(module.fp_phys_regs, "fp-prf")
        fp_throttle = (
            PerCycleLimiter(module.fp_throttle, "fp-throttle")
            if module.fp_throttle is not None
            else None
        )

        counters = {
            "issues": {},
            "decode_stalls": {"window": 0, "int_tokens": 0, "fp_tokens": 0},
            "decoded": 0,
            "retired": 0,
        }
        # Machine states seen at thread 0's iteration starts; None once a
        # repeat has been fast-forwarded.
        seen: dict | None = {}
        observed_iteration = -1
        cycle = 0
        last_cycle = 0
        while not all(t.drained for t in threads):
            if cycle >= _MAX_CYCLES:
                raise SchedulingError("simulation exceeded cycle cap")
            if cycle >= capacity:
                energy = np.concatenate([energy, np.zeros(capacity)])
                sens = np.concatenate([sens, np.zeros(capacity)])
                capacity *= 2
            fp_tokens.advance_to(cycle)
            for t in threads:
                t.int_tokens.advance_to(cycle)

            lead = threads[0]
            if seen is not None and lead.iteration > observed_iteration:
                observed_iteration = lead.iteration
                skipped = _fast_forward(seen, threads, fp_pools, fp_tokens,
                                        fp_throttle, energy, sens, counters, cycle)
                if skipped:
                    seen = None
                    cycle += skipped
                    last_cycle = cycle - 1
                    continue

            order = threads if cycle % 2 == 0 else list(reversed(threads))
            self._decode_cycle(order, module.decode_width, fp_tokens, energy,
                               cycle, counters)
            issued_any = self._issue_cycle(
                order, fp_pools, fp_tokens, fp_throttle, energy, sens, cycle,
                counters,
            )
            if issued_any or any(
                not t.decode_done and cycle >= t.start_cycle for t in threads
            ):
                last_cycle = cycle
            cycle += 1

        end = max(last_cycle + 1, 1)
        stats = ModuleStats(
            issues_by_unit=dict(counters["issues"]),
            decode_stalls=dict(counters["decode_stalls"]),
            decoded_instructions=counters["decoded"],
            retired_instructions=counters["retired"],
        )
        return ModuleTrace(
            energy_pj=energy[:end],
            sensitivity=sens[:end],
            iter_start_cycles=tuple(tuple(t.iter_start_cycles) for t in threads),
            cycles=end,
            stats=stats,
        )

    # ------------------------------------------------------------------
    def _check_extensions(self, program: ThreadProgram) -> None:
        available = self.config.extensions
        for inst in program.kernel.body:
            if not inst.spec.extensions <= available:
                missing = sorted(inst.spec.extensions - available)
                raise SchedulingError(
                    f"{self.config.name} does not support {inst.spec.mnemonic} "
                    f"(missing {missing})"
                )

    def _decode_cycle(self, order, decode_width, fp_tokens, energy,
                      cycle, counters) -> None:
        slots = decode_width
        blocked: set[int] = set()
        while slots > 0:
            progressed = False
            for t in order:
                if slots == 0:
                    break
                if t.tid in blocked or t.decode_done or cycle < t.start_cycle:
                    continue
                inst = t.next_instruction()
                if inst.is_nop:
                    energy[cycle] += inst.spec.energy_pj
                    counters["decoded"] += 1
                    if t.pos == 0:
                        t.iter_start_cycles.append(cycle)
                    t.advance()
                    slots -= 1
                    progressed = True
                    continue
                if len(t.window) >= t.window_capacity:
                    counters["decode_stalls"]["window"] += 1
                    blocked.add(t.tid)
                    continue
                if inst.spec.has_dest:
                    tokens = fp_tokens if inst.spec.is_fp else t.int_tokens
                    if not tokens.try_acquire():
                        key = "fp_tokens" if inst.spec.is_fp else "int_tokens"
                        counters["decode_stalls"][key] += 1
                        blocked.add(t.tid)
                        continue
                    acquired = tokens
                else:
                    acquired = None
                producers = [
                    t.rename[reg]
                    for reg in inst.reads
                    if reg in t.rename
                ]
                record = _InFlight(inst, t.pos, producers,
                                   is_loop_close=inst.spec is LOOP_CLOSE_SPEC)
                record.token_pool = acquired
                t.window.append(record)
                t.rob.append(record)
                for reg in inst.writes:
                    t.rename[reg] = record
                energy[cycle] += DECODE_ENERGY_PJ
                counters["decoded"] += 1
                if t.pos == 0:
                    t.iter_start_cycles.append(cycle)
                t.advance()
                slots -= 1
                progressed = True
            if not progressed:
                break

    def _issue_cycle(
        self, order, fp_pools, fp_tokens, fp_throttle, energy, sens, cycle,
        counters,
    ) -> bool:
        caches = self.config.caches
        issued_any = False
        for t in order:
            still_waiting: list[_InFlight] = []
            for record in t.window:
                inst = record.inst
                spec = inst.spec
                if not self._deps_ready(record, cycle):
                    still_waiting.append(record)
                    continue
                unit = self._unit_pool(t, fp_pools, spec.unit)
                if unit.free_pipes(cycle) == 0:
                    still_waiting.append(record)
                    continue
                if spec.is_fp and fp_throttle is not None and (
                    fp_throttle.used(cycle) >= fp_throttle.limit
                ):
                    still_waiting.append(record)
                    continue
                if spec.has_dest and t.result_bus.used(cycle) >= t.result_bus.limit:
                    still_waiting.append(record)
                    continue
                # Commit the issue.
                unit.try_issue(cycle, spec.issue_interval)
                if spec.is_fp and fp_throttle is not None:
                    fp_throttle.try_take(cycle)
                if spec.has_dest:
                    t.result_bus.try_take(cycle)
                latency = spec.latency
                extra_energy = 0.0
                if spec.memory:
                    level = CacheLevel(inst.memory_level)
                    latency = max(latency, caches.load_latency(level))
                    extra_energy = caches.access_energy(level)
                record.ready_cycle = cycle + latency
                exec_energy = spec.energy_pj * toggle_factor(inst.data) + extra_energy
                energy[cycle] += exec_energy
                if spec.path_sensitivity > 0:
                    end = record.ready_cycle
                    window = sens[cycle:end]
                    np.maximum(window, spec.path_sensitivity, out=window)
                unit_key = spec.unit.value
                counters["issues"][unit_key] = (
                    counters["issues"].get(unit_key, 0) + 1
                )
                issued_any = True
            t.window = still_waiting
            t.result_bus.forget_before(cycle - 2)
            # In-order retirement: physical-register tokens free only when
            # the op retires behind all older ops (paper Section V.A.5's
            # "physical register availability" hazard).  A slow op at the
            # ROB head holds every younger op's registers live.
            retired = 0
            while (t.rob and retired < t.retire_width
                   and t.rob[0].ready_cycle is not None
                   and t.rob[0].ready_cycle <= cycle):
                record = t.rob.pop(0)
                if record.token_pool is not None:
                    record.token_pool.release_at(cycle + 1)
                counters["retired"] += 1
                retired += 1
        if fp_throttle is not None:
            fp_throttle.forget_before(cycle - 2)
        return issued_any

    @staticmethod
    def _deps_ready(record: _InFlight, cycle: int) -> bool:
        for producer in record.producers:
            if producer.ready_cycle is None or producer.ready_cycle > cycle:
                return False
        return True

    @staticmethod
    def _unit_pool(thread: _ThreadState, fp_pools: dict, unit: Unit) -> UnitPool:
        if unit is Unit.IALU:
            return thread.ialu
        if unit is Unit.AGU:
            return thread.agu
        if unit is Unit.IMUL:
            return thread.imul
        pool = fp_pools.get(unit)
        if pool is None:
            raise SchedulingError(f"no unit pool for {unit!r}")
        return pool


def _machine_state(threads, fp_pools, fp_tokens, fp_throttle, sens,
                   cycle) -> tuple[tuple, int]:
    """The state that decides a run's future, taken relative to *cycle*.

    Taken at the start of *cycle*, after token releases are applied.  Two
    cycles with equal states evolve identically, shifted by their distance,
    for as long as no thread reaches its iteration target.  Times at or
    before *cycle* all behave alike and read 0; in-flight producers are ROB
    indices, or -1 once their result is ready.  The sensitivity already
    written past *cycle* comes from ops still in flight and is part of the
    state.  With two threads the cycle's parity is too, because decode and
    issue order alternate on odd cycles.

    Returns the state and the last cycle an in-flight op completes.
    """
    horizon = cycle
    per_thread = []
    for t in threads:
        index = {id(record): i for i, record in enumerate(t.rob)}

        def ref(record: _InFlight) -> int:
            ready = record.ready_cycle
            return -1 if ready is not None and ready <= cycle else index[id(record)]

        rob = []
        for record in t.rob:
            ready = record.ready_cycle
            if ready is not None:
                horizon = max(horizon, ready)
            pool = record.token_pool
            rob.append((
                record.slot,
                None if ready is None else max(0, ready - cycle),
                0 if pool is None else 1 if pool is t.int_tokens else 2,
                tuple(ref(p) for p in record.producers),
            ))
        per_thread.append((
            t.pos,
            max(0, t.start_cycle - cycle),
            tuple(rob),
            tuple(index[id(record)] for record in t.window),
            frozenset((reg, ref(record)) for reg, record in t.rename.items()),
            t.int_tokens.state(cycle),
            t.ialu.state(cycle),
            t.agu.state(cycle),
            t.imul.state(cycle),
            t.result_bus.state(cycle),
        ))
    shared = (
        tuple(pool.state(cycle) for pool in fp_pools.values()),
        fp_tokens.state(cycle),
        None if fp_throttle is None else fp_throttle.state(cycle),
    )
    parity = cycle % 2 if len(threads) == 2 else 0
    return (tuple(per_thread), shared, sens[cycle:horizon].tobytes(), parity), horizon


def _fast_forward(seen: dict, threads, fp_pools, fp_tokens, fp_throttle,
                  energy: np.ndarray, sens: np.ndarray, counters: dict,
                  cycle: int) -> int:
    """Skip whole periods once the machine state repeats; return cycles skipped.

    Called when thread 0 starts an iteration.  A new state is stored in
    *seen* with the cycle, iteration counts and counters it was taken at.
    On a repeat, period P is the distance to the earlier cycle.  The run
    skips as many whole periods as leave every thread short of its
    iteration target (so no thread reaches it inside a skipped period),
    stay under the cycle cap and fit the trace buffers.  Skipping tiles
    the period's energy and sensitivity in place, appends the shifted
    iteration starts, adds each counter's per-period change and moves
    every absolute time forward.
    """
    if any(t.decode_done for t in threads):
        return 0
    state, horizon = _machine_state(threads, fp_pools, fp_tokens, fp_throttle,
                                    sens, cycle)
    earlier = seen.get(state)
    if earlier is None:
        seen[state] = (
            cycle,
            tuple(t.iteration for t in threads),
            tuple(len(t.iter_start_cycles) for t in threads),
            copy.deepcopy(counters),
        )
        return 0
    first, iterations, start_counts, before = earlier
    period = cycle - first
    per_period = [t.iteration - done for t, done in zip(threads, iterations)]
    ahead = horizon - cycle
    periods = min(
        (_MAX_CYCLES - 1 - cycle) // period,
        (len(sens) - cycle - ahead) // period,
        *((t.target_iterations - 1 - t.iteration) // k
          for t, k in zip(threads, per_period) if k > 0),
    )
    if periods <= 0:
        return 0

    skip = periods * period
    end = cycle + skip
    in_flight = sens[cycle:horizon].copy()
    energy[cycle:end].reshape(periods, period)[:] = energy[first:cycle]
    sens[cycle:end].reshape(periods, period)[:] = sens[first:cycle]
    sens[end:end + ahead] = in_flight
    for t, k, count in zip(threads, per_period, start_counts):
        t.iteration += periods * k
        recent = t.iter_start_cycles[count:]
        t.iter_start_cycles.extend(
            start + n * period for n in range(1, periods + 1) for start in recent
        )
        for record in t.rob:
            if record.ready_cycle is not None:
                record.ready_cycle += skip
        for resource in (t.int_tokens, t.ialu, t.agu, t.imul, t.result_bus):
            resource.shift(skip)
    for resource in (*fp_pools.values(), fp_tokens, fp_throttle):
        if resource is not None:
            resource.shift(skip)
    for group in ("issues", "decode_stalls"):
        totals = counters[group]
        for key, value in totals.items():
            totals[key] = value + periods * (value - before[group].get(key, 0))
    for key in ("decoded", "retired"):
        counters[key] += periods * (counters[key] - before[key])
    return skip
