"""Loop kernels: the unit of work AUDIT generates and measures.

A di/dt stressmark (paper Fig. 7) is a loop whose body has a **high-power
region** (H cycles of dense, energetic instructions) followed by a
**low-power region** (L cycles — NOPs on the evaluated processor, see paper
Section III.C).  The loop repeats for M iterations so the periodic current
excites the PDN resonance.

The HP region is structured as S replicated **sub-blocks** of K cycles each
(hierarchical generation, Section III.C): AUDIT's GA only searches the
sub-block, shrinking the solution space.

This module holds the data model only; scheduling (how many cycles the body
*actually* takes on a given machine) lives in :mod:`repro.uarch`.
"""

from __future__ import annotations

import dataclasses
import hashlib
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from repro.errors import IsaError
from repro.isa.instruction import Instruction, nop
from repro.isa.opcodes import OpcodeSpec


#: Field names per dataclass type met by :func:`_encode`.
_FIELD_NAMES: dict[type, tuple[str, ...]] = {}


def _encode(value, memo: dict) -> str:
    """Deterministic text encoding of an ISA value object.

    Unlike ``repr``, sets are encoded sorted, so the result does not
    depend on ``PYTHONHASHSEED``.  *memo* maps ``id`` to encoding for the
    dataclass instances a kernel shares (replicated sub-blocks reuse one
    instruction object, every instruction reuses its opcode spec).
    """
    if isinstance(value, Enum):
        return repr(value.value)
    if isinstance(value, (str, int, float, type(None))):
        return repr(value)
    if isinstance(value, tuple):
        return "(" + ",".join(_encode(v, memo) for v in value) + ")"
    if isinstance(value, frozenset):
        return "{" + ",".join(sorted(_encode(v, memo) for v in value)) + "}"
    encoded = memo.get(id(value))
    if encoded is None:
        names = _FIELD_NAMES.get(type(value))
        if names is None:
            names = tuple(f.name for f in dataclasses.fields(value))
            _FIELD_NAMES[type(value)] = names
        encoded = memo[id(value)] = type(value).__name__ + "(" + ",".join(
            _encode(getattr(value, name), memo) for name in names
        ) + ")"
    return encoded


def _encode_instruction(inst: Instruction, memo: dict) -> str:
    """:func:`_encode` of *inst*, the same text, without the generic dispatch.

    Spells out :class:`Instruction`'s fields in declaration order and looks
    the shared spec and registers up in *memo* first.  A kernel holds one
    object per NOP slot, so most of its instructions are encoded here.
    """
    encoded = memo.get(id(inst))
    if encoded is None:
        spec = memo.get(id(inst.spec)) or _encode(inst.spec, memo)
        dest = ("None" if inst.dest is None
                else memo.get(id(inst.dest)) or _encode(inst.dest, memo))
        sources = ",".join([memo.get(id(reg)) or _encode(reg, memo)
                            for reg in inst.sources])
        encoded = memo[id(inst)] = (
            f"Instruction({spec},{dest},({sources}),{_encode(inst.data, memo)},"
            f"{inst.memory_level!r})"
        )
    return encoded


@dataclass(frozen=True)
class LoopKernel:
    """A loop body: HP instructions followed by LP instructions.

    ``hp`` and ``lp`` are in program order.  The loop-closing ``dec rcx;
    jnz`` pair is implicit: the machine model appends it (macro-fused, one
    slot) unless told otherwise.
    """

    hp: tuple[Instruction, ...]
    lp: tuple[Instruction, ...]
    name: str = "kernel"

    def __post_init__(self) -> None:
        if not self.hp and not self.lp:
            raise IsaError("a loop kernel needs at least one instruction")

    @property
    def body(self) -> tuple[Instruction, ...]:
        """HP followed by LP instructions."""
        return self.hp + self.lp

    def __len__(self) -> int:
        return len(self.hp) + len(self.lp)

    @property
    def fp_fraction(self) -> float:
        """Fraction of body instructions executing on the FP unit."""
        body = self.body
        if not body:
            return 0.0
        return sum(1 for i in body if i.spec.is_fp) / len(body)

    @property
    def nop_fraction(self) -> float:
        """Fraction of body instructions that are NOPs."""
        body = self.body
        return sum(1 for i in body if i.is_nop) / len(body)

    def mnemonic_histogram(self) -> Counter:
        """Counter of mnemonics over the whole body."""
        return Counter(i.spec.mnemonic for i in self.body)

    @cached_property
    def content_key(self) -> str:
        """SHA-256 hex digest over a deterministic encoding of the kernel.

        Computed once per instance; equal kernels share it in any process.
        An in-memory cache key only: nothing persists it.
        """
        memo: dict = {}
        digest = hashlib.sha256(repr(self.name).encode())
        for region in (self.hp, self.lp):
            digest.update(b"|")
            for inst in region:
                digest.update(_encode_instruction(inst, memo).encode())
                digest.update(b";")
        return digest.hexdigest()

    def with_name(self, name: str) -> "LoopKernel":
        """Copy of this kernel under a different name."""
        return LoopKernel(hp=self.hp, lp=self.lp, name=name)

    def with_lp(self, lp: tuple[Instruction, ...]) -> "LoopKernel":
        """Copy of this kernel with a replaced low-power region."""
        return LoopKernel(hp=self.hp, lp=lp, name=self.name)


def replicate_subblock(sub: tuple[Instruction, ...] | list[Instruction], count: int) -> tuple[Instruction, ...]:
    """Replicate a sub-block *count* times to form an HP region.

    Mirrors paper Section III.C: "AUDIT breaks the HP region into S
    replicated sub-blocks of length K".
    """
    if count < 1:
        raise IsaError("sub-block replication count must be >= 1")
    sub = tuple(sub)
    if not sub:
        raise IsaError("sub-block may not be empty")
    return sub * count


def nop_region(nop_spec: OpcodeSpec, count: int) -> tuple[Instruction, ...]:
    """A run of *count* NOPs (the LP region used throughout the paper)."""
    if count < 0:
        raise IsaError("NOP count must be non-negative")
    return tuple(nop(nop_spec) for _ in range(count))


def build_kernel(
    subblock: tuple[Instruction, ...] | list[Instruction],
    *,
    replications: int,
    lp_nops: int,
    nop_spec: OpcodeSpec,
    name: str = "kernel",
) -> LoopKernel:
    """Assemble the canonical hierarchical stressmark kernel.

    HP = *subblock* replicated *replications* times; LP = *lp_nops* NOPs.
    """
    hp = replicate_subblock(subblock, replications)
    lp = nop_region(nop_spec, lp_nops)
    return LoopKernel(hp=hp, lp=lp, name=name)


def with_data_pattern(kernel: LoopKernel, pattern) -> LoopKernel:
    """Copy of *kernel* with every instruction's operand data re-tagged.

    Used to reproduce the paper's Section III observation that operand data
    values change the measured droop by ~10 %: the same instruction stream
    measured with max-toggle versus all-zeros operands.
    """
    from dataclasses import replace as _replace

    hp = tuple(_replace(inst, data=pattern) for inst in kernel.hp)
    lp = tuple(_replace(inst, data=pattern) for inst in kernel.lp)
    return LoopKernel(hp=hp, lp=lp, name=kernel.name)


@dataclass(frozen=True)
class ThreadProgram:
    """A kernel bound to an iteration count, ready to run on one thread.

    ``iterations`` is M in the paper's notation: the number of loop periods
    executed, chosen large enough to build and sustain resonance.
    ``phase_cycles`` is an initial misalignment relative to the reference
    core, used by the dithering machinery and the OS-interference model.
    """

    kernel: LoopKernel
    iterations: int
    phase_cycles: int = 0

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise IsaError("iterations must be >= 1")
        if self.phase_cycles < 0:
            raise IsaError("phase_cycles must be non-negative")

    @cached_property
    def content_key(self) -> str:
        """SHA-256 hex digest over the kernel's key, iterations and phase.

        The caches of the measurement path key on it instead of hashing
        the whole frozen instruction tree on every lookup.  Computed once
        per instance; phase-shifted copies reuse their kernel's key.
        """
        return hashlib.sha256(
            f"{self.kernel.content_key}|{self.iterations}|{self.phase_cycles}".encode()
        ).hexdigest()

    def with_phase(self, phase_cycles: int) -> "ThreadProgram":
        """Copy of this program starting at a different phase offset."""
        return ThreadProgram(self.kernel, self.iterations, phase_cycles)
