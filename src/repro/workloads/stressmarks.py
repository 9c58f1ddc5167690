"""Manually engineered stressmarks: SM1, SM2, SM-Res (and canned AUDIT outputs).

Paper Section V.A.2: "The manual stressmarks are the result either of past
di/dt issues or a non-trivial design effort (on the order of a week per
stressmark) from a highly skilled engineer with detailed knowledge of the
pipeline architecture."  We encode that knowledge directly:

* **SM-Res** — hand-tuned resonant loop, "regular in using floating-point
  and SIMD instructions during the high-power phase"; built for the known
  first-droop period of the primary testbed.
* **SM1** — a collected stressmark with both excitation and (slightly
  detuned) resonant content; FMA4-heavy, so it cannot run on the Phenom II
  (Section V.C).
* **SM2** — designed to exercise **sensitive paths** (integer multiply,
  divides, load/store address paths); its droop is comparable to standard
  benchmarks, yet it fails at a much higher voltage (Section V.A.4).
* ``a_res_canned`` / ``a_ex_canned`` — frozen, representative AUDIT outputs
  (int+FP mix with sprinkled NOPs) for tests and examples that must not pay
  for a GA run.  The real thing comes from :class:`repro.core.audit.AuditRunner`.

All factories take the resonant period so they can be retuned per testbed —
exactly what the human expert would have to redo by hand.
"""

from __future__ import annotations

from repro.errors import WorkloadError
from repro.isa.instruction import make_independent
from repro.isa.kernels import LoopKernel, ThreadProgram, nop_region
from repro.isa.opcodes import OpcodeTable

#: Loop-trip count for stressmark programs.
STRESSMARK_ITERATIONS = 4096


def _interleave(*groups) -> tuple:
    """Round-robin interleave instruction groups (regular hand-coded style)."""
    out = []
    iters = [iter(g) for g in groups]
    alive = True
    while alive:
        alive = False
        for it in iters:
            inst = next(it, None)
            if inst is not None:
                out.append(inst)
                alive = True
    return tuple(out)


def sm_res(
    table: OpcodeTable,
    *,
    period_cycles: int = 32,
    fp_width: int = 2,
    decode_width: int = 4,
) -> LoopKernel:
    """Hand-tuned first-droop **resonant** stressmark (pure FP/SIMD HP)."""
    if period_cycles < 4:
        raise WorkloadError("period too short for a resonant stressmark")
    hp_ops = (period_cycles * fp_width) // 2
    fma = table.get("vfmaddpd") if "vfmaddpd" in table else table.get("mulpd")
    hp = make_independent(fma, hp_ops)
    lp_nops = max(0, period_cycles * decode_width - len(hp) - 1)
    return LoopKernel(hp=hp, lp=nop_region(table.nop, lp_nops), name="SM-Res")


def sm1(
    table: OpcodeTable,
    *,
    period_cycles: int = 32,
    fp_width: int = 2,
    decode_width: int = 4,
) -> LoopKernel:
    """Collected stressmark SM1: excitation plus detuned resonant content.

    Runs its HP/LP pattern at ~1.25x the true resonant period — close
    enough to pick up partial amplification (it was collected on an older
    part whose resonance sat elsewhere), with a hard FMA4 dependence.
    """
    detuned = int(round(period_cycles * 1.15))
    hp_ops = (detuned * fp_width) // 2
    half = hp_ops // 2
    rest = hp_ops - half
    # Section A: the FP/SIMD near-resonant burst.
    fp_section = _interleave(
        make_independent(table.get("vfmaddpd"), half),
        make_independent(table.get("mulps"), rest // 2),
        make_independent(table.get("paddd"), rest - rest // 2),
    )
    # Section B: an integer/memory burst — a separate stress path that FPU
    # throttling cannot touch ("FPU throttling does not affect all stress
    # paths in SM1", paper Section V.B).
    int_section = (
        make_independent(table.get("add"), detuned)
        + make_independent(table.get("imul"), detuned // 4)
        + make_independent(table.get("load"), detuned // 2)
        + make_independent(table.get("store"), detuned // 4)
    )
    gap = nop_region(table.nop, detuned * decode_width // 2)
    hp = fp_section + gap + int_section
    lp_nops = max(0, detuned * decode_width - len(fp_section) - 1)
    return LoopKernel(hp=hp, lp=nop_region(table.nop, lp_nops), name="SM1")


def sm2(
    table: OpcodeTable,
    *,
    period_cycles: int = 32,
    decode_width: int = 4,
) -> LoopKernel:
    """Sensitive-path stressmark SM2: modest droop, early failure.

    Integer multiplies, divides, and load/store traffic exercise the long
    carry-chain and address-generation paths (high ``path_sensitivity``),
    at a deliberately off-resonance period and moderate power.
    """
    hp = _interleave(
        make_independent(table.get("imul"), 8),
        make_independent(table.get("load"), 8),
        make_independent(table.get("lea"), 4),
        make_independent(table.get("idiv"), 1),
    )
    lp_nops = max(0, 6 * period_cycles * decode_width - len(hp) - 1)
    return LoopKernel(hp=hp, lp=nop_region(table.nop, lp_nops), name="SM2")


def a_res_canned(
    table: OpcodeTable,
    *,
    period_cycles: int = 32,
    fp_width: int = 2,
    decode_width: int = 4,
) -> LoopKernel:
    """A frozen, representative AUDIT resonant stressmark.

    Mixes FP and integer clusters and sprinkles NOPs in the HP region —
    the structure the paper's loop analysis found in the real A-Res
    (Section V.A.5).  Slightly stronger than SM-Res because the integer
    ops add power on top of the saturated FP pipes.
    """
    # The GA's structural insight (paper Section V.A.5): saturate the FP
    # pipes for half the period AND keep the dedicated integer clusters
    # busy in parallel, with a few NOPs holding the decode pattern — the
    # integer work adds current on top of what a pure-FP expert loop draws.
    fma = table.get("vfmaddpd") if "vfmaddpd" in table else table.get("mulpd")
    fp_ops = (period_cycles * fp_width) // 2           # period/2 of FP issue
    half_period = max(1, period_cycles // 2)
    int_budget = half_period * decode_width - fp_ops    # leftover decode slots
    n_add = max(1, int_budget // 2 - 2)
    n_imul = max(1, int_budget // 8)
    n_load = max(1, int_budget // 8)
    n_nops = max(1, int_budget - n_add - n_imul - n_load - 1)
    # FP block first so the out-of-order window holds a full half-period of
    # FMA issue; the integer work then decodes behind it and executes in
    # parallel on the dedicated integer cluster during the same HP window.
    hp = (
        make_independent(fma, fp_ops)
        # imul decodes right behind the FMA block, so its 4-cycle execution
        # spans the middle of the HP burst — where the droop bottoms out.
        + make_independent(table.get("imul"), n_imul)
        + make_independent(table.get("add"), n_add)
        + make_independent(table.get("load"), n_load)
        + nop_region(table.nop, n_nops)
    )
    lp_nops = max(0, period_cycles * decode_width - len(hp) - 1)
    return LoopKernel(hp=hp, lp=nop_region(table.nop, lp_nops), name="A-Res")


def a_ex_canned(
    table: OpcodeTable,
    *,
    period_cycles: int = 32,
    fp_width: int = 2,
    decode_width: int = 4,
) -> LoopKernel:
    """A frozen, representative AUDIT excitation stressmark.

    One large low→high event per (long) loop: the LP region is many
    resonant periods long, so each burst rings in isolation.
    """
    hp_ops = period_cycles * fp_width  # a full period of saturated issue
    hp = _interleave(
        make_independent(table.get("mulpd"), hp_ops // 2),
        make_independent(table.get("vfmaddpd") if "vfmaddpd" in table
                         else table.get("mulps"), hp_ops - hp_ops // 2),
        make_independent(table.get("add"), hp_ops // 3),
    )
    lp_nops = 10 * period_cycles * decode_width
    return LoopKernel(hp=hp, lp=nop_region(table.nop, lp_nops), name="A-Ex")


def joseph_brooks(
    table: OpcodeTable,
    *,
    burst_loads: int = 24,
    burst_stores: int = 8,
    divide_chain: int = 3,
) -> LoopKernel:
    """The hand-coded di/dt stressmark of Joseph, Brooks & Martonosi [10].

    Paper Section VI: "a sequence in which a high-current instruction
    follows a low-current instruction.  The high-current component typically
    consisted of a memory load/store instruction and the low-current
    component consisted of a divide instruction followed by a dependent
    instruction, resulting in a long pipeline stall ... increased current
    draw by accessing L1 and L2 data caches."

    Included as a baseline comparator: crafted for a specific
    microarchitecture from known per-instruction current draw, it excites a
    strong single event but was never tuned to any PDN resonance.
    """
    from dataclasses import replace as _replace

    # High-current phase: L1/L2 load/store burst.
    loads = make_independent(table.get("load"), burst_loads)
    loads = tuple(
        inst if i % 2 == 0 else _replace(inst, memory_level="l2")
        for i, inst in enumerate(loads)
    )
    stores = make_independent(table.get("store"), burst_stores)
    hp = _interleave(loads, stores)
    # Low-current phase: serial divides stall the pipeline.
    from repro.isa.instruction import make_chain

    lp = make_chain(table.get("idiv"), divide_chain)
    return LoopKernel(hp=hp, lp=lp, name="JB-didt")


def stressmark_program(kernel: LoopKernel) -> ThreadProgram:
    """Wrap a stressmark kernel in a runnable program."""
    return ThreadProgram(kernel, STRESSMARK_ITERATIONS)


#: Canned stressmarks buildable by name (``repro qualify``, registry verify).
CANNED_STRESSMARKS = ("a-res", "a-ex", "sm-res", "sm1", "sm2", "joseph-brooks")


def canned_stressmark(name: str, table: OpcodeTable) -> LoopKernel:
    """Build the canned stressmark *name* against the opcode pool *table*.

    The single name→builder mapping shared by the CLI and the registry's
    replay verification, so a record that says ``"stressmark": "a-res"``
    re-measures through exactly the kernel ``repro qualify a-res`` used.
    """
    builders = {
        "a-res": a_res_canned,
        "a-ex": a_ex_canned,
        "sm-res": sm_res,
        "sm1": sm1,
        "sm2": sm2,
        "joseph-brooks": joseph_brooks,
    }
    try:
        builder = builders[name]
    except KeyError:
        raise WorkloadError(
            f"unknown stressmark {name!r} "
            f"(expected one of {', '.join(CANNED_STRESSMARKS)})"
        ) from None
    return builder(table)
