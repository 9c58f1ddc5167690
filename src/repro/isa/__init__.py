"""x86-flavoured instruction-set substrate for AUDIT stressmark generation.

Public surface:

* :class:`~repro.isa.opcodes.OpcodeTable` / :func:`~repro.isa.opcodes.default_table`
  — the instruction vocabulary, filterable by ISA extension.
* :class:`~repro.isa.instruction.Instruction` /
  :func:`~repro.isa.instruction.make_instruction` — concrete operations.
* :class:`~repro.isa.kernels.LoopKernel` / :class:`~repro.isa.kernels.ThreadProgram`
  — stressmark loop structure (HP sub-blocks + LP NOPs).
* :func:`~repro.isa.encoder.encode_program` — NASM source emission.
"""
