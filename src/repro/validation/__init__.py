"""Always-on runtime invariant guards for the measurement stack.

The guards in :mod:`repro.validation.invariants` are cheap finite-value,
bounds, and consistency checks wired into the chip simulator, the PDN
transient solver, and the measurement platform.  They turn corrupt
numerics into a structured :class:`~repro.errors.InvariantViolation`
(routed through the fault policy) instead of letting NaN/Inf or truncated
traces score as fitness.
"""
