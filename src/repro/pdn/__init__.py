"""Power-distribution-network substrate: lumped RLC ladder + solvers.

The paper's PDN abstraction (Fig. 2/3): a board/package/die RLC ladder whose
L-C interactions produce the first/second/third droop resonances.  This
package provides the parameter presets, the state-space network, an
HSPICE-equivalent transient solver, and frequency-domain resonance analysis.
"""
