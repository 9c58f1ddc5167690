"""AUDIT reproduction: automated di/dt stressmark generation.

A full software reproduction of "AUDIT: Stress Testing the Automatic Way"
(Kim, John, Pant, Manne, Schulte, Bircher, Sibi Govindan - MICRO 2012):
closed-loop genetic-algorithm generation of voltage-droop stressmarks for
multi-core processors, evaluated on a software testbed (multi-module
pipeline model + RLC power-distribution network) that stands in for the
paper's AMD Bulldozer / Phenom II boards.

Quick tour::

    from repro.core.audit import AuditRunner
    from repro.experiments.setup import bulldozer_testbed

    platform = bulldozer_testbed()          # chip model + PDN + scope path
    result = AuditRunner(platform).run()    # resonance sweep + GA loop
    print(result.max_droop_v)

Sub-packages: :mod:`repro.isa` (instruction substrate), :mod:`repro.uarch`
(machine model), :mod:`repro.pdn` (power-delivery network), :mod:`repro.power`
(energy->current), :mod:`repro.measure` (scope + failure model),
:mod:`repro.osmodel` (OS interference), :mod:`repro.core` (AUDIT itself),
:mod:`repro.workloads` (stressmarks + synthetic benchmark suites),
:mod:`repro.analysis` and :mod:`repro.experiments` (paper figures/tables).
"""

__version__ = "1.0.0"


def package_version() -> str:
    """The installed distribution version, falling back to the source tree's.

    ``importlib.metadata`` reports what ``pip install`` actually put on the
    machine; a source checkout run via ``PYTHONPATH=src`` has no
    distribution, so the in-tree ``__version__`` stands in.
    """
    try:
        from importlib.metadata import PackageNotFoundError, version
    except ImportError:  # pragma: no cover - py3.11+ always has it
        return __version__
    try:
        return version("repro")
    except PackageNotFoundError:
        return __version__


__all__ = ["__version__", "package_version"]
