"""Provenance for registry records: platforms, hashes, environment.

A registry record must outlive the session that produced it, so the
identity of the measurement platform cannot be a live object — it is a
tiny *descriptor* (chip preset name, optional FP throttle, PDN die-stage
scale) from which :func:`build_platform` reconstructs the exact
:class:`~repro.core.platform.MeasurementPlatform` the CLI testbeds and
the fleet's :func:`~repro.fleet.shard.scenario_platform` build today.
:func:`hash_platform` then fingerprints the *constructed* configuration
(every chip and PDN parameter, via the frozen dataclasses' reprs), so
``registry verify`` can detect that a preset drifted since publication
even before re-measuring.

:func:`provenance_stamp` collects the non-identity context — wall-clock
time, ``git describe``, package version, CLI argv — that travels with a
record but is excluded from its content hash (see
:mod:`repro.registry.record`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import subprocess
import sys
import time

from repro import package_version
from repro.core.platform import MeasurementPlatform
from repro.errors import RegistryError
from repro.pdn.elements import bulldozer_pdn, phenom_pdn
from repro.uarch.config import bulldozer_chip, phenom_chip

_CHIP_PRESETS = {"bulldozer": bulldozer_chip, "phenom": phenom_chip}
_PDN_PRESETS = {"bulldozer": bulldozer_pdn, "phenom": phenom_pdn}

#: Die-stage fields scaled by the pdn tolerance axis — must match
#: :data:`repro.fleet.shard._DIE_FIELDS`.
_DIE_FIELDS = ("resistance_ohm", "inductance_h", "capacitance_f", "esr_ohm")


def platform_descriptor(chip: str, *, throttle: int | None = None,
                        pdn_scale: float = 1.0) -> dict:
    """The portable description of a measurement platform."""
    if chip not in _CHIP_PRESETS:
        raise RegistryError(
            f"unknown chip preset {chip!r} "
            f"(expected one of {', '.join(sorted(_CHIP_PRESETS))})"
        )
    return {
        "chip": chip,
        "throttle": None if throttle is None else int(throttle),
        "pdn_scale": float(pdn_scale),
    }


def build_platform(descriptor: dict) -> MeasurementPlatform:
    """Reconstruct the platform a descriptor was taken from.

    Mirrors the CLI testbeds (chip preset + optional FP throttle, default
    jitter seed) and the fleet's die-stage PDN scaling, so a record
    published by any of the three paths rebuilds bit-identically.
    """
    chip_name = descriptor.get("chip")
    if chip_name not in _CHIP_PRESETS:
        raise RegistryError(
            f"record platform names unknown chip preset {chip_name!r}"
        )
    chip = _CHIP_PRESETS[chip_name]()
    throttle = descriptor.get("throttle")
    if throttle is not None:
        chip = chip.with_fp_throttle(int(throttle))
    pdn = _PDN_PRESETS[chip_name](vdd=chip.vdd)
    scale = float(descriptor.get("pdn_scale", 1.0))
    if scale != 1.0:
        scaled = {name: getattr(pdn.die, name) * scale for name in _DIE_FIELDS}
        pdn = dataclasses.replace(pdn, die=dataclasses.replace(pdn.die, **scaled))
    return MeasurementPlatform(chip, pdn)


def hash_platform(platform) -> str:
    """sha256 prefix over the full chip + PDN configuration.

    ``ChipConfig`` and the PDN parameter classes are frozen dataclasses,
    so :func:`dataclasses.asdict` enumerates every field; the canonical
    JSON rendering (sets sorted — their iteration order is randomized
    per process) fingerprints the complete electrical model a droop was
    measured on.  Two platforms with equal hashes produce bit-identical
    measurements for the same program.
    """
    payload = {
        "chip": _canonical(dataclasses.asdict(platform.chip)),
        "pdn": _canonical(dataclasses.asdict(platform.pipeline.pdn_stage.pdn)),
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _canonical(value):
    """JSON-serializable form with deterministic ordering for sets."""
    if isinstance(value, dict):
        return {str(key): _canonical(val) for key, val in value.items()}
    if isinstance(value, (set, frozenset)):
        return sorted(_canonical(item) for item in value)
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    return value


def git_describe() -> str:
    """``git describe --always --dirty`` of the source tree, or ``""``.

    Best-effort: a deployed package has no repository, and provenance
    must never fail a publish.
    """
    from pathlib import Path

    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=5.0,
            cwd=Path(__file__).resolve().parent,
        )
    except (OSError, subprocess.SubprocessError):
        return ""
    if out.returncode != 0:
        return ""
    return out.stdout.strip()


def telemetry_summary(collector) -> dict:
    """A compact counter + span rollup for a record's provenance stamp.

    Provenance is excluded from the content hash, so the summary may
    carry run-specific numbers (wall clock, span counts) without
    breaking registry deduplication.
    """
    metrics = collector.metrics
    summary = {
        "evaluations": metrics.counter("engine.evaluations"),
        "cache_hits": metrics.counter("engine.cache_hits"),
        "eval_wall_s": round(float(metrics.counter("engine.eval_wall_s")), 3),
        "generations": metrics.counter("span.count.ga.generation"),
    }
    span_counts = metrics.family("span.count")
    if span_counts:
        summary["spans"] = span_counts
        summary["span_wall_s"] = {
            name: round(wall, 3)
            for name, wall in metrics.family("span.wall_s").items()
        }
    if metrics.counter("span.lost"):
        summary["spans_lost"] = int(metrics.counter("span.lost"))
    return summary


def provenance_stamp(*, argv: list | None = None, campaign: str = "",
                     extra: dict | None = None) -> dict:
    """The non-identity context stored alongside a record.

    Excluded from the content hash by design: republishing the same
    result tomorrow, from a different checkout, must deduplicate.
    """
    stamp = {
        "created_at": time.time(),
        "git": git_describe(),
        "repro_version": package_version(),
        "python": sys.version.split()[0],
        "argv": list(sys.argv if argv is None else argv),
        "campaign": campaign,
    }
    if extra:
        stamp.update(extra)
    return stamp
