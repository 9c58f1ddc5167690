"""Platform descriptors, configuration hashing, provenance stamps."""

import subprocess
import sys
from pathlib import Path

import pytest

from repro import package_version
from repro.errors import RegistryError
from repro.registry import (
    build_platform,
    hash_platform,
    platform_descriptor,
    provenance_stamp,
)

SRC = str(Path(__file__).resolve().parents[2] / "src")


class TestDescriptor:
    def test_descriptor_fields(self):
        descriptor = platform_descriptor("phenom", pdn_scale=1.1)
        assert descriptor == {"chip": "phenom", "throttle": None,
                              "pdn_scale": 1.1}

    def test_unknown_chip_rejected(self):
        with pytest.raises(RegistryError, match="unknown chip"):
            platform_descriptor("epyc")

    def test_build_matches_cli_testbed(self):
        from repro.cli._common import _platform

        for chip in ("bulldozer", "phenom"):
            rebuilt = build_platform(platform_descriptor(chip))
            testbed = _platform(chip, None)
            assert hash_platform(rebuilt) == hash_platform(testbed)

    def test_throttle_changes_the_hash(self):
        nominal = build_platform(platform_descriptor("bulldozer"))
        throttled = build_platform(
            platform_descriptor("bulldozer", throttle=1))
        assert hash_platform(nominal) != hash_platform(throttled)

    def test_pdn_scale_changes_the_hash(self):
        nominal = build_platform(platform_descriptor("bulldozer"))
        scaled = build_platform(
            platform_descriptor("bulldozer", pdn_scale=1.1))
        assert hash_platform(nominal) != hash_platform(scaled)

    def test_pdn_scale_matches_fleet_shard_scaling(self):
        from repro.fleet.matrix import Scenario
        from repro.fleet.shard import scenario_platform

        scenario = Scenario(chip="bulldozer", pdn="+10%", threads=2)
        scaled = build_platform(
            platform_descriptor("bulldozer", pdn_scale=scenario.pdn_scale))
        assert hash_platform(scaled) == hash_platform(
            scenario_platform(scenario))


class TestHashStability:
    def test_hash_is_stable_across_processes(self):
        """frozenset iteration order is randomized per process; the hash
        must canonicalize it (a fresh interpreter must agree)."""
        local = hash_platform(build_platform(platform_descriptor("bulldozer")))
        code = (
            "import sys; sys.path.insert(0, {src!r})\n"
            "from repro.registry import (build_platform, hash_platform, "
            "platform_descriptor)\n"
            "print(hash_platform(build_platform("
            "platform_descriptor('bulldozer'))))"
        ).format(src=SRC)
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, timeout=60,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == local

    def test_hash_detects_preset_drift(self, platform):
        import dataclasses

        pdn = platform.pipeline.pdn_stage.pdn
        drifted = dataclasses.replace(
            pdn,
            die=dataclasses.replace(
                pdn.die,
                resistance_ohm=pdn.die.resistance_ohm * 1.01,
            ),
        )
        from repro.core.platform import MeasurementPlatform

        other = MeasurementPlatform(platform.chip, drifted)
        assert hash_platform(platform) != hash_platform(other)


class TestStamp:
    def test_stamp_fields(self):
        stamp = provenance_stamp(argv=["repro", "audit"], campaign="nightly",
                                 extra={"telemetry": {"evaluations": 3}})
        assert stamp["campaign"] == "nightly"
        assert stamp["argv"] == ["repro", "audit"]
        assert stamp["repro_version"] == package_version()
        assert stamp["created_at"] > 0
        assert stamp["telemetry"] == {"evaluations": 3}

    def test_version_is_package_metadata(self):
        assert package_version()
        assert package_version()[0].isdigit()
