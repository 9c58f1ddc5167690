"""The ``repro registry`` command family and ``--version``, end to end."""

import json

import pytest

from repro import package_version
from repro.cli import main
from repro.errors import EXIT_FAILURE, EXIT_OK
from repro.registry.provenance import hash_platform
from repro.registry.store import StressmarkRegistry

from tests.registry.conftest import synthetic_record

AUDIT_FLAGS = ["--threads", "2", "--population", "4", "--generations", "1",
               "--seed", "7"]


@pytest.fixture(scope="module")
def published(tmp_path_factory):
    """One registry with a real audit record, published through the CLI."""
    registry_dir = tmp_path_factory.mktemp("registry")
    code = main(["audit", *AUDIT_FLAGS,
                 "--registry", str(registry_dir),
                 "--registry-campaign", "cli-test"])
    assert code == EXIT_OK
    registry = StressmarkRegistry(registry_dir)
    entries = registry.entries()
    assert len(entries) == 1
    return registry_dir, entries[0]["record_id"]


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert package_version() in capsys.readouterr().out

    def test_crash_report_carries_version(self, tmp_path, capsys,
                                          monkeypatch):
        monkeypatch.chdir(tmp_path)

        def explode(*_args, **_kwargs):
            raise RuntimeError("simulated meltdown")

        monkeypatch.setattr("repro.cli._common._platform", explode)
        assert main(["sweep"]) == 70
        capsys.readouterr()
        report = json.loads((tmp_path / "crash_report.json").read_text())
        assert report["version"] == package_version()


class TestPublishPaths:
    def test_audit_prints_publish_line(self, published, capsys):
        registry_dir, record_id = published
        assert main(["audit", *AUDIT_FLAGS,
                     "--registry", str(registry_dir)]) == EXIT_OK
        out = capsys.readouterr().out
        assert f"already published as {record_id[:12]}" in out

    def test_qualify_publishes(self, tmp_path, capsys):
        registry_dir = tmp_path / "reg"
        code = main(["qualify", "a-res", "--threads", "2",
                     "--jitter-repeats", "2", "--supply-points", "3",
                     "--registry", str(registry_dir)])
        assert code == EXIT_OK
        assert "published as" in capsys.readouterr().out
        entries = StressmarkRegistry(registry_dir).entries()
        assert [e["kind"] for e in entries] == ["qualify"]

    def test_fleet_publishes(self, tmp_path, capsys):
        registry_dir = tmp_path / "reg"
        fleet_dir = tmp_path / "fleet"
        code = main(["fleet", "run", "--matrix", "chip=bulldozer",
                     "--matrix", "threads=2", "--matrix", "budget=4x1",
                     "--dir", str(fleet_dir), "--workers", "1",
                     "--registry", str(registry_dir)])
        assert code == EXIT_OK
        capsys.readouterr()
        entries = StressmarkRegistry(registry_dir).entries()
        assert [e["kind"] for e in entries] == ["fleet"]
        assert [e["campaign"] for e in entries] == ["fleet"]
        meta = json.loads((fleet_dir / "fleet.json").read_text())
        assert meta["registry"] == str(registry_dir)


class TestRegistryCommands:
    def test_list_and_query(self, published, capsys):
        registry_dir, record_id = published
        assert main(["registry", "list", str(registry_dir)]) == EXIT_OK
        out = capsys.readouterr().out
        assert record_id[:12] in out
        assert "cli-test" in out

        assert main(["registry", "query", str(registry_dir),
                     "--campaign", "cli-test", "--ids-only"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == record_id

    def test_query_no_match(self, published, capsys):
        registry_dir, _ = published
        assert main(["registry", "query", str(registry_dir),
                     "--campaign", "nonesuch"]) == EXIT_OK
        assert "no records" in capsys.readouterr().out

    def test_show_round_trips_payload(self, published, capsys):
        registry_dir, record_id = published
        assert main(["registry", "show", str(registry_dir),
                     record_id[:12]]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["record_id"] == record_id
        assert payload["provenance"]["campaign"] == "cli-test"
        assert payload["provenance"]["repro_version"] == package_version()
        assert payload["provenance"]["telemetry"]["evaluations"] > 0

    def test_verify_reproduces_droop(self, published, capsys):
        registry_dir, record_id = published
        assert main(["registry", "verify", str(registry_dir),
                     record_id[:12]]) == EXIT_OK
        assert "bit-identically" in capsys.readouterr().out

    def test_verify_traces_its_replay(self, published, tmp_path, capsys):
        """The replay's pipeline spans land in the trace beside the
        registry verify row, all in one trace."""
        registry_dir, record_id = published
        trace = tmp_path / "t.jsonl"
        assert main(["registry", "verify", str(registry_dir), record_id,
                     "--telemetry-out", str(trace)]) == EXIT_OK
        capsys.readouterr()
        rows = [json.loads(line) for line in trace.read_text().splitlines()]
        (verify,) = [r for r in rows if r["kind"] == "registry"]
        assert verify["action"] == "verify"
        assert verify["record_id"] == record_id
        spans = [r for r in rows if r["kind"] == "span"]
        names = {r["name"] for r in spans}
        assert {"pipeline.measure", "pipeline.activity", "pipeline.pdn_solve"} <= names
        assert len({r["trace_id"] for r in spans}) == 1

    def test_verify_detects_forged_droop(self, tmp_path, capsys):
        from repro.registry.provenance import build_platform, platform_descriptor

        registry = StressmarkRegistry(tmp_path / "reg")
        descriptor = platform_descriptor("bulldozer")
        forged = synthetic_record(1)
        # Right platform hash, wrong droop: replay must flag the mismatch.
        import dataclasses

        forged = dataclasses.replace(
            forged, platform_hash=hash_platform(build_platform(descriptor)),
            droop_v=0.5)
        outcome = registry.publish(forged)
        code = main(["registry", "verify", str(tmp_path / "reg"),
                     outcome.record_id[:12]])
        assert code == EXIT_FAILURE
        assert "droop mismatch" in capsys.readouterr().out

    def test_export_import_compare(self, published, tmp_path, capsys):
        registry_dir, record_id = published
        archive = tmp_path / "marks.tar.gz"
        assert main(["registry", "export", str(registry_dir),
                     str(archive)]) == EXIT_OK
        second = tmp_path / "reg2"
        assert main(["registry", "import", str(second),
                     str(archive)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "imported 1 new record(s)" in out

        assert main(["registry", "compare", str(second),
                     record_id[:12], record_id[:12]]) == EXIT_OK
        assert "record comparison" in capsys.readouterr().out

    def test_compare_mixed_forms_rejected(self, published, capsys):
        registry_dir, record_id = published
        code = main(["registry", "compare", str(registry_dir),
                     record_id[:12], "campaign:cli-test"])
        assert code == EXIT_FAILURE
        assert "two records or two campaigns" in capsys.readouterr().err

    def test_unknown_ref_fails_cleanly(self, published, capsys):
        registry_dir, _ = published
        code = main(["registry", "show", str(registry_dir), "feedfacefeed"])
        assert code == EXIT_FAILURE
        assert "no record matches" in capsys.readouterr().err
