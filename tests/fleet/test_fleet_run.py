"""End-to-end fleet runs: determinism, resume bit-identity, exit taxonomy."""

import json
import shutil
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core.faults import FaultInjectingBackend, FaultInjectionConfig, FaultPolicy
from repro.core.platform import MeasurementPlatform
from repro.errors import (
    EXIT_CRASH,
    EXIT_FAILURE,
    EXIT_FAULTS,
    EXIT_OK,
    CheckpointError,
)
from repro.fleet.matrix import ScenarioMatrix
from repro.fleet.orchestrator import FleetOrchestrator
from repro.fleet.report import REPORT_FILE, REPORT_MD_FILE

#: One chain of three same-platform shards (cache seeding active) — small
#: enough for CI, large enough that a kill can land mid-fleet.
MATRIX = ScenarioMatrix(chip=("bulldozer",), threads=(1,),
                        budget=("4x2",), seed=(1, 2, 3))


def run_fleet(fleet_dir, *, workers=1, stop_after=None, matrix=MATRIX):
    orchestrator = FleetOrchestrator(
        matrix, fleet_dir, workers=workers, stop_after=stop_after,
    )
    return orchestrator.run()


@pytest.fixture
def always_faulting(monkeypatch):
    """Every measurement of an in-process shard raises an injected fault,
    so a fault policy without retries exhausts at the first one."""
    import repro.fleet.shard as shard_mod

    real_platform = shard_mod.scenario_platform

    def faulting_platform(scenario):
        config = FaultInjectionConfig(exception_rate=1.0)
        backend = FaultInjectingBackend(real_platform(scenario).backend, config=config)
        return MeasurementPlatform(backend=backend)

    monkeypatch.setattr(shard_mod, "scenario_platform", faulting_platform)


@pytest.fixture(scope="module")
def control(tmp_path_factory):
    """An uninterrupted serial fleet: the reference report."""
    fleet_dir = tmp_path_factory.mktemp("fleet-control")
    report = run_fleet(fleet_dir)
    return report, (fleet_dir / REPORT_FILE).read_text()


class TestFleetRun:
    def test_complete_fleet_reports_every_shard(self, control):
        report, _ = control
        assert report.exit_code == EXIT_OK
        assert report.complete
        assert len(report.ok_shards) == len(MATRIX)
        assert report.best_per_platform()

    def test_report_files_written(self, control, tmp_path):
        report = run_fleet(tmp_path / "fleet")
        assert (tmp_path / "fleet" / REPORT_FILE).exists()
        assert (tmp_path / "fleet" / REPORT_MD_FILE).exists()
        assert report.to_json() == control[1]

    def test_worker_count_does_not_change_the_report(self, control, tmp_path):
        run_fleet(tmp_path / "fleet", workers=2)
        assert (tmp_path / "fleet" / REPORT_FILE).read_text() == control[1]

    def test_cache_seeding_reduces_chain_evaluations(self, control):
        report, _ = control
        evals = [result.evaluations for result in report.shards]
        # The chain head pays full price; seeded successors reuse its bank.
        assert min(evals[1:]) < evals[0]


class TestResumeBitIdentity:
    @settings(max_examples=4, deadline=None)
    @given(kill_point=st.integers(min_value=1, max_value=2))
    def test_killed_fleet_resumes_to_identical_report(self, control,
                                                      kill_point):
        fleet_dir = tempfile.mkdtemp(prefix="fleet-kill-")
        try:
            with pytest.raises(KeyboardInterrupt):
                run_fleet(fleet_dir, stop_after=kill_point)
            resumed = FleetOrchestrator.resume(fleet_dir)
            assert len(resumed.scenarios) == len(MATRIX)
            resumed.run()
            from pathlib import Path

            assert (Path(fleet_dir) / REPORT_FILE).read_text() == control[1]
        finally:
            shutil.rmtree(fleet_dir, ignore_errors=True)

    @staticmethod
    def write_older_meta(fleet_dir, eval_timeout_s):
        """fleet.json as written before the cooperative timeout was
        removed: the fault policy still carries ``eval_timeout_s``."""
        fleet_dir.mkdir()
        FleetOrchestrator(MATRIX, fleet_dir, fault_policy=FaultPolicy()).write_meta()
        path = fleet_dir / "fleet.json"
        meta = json.loads(path.read_text())
        meta["fault_policy"]["eval_timeout_s"] = eval_timeout_s
        path.write_text(json.dumps(meta))

    def test_resume_drops_an_unset_removed_policy_field(self, tmp_path):
        self.write_older_meta(tmp_path / "fleet", None)
        resumed = FleetOrchestrator.resume(tmp_path / "fleet")
        assert resumed.fault_policy == FaultPolicy()

    def test_resume_refuses_a_set_removed_policy_field(self, tmp_path):
        self.write_older_meta(tmp_path / "fleet", 30.0)
        with pytest.raises(CheckpointError, match="eval_timeout_s"):
            FleetOrchestrator.resume(tmp_path / "fleet")

    def test_resume_of_complete_fleet_is_a_no_op_rerun(self, control,
                                                       tmp_path):
        fleet_dir = tmp_path / "fleet"
        run_fleet(fleet_dir)
        report = FleetOrchestrator.resume(fleet_dir).run()
        assert report.exit_code == EXIT_OK
        assert (fleet_dir / REPORT_FILE).read_text() == control[1]


class TestExitTaxonomy:
    def test_fault_exhaustion_maps_to_exit_3(self, tmp_path, always_faulting):
        matrix = ScenarioMatrix(chip=("bulldozer",), threads=(1,),
                                budget=("4x2",), seed=(1,))
        orchestrator = FleetOrchestrator(
            matrix, tmp_path / "fleet", workers=1,
            fault_policy=FaultPolicy(max_retries=0),
        )
        report = orchestrator.run()
        assert report.exit_code == EXIT_FAULTS
        assert report.failed_shards[0].exit_code == EXIT_FAULTS
        # The failed shard still lands in the written report.
        payload = json.loads((tmp_path / "fleet" / REPORT_FILE).read_text())
        assert payload["exit_code"] == EXIT_FAULTS

    def test_crash_maps_to_exit_70_with_crash_report(self, tmp_path,
                                                     monkeypatch):
        import repro.fleet.shard as shard_mod

        def explode(scenario):
            raise RuntimeError("simulated backend crash")

        monkeypatch.setattr(shard_mod, "scenario_platform", explode)
        matrix = ScenarioMatrix(chip=("bulldozer",), threads=(1,),
                                budget=("4x2",), seed=(1,))
        report = FleetOrchestrator(matrix, tmp_path / "fleet",
                                   workers=1).run()
        assert report.exit_code == EXIT_CRASH
        shard_dir = tmp_path / "fleet" / "shards" / matrix.expand()[0].scenario_id
        crash = json.loads((shard_dir / "crash_report.json").read_text())
        assert "simulated backend crash" in crash["error"]

    def test_partial_fleet_exits_nonzero_but_writes_report(self, tmp_path,
                                                           monkeypatch):
        import repro.fleet.orchestrator as orch_mod
        from repro.fleet.shard import ShardResult, run_shard as real_run_shard

        def flaky_run_shard(spec):
            if spec.scenario.seed == 2:
                return ShardResult(
                    scenario=spec.scenario.axes(),
                    scenario_id=spec.scenario.scenario_id,
                    status="failed", exit_code=EXIT_FAILURE, error="boom",
                )
            return real_run_shard(spec)

        monkeypatch.setattr(orch_mod, "run_shard", flaky_run_shard)
        matrix = ScenarioMatrix(chip=("bulldozer",), threads=(1,),
                                budget=("4x2",), seed=(1, 2))
        report = FleetOrchestrator(matrix, tmp_path / "fleet",
                                   workers=1).run()
        assert report.exit_code == EXIT_FAILURE
        payload = json.loads((tmp_path / "fleet" / REPORT_FILE).read_text())
        assert len(payload["shards"]) == 2
        assert [row["status"] for row in payload["shards"]] == ["ok", "failed"]


class TestFleetCli:
    def test_run_status_report_round_trip(self, tmp_path, capsys):
        fleet_dir = tmp_path / "fleet"
        code = main([
            "fleet", "run", "--matrix", "chip=bulldozer",
            "--matrix", "threads=1", "--matrix", "budget=4x2",
            "--matrix", "seed=1", "--dir", str(fleet_dir), "--workers", "1",
        ])
        assert code == EXIT_OK
        assert "1 scenario(s)" in capsys.readouterr().out
        assert main(["fleet", "status", str(fleet_dir)]) == EXIT_OK
        assert "1/1 shard(s) complete" in capsys.readouterr().out
        assert main(["fleet", "report", str(fleet_dir), "--check"]) == EXIT_OK
        assert "# Fleet report" in capsys.readouterr().out

    def test_run_without_matrix_is_config_error(self, tmp_path, capsys):
        code = main(["fleet", "run", "--dir", str(tmp_path / "fleet")])
        assert code == 2
        assert "needs a scenario matrix" in capsys.readouterr().err

    def test_fault_exhausted_fleet_exits_3(self, tmp_path, capsys, always_faulting):
        code = main([
            "fleet", "run", "--matrix", "chip=bulldozer",
            "--matrix", "threads=1", "--matrix", "budget=4x2",
            "--matrix", "seed=1", "--dir", str(tmp_path / "fleet"),
            "--workers", "1", "--eval-retries", "0",
        ])
        assert code == EXIT_FAULTS

    def test_spec_file_drives_the_run(self, tmp_path, capsys):
        spec = tmp_path / "fleet.toml"
        spec.write_text(
            '[matrix]\nchip = ["bulldozer"]\nthreads = [1]\n'
            'budget = ["4x2"]\nseed = [1]\n\n[fleet]\nworkers = 1\n'
        )
        code = main(["fleet", "run", "--spec", str(spec),
                     "--dir", str(tmp_path / "fleet")])
        assert code == EXIT_OK

    def test_status_of_non_fleet_dir_fails_cleanly(self, tmp_path, capsys):
        assert main(["fleet", "status", str(tmp_path)]) == EXIT_FAILURE
        assert "fleet" in capsys.readouterr().err
