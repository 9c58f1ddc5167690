"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.cli._experiments import EXPERIMENTS
from repro.cli._main import build_parser


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_audit_defaults(self):
        args = build_parser().parse_args(["audit"])
        assert args.chip == "bulldozer"
        assert args.threads == 4
        assert args.mode == "resonant"
        assert args.asm_out is None

    def test_sweep_chip_choices(self):
        args = build_parser().parse_args(["sweep", "--chip", "phenom"])
        assert args.chip == "phenom"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--chip", "riscv"])

    def test_experiment_takes_name(self):
        args = build_parser().parse_args(["experiment", "table1"])
        assert args.name == "table1"


class TestCommands:
    def test_list_prints_every_experiment(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_unknown_experiment_fails_cleanly(self, capsys):
        assert main(["experiment", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_experiment_registry_covers_every_paper_artifact(self):
        expected = {
            "fig3", "fig4", "fig6", "fig9", "fig10",
            "table1", "table2", "table3",
            "sec3b", "sec3c", "sec3-data", "sec5a1", "sec5a5", "sec5-sim",
            "sec5-qualify",
        }
        assert set(EXPERIMENTS) == expected

    def test_fast_experiment_runs_end_to_end(self, capsys):
        assert main(["experiment", "sec3b"]) == 0
        out = capsys.readouterr().out
        assert "18.35 min" in out

    def test_sweep_runs_end_to_end(self, capsys):
        assert main(["sweep", "--chip", "bulldozer"]) == 0
        out = capsys.readouterr().out
        assert "resonance:" in out
        assert "MHz" in out

    def test_audit_writes_asm(self, tmp_path, capsys):
        asm_path = tmp_path / "out.asm"
        code = main([
            "audit", "--threads", "2", "--population", "6",
            "--generations", "2", "--asm-out", str(asm_path),
        ])
        assert code == 0
        text = asm_path.read_text()
        assert "BITS 64" in text
        assert "_loop:" in text
        out = capsys.readouterr().out
        assert "droop at 2T" in out

    def test_netlist_export(self, tmp_path):
        deck_path = tmp_path / "deck.sp"
        code = main(["netlist", "--threads", "2", "--periods", "4",
                     "--out", str(deck_path)])
        assert code == 0
        deck = deck_path.read_text()
        assert deck.startswith("* A-Res 2T current profile")
        assert "Iload die 0 PWL(" in deck
        assert deck.rstrip().endswith(".end")

    def test_throttle_rejected_on_phenom(self, capsys):
        code = main(["audit", "--chip", "phenom", "--throttle", "1"])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestCampaignFlags:
    AUDIT = ["audit", "--threads", "2", "--population", "6",
             "--generations", "2", "--seed", "1"]

    def test_checkpoint_and_resume_are_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["audit", "--checkpoint-dir", "a", "--resume", "a"])

    def test_fault_flag_defaults(self):
        args = build_parser().parse_args(["audit"])
        assert args.eval_retries is None
        assert not hasattr(args, "eval_timeout")
        assert args.on_fault is None
        assert args.eval_backoff == 0.0

    def test_checkpoint_dir_writes_meta_and_state(self, tmp_path, capsys):
        campaign = tmp_path / "campaign"
        code = main([*self.AUDIT, "--checkpoint-dir", str(campaign)])
        assert code == 0
        import json

        meta = json.loads((campaign / "meta.json").read_text())
        assert meta["chip"] == "bulldozer"
        assert meta["population"] == 6
        assert meta["seed"] == 1
        state = json.loads((campaign / "state.json").read_text())
        assert state["generation"] == 1  # last generation boundary
        capsys.readouterr()

    def test_resume_reproduces_the_uninterrupted_run(self, tmp_path, capsys):
        assert main(self.AUDIT) == 0
        control = capsys.readouterr().out

        campaign = tmp_path / "campaign"
        assert main([*self.AUDIT, "--checkpoint-dir", str(campaign)]) == 0
        capsys.readouterr()
        # Resume overrides its own flags from the stored meta, so even a
        # contradictory command line continues the original campaign; the
        # banked generations are replayed from the fitness cache.
        code = main(["audit", "--population", "99", "--seed", "42",
                     "--resume", str(campaign)])
        assert code == 0
        resumed = capsys.readouterr().out
        assert "resuming campaign from generation 1" in resumed

        def summary(out):
            return [line for line in out.splitlines()
                    if line.startswith(("GA evaluations:", "A-Res droop"))]

        assert summary(resumed) == summary(control)

    def test_resume_empty_directory_fails_cleanly(self, tmp_path, capsys):
        code = main(["audit", "--resume", str(tmp_path / "nothing")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_fault_flags_build_a_policy(self, capsys):
        code = main([*self.AUDIT, "--eval-retries", "3",
                     "--on-fault", "penalize", "--telemetry"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fault retries" in out
        assert "quarantined genomes" in out

    def test_no_fault_flags_means_no_policy(self):
        from repro.cli._common import _fault_policy

        args = build_parser().parse_args(["audit"])
        assert _fault_policy(args) is None
        args = build_parser().parse_args(["audit", "--on-fault", "skip"])
        policy = _fault_policy(args)
        assert policy is not None
        assert policy.on_exhaust == "skip"
        assert policy.max_retries == 2

    def test_qualify_flag_defaults_off(self):
        args = build_parser().parse_args(["audit"])
        assert args.qualify is False
        args = build_parser().parse_args(["audit", "--qualify"])
        assert args.qualify is True


class TestQualifyCommand:
    QUALIFY = ["qualify", "a-res", "--threads", "2", "--jitter-repeats", "1",
               "--supply-points", "1"]

    def test_unknown_stressmark_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["qualify", "nonsense"])

    def test_qualify_runs_end_to_end(self, capsys):
        assert main(self.QUALIFY) == 0
        out = capsys.readouterr().out
        assert "qualification — a-res" in out
        assert "verdict: " in out
        assert "evaluations" in out

    def test_qualify_checkpoint_resumes_from_bank(self, tmp_path, capsys):
        bank = [*self.QUALIFY, "--checkpoint-dir", str(tmp_path)]
        assert main(bank) == 0
        first = capsys.readouterr().out
        assert (tmp_path / "qualify_a-res.json").exists()
        assert main(bank) == 0
        resumed = capsys.readouterr().out
        assert "0 evaluations" in resumed
        assert resumed.splitlines()[0] == first.splitlines()[0]


class TestExitCodes:
    def test_configuration_error_exits_2(self, capsys):
        code = main(["qualify", "a-res", "--pdn-tolerance", "2.0"])
        assert code == 2
        assert "configuration error:" in capsys.readouterr().err

    def test_fault_exhaustion_exits_3(self, capsys, monkeypatch):
        from repro.errors import QuarantineExhaustedError

        def explode(*_args, **_kwargs):
            raise QuarantineExhaustedError(
                "evaluation failed on all 3 attempts")

        monkeypatch.setattr("repro.cli._common._platform", explode)
        assert main(["sweep"]) == 3
        assert "fault policy exhausted:" in capsys.readouterr().err

    def test_invariant_violation_exits_4(self, capsys, monkeypatch):
        from repro.errors import InvariantViolation

        def explode(*_args, **_kwargs):
            raise InvariantViolation("voltage-finite", "platform",
                                     "NaN at sample 3")

        monkeypatch.setattr("repro.cli._common._platform", explode)
        assert main(["sweep"]) == 4
        err = capsys.readouterr().err
        assert "invariant violation:" in err
        assert "[platform/voltage-finite]" in err

    def test_crash_exits_70_with_report(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)

        def explode(*_args, **_kwargs):
            raise RuntimeError("simulated meltdown")

        monkeypatch.setattr("repro.cli._common._platform", explode)
        assert main(["sweep"]) == 70
        err = capsys.readouterr().err
        assert "internal error: RuntimeError: simulated meltdown" in err
        assert "crash report: crash_report.json" in err
        report_path = tmp_path / "crash_report.json"
        assert report_path.exists()
        import json

        report = json.loads(report_path.read_text())
        assert report["command"] == "sweep"
        assert report["error"] == "RuntimeError: simulated meltdown"
        assert "simulated meltdown" in report["traceback"]
        assert isinstance(report["recent_events"], list)

    def test_crash_report_lands_next_to_checkpoint(self, tmp_path, capsys,
                                                   monkeypatch):
        campaign = tmp_path / "campaign"

        def explode(*_args, **_kwargs):
            raise RuntimeError("mid-campaign crash")

        monkeypatch.setattr("repro.cli._common._platform", explode)
        code = main(["audit", "--checkpoint-dir", str(campaign)])
        assert code == 70
        assert (campaign / "crash_report.json").exists()
        capsys.readouterr()
