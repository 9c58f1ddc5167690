"""The ``repro telemetry`` command family, end to end.

One tiny seeded audit campaign produces the JSONL trace all the command
tests share; ``analyze``/``export`` render it, ``compare --check`` gates
a replay of the same campaign against it.
"""

import json

import pytest

from repro.cli import build_parser, main

AUDIT = ["audit", "--threads", "2", "--population", "6",
         "--generations", "2", "--seed", "1"]


@pytest.fixture(scope="module")
def trace(tmp_path_factory):
    path = tmp_path_factory.mktemp("telemetry") / "trace.jsonl"
    assert main([*AUDIT, "--telemetry-out", str(path)]) == 0
    return path


class TestParser:
    def test_telemetry_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["telemetry"])

    def test_analyze_defaults(self):
        args = build_parser().parse_args(["telemetry", "analyze", "t.jsonl"])
        assert args.trace == "t.jsonl"
        assert args.top == 10
        assert args.md is False

    def test_compare_check_flag(self):
        args = build_parser().parse_args(
            ["telemetry", "compare", "a.jsonl", "b.jsonl", "--check"])
        assert args.baseline == "a.jsonl"
        assert args.current == "b.jsonl"
        assert args.check is True

    def test_export_flags(self):
        args = build_parser().parse_args(
            ["telemetry", "export", "t.jsonl", "--md-out", "out.md",
             "--campaign", "nightly", "--top", "3"])
        assert args.md_out == "out.md"
        assert args.campaign == "nightly"
        assert args.top == 3


class TestAnalyze:
    def test_audit_trace_is_a_single_rooted_span_tree(self, trace, capsys):
        assert main(["telemetry", "analyze", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "trace overview" in out
        assert "span tree roots" in out
        assert "audit.campaign" in out
        assert "ga.generation" in out
        assert "pipeline.measure" in out

    def test_no_orphaned_or_lost_spans_in_a_clean_run(self, trace):
        from repro.obs import analyze_trace

        analysis = analyze_trace(trace)
        assert len(analysis.tree.roots) == 1
        assert analysis.tree.orphans == 0
        assert analysis.tree.lost == 0
        assert analysis.generations == 2
        assert analysis.evaluations > 0

    def test_markdown_mode(self, trace, capsys):
        assert main(["telemetry", "analyze", str(trace), "--md"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# Telemetry report")
        assert "## Self time per span kind" in out

    def test_missing_trace_exits_config(self, tmp_path, capsys):
        code = main(["telemetry", "analyze", str(tmp_path / "missing.jsonl")])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err


class TestCompare:
    def test_replay_of_the_same_seed_gates_clean(self, trace, tmp_path,
                                                 capsys):
        replay = tmp_path / "replay.jsonl"
        assert main([*AUDIT, "--telemetry-out", str(replay)]) == 0
        capsys.readouterr()
        code = main(["telemetry", "compare", str(trace), str(replay),
                     "--check"])
        assert code == 0
        out = capsys.readouterr().out
        assert "trace comparison: OK" in out
        assert "MISMATCH" not in out

    def test_divergent_trace_fails_the_check(self, trace, tmp_path, capsys):
        doctored = tmp_path / "doctored.jsonl"
        lines = trace.read_text().splitlines()
        first_generation = next(
            index for index, line in enumerate(lines)
            if json.loads(line).get("name") == "ga.generation"
        )
        del lines[first_generation]
        doctored.write_text("\n".join(lines) + "\n")
        code = main(["telemetry", "compare", str(trace), str(doctored),
                     "--check"])
        assert code == 1
        out = capsys.readouterr().out
        assert "MISMATCH" in out
        generations = next(line for line in out.splitlines()
                           if line.startswith("generations "))
        assert generations.split()[1:] == ["2", "1", "MISMATCH"]

    def test_without_check_mismatches_only_report(self, trace, tmp_path,
                                                  capsys):
        doctored = tmp_path / "doctored.jsonl"
        doctored.write_text(trace.read_text().splitlines()[0] + "\n")
        code = main(["telemetry", "compare", str(trace), str(doctored)])
        assert code == 0
        assert "MISMATCH" in capsys.readouterr().out


class TestExport:
    def test_writes_markdown_with_campaign_title(self, trace, tmp_path,
                                                 capsys):
        out_path = tmp_path / "telemetry.md"
        code = main(["telemetry", "export", str(trace),
                     "--md-out", str(out_path), "--campaign", "nightly"])
        assert code == 0
        assert "telemetry report written to" in capsys.readouterr().out
        markdown = out_path.read_text()
        assert markdown.startswith("# Telemetry report: nightly\n")
        assert "## Self time per span kind" in markdown

    def test_prints_to_stdout_without_md_out(self, trace, capsys):
        assert main(["telemetry", "export", str(trace)]) == 0
        assert capsys.readouterr().out.startswith("# Telemetry report\n")


class TestAuditTelemetrySummary:
    def test_telemetry_flag_reports_trace_spans(self, capsys):
        # --telemetry (no JSONL sink) still installs the tracer, so the
        # run summary counts the spans the campaign emitted.
        assert main([*AUDIT, "--telemetry"]) == 0
        out = capsys.readouterr().out
        assert "trace spans" in out


class TestBenchEvalsTrace:
    def test_bench_evals_writes_one_clean_campaign_tree(self, tmp_path,
                                                        capsys):
        from repro.obs import analyze_trace

        path = tmp_path / "bench.jsonl"
        assert main(["bench-evals", "--threads", "2", "--population", "4",
                     "--generations", "1", "--seed", "1",
                     "--telemetry-out", str(path)]) == 0
        out = capsys.readouterr().out
        for row in ("generations ", "phase: ga-search", "stage: activity",
                    "trace spans"):
            assert row in out, row
        analysis = analyze_trace(path)
        assert [root.name for root in analysis.tree.roots] == ["audit.campaign"]
        assert analysis.tree.lost == 0
        assert analysis.tree.orphans == 0
        assert analysis.generations == 1
        assert (analysis.span_counts["pipeline.activity"]
                == analysis.span_counts["pipeline.measure"])
