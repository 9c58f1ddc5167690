"""Trace loading, tree reconstruction, analysis, and comparison."""

import json

import pytest

from repro.core.telemetry import (
    FaultEvent,
    PlatformMetricsEvent,
    SpanEvent,
    SupervisorEvent,
    event_to_dict,
)
from repro.errors import ConfigurationError
from repro.obs.trace import (
    analyze_trace,
    build_tree,
    compare_traces,
    load_events,
    render_analysis,
    render_markdown,
)

TRACE = "t" * 16


def _span(name, span_id, parent_id="", *, t0=0.0, wall=1.0, status="ok",
          attrs=None, pid=100):
    return SpanEvent(
        name=name, trace_id=TRACE, span_id=span_id, parent_id=parent_id,
        t0_s=t0, wall_s=wall, status=status, attrs=attrs or {}, pid=pid,
    )


def _rows(*events):
    return [event_to_dict(event) for event in events]


def _write_trace(path, events):
    with open(path, "w") as handle:
        for event in events:
            handle.write(json.dumps(event_to_dict(event)) + "\n")
    return path


class TestBuildTree:
    def test_simple_nesting(self):
        tree = build_tree(_rows(
            _span("root", "r1", t0=0.0, wall=10.0),
            _span("child", "c1", "r1", t0=1.0, wall=4.0),
            _span("child", "c2", "r1", t0=6.0, wall=3.0),
            _span("leaf", "l1", "c1", t0=2.0, wall=2.0),
        ))
        assert len(tree.roots) == 1
        assert tree.orphans == 0
        assert tree.lost == 0
        root = tree.roots[0]
        assert [c.span_id for c in root.children] == ["c1", "c2"]
        assert root.children[0].children[0].span_id == "l1"
        assert [n.span_id for n in tree.walk()] == ["r1", "c1", "l1", "c2"]

    def test_self_time_subtracts_children(self):
        tree = build_tree(_rows(
            _span("root", "r1", t0=0.0, wall=10.0),
            _span("child", "c1", "r1", t0=1.0, wall=4.0),
        ))
        assert tree.roots[0].self_s == pytest.approx(6.0)
        assert tree.roots[0].children[0].self_s == pytest.approx(4.0)

    def test_self_time_clamps_at_zero(self):
        # Lost/estimated spans can overlap; self time must not go negative.
        tree = build_tree(_rows(
            _span("root", "r1", t0=0.0, wall=1.0),
            _span("child", "c1", "r1", t0=0.0, wall=5.0),
        ))
        assert tree.roots[0].self_s == 0.0

    def test_orphan_is_adopted_under_the_primary_root_as_lost(self):
        tree = build_tree(_rows(
            _span("root", "r1", t0=0.0, wall=10.0),
            _span("stranded", "s1", "never-arrived", t0=2.0, wall=1.0),
        ))
        assert len(tree.roots) == 1
        assert tree.orphans == 1
        assert tree.lost == 1
        adopted = tree.roots[0].children[0]
        assert adopted.span_id == "s1"
        assert adopted.adopted is True
        assert adopted.status == "lost"

    def test_orphans_without_a_primary_root_stay_roots(self):
        tree = build_tree(_rows(
            _span("stranded", "s1", "gone", t0=0.0, wall=1.0),
            _span("stranded", "s2", "gone", t0=1.0, wall=1.0),
        ))
        assert len(tree.roots) == 2
        assert tree.orphans == 2

    def test_explicitly_lost_spans_count_without_adoption(self):
        tree = build_tree(_rows(
            _span("root", "r1", t0=0.0, wall=10.0),
            _span("worker.eval", "w1", "r1", status="lost"),
        ))
        assert tree.orphans == 0
        assert tree.lost == 1

    def test_children_sorted_by_open_time(self):
        tree = build_tree(_rows(
            _span("root", "r1", t0=0.0, wall=10.0),
            _span("late", "b", "r1", t0=5.0),
            _span("early", "a", "r1", t0=1.0),
        ))
        assert [c.name for c in tree.roots[0].children] == ["early", "late"]

    def test_empty_input(self):
        tree = build_tree([])
        assert tree.roots == []
        assert tree.orphans == 0


class TestLoadEvents:
    def test_loads_in_file_order_skipping_blanks(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            json.dumps({"kind": "generation", "generation": 0}) + "\n"
            + "\n"
            + json.dumps({"kind": "phase", "name": "ga"}) + "\n"
        )
        events = load_events(path)
        assert [e["kind"] for e in events] == ["generation", "phase"]

    def test_torn_final_line_is_tolerated(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            json.dumps({"kind": "generation", "generation": 0}) + "\n"
            + '{"kind": "span", "name": "tru'  # writer was SIGKILLed here
        )
        events = load_events(path)
        assert len(events) == 1

    def test_malformed_middle_line_raises_with_line_number(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            json.dumps({"kind": "generation"}) + "\n"
            + "not json\n"
            + json.dumps({"kind": "phase"}) + "\n"
        )
        with pytest.raises(ConfigurationError, match="line 2"):
            load_events(path)

    def test_missing_file_raises_configuration_error(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read trace"):
            load_events(tmp_path / "nope.jsonl")

    def test_non_dict_rows_are_ignored(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('[1, 2]\n{"kind": "phase"}\n')
        assert len(load_events(path)) == 1


def _campaign_events():
    """A miniature but fully-populated campaign trace."""
    return [
        _span("audit.campaign", "r1", t0=0.0, wall=20.0),
        _span("ga.generation", "g1", "r1", t0=1.0, wall=8.0,
              attrs={"generation": 0}),
        _span("engine.evaluate_batch", "b1", "g1", t0=2.0, wall=6.0,
              attrs={"size": 2, "hits": 1, "eval_wall_s": 3.5}),
        _span("worker.eval", "w1", "b1", t0=3.0, wall=2.0, pid=101),
        _span("pipeline.activity", "a1", "w1", t0=3.1, wall=0.2, pid=101,
              attrs={"path": "periodic", "cache_hit": False}),
        _span("pipeline.pdn_solve", "p1", "w1", t0=3.4, wall=0.5, pid=101,
              attrs={"path": "periodic", "cache_hit": True}),
        _span("worker.eval", "w2", "b1", status="lost", t0=5.0, wall=1.0,
              pid=102),
        _span("stranded.child", "s1", "never-flushed", t0=6.0, wall=0.5),
        FaultEvent(genome="g-c", error="hang", attempt=1, action="quarantine",
                   timeout=True),
        SupervisorEvent(action="hang-kill", task="g-c"),
        PlatformMetricsEvent(counters={"pipeline.measurements": 2,
                                       "uarch.module_cache_hits": 1,
                                       "note": "ignored-non-numeric"}),
    ]


class TestAnalyzeTrace:
    @pytest.fixture()
    def analysis(self, tmp_path):
        return analyze_trace(
            _write_trace(tmp_path / "trace.jsonl", _campaign_events()))

    def test_event_and_span_rollups(self, analysis):
        assert analysis.events_by_kind == {
            "fault": 1, "platform-stats": 1, "span": 8, "supervisor": 1,
        }
        assert analysis.total_events == len(_campaign_events())
        assert analysis.span_counts["worker.eval"] == 2
        assert analysis.total_spans == 8

    def test_tree_is_single_rooted_with_losses_accounted(self, analysis):
        assert len(analysis.tree.roots) == 1
        assert analysis.tree.orphans == 1  # stranded.child
        assert analysis.tree.lost == 2  # the lost worker + the orphan

    def test_campaign_counters(self, analysis):
        assert analysis.evaluations == 2
        assert analysis.cache_hits == 1
        assert analysis.cache_hit_rate == pytest.approx(1 / 3)
        assert analysis.generations == 1
        assert analysis.eval_wall_s == pytest.approx(3.5)

    def test_cache_fault_and_platform_rollups(self, analysis):
        assert analysis.stage_cache_hits == {"pdn": 1}
        assert analysis.faults == {"quarantine": 1}
        assert analysis.supervisor_actions == {"hang-kill": 1}
        assert analysis.platform_counters == {"pipeline.measurements": 2,
                                              "uarch.module_cache_hits": 1}

    def test_trace_wall_is_the_root_wall(self, analysis):
        assert analysis.trace_wall_s == pytest.approx(20.0)

    def test_hot_spans_ranked_by_self_time(self, analysis):
        names = [name for name, *_ in analysis.hot_spans]
        assert names[0] == "audit.campaign"  # 20 - 8 = 12s self
        assert set(names) <= set(analysis.span_counts)

    def test_deterministic_counts_cover_the_gating_surface(self, analysis):
        counts = analysis.deterministic_counts()
        assert counts["events.span"] == 8
        assert counts["spans.worker.eval"] == 2
        assert counts["evaluations"] == 2
        assert counts["cache_hits"] == 1
        assert counts["generations"] == 1
        assert counts["spans.lost"] == 2
        assert counts["spans.orphaned"] == 1
        assert not any(key.endswith("_s") for key in counts)

    def test_metrics_projection(self, analysis):
        registry = analysis.metrics()
        assert registry.counter("events.span") == 8
        assert registry.counter("spans.worker.eval") == 2
        assert registry.counter("spans.lost") == 2
        assert registry.counter("engine.evaluations") == 2
        histogram = registry.histogram("span.worker.eval.wall_s")
        assert histogram is not None
        assert histogram.count == 2


class TestRendering:
    @pytest.fixture()
    def analysis(self, tmp_path):
        return analyze_trace(
            _write_trace(tmp_path / "trace.jsonl", _campaign_events()))

    def test_text_report_sections(self, analysis):
        text = render_analysis(analysis)
        assert "trace overview" in text
        assert "self time per span kind" in text
        assert "hot spans" in text
        assert "cache rollup" in text
        assert "fault rollup" in text
        assert "worker.eval" in text

    def test_top_limits_the_hot_span_table(self, analysis):
        text = render_analysis(analysis, top=1)
        assert "top 1 hot spans" in text

    def test_markdown_report(self, analysis):
        markdown = render_markdown(analysis, title="Telemetry report: nightly")
        assert markdown.startswith("# Telemetry report: nightly\n")
        assert "## Self time per span kind" in markdown
        assert "| span | count | total (s) | self (s) |" in markdown
        assert "- supervisor/hang-kill: 1" in markdown
        assert "(2 lost, 1 orphaned)" in markdown

    def test_spanless_trace_renders_without_tables(self, tmp_path):
        path = _write_trace(tmp_path / "flat.jsonl", [
            FaultEvent(genome="g0", error="boom", attempt=1, action="retry"),
        ])
        analysis = analyze_trace(path)
        text = render_analysis(analysis)
        assert "self time per span kind" not in text
        markdown = render_markdown(analysis)
        assert "## Self time" not in markdown


class TestCompareTraces:
    def test_identical_traces_compare_ok(self, tmp_path):
        a = _write_trace(tmp_path / "a.jsonl", _campaign_events())
        b = _write_trace(tmp_path / "b.jsonl", _campaign_events())
        comparison = compare_traces(a, b)
        assert comparison.ok
        assert "OK" in comparison.render()
        assert "MISMATCH" not in comparison.render()

    def test_count_drift_is_a_mismatch(self, tmp_path):
        a = _write_trace(tmp_path / "a.jsonl", _campaign_events())
        events = _campaign_events()
        events.append(_span("engine.evaluate_batch", "b2", "g1", t0=8.5,
                            wall=0.5, attrs={"size": 1, "hits": 0,
                                             "eval_wall_s": 0.4}))
        b = _write_trace(tmp_path / "b.jsonl", events)
        comparison = compare_traces(a, b)
        assert not comparison.ok
        mismatched = {key for key, *_ in comparison.mismatches}
        assert "evaluations" in mismatched
        assert "spans.engine.evaluate_batch" in mismatched
        assert "MISMATCH" in comparison.render()

    def test_timing_drift_alone_is_not_a_mismatch(self, tmp_path):
        a = _write_trace(tmp_path / "a.jsonl", _campaign_events())
        slower = [
            _span("audit.campaign", "r1", t0=0.0, wall=40.0)
            if isinstance(e, SpanEvent) and e.span_id == "r1" else e
            for e in _campaign_events()
        ]
        b = _write_trace(tmp_path / "b.jsonl", slower)
        comparison = compare_traces(a, b)
        assert comparison.ok
        rows = comparison.rows()
        ratio_row = next(r for r in rows if r[0] == "self_s.audit.campaign")
        assert ratio_row[3].endswith("x")
