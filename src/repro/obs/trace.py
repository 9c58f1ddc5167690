"""Trace analysis: JSONL event stream → span tree → where the time went.

The analysis side of ``repro.obs``: load a ``--telemetry-out`` JSONL
trace, rebuild the span tree across every process that contributed to it,
and reduce it to the numbers an operator steers by — self-time per span
kind, the hottest individual spans, cache-hit and fault rollups.  The
same reduction feeds ``repro telemetry analyze`` (text), ``export``
(markdown, wired into fleet reports), and ``compare`` (two traces → a
regression table for ``check_regression.py``-style gating).

Robustness rules: a span whose parent record never arrived (its process
was SIGKILLed between flushes) is *adopted* — attached under the trace
root, counted in ``orphans``, and marked ``status="lost"`` — rather than
silently dropped or left to corrupt the tree.  The supervisor layers try
to close such spans at run time (:meth:`~repro.obs.spans.Tracer.lost`);
the loader is the backstop for events that never made it to disk.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.report import format_kv_table, format_table
from repro.core.telemetry import TelemetryCollector, event_from_dict
from repro.errors import ConfigurationError
from repro.obs.metrics import MetricsRegistry


@dataclass
class SpanNode:
    """One span in the reconstructed tree."""

    name: str
    span_id: str
    parent_id: str
    t0_s: float
    wall_s: float
    status: str = "ok"
    attrs: dict = field(default_factory=dict)
    pid: int = 0
    children: list = field(default_factory=list)
    adopted: bool = False
    """True when the parent record was missing and the loader re-homed
    this span under the trace root."""

    @property
    def self_s(self) -> float:
        return max(0.0, self.wall_s - sum(c.wall_s for c in self.children))


@dataclass
class SpanTree:
    """The reconstructed span forest of one trace file."""

    roots: list = field(default_factory=list)
    nodes: dict = field(default_factory=dict)
    orphans: int = 0
    """Spans whose parent record never arrived (adopted under a root)."""
    lost: int = 0
    """Spans closed with ``status="lost"`` (including adopted orphans)."""

    def walk(self):
        stack = list(reversed(self.roots))
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))


def build_tree(span_rows) -> SpanTree:
    """Rebuild the span tree from SpanEvent dicts (any order)."""
    tree = SpanTree()
    for row in span_rows:
        node = SpanNode(
            name=row.get("name", "?"),
            span_id=row.get("span_id", ""),
            parent_id=row.get("parent_id", ""),
            t0_s=float(row.get("t0_s", 0.0)),
            wall_s=float(row.get("wall_s", 0.0)),
            status=row.get("status", "ok"),
            attrs=dict(row.get("attrs", {})),
            pid=int(row.get("pid", 0)),
        )
        tree.nodes[node.span_id] = node
    for node in tree.nodes.values():
        parent = tree.nodes.get(node.parent_id) if node.parent_id else None
        if parent is not None and parent is not node:
            parent.children.append(node)
        elif not node.parent_id:
            tree.roots.append(node)
        else:
            # Parent record missing: the process holding it died between
            # flushes.  Adopt the span under the root so the tree stays
            # connected, and mark the loss.
            node.adopted = True
            node.status = "lost"
            tree.orphans += 1
            tree.roots.append(node)
    for node in tree.nodes.values():
        node.children.sort(key=lambda n: (n.t0_s, n.span_id))
    tree.roots.sort(key=lambda n: (n.adopted, n.t0_s, n.span_id))
    # Re-home adopted spans under the primary root when one exists, so
    # `analyze` still reports a single rooted tree.
    if tree.roots and tree.orphans:
        primary, rest = tree.roots[0], tree.roots[1:]
        if not primary.adopted:
            for node in [n for n in rest if n.adopted]:
                tree.roots.remove(node)
                primary.children.append(node)
            primary.children.sort(key=lambda n: (n.t0_s, n.span_id))
    tree.lost = sum(1 for node in tree.nodes.values() if node.status == "lost")
    return tree


def load_events(path) -> list:
    """Every event dict in a JSONL trace, in file order.

    Blank lines are skipped; a torn final line (the writer was killed
    mid-write) is tolerated; any other malformed line raises
    :class:`~repro.errors.ConfigurationError` with the line number.
    """
    path = Path(path)
    try:
        raw = path.read_text()
    except OSError as error:
        raise ConfigurationError(f"cannot read trace {path}: {error}") from error
    events = []
    lines = raw.splitlines()
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as error:
            if number == len(lines):
                break  # torn tail from a killed writer
            raise ConfigurationError(
                f"malformed trace line {number} in {path}: {error}"
            ) from error
        if isinstance(row, dict):
            events.append(row)
    return events


@dataclass
class TraceAnalysis:
    """The reduction ``analyze``/``compare``/``export`` all share."""

    path: str
    events_by_kind: dict
    span_counts: dict
    span_wall_s: dict
    span_self_s: dict
    hot_spans: list
    """(name, self_s, wall_s, attrs) for the top individual spans."""
    tree: SpanTree
    evaluations: int = 0
    cache_hits: int = 0
    eval_wall_s: float = 0.0
    stage_cache_hits: dict = field(default_factory=dict)
    platform_counters: dict = field(default_factory=dict)
    faults: dict = field(default_factory=dict)
    supervisor_actions: dict = field(default_factory=dict)
    trace_wall_s: float = 0.0

    @property
    def total_events(self) -> int:
        return sum(self.events_by_kind.values())

    @property
    def total_spans(self) -> int:
        return sum(self.span_counts.values())

    @property
    def generations(self) -> int:
        return self.span_counts.get("ga.generation", 0)

    @property
    def cache_hit_rate(self) -> float:
        total = self.evaluations + self.cache_hits
        return self.cache_hits / total if total else 0.0

    def metrics(self) -> MetricsRegistry:
        """Project the analysis into the shared metrics registry."""
        registry = MetricsRegistry()
        for kind, count in self.events_by_kind.items():
            registry.inc(f"events.{kind}", count)
        for name, count in self.span_counts.items():
            registry.inc(f"spans.{name}", count)
        registry.inc("spans.lost", self.tree.lost)
        registry.inc("engine.evaluations", self.evaluations)
        registry.inc("engine.cache_hits", self.cache_hits)
        for node in self.tree.walk():
            registry.observe(f"span.{node.name}.wall_s", node.wall_s)
        return registry

    def deterministic_counts(self) -> dict:
        """The counts two replays of one seeded campaign must agree on."""
        counts = {
            f"events.{kind}": count
            for kind, count in sorted(self.events_by_kind.items())
        }
        counts.update({
            f"spans.{name}": count
            for name, count in sorted(self.span_counts.items())
        })
        counts["evaluations"] = self.evaluations
        counts["cache_hits"] = self.cache_hits
        counts["generations"] = self.generations
        counts["spans.lost"] = self.tree.lost
        counts["spans.orphaned"] = self.tree.orphans
        return counts


def analyze_trace(path) -> TraceAnalysis:
    """Load one JSONL trace and reduce it (see module docstring)."""
    events = load_events(path)
    events_by_kind: dict = {}
    span_rows = []
    # The run collector reads the span attributes (the engine.* and
    # stage.cache_hits.* counters), so a trace reduces as the run did.
    collector = TelemetryCollector()
    platform_counters: dict = {}
    for row in events:
        kind = row.get("kind", "?")
        events_by_kind[kind] = events_by_kind.get(kind, 0) + 1
        if kind == "span":
            span_rows.append(row)
            try:
                collector.on_event(event_from_dict(row))
            except (KeyError, TypeError):
                pass  # a malformed row still counts in the tree below
        elif kind == "platform-stats":
            for key, value in (row.get("counters") or {}).items():
                if isinstance(value, (int, float)):
                    platform_counters[key] = value
    tree = build_tree(span_rows)
    span_counts: dict = {}
    span_wall_s: dict = {}
    span_self_s: dict = {}
    spans_flat = []
    for node in tree.walk():
        span_counts[node.name] = span_counts.get(node.name, 0) + 1
        span_wall_s[node.name] = span_wall_s.get(node.name, 0.0) + node.wall_s
        span_self_s[node.name] = span_self_s.get(node.name, 0.0) + node.self_s
        spans_flat.append(node)
    spans_flat.sort(key=lambda n: (-n.self_s, n.name, n.span_id))
    hot = [(n.name, n.self_s, n.wall_s, dict(n.attrs)) for n in spans_flat[:10]]
    trace_wall = max((r.wall_s for r in tree.roots), default=0.0)
    counter = collector.metrics.counter
    return TraceAnalysis(
        path=str(path),
        events_by_kind=dict(sorted(events_by_kind.items())),
        span_counts=dict(sorted(span_counts.items())),
        span_wall_s=dict(sorted(span_wall_s.items())),
        span_self_s=dict(sorted(span_self_s.items())),
        hot_spans=hot,
        tree=tree,
        evaluations=int(counter("engine.evaluations")),
        cache_hits=int(counter("engine.cache_hits")),
        eval_wall_s=float(counter("engine.eval_wall_s")),
        stage_cache_hits=collector.metrics.family("stage.cache_hits"),
        platform_counters=platform_counters,
        faults=collector.metrics.family("span.count.fault"),
        supervisor_actions=collector.metrics.family("span.count.supervisor"),
        trace_wall_s=trace_wall,
    )


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def _span_rows(analysis: TraceAnalysis) -> list:
    rows = []
    for name in sorted(
        analysis.span_self_s, key=lambda n: -analysis.span_self_s[n]
    ):
        rows.append([
            name,
            analysis.span_counts[name],
            f"{analysis.span_wall_s[name]:.3f}",
            f"{analysis.span_self_s[name]:.3f}",
        ])
    return rows


def render_analysis(analysis: TraceAnalysis, *, top: int = 10) -> str:
    """``repro telemetry analyze``'s text report."""
    parts = [f"trace: {analysis.path}"]
    overview = [
        ("events", analysis.total_events),
        ("spans", analysis.total_spans),
        ("span tree roots", len(analysis.tree.roots)),
        ("orphaned spans", analysis.tree.orphans),
        ("lost spans", analysis.tree.lost),
        ("trace wall time", f"{analysis.trace_wall_s:.2f} s"),
        ("evaluations", analysis.evaluations),
        ("fitness cache hits", analysis.cache_hits),
        ("fitness cache hit rate", f"{analysis.cache_hit_rate * 100:.1f} %"),
        ("generations", analysis.generations),
    ]
    parts.append(format_kv_table(overview, title="trace overview"))
    if analysis.span_counts:
        parts.append(format_table(
            ["span", "count", "total s", "self s"],
            _span_rows(analysis),
            title="self time per span kind",
        ))
        hot = [
            [name, f"{self_s:.3f}", f"{wall_s:.3f}",
             ", ".join(f"{k}={v}" for k, v in sorted(attrs.items())) or "—"]
            for name, self_s, wall_s, attrs in analysis.hot_spans[:top]
        ]
        parts.append(format_table(
            ["span", "self s", "wall s", "attrs"], hot,
            title=f"top {min(top, len(hot))} hot spans",
        ))
    cache_rows = [("fitness cache hits", analysis.cache_hits)]
    for stage, hits in sorted(analysis.stage_cache_hits.items()):
        cache_rows.append((f"stage cache hits: {stage}", hits))
    for key in ("uarch.module_cache_hits", "pipeline.profile_cache_hits",
                "pipeline.pdn_cache_hits"):
        if key in analysis.platform_counters:
            cache_rows.append((f"platform {key}", analysis.platform_counters[key]))
    parts.append(format_kv_table(cache_rows, title="cache rollup"))
    fault_rows = [
        (f"fault: {action}", count)
        for action, count in sorted(analysis.faults.items())
    ] + [
        (f"supervisor: {action}", count)
        for action, count in sorted(analysis.supervisor_actions.items())
    ]
    if fault_rows:
        parts.append(format_kv_table(fault_rows, title="fault rollup"))
    return "\n\n".join(parts) + "\n"


def render_markdown(analysis: TraceAnalysis, *, title: str = "Telemetry report",
                    top: int = 10) -> str:
    """``repro telemetry export``'s markdown report (fleet-report style)."""
    lines = [
        f"# {title}",
        "",
        f"- trace: `{analysis.path}`",
        f"- events: {analysis.total_events}",
        f"- spans: {analysis.total_spans} "
        f"({analysis.tree.lost} lost, {analysis.tree.orphans} orphaned)",
        f"- trace wall time: {analysis.trace_wall_s:.2f} s",
        f"- evaluations: {analysis.evaluations} "
        f"(+{analysis.cache_hits} cache hits, "
        f"{analysis.cache_hit_rate * 100:.1f} %)",
        f"- generations: {analysis.generations}",
    ]
    if analysis.span_counts:
        lines += [
            "",
            "## Self time per span kind",
            "",
            "| span | count | total (s) | self (s) |",
            "|---|---|---|---|",
        ]
        for row in _span_rows(analysis):
            lines.append("| " + " | ".join(str(cell) for cell in row) + " |")
        lines += [
            "",
            f"## Top {min(top, len(analysis.hot_spans))} hot spans",
            "",
            "| span | self (s) | wall (s) | attrs |",
            "|---|---|---|---|",
        ]
        for name, self_s, wall_s, attrs in analysis.hot_spans[:top]:
            rendered = ", ".join(
                f"{k}={v}" for k, v in sorted(attrs.items())
            ) or "—"
            lines.append(
                f"| {name} | {self_s:.3f} | {wall_s:.3f} | {rendered} |"
            )
    if analysis.faults or analysis.supervisor_actions:
        lines += ["", "## Faults", ""]
        for action, count in sorted(analysis.faults.items()):
            lines.append(f"- fault/{action}: {count}")
        for action, count in sorted(analysis.supervisor_actions.items()):
            lines.append(f"- supervisor/{action}: {count}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Compare
# ----------------------------------------------------------------------
@dataclass
class TraceComparison:
    """Two traces, one regression table."""

    baseline: TraceAnalysis
    current: TraceAnalysis
    mismatches: list = field(default_factory=list)
    """Deterministic counts that differ: (key, baseline, current)."""

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def rows(self) -> list:
        """(metric, baseline, current, verdict) — counts then timings."""
        rows = []
        base_counts = self.baseline.deterministic_counts()
        curr_counts = self.current.deterministic_counts()
        for key in sorted(set(base_counts) | set(curr_counts)):
            a, b = base_counts.get(key, 0), curr_counts.get(key, 0)
            rows.append([key, a, b, "ok" if a == b else "MISMATCH"])
        for name in sorted(
            set(self.baseline.span_self_s) | set(self.current.span_self_s)
        ):
            a = self.baseline.span_self_s.get(name, 0.0)
            b = self.current.span_self_s.get(name, 0.0)
            ratio = f"{b / a:.2f}x" if a > 0 else "—"
            rows.append([f"self_s.{name}", f"{a:.3f}", f"{b:.3f}", ratio])
        return rows

    def render(self) -> str:
        verdict = "OK" if self.ok else f"{len(self.mismatches)} MISMATCH(ES)"
        table = format_table(
            ["metric", "baseline", "current", "verdict"],
            self.rows(),
            title=f"trace comparison: {verdict}",
        )
        return table + "\n"


def compare_traces(baseline_path, current_path) -> TraceComparison:
    """Compare two traces: deterministic counts gate, timings inform.

    Counts (events per kind, spans per name, evaluations, generations,
    lost/orphaned spans) must match exactly between two replays of the
    same seeded campaign; wall-clock ratios are reported but never fail
    the comparison — CI machines do not share a clock.
    """
    baseline = analyze_trace(baseline_path)
    current = analyze_trace(current_path)
    comparison = TraceComparison(baseline=baseline, current=current)
    base_counts = baseline.deterministic_counts()
    curr_counts = current.deterministic_counts()
    for key in sorted(set(base_counts) | set(curr_counts)):
        a, b = base_counts.get(key, 0), curr_counts.get(key, 0)
        if a != b:
            comparison.mismatches.append((key, a, b))
    return comparison
