"""The ``telemetry`` command family: analyze, compare, export traces.

Operates on the JSONL traces that ``--telemetry-out`` appends: ``analyze``
answers "where did the campaign spend its time" from the reconstructed
span tree, ``compare`` gates two replays of one seeded campaign on their
deterministic counts (the timing ratios are informational — CI machines
do not share a clock), and ``export`` renders the fleet-report-style
markdown summary.
"""

from __future__ import annotations

from pathlib import Path

from repro.errors import EXIT_FAILURE, EXIT_OK
from repro.obs.trace import analyze_trace, compare_traces, render_analysis, render_markdown


def cmd_telemetry_analyze(args) -> int:
    analysis = analyze_trace(args.trace)
    if args.md:
        print(render_markdown(analysis, top=args.top), end="")
    else:
        print(render_analysis(analysis, top=args.top), end="")
    return EXIT_OK


def cmd_telemetry_compare(args) -> int:
    comparison = compare_traces(args.baseline, args.current)
    print(comparison.render(), end="")
    if args.check and not comparison.ok:
        return EXIT_FAILURE
    return EXIT_OK


def cmd_telemetry_export(args) -> int:
    analysis = analyze_trace(args.trace)
    title = "Telemetry report"
    if args.campaign:
        title = f"Telemetry report: {args.campaign}"
    markdown = render_markdown(analysis, title=title, top=args.top)
    if args.md_out:
        Path(args.md_out).write_text(markdown)
        print(f"telemetry report written to {args.md_out}")
    else:
        print(markdown, end="")
    return EXIT_OK


def register(sub) -> None:
    telemetry = sub.add_parser(
        "telemetry",
        help="analyze, compare, and export --telemetry-out JSONL traces",
    )
    telemetry_sub = telemetry.add_subparsers(
        dest="telemetry_command", required=True
    )

    analyze = telemetry_sub.add_parser(
        "analyze",
        help="span-tree breakdown of one trace: self time per span kind, "
             "hot spans, cache and fault rollups",
    )
    analyze.add_argument("trace", metavar="TRACE")
    analyze.add_argument("--top", type=int, default=10, metavar="N",
                         help="how many individual hot spans to list")
    analyze.add_argument("--md", action="store_true",
                         help="render markdown instead of text tables")
    analyze.set_defaults(fn=cmd_telemetry_analyze)

    compare = telemetry_sub.add_parser(
        "compare",
        help="compare two traces: deterministic counts must match, "
             "timings are informational",
    )
    compare.add_argument("baseline", metavar="BASELINE")
    compare.add_argument("current", metavar="CURRENT")
    compare.add_argument(
        "--check", action="store_true",
        help="exit 1 when any deterministic count differs (CI gating)")
    compare.set_defaults(fn=cmd_telemetry_compare)

    export = telemetry_sub.add_parser(
        "export",
        help="render one trace as a markdown telemetry report",
    )
    export.add_argument("trace", metavar="TRACE")
    export.add_argument("--md-out", default=None, metavar="PATH",
                        help="write the report to PATH instead of stdout")
    export.add_argument("--campaign", default="", metavar="LABEL",
                        help="campaign label for the report title")
    export.add_argument("--top", type=int, default=10, metavar="N",
                        help="how many individual hot spans to list")
    export.set_defaults(fn=cmd_telemetry_export)
