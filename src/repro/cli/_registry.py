"""The ``registry`` command family: list, query, verify, share records."""

from __future__ import annotations

import json

from repro.analysis.report import format_table
from repro.cli._common import _observers
from repro.errors import EXIT_FAILURE, EXIT_OK, RegistryError

_COMPARE_HELP = (
    "a record id (or unique prefix), or campaign:LABEL for a whole campaign"
)


def _registry(args, observers=()):
    from repro.registry.store import StressmarkRegistry

    return StressmarkRegistry(args.dir, observers=observers)


def _entry_rows(entries) -> list[list[str]]:
    rows = []
    for entry in entries:
        droop = entry.get("droop_v")
        rows.append([
            entry["record_id"][:12],
            entry.get("kind", "?"),
            entry.get("name", "?"),
            f"{entry.get('chip', '?')}"
            + (f" x{entry['pdn_scale']:g}" if entry.get("pdn_scale", 1.0) != 1.0
               else ""),
            str(entry.get("threads", "?")),
            (f"{droop * 1e3:.1f} mV"
             if isinstance(droop, (int, float)) else "-"),
            entry.get("verdict") or "-",
            entry.get("campaign") or "-",
        ])
    return rows


def _print_entries(entries) -> None:
    if not entries:
        print("no records")
        return
    print(format_table(
        ["id", "kind", "name", "platform", "threads", "droop", "verdict",
         "campaign"],
        _entry_rows(entries),
    ))
    print(f"{len(entries)} record(s)")


def cmd_registry_list(args) -> int:
    registry = _registry(args)
    _print_entries(registry.query(
        kind=args.kind, chip=args.chip, verdict=args.verdict,
        campaign=args.campaign,
    ))
    return EXIT_OK


def cmd_registry_show(args) -> int:
    registry = _registry(args)
    record = registry.get(args.ref)
    print(json.dumps(record.to_payload(), indent=2, sort_keys=True))
    return EXIT_OK


def cmd_registry_query(args) -> int:
    registry = _registry(args)
    entries = registry.query(
        kind=args.kind, chip=args.chip, verdict=args.verdict,
        campaign=args.campaign, platform_hash=args.platform_hash,
        min_droop_v=args.min_droop, max_droop_v=args.max_droop,
    )
    if args.ids_only:
        for entry in entries:
            print(entry["record_id"])
    else:
        _print_entries(entries)
    return EXIT_OK


def cmd_registry_verify(args) -> int:
    observers, jsonl = _observers(args)
    registry = _registry(args, observers)
    try:
        from repro.registry.verify import verify_record

        record = registry.get(args.ref)
        print(f"verifying {record.record_id[:12]} ({record.kind}/{record.name}, "
              f"{record.platform.get('chip')}, {record.threads}T)")
        result = verify_record(record, observers=observers)
    finally:
        if jsonl is not None:
            jsonl.close()
    print(result.describe())
    print(f"replay wall time: {result.wall_s:.2f}s")
    return EXIT_OK if result.ok else EXIT_FAILURE


def cmd_registry_compare(args) -> int:
    from repro.registry.compare import (
        compare_campaigns,
        compare_records,
        render_campaign_comparison,
        render_record_comparison,
    )

    registry = _registry(args)
    a_campaign = args.a.startswith("campaign:")
    b_campaign = args.b.startswith("campaign:")
    if a_campaign != b_campaign:
        raise RegistryError(
            "compare needs two records or two campaigns, not one of each"
        )
    if a_campaign:
        diff = compare_campaigns(
            registry,
            args.a.removeprefix("campaign:"),
            args.b.removeprefix("campaign:"),
        )
        print(render_campaign_comparison(diff))
        return EXIT_OK
    rows = compare_records(registry.get(args.a), registry.get(args.b))
    print(render_record_comparison(rows))
    return EXIT_OK


def cmd_registry_export(args) -> int:
    observers, jsonl = _observers(args)
    registry = _registry(args, observers)
    try:
        from repro.registry.archive import export_records

        exported = export_records(
            registry, args.out, refs=args.id or None, observers=observers,
        )
    finally:
        if jsonl is not None:
            jsonl.close()
    print(f"exported {len(exported)} record(s) -> {args.out}")
    return EXIT_OK


def cmd_registry_import(args) -> int:
    observers, jsonl = _observers(args)
    registry = _registry(args, observers)
    try:
        from repro.registry.archive import import_archive

        outcome = import_archive(registry, args.archive, observers=observers)
    finally:
        if jsonl is not None:
            jsonl.close()
    print(f"imported {len(outcome.imported)} new record(s), "
          f"{len(outcome.deduped)} already present")
    return EXIT_OK


def register(sub) -> None:
    registry = sub.add_parser(
        "registry",
        help="the stressmark library: list, query, verify, and share "
             "published results",
    )
    registry_sub = registry.add_subparsers(dest="registry_command",
                                           required=True)

    def add(name, fn, help_text, telemetry=False):
        parser = registry_sub.add_parser(name, help=help_text)
        parser.add_argument("dir", metavar="DIR",
                            help="registry directory")
        if telemetry:
            from repro.cli._common import _add_telemetry_args

            _add_telemetry_args(parser)
        parser.set_defaults(fn=fn)
        return parser

    lst = add("list", cmd_registry_list, "list records (newest last)")
    for parser in (lst,):
        parser.add_argument("--kind", default=None,
                            choices=("audit", "qualify", "fleet"))
        parser.add_argument("--chip", default=None,
                            choices=("bulldozer", "phenom"))
        parser.add_argument("--verdict", default=None,
                            choices=("PASS", "FRAGILE", "ARTIFACT"))
        parser.add_argument("--campaign", default=None, metavar="LABEL")

    show = add("show", cmd_registry_show, "print one record as JSON")
    show.add_argument("ref", metavar="ID",
                      help="record id or unique prefix")

    query = add("query", cmd_registry_query,
                "filter records by platform hash, verdict, droop range")
    query.add_argument("--kind", default=None,
                       choices=("audit", "qualify", "fleet"))
    query.add_argument("--chip", default=None,
                       choices=("bulldozer", "phenom"))
    query.add_argument("--verdict", default=None,
                       choices=("PASS", "FRAGILE", "ARTIFACT"))
    query.add_argument("--campaign", default=None, metavar="LABEL")
    query.add_argument("--platform-hash", default=None, metavar="HASH",
                       help="exact platform configuration hash")
    query.add_argument("--min-droop", type=float, default=None,
                       metavar="VOLTS", help="minimum recorded droop")
    query.add_argument("--max-droop", type=float, default=None,
                       metavar="VOLTS", help="maximum recorded droop")
    query.add_argument("--ids-only", action="store_true",
                       help="print full record ids, one per line")

    verify = add("verify", cmd_registry_verify,
                 "re-measure a stored record; the droop must be "
                 "bit-identical to the recorded value", telemetry=True)
    verify.add_argument("ref", metavar="ID",
                        help="record id or unique prefix")

    compare = add("compare", cmd_registry_compare,
                  "per-axis deltas between two records or two campaigns")
    compare.add_argument("a", metavar="A", help=_COMPARE_HELP)
    compare.add_argument("b", metavar="B", help=_COMPARE_HELP)

    export = add("export", cmd_registry_export,
                 "write records to a portable tarball", telemetry=True)
    export.add_argument("out", metavar="TARBALL",
                        help="output archive path (.tar.gz)")
    export.add_argument("--id", action="append", default=[], metavar="REF",
                        help="export only this record (repeatable; "
                             "default: all)")

    imp = add("import", cmd_registry_import,
              "publish a tarball's records into the registry",
              telemetry=True)
    imp.add_argument("archive", metavar="TARBALL",
                     help="archive produced by `repro registry export`")
