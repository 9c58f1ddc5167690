"""Run one ``repro`` command with the benchmark's layer wrappers installed.

    python benchmarks/perf/_cli_shim.py [--trace-dir DIR] [--slowdown LAYER=FACTOR ...] -- ARGS...

Behaves like ``python -m repro ARGS...``.  With ``--trace-dir`` the layers
are wrapped, the repo's tracer records spans (the CLI installs no tracer
of its own without telemetry flags, so its scope is pointed at ours), and
the launch's tally and spans are written to DIR.  Fleet shard workers
forked by this process write their own tallies there.
"""

from __future__ import annotations

import argparse
import sys
import time

import probe


def main() -> int:
    split = sys.argv.index("--")
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace-dir", default=None)
    parser.add_argument("--slowdown", action="append", default=[])
    args = parser.parse_args(sys.argv[1:split])
    traced = args.trace_dir is not None

    tally = probe.Tally()
    tally.enter("startup")
    start = time.perf_counter()
    import repro.cli
    from repro.obs.spans import SpanBuffer, Tracer, tracing

    tally.sample("startup_s", time.perf_counter() - start)
    probe.install(tally, traced=traced, slowdown=probe.parse_slowdown(args.slowdown),
                  trace_dir=args.trace_dir)
    tally.leave()

    buffer = SpanBuffer(cap=10**7)
    tracer = Tracer([buffer]) if traced else None
    if traced:
        for name in ("_audit", "_fleet", "_qualify"):
            setattr(sys.modules[f"repro.cli.{name}"], "_tracing_scope",
                    lambda _args, _observers: tracing(tracer))
    tally.enter("cli")
    try:
        with tracing(tracer):
            return repro.cli.main(sys.argv[split + 1:])
    except SystemExit as stop:  # argparse exits for --version and usage errors
        return 0 if stop.code is None else stop.code if isinstance(stop.code, int) else 1
    finally:
        tally.leave()
        if traced:
            tally.dump(args.trace_dir)
            probe.write_spans(args.trace_dir, buffer.records)


if __name__ == "__main__":
    sys.exit(main())
