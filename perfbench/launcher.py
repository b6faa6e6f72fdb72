"""Run one CLI job with the layer wrappers installed.

Usage: python launcher.py TRACE_JSON CLI_ARG...

Installs the tracing wrappers, calls ``egwgd.cli.main`` with the CLI
arguments inside a ``cli.main`` span, writes the span summary and counters
to TRACE_JSON and exits with the CLI's exit code, so a traced job is one
process, like an untraced one.
"""

from __future__ import annotations

import json
import sys

import tracing


def main(argv) -> int:
    trace_path, cli_argv = argv[0], argv[1:]
    tracer = tracing.Tracer()
    from egwgd import cli
    tracing.install(tracer)
    try:
        return tracer.call("cli.main", cli.main, cli_argv)
    finally:
        sys.stdout.flush()
        summary = tracing.summarize(tracer.spans)
        summary["counts"] = dict(tracer.counts)
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(summary, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
