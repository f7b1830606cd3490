"""``repro serve`` for the benchmark, optionally traced and without fsync.

Usage: ``python perfbench/serve_launcher.py [--spans DIR] [--no-fsync]
serve [args...]`` with ``src`` on ``PYTHONPATH``.  Runs the CLI in this
process.  ``--no-fsync`` makes ``os.fsync`` a no-op, as on a RAM-backed
file system (records are still written and flushed).  ``--spans``
installs span wrappers on the server's hot path and writes the spans to
``DIR`` when the server exits (SIGTERM drains and seals as usual).
"""

from __future__ import annotations

import os
import sys


def install(tracer) -> None:
    from repro.engine.controller import AdmissionController
    from repro.serve import server
    from repro.serve.snapshotter import DecisionJournal

    tracer.patch(server, "decode_line", "serve.decode")
    tracer.patch(server, "job_from_message", "serve.job")
    tracer.patch(AdmissionController, "offer", "engine.controller")
    tracer.patch(DecisionJournal, "record_decision", "serve.journal")
    tracer.patch(os, "fsync", "serve.fsync")
    tracer.patch(server, "decision_message", "serve.reply")
    tracer.patch(server, "encode_line", "serve.reply")
    tracer.patch(
        server.AdmissionServer,
        "offer_payload",
        "serve.offer_payload",
        unit=lambda args, kwargs: args[2] if len(args) > 2 else kwargs.get("tag"),
    )


def _no_fsync(fd: int) -> None:
    pass


def main(argv: list[str]) -> int:
    from repro.cli import main as cli_main

    tracer = None
    if argv[0] == "--spans":
        from spans import Tracer

        tracer = Tracer(argv[1])
        argv = argv[2:]
    if argv[0] == "--no-fsync":
        os.fsync = _no_fsync
        argv = argv[1:]
    if tracer is None:
        return cli_main(argv)
    install(tracer)
    try:
        return cli_main(argv)
    finally:
        tracer.flush()


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
