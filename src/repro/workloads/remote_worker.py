"""The worker loop of every multiprocess sweep.

The lease loop in :mod:`repro.workloads.remote` serves its cells to two
kinds of worker link, and both run :func:`main`:

* a **local** link is a process forked from the controller; it inherits
  the imported stack, the sweep's objects and the shared bracket cache
  (passed as *job*), and talks over a pair of pipes;
* a **remote** link is ``python -m repro.workloads.remote_worker``
  launched by a host's transport command (usually ssh); it talks on its
  stdin/stdout, receives the sweep as a pickled ``init`` payload and
  runs without a cache.

The protocol is the CRC'd NDJSON of :mod:`repro.workloads.remote`:
``hello`` (environment fingerprint) -> ``init`` -> pull loop of
``ready`` / ``lease`` / ``heartbeat`` / ``result`` / ``nack`` until
``stop`` or EOF.

Design notes:

* All writes go through one lock — the heartbeat thread and the main
  loop share the pipe, and interleaved partial lines would be protocol
  garbage.
* Rows travel as :func:`repro.workloads.journal.row_to_payload` lists:
  the same canonical serialisation the journal uses, so wire round trips
  are bit-identical by the journal's own contract.
* The worker holds no retry logic and no journal: it is a pure cell
  evaluator, through :func:`repro.workloads.resilient.run_cells` looked
  up at call time.  Every policy decision (retries, quarantine,
  speculation) lives controller-side where the failure domains are
  visible.
* A lease names one cell, or several for a *group lease* (``group``):
  they run in one :func:`~repro.workloads.resilient.run_cells` call, so
  the batch kernel amortises across them, and come back as one
  ``result`` per cell.
* Injected chaos: cell-level :class:`~repro.testing.chaos.ChaosPlan`
  faults travel with the sweep; the controller turns its worker and
  host plans into ``init`` directives — ``slow`` (a sleep before every
  lease), ``heartbeat_interval`` 0 (lost heartbeats), ``duplicate``
  (every result sent twice) — and a per-lease ``die`` (``os._exit``, as
  a machine loss would appear).
"""

from __future__ import annotations

import base64
import itertools
import os
import pickle
import sys
import threading
import time
from typing import Any, BinaryIO

from repro.workloads import resilient
from repro.workloads.journal import row_to_payload
from repro.workloads.remote import (
    RemoteProtocolError,
    decode_message,
    encode_message,
    env_fingerprint,
)


def _heartbeat_loop(send, seed: int, interval: float, stop: threading.Event) -> None:
    """One beat per *interval* while the lease computes, until stopped."""
    while not stop.wait(interval):
        try:
            send("heartbeat", seed=seed)
        except (OSError, ValueError):  # pragma: no cover - parent went away
            return


def main(
    stdin: BinaryIO | None = None,
    stdout: BinaryIO | None = None,
    job: tuple | None = None,
) -> int:
    """Run the worker loop over *stdin*/*stdout*; returns the exit code.

    *job* is ``(spec, algorithm_kwargs, chaos, cache)``, inherited
    by a forked local link; a remote worker receives it in ``init``.
    """
    stdin = stdin if stdin is not None else sys.stdin.buffer
    stdout = stdout if stdout is not None else sys.stdout.buffer
    lock = threading.Lock()
    seq = itertools.count()

    def send(op: str, **fields: Any) -> None:
        with lock:
            stdout.write(encode_message(op, next(seq), **fields))
            stdout.flush()

    def receive() -> dict[str, Any] | None:
        line = stdin.readline()
        return decode_message(line) if line else None

    send("hello", fingerprint=env_fingerprint())
    try:
        message = receive()
    except RemoteProtocolError:
        return 1
    if message is None or message["op"] == "stop":
        return 0
    if message["op"] != "init":
        return 1  # reject, or a controller that skipped the handshake
    if "payload" in message:
        job = pickle.loads(base64.b64decode(message["payload"]))
    spec, algorithm_kwargs, chaos, cache = job
    heartbeat_interval = float(message.get("heartbeat_interval", 0.1))
    slow = float(message.get("slow", 0.0))
    copies = 2 if message.get("duplicate") else 1
    reported = None if cache is None else cache.stats.as_dict()

    while True:
        send("ready")
        try:
            message = receive()
        except RemoteProtocolError:
            return 1
        if message is None or message["op"] == "stop":
            return 0
        if message["op"] != "lease":
            continue
        if message.get("die"):
            from repro.testing.chaos import CHAOS_EXIT_CODE

            os._exit(CHAOS_EXIT_CODE)  # injected dead host: no cleanup
        cells = [(message["eps"], message["m"], message["rep"], message["seed"])]
        cells += [tuple(member) for member in message.get("group", ())]
        stop_beats = threading.Event()
        beats = None
        if heartbeat_interval > 0:
            beats = threading.Thread(
                target=_heartbeat_loop,
                args=(send, cells[0][3], heartbeat_interval, stop_beats),
                daemon=True,
            )
            beats.start()
        try:
            if slow:
                time.sleep(slow)  # slow host: heartbeats keep flowing
            faults = [None] * len(cells)
            if chaos is not None:
                faults = [chaos.fault_for(seed, message["attempt"]) for *_, seed in cells]
                for fault in faults:
                    chaos.trigger(fault)  # may _exit, hang, or raise
            rows_per_cell = resilient.run_cells(
                spec, [cell[:3] for cell in cells], algorithm_kwargs, cache
            )
            for i, fault in enumerate(faults):
                if fault == "corrupt":
                    rows_per_cell[i] = chaos.corrupt_rows(rows_per_cell[i])
            error = None
        except Exception as exc:  # noqa: BLE001 - crosses the wire
            error = f"{type(exc).__name__}: {exc}"
        finally:
            stop_beats.set()
            if beats is not None:
                beats.join()
        if error is not None:
            send("nack", seed=cells[0][3], detail=error)
            continue
        delta = None
        if cache is not None:
            current = cache.stats.as_dict()
            delta = {
                key: value - reported[key]
                for key, value in current.items()
                if isinstance(value, int)
            }
            reported = current
        for _ in range(copies):
            for cell, rows in zip(cells, rows_per_cell):
                send("result", seed=cell[3], rows=[row_to_payload(row) for row in rows],
                     cache=delta)
                delta = None


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BrokenPipeError, KeyboardInterrupt):  # pragma: no cover - teardown
        sys.exit(0)
