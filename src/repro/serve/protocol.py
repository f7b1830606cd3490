"""Wire protocol of the admission service.

Both transports speak the same JSON message shapes: the socket listener
frames them as line-delimited JSON (one request line in, one reply line
out, plus pushed events for ``watch`` subscribers), the HTTP listener
maps them onto ``POST /offer``, ``GET /stats``, ``GET /healthz`` and
``POST /shutdown``.  Full request/reply schemas are documented in
``docs/serving.md``; this module owns encode/decode and the
job-normalisation rules so the server, the load generator and the tests
cannot drift apart.

Requests (socket form)::

    {"op": "offer", "job": {"release": 1.5, "processing": 2.0,
                            "deadline": 6.0}, "tag": "req-17"}
    {"op": "offer", "job": {"processing": 2.0, "slack": 0.25}}   # stamped
    {"op": "stats"}
    {"op": "watch"}
    {"op": "ping"}
    {"op": "shutdown"}

A job may be *absolute* (``release``/``processing``/``deadline``) or
*relative* (``processing`` plus ``slack``): relative jobs are stamped
with the server's monotonic arrival clock and given the tight deadline
``release + (1 + slack) * processing``.  Either way the stamped job is
what enters the decision log, so replay is deterministic.
"""

from __future__ import annotations

import json
from typing import Any, Mapping

from repro.engine.policy import Decision
from repro.model.job import Job

#: Protocol version announced in ``hello``/``stats`` replies.
PROTOCOL_VERSION = 1

#: Operations a client may request.
OPS = ("offer", "stats", "watch", "ping", "shutdown")


#: Built once (``json.dumps`` with options builds an encoder per call).
_JSON = json.JSONEncoder(allow_nan=False)


class ProtocolError(ValueError):
    """A request line or message violates the protocol."""


def encode_line(message: Mapping[str, Any]) -> bytes:
    """Serialise one message as a newline-terminated JSON line."""
    return (_JSON.encode(message) + "\n").encode("utf-8")


def decode_line(raw: bytes | str) -> dict[str, Any]:
    """Parse one request line; raises :class:`ProtocolError` on garbage."""
    if isinstance(raw, bytes):
        try:
            raw = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"request is not UTF-8: {exc}") from exc
    try:
        message = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"request is not valid JSON: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError("request must be a JSON object")
    op = message.get("op")
    if op not in OPS:
        raise ProtocolError(f"unknown op {op!r}; expected one of {list(OPS)}")
    return message


def job_from_message(
    payload: Any, *, clock: float, epsilon: float, job_id: int = -1
) -> Job:
    """Normalise an ``offer`` job payload into a :class:`Job`.

    Absolute jobs pass through unchanged; relative jobs (``processing``
    plus optional ``slack``, default the service's ``epsilon``) are
    released at ``clock`` with the tight deadline.  ``job_id`` is the id
    the job gets; the server passes the offer's sequence number, so the
    session decides and keeps this very object.  Validation errors
    surface as :class:`ProtocolError` so the server can reply instead of
    dying.
    """
    if not isinstance(payload, Mapping):
        raise ProtocolError("offer needs a 'job' object")
    try:
        processing = float(payload["processing"])
    except (KeyError, TypeError, ValueError):
        raise ProtocolError("job needs a numeric 'processing' field") from None
    weight = payload.get("weight")
    try:
        if "deadline" in payload or "release" in payload:
            release = float(payload.get("release", clock))
            deadline = float(payload["deadline"])
        else:
            release = clock
            slack = float(payload.get("slack", epsilon))
            deadline = release + (1.0 + slack) * processing
        return Job(
            release,
            processing,
            deadline,
            job_id,
            weight=None if weight is None else float(weight),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"invalid job: {exc}") from exc


def decision_message(
    seq: int,
    job: Job,
    decision: Decision,
    loads: list[float],
    tag: Any = None,
) -> dict[str, Any]:
    """The reply/event message for one decision (includes load metrics)."""
    message: dict[str, Any] = {
        "ok": True,
        "kind": "decision",
        "seq": seq,
        "job_id": job.job_id,
        "t": job.release,
        "accepted": bool(decision.accepted),
        "machine": decision.machine,
        "start": decision.start,
        "loads": loads,
    }
    if tag is not None:
        message["tag"] = tag
    return message


def error_message(detail: str, tag: Any = None) -> dict[str, Any]:
    """An error reply (the connection survives; the request is dropped)."""
    message: dict[str, Any] = {"ok": False, "kind": "error", "error": detail}
    if tag is not None:
        message["tag"] = tag
    return message
