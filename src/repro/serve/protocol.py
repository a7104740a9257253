"""The line-delimited JSON wire protocol of every serving path.

``cellspot serve`` (:class:`~repro.serve.service.CellSpotService`),
the plane's front (:class:`~repro.scale.plane.ServingPlane`) and its
workers (:class:`~repro.scale.worker.QueryWorker`) read one JSON
object per line and write one compact JSON reply per line.  Each wire
decision is made here once: reply lines and the ``overloaded``
refusal, request decoding, the ``query`` reply (joined from
:meth:`~repro.serve.index.ClassificationIndex.encode` answers, with
deadline shedding and the ``"stale": true`` marker), the ``health``
and ``alerts`` payloads, and claiming a socket path from a dead
server.  A worker and the single-process service therefore answer a
query with the same bytes by construction.
"""

from __future__ import annotations

import errno
import json
import logging
import socket
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from repro.runtime.logging import get_logger, log_event

_LOG = get_logger("serve.protocol")

#: ``json.dumps(payload, separators=(",", ":"))`` without building an
#: encoder per call.
compact = json.JSONEncoder(separators=(",", ":")).encode

#: Longest request or reply line the asyncio readers accept (1 MiB).
MAX_LINE_BYTES = 1 << 20


def dumps(payload: Dict) -> bytes:
    """One reply line: ``payload`` as compact JSON plus the newline."""
    return (compact(payload) + "\n").encode()


def error(message: str) -> bytes:
    """The reply line refusing a request with ``message``."""
    return dumps({"ok": False, "error": message})


def is_ok(reply: bytes) -> bool:
    """Whether a reply line answers its request (``"ok"`` comes first)."""
    return reply.startswith(b'{"ok":true')


#: The explicit refusal of admission control and deadlines.
SHED_RESPONSE = dumps({"ok": False, "error": "overloaded", "overloaded": True})
_SHED_ITEM = SHED_RESPONSE.decode().rstrip("\n")


class BadRequest(ValueError):
    """A request the protocol refuses; the message is the reply's error."""


def decode(line: Union[str, bytes]) -> Dict:
    """The request object on one line, else :class:`BadRequest`.

    Blank lines are the transport's business: ``cellspot serve``
    refuses them, the plane's front and workers skip them.
    """
    try:
        request = json.loads(line)
    except ValueError as exc:
        raise BadRequest(f"bad JSON: {exc}") from None
    if not isinstance(request, dict):
        raise BadRequest("request must be a JSON object")
    return request


def query_items(request: Dict) -> Optional[List]:
    """A query request's ``qs`` batch (None: answer its ``q``), else
    :class:`BadRequest`."""
    queries = request.get("qs")
    if queries is None:
        if request.get("q") is None:
            raise BadRequest("query op needs 'q' or 'qs'")
    elif not isinstance(queries, list):
        raise BadRequest("'qs' must be a list")
    return queries


def query_reply(
    answer: Callable[[object], str],
    queries: Optional[List],
    single: object = None,
    deadline: Optional[float] = None,
    on_shed: Optional[Callable[[], None]] = None,
    stale: bool = False,
) -> bytes:
    """The reply line of a query request that passed :func:`query_items`.

    ``answer`` encodes one item (an index's ``encode`` plus the
    caller's timing and counting).  Batch items reached after
    ``deadline`` (a ``time.perf_counter`` instant) are answered with
    the ``overloaded`` refusal and reported to ``on_shed``.  The bytes
    are ``json.dumps`` of ``{"ok": true, "result(s)": ...}`` with
    compact separators, plus ``"stale": true`` when ``stale``.
    """
    end = ',"stale":true}\n' if stale else "}\n"
    if queries is None:
        return ('{"ok":true,"result":' + answer(single) + end).encode()
    if deadline is None:
        answers = [answer(item) for item in queries]
    else:
        answers = []
        for item in queries:
            if time.perf_counter() > deadline:
                on_shed()
                answers.append(_SHED_ITEM)
            else:
                answers.append(answer(item))
    return ('{"ok":true,"results":[' + ",".join(answers) + ("]" + end)).encode()


def health_payload(alert_engine, **sections) -> Dict:
    """The ``health`` reply: ``sections`` plus live alert rule states."""
    payload = {"ok": True, "ts": time.time(), **sections, "alerts": []}
    if alert_engine is not None:
        payload["alerts"] = alert_engine.snapshot()
        payload["alert_counts"] = alert_engine.counts()
    return payload


def alerts_payload(alert_engine) -> Dict:
    """The ``alerts`` reply: rule states plus recent transitions."""
    if alert_engine is None:
        return {"ok": True, "rules": [], "events": [],
                "note": "no alert engine configured"}
    return {
        "ok": True,
        "rules": alert_engine.snapshot(),
        "events": alert_engine.events[-100:],
        "trace_id": alert_engine.trace_id,
    }


def claim_socket_path(path: Path) -> None:
    """Remove a dead server's socket file at ``path``; refuse a live one.

    Connecting to a crashed server's leftover file fails with
    ``ECONNREFUSED`` (``ENOENT`` if it vanished meanwhile); only those
    mark it stale.  Any other outcome -- a connect, or a live listener
    with a full backlog answering ``EAGAIN`` -- raises ``OSError``.
    """
    if not path.exists():
        return
    probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    probe.settimeout(0.2)
    try:
        probe.connect(str(path))
        stale = False
    except OSError as exc:
        stale = exc.errno in (errno.ECONNREFUSED, errno.ENOENT)
    finally:
        probe.close()
    if not stale:
        raise OSError(f"socket {path} is in use by a live server")
    log_event(_LOG, logging.WARNING, "serve.socket.stale_removed", path=path)
    path.unlink(missing_ok=True)
