"""``cellspot serve`` reply bytes, pinned on stdin and on a socket.

The service answers queries through the reply code the serving plane's
workers run (:mod:`repro.serve.protocol`).  These tests freeze what it
put on the wire before that: every reply is ``json.dumps`` of a dict
built from ``QueryResult.to_dict()`` with compact separators
(:func:`_frozen_reply` is that builder), and both transports must
reproduce it byte for byte -- hits, misses, CIDRs, IPv6, malformed and
padded text, non-string batch items, unknown ops, bad JSON, blank
lines, deadline-shed batch items and stale degraded answers.
"""

from __future__ import annotations

import io
import json
import socket
import threading
import types
from typing import List, Optional

import pytest

from repro.runtime.faults import FaultPlan, FaultSpec, chaos
from repro.serve import protocol
from repro.serve import service as service_module
from repro.serve.index import ClassificationIndex
from repro.serve.service import CellSpotService, ServiceConfig
from repro.stream import StreamEngine, WindowPolicy

POLICY = WindowPolicy(window_events=4096, decay=1.0)
_SHED = {"ok": False, "error": "overloaded", "overloaded": True}


def _frozen_reply(
    index: ClassificationIndex,
    line: str,
    stale: bool = False,
    answered_items: Optional[int] = None,
) -> bytes:
    """The reply line of a query-only session, built the old way.

    ``answered_items`` batch items are answered, the rest are shed by
    the deadline (None: no deadline).
    """
    stripped = line.strip()
    if not stripped:
        payload = {"ok": False, "error": "empty request line"}
    else:
        try:
            request = json.loads(stripped)
        except ValueError as exc:
            request, payload = None, {"ok": False, "error": f"bad JSON: {exc}"}
        if request is None:
            pass
        elif not isinstance(request, dict):
            payload = {"ok": False, "error": "request must be a JSON object"}
        elif request.get("op") != "query":
            payload = {"ok": False, "error": f"unknown op {request.get('op')!r}"}
        elif request.get("qs") is None and request.get("q") is None:
            payload = {"ok": False, "error": "query op needs 'q' or 'qs'"}
        elif request.get("qs") is not None and not isinstance(
            request["qs"], list
        ):
            payload = {"ok": False, "error": "'qs' must be a list"}
        elif request.get("qs") is not None:
            results = []
            for position, item in enumerate(request["qs"]):
                if answered_items is not None and position >= answered_items:
                    results.append(dict(_SHED))
                else:
                    results.append(index.query(str(item)).to_dict())
            payload = {"ok": True, "results": results}
        else:
            payload = {"ok": True, "result": index.query(str(request["q"])).to_dict()}
        if stale and payload.get("ok"):
            payload["stale"] = True
    return (json.dumps(payload, separators=(",", ":")) + "\n").encode()


@pytest.fixture(scope="module")
def engine(beacon_hits):
    engine = StreamEngine(policy=POLICY)
    engine.ingest_many(iter(beacon_hits))
    return engine


@pytest.fixture(scope="module")
def reference(engine):
    return ClassificationIndex.build(engine.ratio_table(1))


@pytest.fixture(scope="module")
def session(engine) -> List[str]:
    """Request lines covering every reply shape of a query session."""
    records = engine.ratio_table(1).records()
    v4 = [str(r.subnet) for r in records if r.subnet.family == 4][:4]
    v6 = [str(r.subnet) for r in records if r.subnet.family == 6][:3]
    assert v4 and v6, "fixture table lacks an address family"
    addresses = [cidr.split("/")[0] for cidr in v4 + v6]
    covered = [f"{v4[0].split('/')[0]}/25", f"{v6[0].split('/')[0]}/56"]
    misses = ["203.0.113.9", "2001:db8:ffff::1", "10.0.0.0/8"]
    malformed = [
        "not an ip", "", "   ", "1.2.3", "10.0.0.1/33", "2001:db8::/200",
        "::1::", "café", 'quo"te\\', f"  {addresses[0]}\t",
        f" {v6[1]} ",
    ]
    non_strings = [5, None, 1.5, True, {"a": 1}, [1, 2]]
    texts = v4 + v6 + addresses + covered + misses + malformed
    lines = [json.dumps({"op": "query", "q": text}) for text in texts]
    lines += [json.dumps({"op": "query", "q": item})
              for item in non_strings if item is not None]
    lines += [
        json.dumps({"op": "query", "qs": texts + non_strings}),
        json.dumps({"op": "query", "qs": texts}),  # repeats: memoised
        json.dumps({"op": "query", "qs": []}),
        "   " + json.dumps({"op": "query", "q": addresses[1]}) + "  ",
        json.dumps({"op": "nope"}), json.dumps({"op": 5}), "{}",
        json.dumps({"op": "query"}), json.dumps({"op": "query", "q": None}),
        json.dumps({"op": "query", "qs": "x"}),
        "{broken", "[1, 2", "{'single': 1}", "  {oops  ",
        "", "   ", "\t",
        "[]", "42", '"text"',
    ]
    return lines


def _serve_stdin(service: CellSpotService, lines: List[str]) -> List[bytes]:
    responses = io.StringIO()
    service.serve_lines(io.StringIO("".join(l + "\n" for l in lines)), responses)
    return [
        reply.encode() + b"\n" for reply in responses.getvalue().splitlines()
    ]


def _serve_socket(
    service: CellSpotService, lines: List[str], socket_path
) -> List[bytes]:
    server = threading.Thread(
        target=service.serve_socket,
        args=(socket_path,),
        kwargs={"max_connections": 1},
        daemon=True,
    )
    server.start()
    client = _connect_when_ready(socket_path)
    reader = client.makefile("rb")
    replies = []
    for line in lines:  # prompt-response: one reply per request line
        client.sendall(line.encode() + b"\n")
        replies.append(reader.readline())
    reader.close()
    client.close()
    server.join(timeout=10)
    assert not server.is_alive()
    return replies


def _connect_when_ready(socket_path, attempts=500):
    for _ in range(attempts):
        client = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            client.connect(str(socket_path))
        except OSError:
            client.close()
            threading.Event().wait(0.01)
        else:
            return client
    raise AssertionError("server socket never came up")


def _transports(service_factory, lines, tmp_path):
    yield "stdin", _serve_stdin(service_factory(), lines)
    yield "socket", _serve_socket(
        service_factory(), lines, tmp_path / "svc.sock"
    )


class _StepClock:
    """``perf_counter`` advancing one second per call."""

    def __init__(self) -> None:
        self.now = 0.0

    def perf_counter(self) -> float:
        self.now += 1.0
        return self.now


class TestServeReplyBytes:
    def test_query_session(self, engine, reference, session, tmp_path):
        expected = [_frozen_reply(reference, line) for line in session]
        for name, replies in _transports(
            lambda: CellSpotService(engine), session, tmp_path
        ):
            assert len(replies) == len(session), name
            for line, reply, want in zip(session, replies, expected):
                assert reply == want, (name, line)

    def test_deadline_sheds_batch_items(
        self, engine, reference, session, tmp_path, monkeypatch
    ):
        """With the clock stepping 1 s per read and a 3.5 s budget, the
        first batch item is answered and every later one is shed."""
        clock = _StepClock()
        fake_time = types.SimpleNamespace(perf_counter=clock.perf_counter)
        monkeypatch.setattr(service_module, "time", fake_time)
        monkeypatch.setattr(protocol, "time", fake_time)
        batches = [line for line in session if '"qs": [' in line]
        expected = [
            _frozen_reply(reference, line, answered_items=1)
            for line in batches
        ]
        for name, replies in _transports(
            lambda: CellSpotService(engine, config=ServiceConfig(deadline_s=3.5)),
            batches,
            tmp_path,
        ):
            assert replies == expected, name

    def test_stale_degraded_answers(self, engine, reference, session, tmp_path):
        def degraded() -> CellSpotService:
            service = CellSpotService(
                engine,
                config=ServiceConfig(breaker_failures=1, breaker_reset_s=3600),
            )
            service.index()
            plan = FaultPlan(name="t", faults=[
                FaultSpec(name="fail-refresh", site="serve.refresh",
                          kind="error", times=1),
            ])
            with chaos(plan):
                service.handle_request({"op": "refresh"})
            assert service.degraded
            return service

        queries = [line for line in session if '"op": "query"' in line]
        expected = [_frozen_reply(reference, line, stale=True) for line in queries]
        for name, replies in _transports(degraded, queries, tmp_path):
            assert replies == expected, name
        assert b'"stale":true' in expected[0]
