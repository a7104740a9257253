"""Heavy-tailed load synthesis + the loadgen client (repro.scale.loadgen)."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.core.ratios import RatioRecord, RatioTable
from repro.net.prefix import Prefix
from repro.scale.loadgen import (
    PhaseReport,
    heavy_tail_queries,
    queries_from_catalog,
    run_loadgen,
    write_report,
)
from repro.scale.snapshot import SnapshotCatalog


def make_records(hit_profile):
    """Synthetic /24 ratio records with the given hit volumes."""
    records = []
    for index, hits in enumerate(hit_profile):
        subnet = Prefix.parse(f"198.18.{index}.0/24")
        records.append(
            RatioRecord(
                subnet=subnet,
                asn=64500 + index,
                country="US",
                api_hits=max(hits // 2, 1),
                cellular_hits=max(hits // 4, 0),
                hits=hits,
            )
        )
    return records


class TestHeavyTailQueries:
    def test_concentrates_on_hot_subnets(self):
        # One scorching subnet, many cold ones: the hot /24 must
        # dominate the sampled traffic (the paper's demand shape).
        records = make_records([100_000] + [10] * 49)
        queries = heavy_tail_queries(
            records, 2_000, seed=7, miss_fraction=0.0, cidr_fraction=0.0
        )
        hot = sum(1 for query in queries if query.startswith("198.18.0."))
        assert hot / len(queries) > 0.9

    def test_deterministic_under_seed(self):
        records = make_records([1000, 100, 10])
        first = heavy_tail_queries(records, 500, seed=3)
        second = heavy_tail_queries(records, 500, seed=3)
        different = heavy_tail_queries(records, 500, seed=4)
        assert first == second
        assert first != different

    def test_miss_and_cidr_fractions(self):
        records = make_records([100, 100, 100])
        queries = heavy_tail_queries(
            records, 5_000, seed=1, miss_fraction=0.1, cidr_fraction=0.05
        )
        misses = sum(1 for q in queries if q.startswith("203.0.113."))
        cidrs = sum(1 for q in queries if "/" in q)
        assert 0.05 < misses / len(queries) < 0.15
        assert 0.02 < cidrs / len(queries) < 0.09
        # All CIDR queries cover real table subnets.
        subnets = {str(record.subnet) for record in records}
        assert all(q in subnets for q in queries if "/" in q)

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError):
            heavy_tail_queries([], 10)
        with pytest.raises(ValueError):
            heavy_tail_queries(make_records([10]), 0)


class TestQueriesFromCatalog:
    def test_samples_latest_generation(self, tmp_path):
        catalog = SnapshotCatalog(tmp_path / "cat")
        catalog.publish(RatioTable(make_records([500, 50, 5])))
        queries = queries_from_catalog(tmp_path / "cat", 200, seed=2)
        assert len(queries) == 200
        assert queries == queries_from_catalog(tmp_path / "cat", 200, seed=2)

    def test_empty_catalog_is_an_error(self, tmp_path):
        with pytest.raises(ValueError, match="no snapshot generation"):
            queries_from_catalog(tmp_path / "empty", 10)


class TestPhaseReport:
    def test_percentiles_and_rates(self):
        report = PhaseReport("throughput")
        report.requests = 10
        report.queries = 100
        report.shed = 20
        report.elapsed_s = 2.0
        report.latencies_s = [0.001 * (i + 1) for i in range(100)]
        payload = report.as_dict()
        assert payload["queries_per_s"] == pytest.approx(40.0)  # answered
        assert payload["request_p50_s"] == pytest.approx(0.050)
        assert payload["request_p99_s"] == pytest.approx(0.099)

    def test_nearest_rank_with_odd_count(self):
        # Nearest rank is the ceil(q * n)-th smallest: for 3 samples
        # the p50 is the middle one, not the minimum.
        report = PhaseReport("throughput")
        report.latencies_s = [0.003, 0.001, 0.002]
        payload = report.as_dict()
        assert payload["request_p50_s"] == 0.002
        assert payload["request_p99_s"] == 0.003

    def test_nearest_rank_with_150_samples(self):
        report = PhaseReport("throughput")
        report.latencies_s = [float(i + 1) for i in range(150)]
        payload = report.as_dict()
        assert payload["request_p50_s"] == 75.0  # ceil(75.0)
        assert payload["request_p99_s"] == 149.0  # ceil(148.5)

    def test_single_sample(self):
        report = PhaseReport("throughput")
        report.latencies_s = [0.5]
        payload = report.as_dict()
        assert payload["request_p50_s"] == payload["request_p99_s"] == 0.5

    def test_error_queries_are_not_answered(self):
        report = PhaseReport("throughput")
        report.queries = 100
        report.shed = 10
        report.error_queries = 30
        report.elapsed_s = 2.0
        assert report.as_dict()["queries_per_s"] == pytest.approx(30.0)

    def test_empty_phase(self):
        payload = PhaseReport("warmup").as_dict()
        assert payload["queries_per_s"] == 0.0
        assert payload["request_p50_s"] is None
        assert payload["request_p99_s"] is None


class TestRunLoadgen:
    """Drive the client against a tiny in-test asyncio server."""

    def test_counts_answers_and_sheds(self, tmp_path):
        socket_path = tmp_path / "stub.sock"
        served = {"queries": 0}

        async def handler(reader, writer):
            while True:
                line = await reader.readline()
                if not line:
                    break
                request = json.loads(line)
                queries = request.get("qs") or [request.get("q")]
                served["queries"] += len(queries)
                # Shed every query for the covering-CIDR /24 blocks,
                # answer everything else.
                if any("/" in str(q) for q in queries):
                    payload = {
                        "ok": False, "error": "overloaded",
                        "overloaded": True,
                    }
                elif "qs" in request:
                    payload = {
                        "ok": True,
                        "results": [{"matched": False} for _ in queries],
                    }
                else:
                    payload = {"ok": True, "result": {"matched": False}}
                writer.write(
                    (json.dumps(payload, separators=(",", ":")) + "\n")
                    .encode()
                )
                await writer.drain()
            writer.close()

        async def scenario():
            server = await asyncio.start_unix_server(
                handler, path=str(socket_path)
            )
            try:
                queries = ["198.18.0.1"] * 90 + ["198.18.0.0/24"] * 10
                return await run_loadgen(
                    queries,
                    socket_path=socket_path,
                    concurrency=4,
                    batch=1,
                    warmup=8,
                    overload_queries=16,
                    overload_concurrency=8,
                )
            finally:
                server.close()
                await server.wait_closed()

        report = asyncio.run(scenario())
        assert report["ok"] is True
        names = [phase["name"] for phase in report["phases"]]
        assert names == ["warmup", "throughput", "overload"]
        throughput = report["phases"][1]
        assert throughput["queries"] == 100
        assert throughput["shed"] == 10
        assert throughput["queries_per_s"] > 0
        assert report["totals"]["queries"] == served["queries"]
        assert report["totals"]["errors"] == 0
        assert report["throughput_queries_per_s"] == pytest.approx(
            throughput["queries_per_s"]
        )

    def test_error_replies_are_not_counted_as_answered(self, tmp_path):
        socket_path = tmp_path / "stub.sock"

        async def handler(reader, writer):
            # A plane that refuses every request holding a "bad" query
            # with a whole-request error, and answers the rest.
            while True:
                line = await reader.readline()
                if not line:
                    break
                queries = json.loads(line)["qs"]
                if "bad" in queries:
                    payload = {"ok": False, "error": "boom"}
                else:
                    payload = {
                        "ok": True,
                        "results": [{"matched": False} for _ in queries],
                    }
                writer.write(
                    (json.dumps(payload, separators=(",", ":")) + "\n")
                    .encode()
                )
                await writer.drain()
            writer.close()

        async def scenario():
            server = await asyncio.start_unix_server(
                handler, path=str(socket_path)
            )
            try:
                # 25 requests of 4; every fifth request holds "bad".
                queries = []
                for request in range(25):
                    bad = request % 5 == 0
                    queries += ["bad" if bad else "198.18.0.1"]
                    queries += ["198.18.0.1"] * 3
                return await run_loadgen(
                    queries, socket_path=socket_path, concurrency=1,
                    batch=4, warmup=0,
                )
            finally:
                server.close()
                await server.wait_closed()

        report = asyncio.run(scenario())
        throughput = report["phases"][0]
        assert report["ok"] is False
        assert throughput["requests"] == 25
        assert throughput["queries"] == 100
        assert throughput["errors"] == 5
        assert throughput["shed"] == 0
        # 5 refused requests of 4 queries: 80 answered, not 100.
        assert throughput["queries_per_s"] == pytest.approx(
            80 / throughput["elapsed_s"], rel=1e-3
        )
        assert report["throughput_queries_per_s"] == throughput["queries_per_s"]

    def test_connection_refused_counts_errors(self, tmp_path):
        report = asyncio.run(
            run_loadgen(
                ["198.18.0.1"],
                socket_path=tmp_path / "nobody-home.sock",
                concurrency=2,
                batch=1,
                warmup=0,
            )
        )
        assert report["ok"] is False
        assert report["totals"]["errors"] == 2

    def test_validates_knobs(self):
        with pytest.raises(ValueError):
            asyncio.run(run_loadgen(["x"], socket_path="s", concurrency=0))
        with pytest.raises(ValueError):
            asyncio.run(run_loadgen(["x"]))  # no socket, no port


class TestWriteReport:
    def test_atomic_pretty_json(self, tmp_path):
        path = write_report(
            {"ok": True, "totals": {"queries": 5}},
            tmp_path / "reports" / "loadgen.json",
        )
        payload = json.loads(path.read_text())
        assert payload == {"ok": True, "totals": {"queries": 5}}
        assert not path.with_name(path.name + ".tmp").exists()
