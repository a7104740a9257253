"""CLI front end for the online service, plus argument validation."""

from __future__ import annotations

import io
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.net.addr import format_ip

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture()
def hits_file(tmp_path, beacon_hits):
    path = tmp_path / "hits.jsonl"
    with path.open("w") as stream:
        for hit in beacon_hits[:8000]:
            stream.write(hit.to_json() + "\n")
    return path


def _known_address(beacon_hits) -> str:
    return format_ip(beacon_hits[0].family, beacon_hits[0].address)


class TestArgumentValidation:
    @pytest.mark.parametrize("flag,value", [
        ("--workers", "0"),
        ("--workers", "-1"),
        ("--workers", "two"),
        ("--shards", "0"),
        ("--shards", "-3"),
    ])
    def test_nonpositive_parallelism_is_rejected(self, capsys, flag, value):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", flag, value])
        assert excinfo.value.code == 2
        assert "positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "serve", "query"])
    def test_every_command_validates_workers(self, capsys, command):
        argv = [command, "--workers", "0"]
        if command == "query":
            argv.insert(1, "192.0.2.1")
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2

    def test_serve_rejects_bad_window(self, capsys):
        with pytest.raises(SystemExit):
            main(["serve", "--window-events", "0"])

    def test_events_and_generate_conflict(self, capsys, hits_file):
        assert main(
            ["serve", "--events", str(hits_file), "--generate"]
        ) == 2
        assert "mutually exclusive" in capsys.readouterr().err


class TestServeCommand:
    def test_stdin_stdout_session(
        self, monkeypatch, capsys, hits_file, beacon_hits, tmp_path
    ):
        requests = "\n".join([
            json.dumps({"op": "query", "q": _known_address(beacon_hits)}),
            json.dumps({"op": "query", "qs": ["bad query", "10.0.0.1"]}),
            json.dumps({"op": "stats"}),
            "this is not json",
            json.dumps({"op": "shutdown"}),
        ]) + "\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(requests))
        snapshot = tmp_path / "snap.json"
        code = main([
            "serve", "--events", str(hits_file),
            "--snapshot", str(snapshot),
            "--window-events", "4096",
        ])
        assert code == 0
        lines = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines()
        ]
        assert len(lines) == 5
        assert lines[0]["ok"] and lines[0]["result"]["matched"]
        assert [r["ok"] for r in lines[1]["results"]] == [False, True]
        assert lines[2]["engine"]["events_consumed"] > 0
        assert lines[3]["ok"] is False
        assert lines[4]["shutdown"] is True
        assert snapshot.exists()

    def test_hundred_line_session_then_resume_query(
        self, capsys, hits_file, tmp_path
    ):
        """A real stdin pipe: 100 mixed lines, then a resumed query.

        The server answers every line, refuses exactly the 5 malformed
        ones (broken JSON, a blank line, an unknown op, a query without
        ``q``, a non-object), exits 0 and leaves a snapshot that
        ``cellspot query`` resumes from.
        """
        requests = [
            json.dumps({"op": "query", "q": f"1.0.{i}.9"}) for i in range(40)
        ]
        requests += [
            json.dumps({"op": "query", "q": f"1.0.{i}.0/24"})
            for i in range(20)
        ]
        requests += [
            json.dumps({"op": "query", "qs": [f"2.0.{i}.1", "not-an-ip"]})
            for i in range(20)
        ]
        malformed = ["{broken", "", '{"op": "nope"}', '{"op": "query"}', "[]"]
        requests += malformed
        requests += [json.dumps({"op": "stats"})] * 14
        requests.append(json.dumps({"op": "shutdown"}))
        assert len(requests) == 100
        snapshot = tmp_path / "snap.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(REPO / "src"), env.get("PYTHONPATH")])
        )
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "serve",
             "--events", str(hits_file), "--snapshot", str(snapshot),
             "--window-events", "5000"],
            input="\n".join(requests) + "\n", cwd=tmp_path, env=env,
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        answers = [json.loads(line) for line in proc.stdout.splitlines()]
        assert len(answers) == 100
        assert answers[-1].get("shutdown") is True
        refused = [i for i, answer in enumerate(answers) if not answer["ok"]]
        assert refused == list(range(80, 80 + len(malformed)))
        assert snapshot.stat().st_size > 0

        # The resumed run must ask for the snapshot's window policy;
        # any other policy is refused (exit 2, see below).
        assert main([
            "query", "1.0.0.9", "1.0.0.0/8",
            "--events", str(hits_file), "--snapshot", str(snapshot),
            "--window-events", "5000",
        ]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2

    @pytest.mark.skipif(
        not hasattr(signal, "SIGUSR1"), reason="no SIGUSR1 on this platform"
    )
    def test_sigusr1_dumps_metrics_json_and_keeps_serving(
        self, hits_file, beacon_hits, tmp_path
    ):
        """Without --metrics-out/--trace-out, SIGUSR1 writes the
        registry's JSON to stderr; the server answers on."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(REPO / "src"), env.get("PYTHONPATH")])
        )
        query = json.dumps({"op": "query", "q": _known_address(beacon_hits)})
        err_path = tmp_path / "serve.err"
        with open(err_path, "w") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve",
                 "--events", str(hits_file), "--window-events", "5000"],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err,
                cwd=tmp_path, env=env, text=True,
            )
            try:
                proc.stdin.write(query + "\n")
                proc.stdin.flush()
                assert json.loads(proc.stdout.readline())["ok"]
                proc.send_signal(signal.SIGUSR1)
                deadline = time.monotonic() + 60.0
                while "events_ingested_total" not in err_path.read_text():
                    assert proc.poll() is None, err_path.read_text()
                    assert time.monotonic() < deadline, "no SIGUSR1 dump"
                    time.sleep(0.05)
                proc.stdin.write(query + "\n")
                proc.stdin.flush()
                assert json.loads(proc.stdout.readline())["ok"]
                proc.stdin.write(json.dumps({"op": "shutdown"}) + "\n")
                proc.stdin.close()
                assert proc.wait(timeout=60) == 0
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait(timeout=30)
                proc.stdout.close()
        text = err_path.read_text()
        start = text.index("{")
        dump, _end = json.JSONDecoder().raw_decode(text, start)
        assert dump["events_ingested_total"]["value"] > 0

    def test_resume_then_drain_matches_batch(
        self, monkeypatch, capsys, hits_file, beacon_hits, tmp_path
    ):
        """Serve, kill (shutdown mid-stream), re-serve: exact totals."""
        snapshot = tmp_path / "snap.json"
        monkeypatch.setattr(
            "sys.stdin", io.StringIO('{"op": "shutdown"}\n')
        )
        assert main([
            "serve", "--events", str(hits_file),
            "--snapshot", str(snapshot), "--ingest-batch", "3000",
        ]) == 0
        consumed_early = json.loads(snapshot.read_text())["events_consumed"]
        assert 0 < consumed_early < 8000
        capsys.readouterr()

        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        assert main([
            "serve", "--events", str(hits_file),
            "--snapshot", str(snapshot),
        ]) == 0
        capsys.readouterr()
        final = json.loads(snapshot.read_text())
        assert final["events_consumed"] == 8000

        from repro.stream import StreamEngine

        resumed = StreamEngine.load_snapshot(snapshot)
        direct = StreamEngine(policy=resumed.policy)
        direct.ingest_many(beacon_hits[:8000])
        assert resumed.ratio_table() == direct.ratio_table()

    def test_stale_snapshot_policy_is_exit_2(
        self, monkeypatch, capsys, hits_file, tmp_path
    ):
        snapshot = tmp_path / "snap.json"
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        assert main([
            "serve", "--events", str(hits_file),
            "--snapshot", str(snapshot), "--window-events", "1000",
        ]) == 0
        capsys.readouterr()
        assert main([
            "serve", "--events", str(hits_file),
            "--snapshot", str(snapshot), "--window-events", "2000",
        ]) == 2
        assert "window policy" in capsys.readouterr().err


class TestQueryCommand:
    def test_one_shot_against_event_file(
        self, capsys, hits_file, beacon_hits
    ):
        code = main([
            "query", _known_address(beacon_hits),
            "--events", str(hits_file),
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["matched"] is True
        assert payload["subnet"] == str(beacon_hits[0].subnet)

    def test_malformed_query_is_exit_1(self, capsys, hits_file):
        code = main(["query", "junk", "--events", str(hits_file)])
        assert code == 1
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["ok"] is False

    def test_queries_from_stdin(
        self, monkeypatch, capsys, hits_file, beacon_hits
    ):
        monkeypatch.setattr(
            "sys.stdin",
            io.StringIO(_known_address(beacon_hits) + "\n10.255.0.9\n"),
        )
        code = main(["query", "-", "--events", str(hits_file)])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2

    def test_no_source_is_exit_2(self, capsys, tmp_path):
        code = main([
            "query", "192.0.2.1", "--snapshot", str(tmp_path / "nope.json"),
        ])
        assert code == 2
        assert "no events" in capsys.readouterr().err


class TestDatasetsHits:
    def test_hits_export_round_trips_into_serve(
        self, capsys, tmp_path, monkeypatch
    ):
        code = main([
            "datasets", "--out", str(tmp_path), "--hits",
            "--hit-volume", "2000", "--base-hits", "1.0",
            "--scale", "0.002", "--seed", "3",
        ])
        assert code == 0
        hits_path = tmp_path / "hits.jsonl"
        assert hits_path.exists()
        capsys.readouterr()

        monkeypatch.setattr("sys.stdin", io.StringIO('{"op":"stats"}\n'))
        assert main(["serve", "--events", str(hits_path)]) == 0
        response = json.loads(capsys.readouterr().out.splitlines()[0])
        assert response["engine"]["events_consumed"] > 0
