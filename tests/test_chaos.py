"""Chaos runner report model, ``cellspot chaos`` CLI plumbing, and the
smoke fault plan run end to end.

The report-model and CLI-failure tests are cheap; the smoke-plan test
runs the full drill matrix (world generation + pools + serve loops,
about 10 s) as a real ``cellspot chaos`` process and checks its report.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.cli import main
from repro.runtime.chaos import ChaosReport, DrillResult

REPO = Path(__file__).resolve().parent.parent


class TestReportModel:
    def test_drill_ok_requires_recovery_and_no_divergence(self):
        assert DrillResult(drill="d", faults=[], recovered=True,
                           identical=True).ok
        assert DrillResult(drill="d", faults=[], recovered=True,
                           identical=None).ok  # shed-only drills
        assert not DrillResult(drill="d", faults=[], recovered=False,
                               identical=True).ok
        assert not DrillResult(drill="d", faults=[], recovered=True,
                               identical=False).ok

    def test_report_ok_is_conjunction(self):
        good = DrillResult(drill="a", faults=["x"], recovered=True,
                           identical=True)
        bad = DrillResult(drill="b", faults=["y"], recovered=False)
        assert ChaosReport(plan="p", seed=1, drills=[good]).ok
        assert not ChaosReport(plan="p", seed=1, drills=[good, bad]).ok

    def test_unmatched_faults_fail_the_report(self):
        good = DrillResult(drill="a", faults=["x"], recovered=True,
                           identical=True)
        report = ChaosReport(plan="p", seed=1, drills=[good],
                             unmatched_faults=["typo-site"])
        assert not report.ok

    def test_to_dict_round_trips_through_json(self):
        report = ChaosReport(
            plan="p", seed=7,
            drills=[DrillResult(drill="a", faults=["x"],
                                injected={"x": 2}, recovered=True,
                                identical=True, detail="healed")],
            retry_alert={"fired": True, "resolved": True},
            p99_state="ok",
        )
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["ok"] is True
        assert payload["drills"][0]["injected"] == {"x": 2}
        assert payload["retry_alert"]["fired"] is True

    def test_render_mentions_every_drill_and_verdict(self):
        report = ChaosReport(
            plan="p", seed=1,
            drills=[DrillResult(drill="executor", faults=["x"],
                                recovered=True, identical=True)],
        )
        rendered = report.render()
        assert "executor" in rendered
        assert "ok" in rendered


class TestChaosCli:
    def test_unreadable_plan_exits_2(self, tmp_path, capsys):
        assert main(["chaos", "--plan", str(tmp_path / "nope.toml")]) == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_plan_exits_2(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text('{"faults": []}')
        assert main(["chaos", "--plan", str(plan)]) == 2
        assert "error" in capsys.readouterr().err


class TestSmokePlanDrill:
    """``cellspot chaos --plan examples/fault_plans/smoke.toml``: every
    layer heals, byte-identical where output exists, and the alert
    and SLO checks hold."""

    def test_smoke_plan_heals_every_layer(self, tmp_path):
        report_path = tmp_path / "chaos_report.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(REPO / "src"), env.get("PYTHONPATH")])
        )
        completed = subprocess.run(
            [sys.executable, "-m", "repro.cli", "chaos",
             "--plan", str(REPO / "examples" / "fault_plans" / "smoke.toml"),
             "--report", str(report_path)],
            capture_output=True, text=True, timeout=600, env=env,
            cwd=tmp_path,
        )
        assert completed.returncode == 0, completed.stderr[-2000:]
        report = json.loads(report_path.read_text())
        assert report["ok"], report
        assert not report["unmatched_faults"], report["unmatched_faults"]
        drills = {d["drill"]: d for d in report["drills"]}
        assert set(drills) == {"executor", "cache", "stream", "serve"}
        for drill in drills.values():
            assert drill["ok"] and drill["recovered"], drill
            assert drill["injected"], drill  # every drill really fired
        # Differential proof: healed layers are byte-identical.
        for name in ("executor", "cache", "stream"):
            assert drills[name]["identical"] is True, drills[name]
        # The injected retry storm crossed the SLO rule and resolved.
        assert report["retry_alert"]["fired"], report["retry_alert"]
        assert report["retry_alert"]["resolved"], report["retry_alert"]
        # Shedding kept the served requests inside the latency SLO.
        assert report["p99_state"] == "ok", report["p99_state"]
