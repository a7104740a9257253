"""`cellspot bench-diff` over perfbench result files."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.obs.benchdiff import (
    DEFAULT_TOLERANCE,
    LAYERS_PATH,
    compare_results,
    load_directions,
    load_result,
    render_diff,
)

REPO = Path(__file__).resolve().parents[1]
DIRECTIONS = load_directions(REPO / LAYERS_PATH)


def _result(details, workload="census"):
    return {"workload": workload, "details": details}


def _compare(old, new, **kwargs):
    return compare_results(_result(old), _result(new), DIRECTIONS, **kwargs)


class TestReportIO:
    def test_load_rejects_non_reports(self, tmp_path):
        for payload in ({"anything": 1}, [1, 2], {"details": [1]}):
            path = tmp_path / "other.json"
            path.write_text(json.dumps(payload))
            with pytest.raises(ValueError, match="not a perfbench result"):
                load_result(path)

    def test_load_rejects_non_numeric_figures(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text(json.dumps(_result({"setup_s": "fast"})))
        with pytest.raises(ValueError, match="details.setup_s"):
            load_result(path)

    def test_load_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_result(tmp_path / "absent.json")


class TestCompare:
    def test_within_tolerance_is_ok(self):
        (finding,) = _compare({"read_qps": 100.0}, {"read_qps": 95.0})
        assert finding["status"] == "ok"
        assert finding["change"] == pytest.approx(-0.05)

    def test_drop_beyond_tolerance_regresses(self):
        (finding,) = _compare({"read_qps": 100.0}, {"read_qps": 80.0})
        assert finding["status"] == "regressed"

    def test_gain_beyond_tolerance_improves(self):
        (finding,) = _compare({"read_qps": 100.0}, {"read_qps": 150.0})
        assert finding["status"] == "improved"

    def test_lower_is_better_inverts_direction(self):
        old = {"setup_s": 2.0}
        assert _compare(old, {"setup_s": 3.0})[0]["status"] == "regressed"
        assert _compare(old, {"setup_s": 1.0})[0]["status"] == "improved"

    def test_pattern_declared_figure_regresses(self):
        (finding,) = _compare(
            {"experiments.fig3_s": 0.05}, {"experiments.fig3_s": 0.10}
        )
        assert finding["better"] == "lower"
        assert finding["status"] == "regressed"

    def test_undeclared_figure_never_regresses(self):
        (finding,) = _compare({"made.up_s": 1.0}, {"made.up_s": 9.0})
        assert finding["better"] is None
        assert finding["status"] == "ok"
        assert finding["change"] == pytest.approx(8.0)

    def test_added_and_removed(self):
        findings = _compare({"census_s": 1.0}, {"pipeline_s": 2.0})
        by_name = {f["metric"]: f for f in findings}
        assert by_name["census_s"]["status"] == "removed"
        assert by_name["pipeline_s"]["status"] == "added"
        assert by_name["pipeline_s"]["change"] is None

    def test_custom_tolerance(self):
        old, new = {"read_qps": 100.0}, {"read_qps": 94.0}
        assert _compare(old, new, tolerance=0.10)[0]["status"] == "ok"
        assert _compare(old, new, tolerance=0.05)[0]["status"] == "regressed"
        assert DEFAULT_TOLERANCE == 0.10

    def test_zero_old_value_is_ok_not_div_by_zero(self):
        (finding,) = _compare({"scale.shed": 0.0}, {"scale.shed": 50.0})
        assert finding["change"] is None
        assert finding["status"] == "ok"


class TestRenderDiff:
    def test_table_shape(self):
        findings = _compare(
            {"read_qps": 100.0, "setup_s": 2.0, "made.up_s": 1.0},
            {"read_qps": 80.0, "setup_s": 1.0, "made.up_s": 1.0},
        )
        text = render_diff(findings, "old.json", "new.json")
        assert "bench-diff: old.json -> new.json" in text
        assert "✖ read_qps" in text
        assert "▲ setup_s" in text
        assert "[ok, undeclared]" in text
        assert "1 regressed, 1 improved" in text

    def test_empty_reports(self):
        text = render_diff([], "a", "b")
        assert "(no figures on either side)" in text
