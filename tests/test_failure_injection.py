"""Failure injection: malformed inputs must fail loudly, not silently.

The pipeline is meant to consume logs a third party generated; every
container therefore validates on ingest, and these tests feed each one
corrupted data.  The policy-matrix classes exercise the
:mod:`repro.runtime` degraded-operation paths: ``skip`` /
``quarantine`` policies, error budgets, truncated files, and the
checkpointed crash-then-resume loop.
"""

import io

import pytest

from repro.cdn.logs import BeaconHit, RequestRecord, read_jsonl
from repro.core.classifier import SubnetClassifier
from repro.core.ratios import RatioTable
from repro.datasets.beacon_dataset import BeaconDataset, SubnetBeaconCounts
from repro.datasets.demand_dataset import DemandDataset
from repro.net.prefix import Prefix
from repro.runtime.policies import (
    ErrorBudgetExceeded,
    IngestFault,
    IngestPolicy,
)
from repro.runtime.quarantine import QuarantineSink, read_quarantine


def p(text):
    return Prefix.parse(text)


def beacon_jsonl(subnets=1000, corrupt_every=None):
    """A BEACON dump with ``subnets`` record lines, some corrupted.

    ``corrupt_every=k`` replaces every k-th record line (1-based within
    the records) with garbage; returns (text, corrupted_line_numbers)
    where line numbers are absolute (header is line 1).
    """
    lines = ['{"month":"2016-12","browsers":{}}']
    corrupted = []
    for index in range(1, subnets + 1):
        line_no = index + 1  # account for the header line
        if corrupt_every and index % corrupt_every == 0:
            lines.append(f'{{"subnet":"corrupt-{index}"')
            corrupted.append(line_no)
        else:
            octet_hi, octet_lo = divmod(index, 250)
            lines.append(
                f'{{"subnet":"10.{octet_hi}.{octet_lo}.0/24","asn":1,'
                f'"country":"US","hits":9,"api":4,"cell":2}}'
            )
    return "\n".join(lines) + "\n", corrupted


class TestCorruptedBeaconData:
    def test_inconsistent_counts_rejected_on_load(self):
        # cellular > api is impossible; the loader must refuse it.
        stream = io.StringIO(
            '{"month":"2016-12","browsers":{}}\n'
            '{"subnet":"10.0.0.0/24","asn":1,"country":"US",'
            '"hits":5,"api":2,"cell":4}\n'
        )
        with pytest.raises(ValueError):
            BeaconDataset.load(stream)

    def test_api_exceeding_hits_rejected(self):
        with pytest.raises(ValueError):
            SubnetBeaconCounts(p("10.0.0.0/24"), 1, "US", 5, 9, 1)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            SubnetBeaconCounts(p("10.0.0.0/24"), 1, "US", 5, 2, -1)

    def test_merge_cannot_break_invariants(self):
        dataset = BeaconDataset("2016-12")
        dataset.add_counts(SubnetBeaconCounts(p("10.0.0.0/24"), 1, "US", 5, 2, 1))
        counts = SubnetBeaconCounts(p("10.0.0.0/24"), 1, "US", 5, 2, 1)
        counts.cellular_hits = 3  # corrupt after construction
        with pytest.raises(ValueError):
            dataset.add_counts(counts)

    def test_malformed_json_line(self):
        stream = io.StringIO(
            '{"month":"2016-12","browsers":{}}\n'
            "this is not json\n"
        )
        with pytest.raises(ValueError):
            BeaconDataset.load(stream)


class TestCorruptedDemandData:
    def test_negative_du_rejected_on_load(self):
        stream = io.StringIO(
            '{"window_days":7}\n'
            '{"subnet":"10.0.0.0/24","asn":1,"country":"US","du":-5.0}\n'
        )
        with pytest.raises(ValueError):
            DemandDataset.load(stream)

    def test_duplicate_subnet_rejected_on_load(self):
        stream = io.StringIO(
            '{"window_days":7}\n'
            '{"subnet":"10.0.0.0/24","asn":1,"country":"US","du":1.0}\n'
            '{"subnet":"10.0.0.0/24","asn":1,"country":"US","du":2.0}\n'
        )
        with pytest.raises(ValueError):
            DemandDataset.load(stream)

    def test_missing_header(self):
        with pytest.raises(ValueError):
            DemandDataset.load(io.StringIO(""))


class TestCorruptedLogRecords:
    def test_beacon_hit_bad_prefix(self):
        with pytest.raises(Exception):
            BeaconHit.from_json(
                '{"month":"2016-12","ip":"10.0.0.1","subnet":"not-a-prefix",'
                '"asn":1,"country":"US","browser":"Chrome Mobile",'
                '"conn":"cellular"}'
            )

    def test_beacon_hit_unknown_browser(self):
        with pytest.raises(ValueError):
            BeaconHit.from_json(
                '{"month":"2016-12","ip":"10.0.0.1","subnet":"10.0.0.0/24",'
                '"asn":1,"country":"US","browser":"Netscape 4",'
                '"conn":"cellular"}'
            )

    def test_request_record_negative_count(self):
        with pytest.raises(ValueError):
            RequestRecord.from_json(
                '{"day":0,"subnet":"10.0.0.0/24","asn":1,"country":"US",'
                '"requests":-3}'
            )

    def test_read_jsonl_propagates_parse_errors(self):
        stream = io.StringIO('{"day":0,"broken\n')
        with pytest.raises(Exception):
            list(read_jsonl(stream, RequestRecord))


class TestPolicyMatrix:
    """skip vs quarantine vs strict vs budget on the same dirty file."""

    CORRUPT_EVERY = 100  # 1% corrupt-line rate over 1000 records

    def _dirty(self):
        return beacon_jsonl(subnets=1000, corrupt_every=self.CORRUPT_EVERY)

    def test_strict_aborts_with_line_context(self):
        text, corrupted = self._dirty()
        with pytest.raises(IngestFault) as excinfo:
            BeaconDataset.load(io.StringIO(text))
        assert excinfo.value.error.line_no == corrupted[0]
        assert excinfo.value.error.record_type == "SubnetBeaconCounts"
        assert f"line {corrupted[0]}" in str(excinfo.value)

    def test_skip_loads_the_clean_lines(self):
        text, corrupted = self._dirty()
        policy = IngestPolicy.skip()
        dataset = BeaconDataset.load(io.StringIO(text), policy=policy)
        assert len(dataset) == 1000 - len(corrupted)
        assert policy.stats.rejected_lines == len(corrupted)
        assert policy.stats.ok_lines == 1000 - len(corrupted)
        assert [e.line_no for e in policy.stats.errors] == corrupted

    def test_quarantine_sidecar_contains_exactly_the_rejects(self):
        text, corrupted = self._dirty()
        sidecar = io.StringIO()
        policy = IngestPolicy.quarantine(QuarantineSink(sidecar))
        dataset = BeaconDataset.load(io.StringIO(text), policy=policy)
        assert len(dataset) == 1000 - len(corrupted)
        sidecar.seek(0)
        records = list(read_quarantine(sidecar))
        assert [r.error.line_no for r in records] == corrupted
        original_lines = text.splitlines()
        for record in records:
            assert record.raw == original_lines[record.error.line_no - 1]
            assert record.error.reason  # every reject carries a reason

    def test_budget_exceeded_aborts(self):
        # 1% corruption must trip a 0.5% budget.
        text, _ = self._dirty()
        policy = IngestPolicy.skip(error_budget=0.005)
        with pytest.raises(ErrorBudgetExceeded):
            BeaconDataset.load(io.StringIO(text), policy=policy)

    def test_generous_budget_tolerates_the_same_file(self):
        text, corrupted = self._dirty()
        policy = IngestPolicy.skip(error_budget=0.05)
        dataset = BeaconDataset.load(io.StringIO(text), policy=policy)
        assert len(dataset) == 1000 - len(corrupted)

    def test_one_early_error_does_not_trip_percentage_budget(self):
        # First record corrupt, rest clean: 0.1% < 1% budget, and the
        # grace window stops 1/1=100% from tripping mid-stream.
        text, corrupted = beacon_jsonl(subnets=1000, corrupt_every=1000000)
        lines = text.splitlines()
        lines[1] = "garbage"
        policy = IngestPolicy.skip(error_budget=0.01)
        dataset = BeaconDataset.load(
            io.StringIO("\n".join(lines) + "\n"), policy=policy
        )
        assert len(dataset) == 999
        assert policy.stats.rejected_lines == 1

    def test_demand_skip_policy(self):
        stream = io.StringIO(
            '{"window_days":7}\n'
            '{"subnet":"10.0.0.0/24","asn":1,"country":"US","du":1.0}\n'
            "garbage\n"
            '{"subnet":"10.0.1.0/24","asn":1,"country":"US","du":2.0}\n'
        )
        policy = IngestPolicy.skip()
        dataset = DemandDataset.load(stream, policy=policy)
        assert len(dataset) == 2
        assert policy.stats.rejected_lines == 1
        assert policy.stats.errors[0].line_no == 3

    @pytest.mark.parametrize(
        "fields",
        [
            '"asn":"1","country":"US","du":1.0',
            '"asn":null,"country":"US","du":1.0',
            '"asn":1.5,"country":"US","du":1.0',
            f'"asn":{2**63},"country":"US","du":1.0',
            f'"asn":1,"country":"US","du":{10**400}',
            '"asn":1,"country":["US"],"du":1.0',
        ],
        ids=[
            "asn-string", "asn-null", "asn-float", "asn-too-large",
            "du-too-large", "country-list",
        ],
    )
    def test_demand_skip_leaves_no_half_written_record(self, fields):
        stream = io.StringIO(
            '{"window_days":7}\n'
            '{"subnet":"10.0.0.0/24","asn":1,"country":"US","du":1.0}\n'
            f'{{"subnet":"10.0.1.0/24",{fields}}}\n'
            '{"subnet":"10.0.2.0/24","asn":2,"country":"BR","du":2.0}\n'
        )
        policy = IngestPolicy.skip()
        dataset = DemandDataset.load(stream, policy=policy)
        assert policy.stats.rejected_lines == 1
        assert policy.stats.errors[0].line_no == 3
        assert len(dataset) == 2
        assert p("10.0.1.0/24") not in dataset
        assert [r.subnet for r in dataset] == [p("10.0.0.0/24"), p("10.0.2.0/24")]
        assert dataset.position == {p("10.0.0.0/24"): 0, p("10.0.2.0/24"): 1}
        assert list(dataset.asns) == [1, 2]
        assert list(dataset.dus) == [1.0, 2.0]
        assert dataset.country_names == ["US", "BR"]
        assert list(dataset.country_codes) == [0, 1]

    def test_read_jsonl_skip_policy_and_line_numbers(self):
        stream = io.StringIO(
            '{"day":0,"subnet":"10.0.0.0/24","asn":1,"country":"US",'
            '"requests":3}\n'
            '{"day":0,"broken\n'
            '{"day":1,"subnet":"10.0.1.0/24","asn":1,"country":"US",'
            '"requests":5}\n'
        )
        policy = IngestPolicy.skip()
        records = list(read_jsonl(stream, RequestRecord, policy=policy))
        assert [r.requests for r in records] == [3, 5]
        assert policy.stats.errors[0].line_no == 2
        assert policy.stats.errors[0].record_type == "RequestRecord"

    def test_read_jsonl_strict_names_missing_field(self):
        stream = io.StringIO(
            '{"day":0,"subnet":"10.0.0.0/24","asn":1,"country":"US"}\n'
        )
        with pytest.raises(IngestFault) as excinfo:
            list(read_jsonl(stream, RequestRecord))
        assert excinfo.value.error.field == "requests"
        assert excinfo.value.error.line_no == 1


class TestTruncatedFiles:
    """A killed writer leaves a mid-line truncation; loaders must cope."""

    def _truncated_text(self):
        text, _ = beacon_jsonl(subnets=50)
        return text[: len(text) - 25]  # chop inside the final record

    def test_truncated_beacon_strict_aborts_at_last_line(self):
        text = self._truncated_text()
        with pytest.raises(IngestFault) as excinfo:
            BeaconDataset.load(io.StringIO(text))
        assert excinfo.value.error.line_no == 51

    def test_truncated_beacon_skip_recovers_the_prefix(self):
        policy = IngestPolicy.skip()
        dataset = BeaconDataset.load(
            io.StringIO(self._truncated_text()), policy=policy
        )
        assert len(dataset) == 49
        assert policy.stats.rejected_lines == 1

    def test_atomic_writer_never_leaves_partial_files(self, tmp_path):
        from repro.runtime.checkpoint import atomic_writer

        target = tmp_path / "beacon.jsonl"
        target.write_text("intact previous content\n")
        with pytest.raises(RuntimeError):
            with atomic_writer(target) as stream:
                stream.write("half a li")
                raise RuntimeError("killed mid-write")
        # Old content survives and no temp litter remains.
        assert target.read_text() == "intact previous content\n"
        assert list(tmp_path.iterdir()) == [target]


class TestCrashThenResume:
    """``cellspot all --checkpoint`` round-trip with a forced failure."""

    ARGS = ["--scale", "0.001", "--seed", "7"]

    def test_checkpoint_resume_round_trip(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main
        from repro.experiments.base import INJECT_FAIL_ENV
        from repro.runtime.checkpoint import CheckpointStore

        ckpt = tmp_path / "ckpt"
        # Crash run: fig1 is forced to raise inside the guard.
        monkeypatch.setenv(INJECT_FAIL_ENV, "fig1")
        code = main(["all", "--checkpoint", str(ckpt)] + self.ARGS)
        out = capsys.readouterr().out
        assert code == 1  # the injected failure is reported
        assert "injected failure" in out
        assert "1 failed" in out
        assert "table8" in out  # later experiments still ran
        store = CheckpointStore(ckpt)
        assert "fig1" not in store.completed()
        assert "table8" in store.completed()
        manifest = store.load_manifest()
        assert manifest is not None
        assert manifest.dataset_digests.keys() == {"beacon", "demand"}
        assert any(k.startswith("pipeline.") for k in manifest.stage_timings)

        # Resume: the failure is gone; only fig1 runs, the rest skip.
        monkeypatch.delenv(INJECT_FAIL_ENV)
        code = main(["all", "--checkpoint", str(ckpt)] + self.ARGS)
        out = capsys.readouterr().out
        assert code == 0
        assert "24 skipped via checkpoint" in out
        assert CheckpointStore(ckpt).is_done("fig1")

    def test_checkpoint_refuses_a_different_run(self, tmp_path, capsys):
        from repro.cli import main

        ckpt = tmp_path / "ckpt"
        assert main(["all", "--checkpoint", str(ckpt)] + self.ARGS) in (0, 1)
        capsys.readouterr()
        code = main(
            ["all", "--checkpoint", str(ckpt), "--scale", "0.001",
             "--seed", "8"]
        )
        assert code == 2
        assert "different run" in capsys.readouterr().err


class TestPipelineEdgeCases:
    def test_classifier_on_empty_table_is_empty(self):
        result = SubnetClassifier().classify(RatioTable([]))
        assert len(result) == 0
        assert result.cellular_subnets() == []
        assert result.asns_with_cellular() == {}

    def test_identify_on_empty_classification(self):
        from repro.core.asn_classifier import identify_cellular_ases

        classification = SubnetClassifier().classify(RatioTable([]))
        demand = DemandDataset.from_request_totals(
            [(p("10.0.0.0/24"), 1, "US", 1)]
        )
        beacons = BeaconDataset("2016-12")
        result = identify_cellular_ases(classification, demand, beacons)
        assert result.candidate_count == 0
        assert result.accepted_count == 0
        assert all(filtered == 0 for _, filtered, _ in result.filter_summary())
