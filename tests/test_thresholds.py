"""Unit tests for threshold sensitivity sweeps (Figure 3 machinery)."""

import pytest

from repro.core.classifier import SubnetClassifier
from repro.core.ratios import RatioRecord, RatioTable
from repro.core.thresholds import (
    ThresholdSweep,
    default_threshold_grid,
    sweep_many,
    sweep_thresholds,
)
from repro.core.validation import validate_against_carrier
from repro.datasets.demand_dataset import DemandDataset
from repro.datasets.groundtruth import CarrierGroundTruth
from repro.net.prefix import Prefix


def p(text):
    return Prefix.parse(text)


@pytest.fixture()
def ratios():
    # Cellular subnets at various ratios; fixed subnets clean.
    return RatioTable(
        [
            RatioRecord(p("10.0.0.0/24"), 1, "US", 100, 85, 100),
            RatioRecord(p("10.0.1.0/24"), 1, "US", 100, 92, 100),
            RatioRecord(p("10.0.2.0/24"), 1, "US", 100, 70, 100),
            RatioRecord(p("10.1.0.0/24"), 1, "US", 100, 1, 100),
            RatioRecord(p("10.1.1.0/24"), 1, "US", 100, 0, 100),
        ]
    )


@pytest.fixture()
def truth():
    return CarrierGroundTruth(
        label="Carrier T",
        asn=1,
        country="US",
        mixed=False,
        cellular=(p("10.0.0.0/24"), p("10.0.1.0/24"), p("10.0.2.0/24")),
        fixed=(p("10.1.0.0/24"), p("10.1.1.0/24")),
    )


class TestGrid:
    def test_default_grid_spans(self):
        grid = default_threshold_grid()
        assert grid[0] > 0
        assert grid[-1] == 1.0
        assert grid == sorted(grid)

    def test_validation(self):
        with pytest.raises(ValueError):
            default_threshold_grid(step=0)
        with pytest.raises(ValueError):
            default_threshold_grid(step=0.7)


class TestSweep:
    def test_plateau_then_drop(self, ratios, truth):
        sweep = sweep_thresholds(ratios, truth, weighted=False)
        # Below 0.7 everything cellular is caught, no false positives.
        assert sweep.score_at(0.1) == pytest.approx(1.0)
        assert sweep.score_at(0.5) == pytest.approx(1.0)
        assert sweep.score_at(0.69) == pytest.approx(1.0)
        # Above the lowest cellular ratio, recall decays.
        assert sweep.score_at(0.8) < 1.0
        assert sweep.score_at(1.0) < sweep.score_at(0.8)

    def test_stable_range(self, ratios, truth):
        sweep = sweep_thresholds(ratios, truth, weighted=False)
        low, high = sweep.stable_range(tolerance=0.01)
        assert low <= 0.1
        assert 0.65 <= high <= 0.75

    def test_best(self, ratios, truth):
        sweep = sweep_thresholds(ratios, truth, weighted=False)
        _, best_f1 = sweep.best()
        assert best_f1 == pytest.approx(1.0)

    def test_custom_grid(self, ratios, truth):
        sweep = sweep_thresholds(
            ratios, truth, thresholds=[0.25, 0.75], weighted=False
        )
        assert sweep.thresholds == (0.25, 0.75)
        with pytest.raises(ValueError):
            sweep_thresholds(ratios, truth, thresholds=[])

    def test_sweep_many(self, ratios, truth):
        sweeps = sweep_many(ratios, {"Carrier T": truth}, weighted=False)
        assert set(sweeps) == {"Carrier T"}
        assert isinstance(sweeps["Carrier T"], ThresholdSweep)


class TestStableRangeEdge:
    def test_no_thresholds_in_tolerance_impossible(self):
        sweep = ThresholdSweep("x", (0.5,), (0.9,), weighted=False)
        low, high = sweep.stable_range()
        assert (low, high) == (0.5, 0.5)


class TestCarrierRowsOnly:
    """The sweep classifies only the carrier's rows; the scores must be
    those of classifying the whole table at every threshold."""

    def test_matches_full_table_sweep(self, lab):
        ratios = lab.result.ratios
        grid = default_threshold_grid()
        full = {
            (label, weighted): []
            for label in lab.carriers
            for weighted in (True, False)
        }
        for threshold in grid:
            result = SubnetClassifier(threshold=threshold).classify(ratios)
            for label, truth in lab.carriers.items():
                validation = validate_against_carrier(result, truth, lab.demand)
                full[label, True].append(validation.by_demand.f1)
                full[label, False].append(validation.by_cidr.f1)
        assert len(lab.carriers) == 3
        for (label, weighted), scores in full.items():
            truth = lab.carriers[label]
            assert len(truth.all_prefixes) < len(ratios)
            sweep = sweep_thresholds(
                ratios, truth, lab.demand, grid, weighted=weighted
            )
            assert sweep == ThresholdSweep(
                carrier=truth.label,
                thresholds=tuple(grid),
                f1_scores=tuple(scores),
                weighted=weighted,
            )


def reference_scores(ratios, truth, demand, grid, weighted):
    """Classify the whole table and validate it, once per threshold."""
    scores = []
    for threshold in grid:
        result = SubnetClassifier(threshold=threshold).classify(ratios)
        validation = validate_against_carrier(result, truth, demand)
        confusion = validation.by_demand if weighted else validation.by_cidr
        scores.append(confusion.f1)
    return tuple(scores)


class TestAgainstReferenceLoop:
    """The sweep's F1 tuple is float-equal to per-threshold classify +
    validate, including prefixes the classifier never labels cellular."""

    @pytest.fixture()
    def edges(self):
        cellular = [p(f"10.2.{i}.0/24") for i in range(9)]
        fixed = [p(f"10.3.{i}.0/24") for i in range(7)]
        # (api_hits, cellular_hits) per observed prefix; a prefix with
        # no entry is unobserved, one with 0 API hits sits below the
        # classifier's API-hit floor.
        counts = {
            cellular[0]: (7, 6), cellular[1]: (3, 3), cellular[2]: (9, 2),
            cellular[3]: (11, 10), cellular[4]: (0, 0), cellular[6]: (13, 7),
            cellular[7]: (5, 1), cellular[8]: (17, 17),
            fixed[0]: (7, 1), fixed[1]: (3, 3), fixed[2]: (0, 0),
            fixed[4]: (19, 0), fixed[5]: (6, 5), fixed[6]: (23, 23),
            p("10.9.0.0/24"): (5, 5),  # outside the carrier
        }
        # The public constructor refuses rows without API hits; tables
        # adopted from merged shard columns are not re-checked.
        ratios = RatioTable._from_ordered({
            prefix: RatioRecord(prefix, 1, "US", api, cell, api + 4)
            for prefix, (api, cell) in counts.items()
        })
        truth = CarrierGroundTruth(
            label="Carrier E", asn=1, country="US", mixed=True,
            cellular=tuple(cellular), fixed=tuple(fixed),
        )
        demand = DemandDataset.from_request_totals(
            (prefix, 1, "US", 3 + 7 * index % 11)
            for index, prefix in enumerate(
                cellular[1:] + fixed[:5] + [p("10.9.0.0/24")]
            )
        )
        return ratios, truth, demand

    @pytest.mark.parametrize("with_demand", [True, False])
    @pytest.mark.parametrize("weighted", [True, False])
    @pytest.mark.parametrize(
        "grid", [None, [1.0, 0.05, 0.2, 0.5, 0.5, 0.7, 0.85, 0.9999, 1.0]]
    )
    def test_f1_float_equal(self, edges, weighted, with_demand, grid):
        ratios, truth, demand = edges
        demand = demand if with_demand else None
        sweep = sweep_thresholds(ratios, truth, demand, grid, weighted)
        grid = grid if grid is not None else default_threshold_grid()
        expected = reference_scores(ratios, truth, demand, grid, weighted)
        assert sweep.thresholds == tuple(grid)
        assert sweep.f1_scores == expected
        assert len(set(expected)) > 3

    @pytest.mark.parametrize("bad", [0.0, -0.5, 1.0000001, 2.0])
    def test_grid_point_outside_unit_interval_raises(self, edges, bad):
        ratios, truth, demand = edges
        with pytest.raises(ValueError):
            sweep_thresholds(ratios, truth, demand, [0.5, bad, 0.9])
