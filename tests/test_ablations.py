"""The paper's robustness claims, as ablations on the shared lab.

Each test varies one knob of the method -- the AS filter rules, CGN
demand concentration, the Wilson-confidence classifier, aggregation
granularity, the dedicated/mixed CFD cutoff, beacon sampling volume,
tethering noise, the cellular-ratio threshold -- scores the result
against the world's planted truth, and asserts the claim the paper
makes (or implies) about that knob.  Run with ``-s`` to see each
ablation's table.
"""

from repro.analysis.ablation import reaggregate_beacons
from repro.analysis.report import render_table
from repro.cdn.beacon import BeaconConfig, BeaconGenerator
from repro.cdn.demand import DemandGenerator
from repro.core.asn_classifier import ASFilterConfig, identify_cellular_ases
from repro.core.classifier import SubnetClassifier
from repro.core.confidence import ConfidentClassifier
from repro.core.mixed import mixed_share, operator_profiles
from repro.core.ratios import RatioTable
from repro.datasets.beacon_dataset import BeaconDataset, SubnetBeaconCounts
from repro.net.asn import ASType
from repro.stats.concentration import gini_coefficient, smallest_covering
from repro.stats.confusion import BinaryConfusion
from repro.stats.sampling import binomial
from repro.world.allocation import AllocationModel
from repro.world.build import WorldParams, build_world


# ---- the three AS filtering heuristics (section 5.1) ----------------------
#
# Each rule should remove false positives without sacrificing real
# carriers: disabling any rule should cost precision, not recall.

AS_FILTER_VARIANTS = {
    "all rules": dict(),
    "no rule 1 (demand)": dict(min_cellular_du=0.0),
    "no rule 2 (hits)": dict(min_beacon_hits=0),
    "no rule 3 (class)": dict(require_access_class=False),
    "no rules": dict(min_cellular_du=0.0, min_beacon_hits=0,
                     require_access_class=False),
}


def _score_as_filters(lab, overrides):
    base = lab.spotter.as_filter
    config = ASFilterConfig(
        min_cellular_du=overrides.get("min_cellular_du", base.min_cellular_du),
        min_beacon_hits=overrides.get("min_beacon_hits", base.min_beacon_hits),
        require_access_class=overrides.get(
            "require_access_class", base.require_access_class
        ),
    )
    result = identify_cellular_ases(
        lab.result.classification, lab.demand, lab.beacons,
        lab.as_classes, config,
    )
    truth = lab.world.truth_cellular_asns()
    detected = set(result.accepted)
    confusion = BinaryConfusion(
        tp=len(detected & truth),
        fp=len(detected - truth),
        fn=len(truth - detected),
    )
    return len(detected), confusion


def test_as_filter_ablation(lab):
    results = {
        name: _score_as_filters(lab, overrides)
        for name, overrides in AS_FILTER_VARIANTS.items()
    }
    rows = [
        [name, count, f"{c.precision:.3f}", f"{c.recall:.3f}"]
        for name, (count, c) in results.items()
    ]
    print()
    print(render_table(["variant", "accepted", "precision", "recall"], rows,
                       title="AS filter ablation (vs ground-truth ASNs)"))
    full = results["all rules"][1]
    unfiltered = results["no rules"][1]
    # The full rule set buys precision over the straw man...
    assert full.precision > unfiltered.precision
    assert full.precision > 0.95
    # ...without losing real carriers to the filters.
    assert full.recall >= unfiltered.recall - 0.05


# ---- is the concentration finding a CGN artifact? (yes) -------------------
#
# The ``no_cgn`` allocation model spreads cellular demand as flat as
# fixed-line demand; the contrast with the paper's model quantifies how
# much of Finding 3 (section 6.4) is carrier-grade NAT rather than
# anything intrinsic to cellular traffic.

CGN_SCALE = 0.0025


def _concentration(world):
    demand = DemandGenerator(world).build_dataset()
    biggest = max(
        world.topology.cellular_plans(), key=lambda p: p.cellular_demand
    )
    dus = [
        demand.du_of(s.prefix)
        for s in world.allocation.by_asn[biggest.record.asn]
        if s.is_cellular and demand.du_of(s.prefix) > 0
    ]
    return {
        "subnets": len(dus),
        "covering_99": smallest_covering(dus, 0.99),
        "gini": gini_coefficient(dus),
    }


def test_cgn_ablation(lab):
    params = WorldParams(seed=lab.world.params.seed, scale=CGN_SCALE,
                         background_as_count=300)
    with_cgn = build_world(params)
    without = build_world(params, allocation_model=AllocationModel.no_cgn())
    results = {
        "CGN (paper model)": _concentration(with_cgn),
        "no CGN": _concentration(without),
    }
    rows = [
        [name, stats["subnets"], stats["covering_99"], f"{stats['gini']:.2f}"]
        for name, stats in results.items()
    ]
    print()
    print(render_table(
        ["world", "active cell subnets", "subnets for 99% of demand", "gini"],
        rows,
        title="CGN ablation: demand concentration in the largest carrier",
    ))
    cgn = results["CGN (paper model)"]
    flat = results["no CGN"]
    # The covering set balloons and the gini collapses without CGN.
    assert flat["covering_99"] / max(flat["subnets"], 1) > (
        cgn["covering_99"] / max(cgn["subnets"], 1)
    )
    assert cgn["gini"] > flat["gini"]


# ---- point estimate vs Wilson-confidence classification ------------------


def _score_subnets(lab, cellular_set):
    confusion = BinaryConfusion()
    for record in lab.result.ratios:
        truth = lab.world.truth_is_cellular(record.subnet)
        if truth is None:
            continue
        confusion.observe(truth, record.subnet in cellular_set)
    return confusion


def test_confidence_ablation(lab):
    ratios = lab.result.ratios
    plain = SubnetClassifier().classify(ratios)
    confident = ConfidentClassifier().classify(ratios)
    results = {
        "plain threshold": (_score_subnets(lab, plain.cellular_set()), 0.0),
        "wilson 95%": (
            _score_subnets(lab, confident.cellular_set()),
            confident.uncertain_fraction(),
        ),
    }
    rows = [
        [name, f"{c.precision:.3f}", f"{c.recall:.3f}",
         f"{100 * uncertain:.1f}%"]
        for name, (c, uncertain) in results.items()
    ]
    print()
    print(render_table(
        ["classifier", "precision", "recall", "abstained"],
        rows,
        title="confidence ablation (vs world truth)",
    ))
    plain, _ = results["plain threshold"]
    wilson, abstained = results["wilson 95%"]
    assert wilson.precision >= plain.precision
    assert abstained < 0.25  # most of the map stays decided


# ---- aggregation granularity (/24 vs /22 vs /20 vs /16) -------------------
#
# The paper aggregates at /24, citing Lee & Spring's finding that /24s
# are access-homogeneous.  Coarser keys mix cellular CGN blocks with
# the carrier's fixed-line space, so per-/24 accuracy should degrade as
# the key shortens.

GRANULARITY_LENGTHS = (24, 22, 20, 16)


def _score_granularity(lab, length):
    """Per-/24 confusion when classification happens at ``length``."""
    coarse = reaggregate_beacons(lab.beacons, length)
    classification = SubnetClassifier().classify(RatioTable.from_beacons(coarse))
    confusion = BinaryConfusion()
    for counts in lab.beacons:
        if counts.subnet.family != 4 or counts.api_hits == 0:
            continue
        truth = lab.world.truth_is_cellular(counts.subnet)
        if truth is None:
            continue
        key = counts.subnet.supernet(length) if length < 24 else counts.subnet
        confusion.observe(truth, classification.is_cellular(key))
    return confusion


def test_granularity_ablation(lab):
    results = {n: _score_granularity(lab, n) for n in GRANULARITY_LENGTHS}
    rows = [
        [f"/{n}", f"{c.precision:.3f}", f"{c.recall:.3f}", f"{c.f1:.3f}"]
        for n, c in results.items()
    ]
    print()
    print(render_table(["granularity", "precision", "recall", "F1"], rows,
                       title="granularity ablation (per-/24 accuracy)"))
    # /24 is the best operating point; /16 visibly degrades.
    assert results[24].f1 >= results[16].f1
    assert results[24].f1 > 0.6


# ---- the dedicated/mixed CFD cutoff (paper value 0.9) ---------------------
#
# The paper picked 0.9 after auditing the top-50 carriers; the choice
# should be a plateau rather than a knife edge.

MIXED_CUTOFFS = (0.8, 0.85, 0.9, 0.95)


def _score_mixed_cutoff(lab, cutoff):
    profiles = operator_profiles(lab.result.as_result, cutoff=cutoff)
    registry = lab.world.topology.registry
    agree = total = 0
    for asn, profile in profiles.items():
        record = registry.find(asn)
        if record is None or not record.is_cellular:
            continue
        total += 1
        truth_mixed = record.as_type is ASType.CELLULAR_MIXED
        if truth_mixed == profile.is_mixed:
            agree += 1
    return mixed_share(profiles.values()), agree / total if total else 0.0


def test_mixed_cutoff_ablation(lab):
    results = {c: _score_mixed_cutoff(lab, c) for c in MIXED_CUTOFFS}
    rows = [
        [f"{cutoff:g}", f"{share:.3f}", f"{agreement:.3f}"]
        for cutoff, (share, agreement) in results.items()
    ]
    print()
    print(render_table(["CFD cutoff", "mixed share", "truth agreement"], rows,
                       title="mixed/dedicated cutoff ablation"))
    # The paper's 0.9 sits on a plateau: neighbours agree within 10pp.
    shares = [share for share, _ in results.values()]
    assert max(shares) - min(shares) < 0.25
    # And agreement with planted truth is high at the paper's value.
    assert results[0.9][1] > 0.85


# ---- beacon sampling volume -----------------------------------------------
#
# BEACON is a sampled RUM feed: subnet-level recall should degrade as
# per-subnet hit counts shrink while precision holds (section 4.2's
# central claim: cellular labels stay trustworthy at low volume).

SAMPLING_VOLUMES = {
    "full (2.0M)": BeaconConfig(demand_hits=2_000_000, base_hits=40),
    "quarter (500k)": BeaconConfig(demand_hits=500_000, base_hits=10),
    "tiny (100k)": BeaconConfig(demand_hits=100_000, base_hits=2),
}


def _score_sampling(lab, config):
    beacons = BeaconGenerator(lab.world, config).summarize()
    classification = SubnetClassifier().classify(RatioTable.from_beacons(beacons))
    confusion = BinaryConfusion()
    active_truth = {
        s.prefix: s.is_cellular
        for s in lab.world.subnets()
        if s.beacon_coverage > 0
    }
    for prefix, truth in active_truth.items():
        confusion.observe(truth, classification.is_cellular(prefix))
    return beacons.total_hits, confusion


def test_sampling_ablation(lab):
    results = {
        name: _score_sampling(lab, config)
        for name, config in SAMPLING_VOLUMES.items()
    }
    rows = [
        [name, f"{hits:,}", f"{c.precision:.3f}", f"{c.recall:.3f}"]
        for name, (hits, c) in results.items()
    ]
    print()
    print(render_table(["volume", "hits", "precision", "recall"], rows,
                       title="beacon sampling ablation (vs active-subnet truth)"))
    full = results["full (2.0M)"][1]
    tiny = results["tiny (100k)"][1]
    # Volume buys recall...
    assert full.recall > tiny.recall
    # ...while precision holds even at low volume.
    assert tiny.precision > 0.7


# ---- tethering/hotspot noise intensity ------------------------------------
#
# Network Information API noise is asymmetric: tethering only dilutes
# cellular subnets' ratios.  Scaling the dilution (0.5x to 4x the
# calibrated hotspot rate) shows when the majority-vote classifier
# starts losing cellular subnets, i.e. how much headroom the paper's
# 0.5 threshold has.

TETHER_FACTORS = (0.5, 1.0, 2.0, 3.0, 4.0)


def _with_tether_noise(lab, factor):
    """Re-draw cellular labels with the tethering rate scaled."""
    rng = lab.world.rng(f"tether-ablation:{factor}")
    noisy = BeaconDataset(lab.beacons.month)
    for counts in lab.beacons:
        plan = lab.world.allocation.by_prefix.get(counts.subnet)
        if plan is None:
            continue
        if plan.is_cellular:
            noncellular_rate = min((1.0 - plan.cellular_label_rate) * factor, 1.0)
            rate = 1.0 - noncellular_rate
        else:
            rate = plan.cellular_label_rate
        noisy.add_counts(
            SubnetBeaconCounts(
                subnet=counts.subnet,
                asn=counts.asn,
                country=counts.country,
                hits=counts.hits,
                api_hits=counts.api_hits,
                cellular_hits=binomial(rng, counts.api_hits, rate),
            )
        )
    return noisy


def _score_tethering(lab, factor):
    beacons = _with_tether_noise(lab, factor)
    result = SubnetClassifier().classify(RatioTable.from_beacons(beacons))
    confusion = BinaryConfusion()
    for counts in beacons:
        if counts.api_hits == 0:
            continue
        truth = lab.world.truth_is_cellular(counts.subnet)
        if truth is None:
            continue
        confusion.observe(truth, result.is_cellular(counts.subnet))
    return confusion


def test_tethering_ablation(lab):
    results = {factor: _score_tethering(lab, factor) for factor in TETHER_FACTORS}
    rows = [
        [f"{factor:g}x", f"{c.precision:.3f}", f"{c.recall:.3f}",
         f"{c.f1:.3f}"]
        for factor, c in results.items()
    ]
    print()
    print(render_table(
        ["tether noise", "precision", "recall", "F1"],
        rows,
        title="tethering-noise ablation (vs world truth)",
    ))
    # Precision is immune to tethering at any level (the asymmetry).
    assert all(c.precision > 0.8 for c in results.values())
    # Recall degrades monotonically-ish and collapses only at extremes.
    assert results[1.0].recall > 0.8
    assert results[0.5].recall >= results[4.0].recall


# ---- the cellular-ratio threshold (paper default 0.5) ---------------------
#
# Scored against world truth restricted to active subnets (inactive
# reserves are unobservable by construction).  The claim: accuracy is
# stable across a wide band, so the exact choice of 0.5 is immaterial.

THRESHOLDS = (0.1, 0.3, 0.5, 0.7, 0.9, 0.96)


def _score_threshold(lab, threshold):
    classification = SubnetClassifier(threshold=threshold).classify(
        lab.result.ratios
    )
    confusion = BinaryConfusion()
    for subnet, predicted in classification.labels.items():
        truth = lab.world.truth_is_cellular(subnet)
        if truth is None:
            continue
        confusion.observe(truth, predicted)
    return confusion


def test_threshold_ablation(lab):
    results = {t: _score_threshold(lab, t) for t in THRESHOLDS}
    rows = [
        [f"{t:g}", f"{c.precision:.3f}", f"{c.recall:.3f}", f"{c.f1:.3f}"]
        for t, c in results.items()
    ]
    print()
    print(render_table(["threshold", "precision", "recall", "F1"], rows,
                       title="threshold ablation (vs world truth)"))
    # Stability claim: F1 at 0.1 and at 0.7 within 15% of F1 at 0.5.
    f1_mid = results[0.5].f1
    assert abs(results[0.1].f1 - f1_mid) <= 0.15 * f1_mid
    assert abs(results[0.7].f1 - f1_mid) <= 0.15 * f1_mid
    # Precision never collapses anywhere on the grid.
    assert all(c.precision > 0.6 for c in results.values())
