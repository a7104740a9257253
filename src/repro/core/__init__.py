"""The paper's contribution: cellular subnet and AS identification.

- :mod:`repro.core.ratios` -- per-subnet cellular ratios from BEACON
  data (section 4.1).
- :mod:`repro.core.classifier` -- the threshold classifier over ratios.
- :mod:`repro.core.validation` -- precision/recall/F1 against carrier
  ground truth, by CIDR count and by demand weight (Table 3).
- :mod:`repro.core.thresholds` -- threshold sensitivity sweeps
  (Figure 3) and threshold selection.
- :mod:`repro.core.asn_classifier` -- AS-level identification with the
  three filtering heuristics of section 5.1 (Table 5).
- :mod:`repro.core.mixed` -- dedicated vs mixed AS classification via
  the cellular fraction of demand (section 6.1).
- :mod:`repro.core.pipeline` -- the :class:`CellSpotter` facade tying
  the stages together.
"""
