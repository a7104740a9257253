"""Small statistics toolkit shared by the generator and the analyses.

- :mod:`repro.stats.cdf` -- empirical (optionally weighted) CDFs, the
  workhorse behind every "CDF of ..." figure in the paper.
- :mod:`repro.stats.sampling` -- deterministic heavy-tail samplers
  (Zipf, lognormal, bounded Pareto) used by the demand model.
- :mod:`repro.stats.confusion` -- binary confusion matrices with
  precision / recall / F1, supporting both counts and demand weights
  (Table 3 reports both).
- :mod:`repro.stats.concentration` -- top-k shares, Gini coefficient,
  and rank-demand curves (Figures 7 and 8).
"""
