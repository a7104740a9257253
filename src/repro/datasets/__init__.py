"""Dataset containers mirroring the paper's two data sources.

- :mod:`repro.datasets.beacon_dataset` -- the BEACON dataset: per-subnet
  Network Information API label counts (section 3.1).
- :mod:`repro.datasets.demand_dataset` -- the DEMAND dataset: per-subnet
  Demand Units (section 3.2).
- :mod:`repro.datasets.groundtruth` -- carrier ground-truth prefix
  lists used for validation (section 4.2).
- :mod:`repro.datasets.caida` -- the CAIDA-style AS classification used
  by AS filtering rule 3 (section 5.1).
"""
