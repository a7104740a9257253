"""DNS substrate: resolvers, client affinities, public DNS services.

Section 6.3 of the paper studies DNS through the CDN's resolver
vantage: which resolvers serve which client subnets, how mixed
networks share resolvers between cellular and fixed-line customers
(Figure 9), how far cellular clients sit from their assigned resolvers
(the Brazil case), and how much cellular demand flows through public
DNS services (Figure 10).

- :mod:`repro.dns.resolvers` -- resolver records and per-AS deployment.
- :mod:`repro.dns.public` -- the public DNS services (GoogleDNS,
  OpenDNS, Level3).
- :mod:`repro.dns.affinity` -- client-subnet -> resolver affinities
  weighted by demand (after Chen et al.'s end-user mapping).
- :mod:`repro.dns.analysis` -- the section 6.3 analyses.
"""
