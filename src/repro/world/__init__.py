"""Synthetic global Internet: the world the CDN substrate observes.

The paper measures the real Internet through Akamai's platform.  We
cannot, so this package generates a parameterized world whose
*distributional* properties are calibrated from the paper's published
aggregates (DESIGN.md section 6):

- :mod:`repro.world.geo` -- continents, countries, ITU-style subscriber
  counts, and coordinates for the DNS distance analyses.
- :mod:`repro.world.profiles` -- the per-country calibration table
  (demand shares, cellular fractions, AS counts, IPv6 deployment,
  public-DNS adoption).
- :mod:`repro.world.topology` -- AS generation: dedicated and mixed
  carriers, fixed-line ISPs, transit/content/cloud/proxy networks, and
  background ASes filling out the registry.
- :mod:`repro.world.allocation` -- prefix allocation: per-AS address
  blocks, active /24 and /48 subnets with hidden truth labels and
  heavy-tailed demand weights (CGN concentration).
- :mod:`repro.world.population` -- device/browser population and the
  Network Information API adoption timeline (Figure 1).
- :mod:`repro.world.build` -- ties it together into a :class:`World`.

Everything downstream (beacons, demand logs, DNS) is generated *from*
the world; the identification pipeline then has to recover the planted
structure without peeking at truth labels.
"""
