"""Cell Spotting reproduction library.

A from-scratch implementation of the measurement system behind
"Cell Spotting: Studying the Role of Cellular Networks in the
Internet" (Rula, Bustamante, Steiner -- IMC 2017), over a synthetic
global CDN substrate.

Quickstart::

    from repro import Lab

    lab = Lab.create(scale=0.005, seed=1)
    result = lab.result
    print(result.cellular_as_count, "cellular ASes detected")

Packages:

- :mod:`repro.net` -- addresses, prefixes, tries, AS records
- :mod:`repro.stats` -- CDFs, samplers, confusion matrices
- :mod:`repro.world` -- the synthetic global Internet
- :mod:`repro.cdn` -- RUM beacons and platform demand logs
- :mod:`repro.dns` -- resolvers, affinities, public DNS
- :mod:`repro.datasets` -- BEACON / DEMAND / ground-truth containers
- :mod:`repro.core` -- the identification pipeline (the contribution)
- :mod:`repro.analysis` -- continent/country/operator analyses
- :mod:`repro.experiments` -- one module per paper table and figure
"""

import importlib

__version__ = "1.0.0"

# Resolved on first access (PEP 562): importing any ``repro.X`` runs
# this file, and the serving plane's processes must not pay for the
# pipeline and the world generator they never call.
_LAZY = {
    "CellSpotter": "repro.core.pipeline",
    "CellSpotterResult": "repro.core.pipeline",
    "Lab": "repro.lab",
    "World": "repro.world.build",
    "WorldParams": "repro.world.build",
    "build_world": "repro.world.build",
}

__all__ = [*_LAZY, "__version__"]


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    return getattr(importlib.import_module(module), name)
