"""Array-backend dispatch for the columnar kernels.

One switch decides which kernel module the hot path runs on:

1. an explicit :func:`set_backend` call (the CLI's ``--array-backend``
   lands here) wins;
2. otherwise the ``CELLSPOT_ARRAY_BACKEND`` environment variable
   (``numpy`` / ``python`` / ``auto``);
3. otherwise auto-detection: numpy when importable, else the
   pure-Python twin.

Both backends implement the same kernel surface and are
property-tested equivalent, so the choice never changes results --
only throughput.  Requesting ``numpy`` on a box without numpy is a
hard error, not a silent fallback: a deployment that *asked* for the
fast path must find out it did not get it.
"""

from __future__ import annotations

import importlib
import importlib.util
import os
from contextlib import contextmanager
from typing import Iterator, Optional, Tuple

#: Environment variable consulted when no explicit backend is set.
BACKEND_ENV = "CELLSPOT_ARRAY_BACKEND"

#: Recognized backend names (``auto`` resolves to one of the others).
BACKEND_CHOICES: Tuple[str, ...] = ("auto", "numpy", "python")

_KERNEL_MODULES = {
    "numpy": "repro.columnar.kernels_np",
    "python": "repro.columnar.kernels_py",
}

#: Explicit override (set_backend / --array-backend); None = env/auto.
_forced: Optional[str] = None
#: Cached auto-detection verdict; invalidated never (numpy does not
#: appear mid-process).
_detected: Optional[str] = None


def numpy_available() -> bool:
    """True when numpy can be imported in this interpreter."""
    return importlib.util.find_spec("numpy") is not None


def _normalize(name: str) -> str:
    cleaned = name.strip().lower()
    if cleaned not in BACKEND_CHOICES:
        raise ValueError(
            f"unknown array backend {name!r} "
            f"(choose from {', '.join(BACKEND_CHOICES)})"
        )
    return cleaned


def _detect() -> str:
    global _detected
    if _detected is None:
        _detected = "numpy" if numpy_available() else "python"
    return _detected


def active_backend_name() -> str:
    """The backend the next kernel call will run on."""
    if _forced is not None:
        return _forced
    requested = _normalize(os.environ.get(BACKEND_ENV, "auto"))
    if requested == "auto":
        return _detect()
    if requested == "numpy" and not numpy_available():
        raise RuntimeError(
            f"{BACKEND_ENV}=numpy but numpy is not importable; "
            "install numpy or select the 'python' backend"
        )
    return requested


def kernels_for(name: str):
    """The kernel module for an explicit backend name."""
    resolved = _normalize(name)
    if resolved == "auto":
        resolved = _detect()
    if resolved == "numpy" and not numpy_available():
        raise RuntimeError(
            "numpy backend requested but numpy is not importable"
        )
    return importlib.import_module(_KERNEL_MODULES[resolved])


def get_kernels():
    """The active kernel module (resolving forced > env > auto)."""
    return kernels_for(active_backend_name())


def set_backend(name: Optional[str]) -> Optional[str]:
    """Force a backend (``None`` restores env/auto); returns previous.

    ``auto`` re-enables detection.  Validation is eager so a typo in
    ``--array-backend`` fails at startup, not mid-pipeline.
    """
    global _forced
    previous = _forced
    if name is None:
        _forced = None
        return previous
    resolved = _normalize(name)
    if resolved == "auto":
        _forced = None
        return previous
    if resolved == "numpy" and not numpy_available():
        raise RuntimeError(
            "numpy backend requested but numpy is not importable"
        )
    _forced = resolved
    return previous


@contextmanager
def use_backend(name: str) -> Iterator[None]:
    """Temporarily force a backend (tests, differential runs)."""
    previous = set_backend(name)
    try:
        yield
    finally:
        set_backend(previous)
