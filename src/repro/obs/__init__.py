"""Unified observability: metrics, tracing, and profiling for every layer.

The batch :class:`~repro.lab.Lab`, the sharded :mod:`repro.parallel`
pipeline, the :mod:`repro.stream` engine, and the :mod:`repro.serve`
front end all record into one telemetry spine:

- :mod:`repro.obs.metrics` -- thread-safe counters / gauges /
  histograms, a process-global registry, JSON + Prometheus text
  exporters, and the cached-handle pattern hot paths use;
- :mod:`repro.obs.trace` -- run-scoped span tracing (context manager +
  decorator), Chrome ``trace_event`` export, trace/span ids injected
  into structured log records;
- :mod:`repro.obs.sampler` -- the opt-in wall-clock sampling profiler
  (collapsed stacks + a Chrome trace joined to the run's trace id);
- :mod:`repro.obs.timeseries` -- scrape samples, their on-disk ring,
  and :func:`~repro.obs.timeseries.load_metrics_dump`, the one reader
  that decodes a ``--metrics-out`` dump (JSON or Prometheus text)
  into the same sample shape for ``stats``, ``top`` and
  ``report --health``.

:func:`observed_command` is the CLI chokepoint: every ``cellspot``
subcommand runs inside it, which gives any command ``--metrics-out``
(Prometheus text or JSON by extension), ``--trace-out`` (Chrome
trace), ``--prof-sample``, and a ``SIGUSR1`` handler that dumps both
files atomically mid-run (or, without either file, writes the
registry's JSON to stderr).  Deterministic call counts need no repo
code: run the CLI under the standard library's deterministic profiler
(see ``docs/observability.md``).
"""

from __future__ import annotations

import signal
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Optional, Union

if TYPE_CHECKING:
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.trace import Tracer


def dump_metrics(
    path: Union[str, Path], registry: Optional[MetricsRegistry] = None
) -> Path:
    """Atomically write the registry to ``path``.

    Format follows the extension: ``.json`` gets the JSON export,
    anything else (``.prom``, ``.txt``, ...) gets Prometheus text.
    """
    from repro.obs.metrics import global_registry
    from repro.runtime.checkpoint import atomic_write_text

    registry = registry if registry is not None else global_registry()
    path = Path(path)
    if path.suffix == ".json":
        payload = registry.render_json(indent=2) + "\n"
    else:
        payload = registry.render_prometheus()
    atomic_write_text(path, payload)
    return path


def dump_trace(
    path: Union[str, Path], tracer: Optional[Tracer] = None
) -> Path:
    """Atomically write the tracer's Chrome ``trace_event`` JSON."""
    from repro.obs.trace import get_tracer
    from repro.runtime.checkpoint import atomic_write_text

    tracer = tracer if tracer is not None else get_tracer()
    path = Path(path)
    atomic_write_text(path, tracer.render_chrome_json() + "\n")
    return path


@dataclass
class ObservedRun:
    """Handles :func:`observed_command` yields to the command body."""

    registry: MetricsRegistry
    tracer: Tracer

    @property
    def trace_id(self) -> str:
        return self.tracer.trace_id


def _install_sigusr1(
    metrics_out: Optional[Union[str, Path]],
    trace_out: Optional[Union[str, Path]],
    registry: MetricsRegistry,
    tracer: Tracer,
):
    """Dump telemetry on ``SIGUSR1``: the requested files, or without
    either one the registry's JSON to stderr.

    Returns ``(installed, previous_handler)``; ``installed`` is False
    when signals are unavailable (non-main thread, platforms without
    SIGUSR1) -- observability works without it.
    """
    if not hasattr(signal, "SIGUSR1"):
        return False, None

    def _dump(_signum, _frame):
        if metrics_out is None and trace_out is None:
            sys.stderr.write(registry.render_json(indent=2) + "\n")
            sys.stderr.flush()
            return
        try:
            if metrics_out is not None:
                dump_metrics(metrics_out, registry)
            if trace_out is not None:
                dump_trace(trace_out, tracer)
        except OSError as exc:  # a full disk must not kill the run
            sys.stderr.write(f"SIGUSR1 telemetry dump failed: {exc}\n")

    try:
        return True, signal.signal(signal.SIGUSR1, _dump)
    except ValueError:  # not the main thread
        return False, None


@contextmanager
def observed_command(
    command: str,
    metrics_out: Optional[Union[str, Path]] = None,
    trace_out: Optional[Union[str, Path]] = None,
    prof_sample: bool = False,
    prof_sample_out: Optional[Union[str, Path]] = None,
    prof_sample_interval_s: float = 0.01,
) -> Iterator[ObservedRun]:
    """Run one CLI command under the observability spine.

    - swaps in a fresh global registry and tracer (the exported files
      describe *this* command, not whatever the process ran before);
    - opens the root span ``cellspot.<command>`` so every library span
      and every structured log record inside carries the run's
      ``trace_id``;
    - installs a ``SIGUSR1`` handler that atomically dumps the
      requested telemetry files mid-run, or writes the registry's JSON
      to stderr when no file is requested (restored on exit);
    - optionally runs the wall-clock sampling profiler
      (``--prof-sample``, :class:`~repro.obs.sampler.SamplingProfiler`);
    - on exit -- success *or* failure -- writes ``metrics_out`` /
      ``trace_out`` (and the sampler's collapsed stacks + Chrome
      trace) atomically.
    """
    from repro.obs.metrics import reset_global_registry
    from repro.obs.trace import reset_tracer

    registry = reset_global_registry()
    tracer = reset_tracer()
    handler_installed, previous_handler = _install_sigusr1(
        metrics_out, trace_out, registry, tracer
    )
    run = ObservedRun(registry=registry, tracer=tracer)
    stack_sampler = None
    try:
        if prof_sample:
            from repro.obs.sampler import SamplingProfiler

            stack_sampler = SamplingProfiler(interval_s=prof_sample_interval_s)
            stack_sampler.start()
        with tracer.span(f"cellspot.{command}", command=command):
            yield run
    finally:
        if stack_sampler is not None:
            stack_sampler.stop()
            if prof_sample_out is not None:
                try:
                    stack_sampler.write_collapsed(prof_sample_out)
                    stack_sampler.write_chrome_trace(
                        str(prof_sample_out) + ".trace.json",
                        trace_id=tracer.trace_id,
                    )
                except OSError as exc:
                    sys.stderr.write(
                        f"sampling profile write failed: {exc}\n"
                    )
        if handler_installed:
            try:
                signal.signal(
                    signal.SIGUSR1,
                    previous_handler if previous_handler is not None
                    else signal.SIG_DFL,
                )
            except ValueError:
                pass
        if metrics_out is not None:
            dump_metrics(metrics_out, registry)
        if trace_out is not None:
            dump_trace(trace_out, tracer)

