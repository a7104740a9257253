"""Plumbing shared by the workloads: the run record, layer spans and
their self times, percentiles, process-tree RSS and output checks."""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
import threading
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
#: Everything a run writes lives here (relative to the checkout root,
#: which is the working directory: AF_UNIX paths stay short).
WORK = Path(".perfbench")
LAYER_MAP = json.loads((Path(__file__).parent / "layers.json").read_text())

now = time.perf_counter


def declared(name: str) -> Optional[Dict]:
    """The ``layers.json`` entry for ``name``; ``<...>`` in a declared
    name matches any text (``experiments.<id>_s``)."""
    if name in LAYER_MAP:
        return LAYER_MAP[name]
    for pattern, entry in LAYER_MAP.items():
        if "<" in pattern:
            head, tail = pattern.split("<", 1)
            tail = tail.split(">", 1)[1]
            if name.startswith(head) and name.endswith(tail):
                return entry
    return None


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1])."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


class Run:
    """What one benchmark invocation measured, counted and checked.

    ``metrics`` are the names ``BENCHMARK.json`` declares for the mode;
    ``details`` are the workload's own end-to-end or per-layer figures
    (``layers.json`` names), printed as a table and saved beside the
    Chrome trace.
    """

    def __init__(
        self, workload: str, seed: int, seconds: float, trace: bool,
        tiny: bool = False,
    ) -> None:
        from repro.obs.trace import reset_tracer

        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.tiny = tiny
        self.metrics: Dict[str, float] = {}
        self.details: Dict[str, float] = {}
        self.notes: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.dir = WORK / f"{workload}-{seed}-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        # Library code records spans on the global tracer either way; a
        # fresh one per run keeps the untraced run under its span cap.
        self.tracer = reset_tracer()
        #: True once the traced half of a ``--trace 1`` run has begun.
        self.tracing = False
        self.sampler = None
        #: Spans recorded by other processes (serving-plane span logs).
        self.extra_spans: List = []
        #: Span-name prefixes of work the benchmark itself does (input
        #: generation, in-process probes): never named the slowest layer.
        self.own_spans: Tuple[str, ...] = ("probe.",)
        #: Self seconds per span name, slowest first (traced runs).
        self.self_times: Dict[str, float] = {}

    def start_tracing(self, watermarks: bool = True) -> None:
        """Begin the traced half: layer spans plus, when the job runs in
        this process, its per-stage RSS watermarks.  A traced run first
        repeats the job untraced, so the two halves give the tracing
        overhead."""
        from repro.obs.resources import ResourceSampler
        from repro.obs.trace import reset_tracer

        self.tracer = reset_tracer()
        self.tracing = True
        if watermarks:
            self.sampler = ResourceSampler()
            self.sampler.install()

    def layer(self, name: str, **attributes):
        """A span around one layer call, in the traced half only."""
        if not self.tracing:
            return nullcontext()
        return self.tracer.span(name, **attributes)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def detail(self, name: str, value: float) -> None:
        if declared(name) is None:
            raise KeyError(f"{name} is not declared in layers.json")
        self.details[name] = float(value)

    def close(self) -> None:
        if self.sampler is not None:
            for stage, peak in self.sampler.watermarks().items():
                self.detail(f"rss.{stage}_mb", peak / 2**20)
            self.sampler.uninstall()


# ---- trace analysis -----------------------------------------------------


def self_times(spans) -> Dict[str, float]:
    """Seconds of each span name not covered by its child spans."""
    children: Dict[str, List] = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append(span)
    totals: Dict[str, float] = {}
    for span in spans:
        duration = span.duration or 0.0
        end = span.started + duration
        intervals = sorted(
            (max(child.started, span.started),
             min(child.started + (child.duration or 0.0), end))
            for child in children.get(span.span_id, ())
        )
        covered, reach = 0.0, span.started
        for start, stop in intervals:
            start = max(start, reach)
            if stop > start:
                covered += stop - start
                reach = stop
        totals[span.name] = totals.get(span.name, 0.0) + duration - covered
    return totals


# ---- process-tree memory ------------------------------------------------


def _children_by_parent() -> Dict[int, List[int]]:
    tree: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        # ``comm`` may hold spaces; fields after its closing paren are fixed.
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        tree.setdefault(ppid, []).append(int(entry))
    return tree


def process_tree(root: int) -> List[int]:
    tree = _children_by_parent()
    found, stack = [], [root]
    while stack:
        pid = stack.pop()
        found.append(pid)
        stack.extend(tree.get(pid, ()))
    return found


def peak_rss_bytes(pid: int) -> int:
    """``VmHWM`` of a live process (0 once it has gone)."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return 0


def pss_bytes(pid: int) -> int:
    """Proportional set size of a live process now (0 once it has gone):
    pages shared with other processes count as a share, so a sum over
    forked processes counts copy-on-write pages once."""
    try:
        with open(f"/proc/{pid}/smaps_rollup") as handle:
            for line in handle:
                if line.startswith("Pss:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return 0


class TreeRss:
    """Peak over time of the summed memory of a process tree.

    A daemon thread samples ``/proc`` every ``interval_s``; each sample
    sums ``read(pid)`` over the root and every live descendant.  The
    default reader is ``VmHWM``, a high-water mark, so a process is
    missed only if it lives less than one interval; that suits spawned
    processes, which share nothing but library pages.  Forked processes
    share the parent's heap, so their tree is read with ``pss_bytes``,
    which is a level, not a high-water mark: the interval must then be
    short against the phases being measured.  A scan holds the
    interpreter lock for ~1.5 ms.
    """

    def __init__(self, root: int, interval_s: float = 0.2,
                 read: Callable[[int], int] = peak_rss_bytes) -> None:
        self.root = root
        self.interval_s = interval_s
        self.read = read
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def sample(self) -> None:
        total = sum(self.read(pid) for pid in process_tree(self.root))
        self.peak = max(self.peak, total)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.sample()

    def __enter__(self) -> "TreeRss":
        self.sample()
        self._thread.start()
        return self

    def __exit__(self, *_exc) -> None:
        self._stop.set()
        self._thread.join()
        self.sample()

    @property
    def peak_mb(self) -> float:
        return self.peak / 2**20


# ---- helpers ------------------------------------------------------------


def timed(fn: Callable, *args, **kwargs) -> Tuple[float, object]:
    started = now()
    value = fn(*args, **kwargs)
    return now() - started, value


def result_digest(result) -> str:
    """sha256 over everything a pipeline run decides (seed-stable)."""
    digest = hashlib.sha256()
    for record in result.ratios.records():
        digest.update(repr((
            str(record.subnet), record.asn, record.country,
            record.api_hits, record.cellular_hits, record.hits,
        )).encode())
    for prefix, label in result.classification.labels.items():
        digest.update(f"{prefix}={label};".encode())
    for asn in sorted(result.as_result.accepted):
        accepted = result.as_result.accepted[asn]
        digest.update(repr(
            (asn, accepted.cellular_du, accepted.total_du)
        ).encode())
    for asn in sorted(result.operators):
        digest.update(repr(result.operators[asn]).encode())
    return digest.hexdigest()


def results_equal(left, right) -> bool:
    """Equal pipeline outputs, down to the per-AS Demand Unit floats."""
    if left.ratios != right.ratios:
        return False
    if left.classification.labels != right.classification.labels:
        return False
    if left.as_result != right.as_result or left.operators != right.operators:
        return False
    for asn, accepted in left.as_result.accepted.items():
        other = right.as_result.accepted.get(asn)
        if other is None or (other.cellular_du, other.total_du) != (
            accepted.cellular_du, accepted.total_du
        ):
            return False
    return True


def dir_bytes(path: Path) -> int:
    return sum(item.stat().st_size for item in path.rglob("*") if item.is_file())


def lookup_probe(run: Run, table, queries: Iterable[str]):
    """``ClassificationIndex`` compile and in-process LPM rate over a
    ratio table, built exactly as a serving worker builds it.  Probes
    measure a layer outside the job, so their spans are ``probe.*``."""
    from repro.core.classifier import DEFAULT_THRESHOLD
    from repro.serve.index import ClassificationIndex

    with run.layer("probe.index_build"):
        build_s, index = timed(
            ClassificationIndex.build, table, demand=None,
            threshold=DEFAULT_THRESHOLD, min_api_hits=1,
        )
    queries = list(queries)
    with run.layer("probe.lookups"):
        lookup_s, _ = timed(lambda: [index.query(text) for text in queries])
    run.detail("serve.index_build_s", build_s)
    run.detail("serve.index_entries", len(index))
    run.detail("net.lookups_per_s", len(queries) / lookup_s)
    return index
