"""Per-layer tracing of the simulator from outside it.

:class:`Tracer` wraps public entry points of each layer for the length
of one traced repetition and restores them afterwards; nothing under
``src/`` knows it exists.  It records

- **spans** (name, start, end, parent) around the entry points named in
  :data:`SPANS` plus the cells themselves, kept in memory and written
  once as a Chrome trace-event file by :func:`write_chrome_trace`;
- **counts** of calls into the layers' work-doing functions, and the
  engines and task tables built during a cell, so that per-task ratios
  are measured where the work happens.

:func:`self_time_by_layer` groups a cProfile run's self time by the
``repro`` package (with ``sim`` split by module) that the code lives in.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import pstats
import time
from collections import Counter
from typing import Dict, List, Tuple

import repro
import repro.bench.harness
import repro.cluster
import repro.core
import repro.serve
from repro.cluster.worker import InProcessHost
from repro.core.host_api import PagodaHost
from repro.core.tasktable import TaskTable
from repro.pcie.bus import PcieBus
from repro.sim.engine import Engine
from repro.sim.resources import ProcessorSharing

#: self-time layers: ``repro`` packages, ``sim`` split by module, and
#: ``other`` for everything else (stdlib, numpy, perf/, and the few
#: ``repro`` modules outside these packages such as ``repro.tasks``).
LAYERS = ("sim.engine", "sim.resources", "sim.events", "gpu", "core",
          "pcie", "baselines", "cpu", "cuda", "workloads", "serve",
          "cluster", "faults", "obs", "other")

#: (owner, attribute, span name) of every spanned entry point.  The
#: module-level functions are wrapped where ``workloads.py`` calls them.
SPANS = (
    (repro.bench.harness, "run_tasks", "run_tasks"),
    (repro.core, "run_pagoda", "run_pagoda"),
    (repro.serve, "serve", "serve"),
    (repro.cluster, "run_cluster", "run_cluster"),
    (InProcessHost, "step", "InProcessHost.step"),
    (Engine, "run", "Engine.run"),
)

_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
_THIS_FILE = os.path.abspath(__file__)


def layer_of(filename: str) -> str:
    """The layer a source file belongs to (see :data:`LAYERS`)."""
    path = os.path.abspath(filename)
    if not path.startswith(_REPRO_DIR):
        return "other"
    parts = path[len(_REPRO_DIR):].split(os.sep)
    if parts[0] == "sim" and len(parts) > 1:
        name = "sim." + parts[1][:-3]
        return name if name in LAYERS else "other"
    return parts[0] if parts[0] in LAYERS else "other"


class Tracer:
    """Spans and counts of one traced repetition."""

    def __init__(self) -> None:
        self.counts: Counter = Counter()
        #: ``[name, start_ns, end_ns, parent index]``, in start order.
        self.spans: List[list] = []
        self._stack: List[int] = []
        #: engines and task tables built since the last :meth:`take`.
        self.engines: List[Engine] = []
        self.tables: List[TaskTable] = []
        self._saved: List[Tuple[object, str, object]] = []
        self._in_consume_after = False

    # -- spans ----------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter_ns(), 0, parent]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record[2] = time.perf_counter_ns()

    def span_ns(self, name: str) -> int:
        """Summed duration of every span called ``name``."""
        return sum(end - start for n, start, end, _ in self.spans
                   if n == name)

    # -- installation ---------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(wrapper(original)))

    def install(self) -> None:
        """Wrap every traced entry point (undo with :meth:`uninstall`)."""
        for owner, attr, name in SPANS:
            def spanned(fn, name=name):
                def call(*args, **kwargs):
                    with self.span(name):
                        return fn(*args, **kwargs)
                return call
            self._patch(owner, attr, spanned)

        counts = self.counts

        def counted(key):
            def wrap(fn):
                def call(*args, **kwargs):
                    counts[key] += 1
                    return fn(*args, **kwargs)
                return call
            return wrap

        def registered(into):
            def wrap(fn):
                def init(obj, *args, **kwargs):
                    fn(obj, *args, **kwargs)
                    into.append(obj)
                return init
            return wrap

        def consume_after(fn):
            # consume_after hands a zero delay to consume(): count the
            # request once
            def call(pool, delay, amount):
                counts["ps.consumes"] += 1
                self._in_consume_after = True
                try:
                    return fn(pool, delay, amount)
                finally:
                    self._in_consume_after = False
            return call

        def consume(fn):
            def call(pool, amount):
                if not self._in_consume_after:
                    counts["ps.consumes"] += 1
                return fn(pool, amount)
            return call

        def transfer(fn):
            def call(bus, nbytes, direction):
                counts["pcie.transfers"] += 1
                counts["pcie.bytes"] += nbytes
                return fn(bus, nbytes, direction)
            return call

        self._patch(Engine, "__init__", registered(self.engines))
        self._patch(TaskTable, "__init__", registered(self.tables))
        self._patch(ProcessorSharing, "consume_after", consume_after)
        self._patch(ProcessorSharing, "consume", consume)
        self._patch(TaskTable, "copy_back", counted("core.copy_backs"))
        self._patch(PagodaHost, "task_spawn", counted("core.spawns"))
        self._patch(PcieBus, "transfer", transfer)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def take(self) -> Dict[str, int]:
        """Counts since the previous call, with the events and entry
        copies of the engines and tables built in between."""
        out = dict(self.counts)
        out["sim.events"] = sum(e.event_count for e in self.engines)
        out["core.entry_copies"] = sum(t.entry_copies for t in self.tables)
        self.counts.clear()
        self.engines.clear()
        self.tables.clear()
        return out


def _is_tracer(filename: str) -> bool:
    return filename != "~" and os.path.abspath(filename) == _THIS_FILE


def _caller_layer(filename: str) -> str:
    return "other" if filename == "~" else layer_of(filename)


def self_time_by_layer(stats: pstats.Stats) -> Tuple[Dict[str, float], list]:
    """Self-time share per layer (percent) and the 25 functions with the
    most self time.  Built-in functions (``heapq``, ``len``, generator
    ``send``) have no source file; their self time is charged to the
    layers that called them, edge by edge.  The tracer's own wrappers
    are left out, so the shares describe the program, not the
    instrumentation."""
    by_layer = {layer: 0.0 for layer in LAYERS}
    rows = []
    for (filename, line, func), (_cc, ncalls, tottime, _ct, callers) \
            in stats.stats.items():
        if _is_tracer(filename):
            continue
        if filename != "~":
            layer = layer_of(filename)
            by_layer[layer] += tottime
        else:
            charged = {}
            for (cfile, _, _), edge in callers.items():
                if not _is_tracer(cfile):
                    key = _caller_layer(cfile)
                    charged[key] = charged.get(key, 0.0) + edge[2]
            for key, seconds in charged.items():
                by_layer[key] += seconds
            tottime = sum(charged.values())
            layer = max(charged, key=charged.get) if charged else "other"
        rows.append((tottime, ncalls, filename, line, func, layer))
    total = sum(by_layer.values()) or 1.0
    shares = {layer: 100.0 * t / total for layer, t in by_layer.items()}
    rows.sort(key=lambda r: r[0], reverse=True)
    top = [{"function": f"{_short(fn)}:{line}({func})", "layer": layer,
            "tottime_s": tt, "ncalls": nc}
           for tt, nc, fn, line, func, layer in rows[:25]]
    return shares, top


def _short(filename: str) -> str:
    if filename.startswith(_REPRO_DIR):
        return "repro/" + filename[len(_REPRO_DIR):]
    return os.path.basename(filename)


def write_chrome_trace(path: str, tracer: Tracer, meta: dict) -> None:
    """Write the spans as Chrome trace-event JSON (``ph: X`` complete
    events, microseconds), with ``meta`` under ``otherData``."""
    origin = tracer.spans[0][1] if tracer.spans else 0
    events = [
        {"name": name, "cat": "perf", "ph": "X", "pid": 1, "tid": 1,
         "ts": (start - origin) / 1e3, "dur": (end - start) / 1e3,
         "args": {"id": i, "parent": parent}}
        for i, (name, start, end, parent) in enumerate(tracer.spans)
    ]
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                   "otherData": meta}, fh)
