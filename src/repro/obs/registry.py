"""The metrics registry: counters, gauges, distributions and timelines.

One :class:`Obs` instance is the observability context of one run, and
the one metrics substrate of the stack: instruments, scheduler-decision
instants and spans all live here.  Components accept an optional
``obs`` argument, resolve their instruments once at construction, keep
the reference and guard each hot call site with
``if self.obs is not None:`` (or a ``None``-able instrument handle).

The contract: **with no** ``Obs`` **attached, a run is bit-identical to
an uninstrumented one** — instrumentation never takes simulated time
and never perturbs event ordering.

Metric naming follows ``<component>.<object>.<quantity>`` with dots,
lower case, and unit suffixes where the unit is not obvious:
``pcie.h2d.bytes``, ``table.slots_occupied``, ``sched.decisions.defer``,
``gpu.smm3.busy_warps``, ``serve.queue_depth``.  Names are the registry
key — asking for the same name twice returns the same instrument, which
is how two MTBs on one SMM share that SMM's utilization track.

Everything here is plain integer/float arithmetic on deterministic
inputs: snapshots of two identical runs are identical, dict for dict.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.sim.trace import TimeWeighted

#: schema tag carried by every stats snapshot (bump on shape changes).
SNAPSHOT_SCHEMA = "repro.obs/2"


class Counter:
    """Monotonic event count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge(TimeWeighted):
    """A named :class:`~repro.sim.trace.TimeWeighted` level.

    ``add``/``set`` take the current virtual time (which must not go
    backwards); ``average(end)`` integrates the level over the run.
    """

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        super().__init__()
        self.name = name


class Distribution:
    """Order-free summary of per-event samples (count/sum/min/max).

    For queue waits and similar per-transaction quantities where the
    full histogram is overkill but mean and extremes matter.
    """

    __slots__ = ("name", "count", "sum", "min", "max")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def record(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


class Series:
    """A (time, value) counter-track timeline for the trace exporter.

    ``add(t, delta)`` keeps a running level and appends one sample per
    change; same-instant changes coalesce into the final level so the
    Perfetto counter track never shows a same-timestamp zigzag.
    """

    __slots__ = ("name", "samples", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.samples: List[Tuple[float, float]] = []
        self._value = 0.0

    def add(self, time: float, delta: float) -> None:
        self.set(time, self._value + delta)

    def set(self, time: float, value: float) -> None:
        self._value = value
        if self.samples and self.samples[-1][0] == time:
            self.samples[-1] = (time, value)
        else:
            self.samples.append((time, value))

    @property
    def current(self) -> float:
        return self._value


class Obs:
    """One run's observability context: registry + event stream.

    It keeps only what the simulated system records: counters, gauges,
    distributions, timelines and events that the layers of the stack
    emit on the engine's clock.  Where the engine spends its events is
    a question about the simulator, answered from outside it
    (``perf/trace.py``).

    ``profile`` accepts only ``False``; ``True`` raises ``ValueError``,
    since an ``Obs`` attaches nothing to the engine.
    """

    def __init__(self, profile: bool = False) -> None:
        if profile:
            raise ValueError(
                "profile=True: Obs attaches no profiler to the engine; "
                "attribute engine events from outside the simulator "
                "(perf/trace.py)")
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.distributions: Dict[str, Distribution] = {}
        self.series: Dict[str, Series] = {}
        #: structured instant events: (track, name, t_ns, args-dict).
        self.instants: List[Tuple[str, str, float, dict]] = []
        #: structured spans: (track, name, t_ns, dur_ns, args-dict).
        self.spans: List[Tuple[str, str, float, float, dict]] = []

    # -- instrument lookup (same name -> same instrument) --------------------

    def counter(self, name: str) -> Counter:
        c = self.counters.get(name)
        if c is None:
            c = self.counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        g = self.gauges.get(name)
        if g is None:
            g = self.gauges[name] = Gauge(name)
        return g

    def distribution(self, name: str) -> Distribution:
        d = self.distributions.get(name)
        if d is None:
            d = self.distributions[name] = Distribution(name)
        return d

    def timeline(self, name: str) -> Series:
        s = self.series.get(name)
        if s is None:
            s = self.series[name] = Series(name)
        return s

    # -- event stream ---------------------------------------------------------

    def instant(self, track: str, name: str, t_ns: float, **args) -> None:
        """One structured instant event (a scheduler decision, a drop)."""
        self.instants.append((track, name, t_ns, args))

    def span(self, track: str, name: str, t_ns: float, dur_ns: float,
             **args) -> None:
        """One structured duration event."""
        self.spans.append((track, name, t_ns, dur_ns, args))

    # -- the snapshot ---------------------------------------------------------

    def snapshot(self, engine=None) -> dict:
        """The run's whole statistics digest, JSON-ready and validated.

        Deterministic: sorted names, engine-clock timestamps only.
        ``engine`` adds the sim section (events executed, final clock)
        and closes time-weighted instruments at the engine's ``now``.
        """
        now = float(engine.now) if engine is not None else 0.0
        snap: dict = {
            "schema": SNAPSHOT_SCHEMA,
            "now_ns": now,
            "counters": {n: c.value for n, c in sorted(self.counters.items())},
            "gauges": {
                n: {
                    "current": g.current,
                    "peak": g.peak,
                    "average": round(g.average(now), 6),
                }
                for n, g in sorted(self.gauges.items())
            },
            "distributions": {
                n: {
                    "count": d.count,
                    "sum": round(d.sum, 6),
                    "mean": round(d.mean, 6),
                    "min": d.min if d.min is not None else 0.0,
                    "max": d.max if d.max is not None else 0.0,
                }
                for n, d in sorted(self.distributions.items())
            },
            "series": {
                n: {"samples": len(s.samples), "last": s.current}
                for n, s in sorted(self.series.items())
            },
            "events": {
                "instants": len(self.instants),
                "spans": len(self.spans),
            },
        }
        if engine is not None:
            snap["sim"] = {
                "events_executed": engine.event_count,
                "final_now_ns": now,
            }
        return validate_snapshot(snap)


#: schema tag of a cross-node merged snapshot.
AGGREGATE_SCHEMA = "repro.obs/aggregate/2"


def aggregate_snapshots(snaps: Dict[str, dict]) -> dict:
    """Merge per-node :meth:`Obs.snapshot` dicts into one fleet digest.

    ``snaps`` maps node name -> snapshot (each validated against
    ``repro.obs/2``).  Counters, distribution mass, series samples and
    event counts are summed; gauge peaks and clocks take the max;
    gauge averages combine time-weighted by each node's clock;
    distribution extremes come from the nodes that recorded a sample.
    Determinism carries over: the output is a pure function of the
    inputs with sorted keys, independent of dict iteration order.
    """
    if not snaps:
        raise ValueError("nothing to aggregate")
    parts = [validate_snapshot(snaps[name]) for name in sorted(snaps)]

    def _names(section: str) -> List[str]:
        return sorted({n for p in parts for n in p[section]})

    def _rows(section: str, name: str) -> List[dict]:
        return [p[section][name] for p in parts if name in p[section]]

    counters = {
        n: sum(p["counters"].get(n, 0) for p in parts)
        for n in _names("counters")
    }
    total_now = sum(p["now_ns"] for p in parts)
    gauges = {}
    for n in _names("gauges"):
        rows = _rows("gauges", n)
        weighted = sum(
            p["gauges"][n]["average"] * p["now_ns"]
            for p in parts if n in p["gauges"]
        )
        gauges[n] = {
            "current": sum(r["current"] for r in rows),
            "peak": max(r["peak"] for r in rows),
            "average": round(weighted / total_now, 6) if total_now else 0.0,
        }
    distributions = {}
    for n in _names("distributions"):
        rows = _rows("distributions", n)
        count = sum(r["count"] for r in rows)
        total = sum(r["sum"] for r in rows)
        # an empty node reports placeholder extremes of 0.0
        seen = [r for r in rows if r["count"] > 0]
        distributions[n] = {
            "count": count,
            "sum": round(total, 6),
            "mean": round(total / count, 6) if count else 0.0,
            "min": min((r["min"] for r in seen), default=0.0),
            "max": max((r["max"] for r in seen), default=0.0),
        }
    series = {
        n: {"samples": sum(r["samples"] for r in _rows("series", n))}
        for n in _names("series")
    }
    agg: dict = {
        "schema": AGGREGATE_SCHEMA,
        "nodes": sorted(snaps),
        "now_ns": max(p["now_ns"] for p in parts),
        "counters": counters,
        "gauges": gauges,
        "distributions": distributions,
        "series": series,
        "events": {
            "instants": sum(p["events"]["instants"] for p in parts),
            "spans": sum(p["events"]["spans"] for p in parts),
        },
    }
    sims = [p["sim"] for p in parts if "sim" in p]
    if sims:
        agg["sim"] = {
            "events_executed": sum(s["events_executed"] for s in sims),
            "final_now_ns": max(s["final_now_ns"] for s in sims),
        }
    return agg


def validate_snapshot(snap: dict) -> dict:
    """Check a snapshot against the ``repro.obs/2`` shape; returns it.

    Plain-python validation (no jsonschema dependency): required keys,
    value types, and the per-section record shapes.  Raises
    :class:`ValueError` naming the offending field.
    """
    if not isinstance(snap, dict):
        raise ValueError("snapshot must be a dict")
    if snap.get("schema") != SNAPSHOT_SCHEMA:
        raise ValueError(
            f"snapshot schema {snap.get('schema')!r} != {SNAPSHOT_SCHEMA!r}"
        )
    if not isinstance(snap.get("now_ns"), (int, float)):
        raise ValueError("snapshot.now_ns must be a number")
    for section, fields in (
        ("counters", None),
        ("gauges", ("current", "peak", "average")),
        ("distributions", ("count", "sum", "mean", "min", "max")),
        ("series", ("samples", "last")),
    ):
        table = snap.get(section)
        if not isinstance(table, dict):
            raise ValueError(f"snapshot.{section} must be a dict")
        for name, value in table.items():
            if fields is None:
                if not isinstance(value, (int, float)):
                    raise ValueError(
                        f"snapshot.{section}[{name!r}] must be a number"
                    )
                continue
            if not isinstance(value, dict):
                raise ValueError(f"snapshot.{section}[{name!r}] must be a dict")
            for f in fields:
                if not isinstance(value.get(f), (int, float)):
                    raise ValueError(
                        f"snapshot.{section}[{name!r}].{f} must be a number"
                    )
    events = snap.get("events")
    if (not isinstance(events, dict)
            or not isinstance(events.get("instants"), int)
            or not isinstance(events.get("spans"), int)):
        raise ValueError("snapshot.events must carry instants/spans counts")
    if "sim" in snap:
        sim = snap["sim"]
        if (not isinstance(sim, dict)
                or not isinstance(sim.get("events_executed"), int)
                or not isinstance(sim.get("final_now_ns"), (int, float))):
            raise ValueError("snapshot.sim shape invalid")
    return snap
