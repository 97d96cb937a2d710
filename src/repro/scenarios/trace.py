"""Alibaba-style trace loading: rows -> seeded arrival schedules.

The GPU-cluster traces Alibaba published (and the AIOpsLab-style
replays built on them) describe work as *task groups*: a job row names
a task type (``xtensorflow``, ``PyTorchWorker``, ``ps``, ...), an
instance count, and a submission timestamp.  This module converts such
rows into the serve layer's native currency — strictly-increasing,
byte-stable arrival schedules, one
:class:`~repro.serve.arrivals.TraceArrivals` per task type — so serve
and cluster runs replay production-shaped traffic instead of
synthetic Poisson only.

Determinism discipline (same as :mod:`repro.faults`): every instant is
a pure function of the row's stable identity.  Instance arrivals
within a row are staggered by :func:`repro.faults.plan.hash01`
``(seed, job, task_type, instance)`` — not an RNG stream — so the
schedule is independent of row order and interpreter salt, and adding
a row never reshuffles another row's instants.  All times round to
1/1000 ns, the serve layer's schedule grid.

Row format (CSV, header required, extra columns ignored)::

    job_name,task_name,inst_num,status,start_time,end_time,plan_cpu,plan_mem,plan_gpu

``start_time``/``end_time`` are trace-relative seconds;
``time_scale_ns`` maps one trace second onto simulated nanoseconds
(traces span hours, simulations span milliseconds — the shape
survives, the wall time compresses).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.faults import hash01
from repro.serve.arrivals import TraceArrivals

#: the checked-in sample trace (golden-tested round trip).
SAMPLE_TRACE = Path(__file__).parent / "data" / "sample_trace.csv"

#: columns a trace file must carry (order-free; extras ignored).
REQUIRED_COLUMNS = ("job_name", "task_name", "inst_num", "start_time")


@dataclass(frozen=True)
class TraceRow:
    """One task group of one job."""

    job: str
    task_type: str
    instances: int
    start_s: float
    end_s: float
    plan_gpu: float


def load_trace(path=None) -> List[TraceRow]:
    """Parse a trace CSV into rows, sorted by
    ``(start_s, job, task_type)`` — the stable global order every
    downstream schedule derives from."""
    path = Path(path) if path is not None else SAMPLE_TRACE
    rows: List[TraceRow] = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in REQUIRED_COLUMNS
                   if c not in (reader.fieldnames or [])]
        if missing:
            raise ValueError(
                f"trace {path} is missing columns {missing} "
                f"(have {reader.fieldnames})"
            )
        for lineno, rec in enumerate(reader, start=2):
            try:
                instances = int(rec["inst_num"])
                start_s = float(rec["start_time"])
                end_s = float(rec.get("end_time") or start_s)
                plan_gpu = float(rec.get("plan_gpu") or 0.0)
            except ValueError as exc:
                raise ValueError(
                    f"trace {path} line {lineno}: {exc}") from None
            if instances < 1:
                raise ValueError(
                    f"trace {path} line {lineno}: inst_num must be >= 1")
            if start_s < 0:
                raise ValueError(
                    f"trace {path} line {lineno}: start_time must be >= 0")
            rows.append(TraceRow(
                job=rec["job_name"], task_type=rec["task_name"],
                instances=instances, start_s=start_s, end_s=end_s,
                plan_gpu=plan_gpu,
            ))
    if not rows:
        raise ValueError(f"trace {path} holds no rows")
    rows.sort(key=lambda r: (r.start_s, r.job, r.task_type))
    return rows


def task_mix(rows: Sequence[TraceRow]) -> Dict[str, int]:
    """Task-type -> total instance count (the trace's workload mix)."""
    mix: Dict[str, int] = {}
    for row in rows:
        mix[row.task_type] = mix.get(row.task_type, 0) + row.instances
    return dict(sorted(mix.items()))


def trace_schedules(
    rows: Sequence[TraceRow],
    time_scale_ns: float = 1e6,
    stagger_ns: float = 2_000.0,
    seed: int = 0,
    task_types: Optional[Sequence[str]] = None,
) -> Dict[str, List[float]]:
    """Per-task-type arrival instants (ns), strictly increasing.

    Each row contributes ``instances`` arrivals at its scaled
    submission time, staggered inside ``stagger_ns`` by the hash of
    ``(seed, job, task_type, instance)``.  Collisions after rounding
    (two rows submitting the identical instant) are resolved by
    nudging the later arrival forward one grid step (0.001 ns) — a
    deterministic tiebreak that preserves the sorted order.
    """
    if time_scale_ns <= 0:
        raise ValueError("time_scale_ns must be > 0")
    if stagger_ns < 0:
        raise ValueError("stagger_ns must be >= 0")
    wanted = set(task_types) if task_types is not None else None
    raw: Dict[str, List[float]] = {}
    for row in rows:
        if wanted is not None and row.task_type not in wanted:
            continue
        base = row.start_s * time_scale_ns
        for instance in range(row.instances):
            jitter = hash01(seed, row.job, row.task_type,
                            instance) * stagger_ns
            raw.setdefault(row.task_type, []).append(
                round(base + jitter, 3))
    if wanted is not None:
        absent = sorted(wanted - set(raw))
        if absent:
            raise ValueError(f"trace has no rows for task types {absent}")
    schedules: Dict[str, List[float]] = {}
    for task_type in sorted(raw):
        instants = sorted(raw[task_type])
        out: List[float] = []
        prev = -1.0
        for t in instants:
            if t <= prev:
                t = round(prev + 0.001, 3)
            out.append(t)
            prev = t
        schedules[task_type] = out
    return schedules


def tenant_arrivals(
    rows: Sequence[TraceRow],
    time_scale_ns: float = 1e6,
    stagger_ns: float = 2_000.0,
    seed: int = 0,
    cycle_ns: float = 0.0,
    label: str = "trace",
) -> Dict[str, TraceArrivals]:
    """The loader's deliverable: task-type ->
    :class:`~repro.serve.arrivals.TraceArrivals`, ready to drop into
    :class:`~repro.serve.TenantSpec` (one tenant per task type, sized
    by :func:`task_mix`)."""
    schedules = trace_schedules(rows, time_scale_ns=time_scale_ns,
                                stagger_ns=stagger_ns, seed=seed)
    return {
        task_type: TraceArrivals(instants, cycle_ns=cycle_ns,
                                 label=f"{label}:{task_type}")
        for task_type, instants in schedules.items()
    }
