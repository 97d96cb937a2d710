#!/usr/bin/env python
"""End-to-end and per-layer benchmark of the simulator.

One workload, one process (the form ``BENCHMARK.json`` declares)::

    python3 perf/run.py --workload fig5_grid --seed 0 --seconds 15 --trace 0

prints progress on stderr and, as the last line of stdout, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics of an untraced run, ``--trace 1`` the
per-layer metrics of a traced one and writes
``<out>/<workload>.trace.json`` (Chrome trace-event format).

Every workload, one child process at a time::

    python3 perf/run.py --seed 0 [--runs N] [--out DIR]

runs each workload untraced ``N`` times (seeds ``seed .. seed+N-1``)
and traced once, saves each child's result as
``<out>/<workload>.s<seed>.t<trace>.json`` and prints every metric by
name with its unit.  ``perf/agree.py`` compares two such directories.

``python3 perf/run.py --bless`` rewrites ``perf/golden.json`` from the
current program (seeds 0 and 1).

Procedure of an untraced run: build the inputs from the seed; time
the set-up (imports plus input build) in three fresh interpreters;
run one discarded warm-up repetition of every cell; then repeat all
cells until ``--seconds`` have passed, at least three times.  Each cell
runs with the cyclic collector paused and is bracketed by the
calibration unit of ``calibrate.py``; its wall time is divided by the
mean of the two calibrations and multiplied by ``REF_S``, i.e. stated
in seconds of a host on which the unit takes 20 ms.
"""

from __future__ import annotations

import argparse
import cProfile
import contextlib
import gc
import json
import os
import pstats
import resource
import statistics
import subprocess
import sys
import time
import traceback

from calibrate import calibrate

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF_DIR)
SRC = os.path.join(ROOT, "src")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
GOLDEN_JSON = os.path.join(PERF_DIR, "golden.json")
DEFAULT_OUT = os.path.join(PERF_DIR, "out")

#: nominal duration of one calibration run; normalised wall times are
#: seconds on a host where the unit takes this long.
REF_S = 0.020
#: fewest timed repetitions of an untraced run, however long a
#: repetition takes.
MIN_REPS = 3
#: share of ``--seconds`` a traced run spends on untraced reference
#: repetitions before its single traced one.
TRACE_REF_SHARE = 0.5
#: fresh-interpreter set-ups per untraced run (median reported).
SETUP_PROBES = 3
FIG5_RUNTIMES = ("sequential", "pthreads", "hyperq", "gemtc", "pagoda")
STAGES = ("ingress_wait", "pcie_post", "table_ready", "warp_exec")
CHILD_TIMEOUT_S = 900


def _load_src() -> None:
    """Put the checkout's ``src`` on the path; refuse to run without it
    (an installed ``repro`` elsewhere would be a different program)."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"perf: no simulator sources under {SRC}")
    sys.path.insert(0, SRC)
    import repro
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perf: imported repro from {repro.__file__}, "
                         f"not from {SRC}")


def _declared() -> dict:
    with open(BENCHMARK_JSON) as fh:
        return json.load(fh)


def _median(values):
    return statistics.median(values) if values else 0.0


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


# -- cell execution -----------------------------------------------------------

class Book:
    """Cell executions attempted and failed, and each cell's digest."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.digests = {}

    def check(self, cell, outcome, error) -> None:
        self.attempted += 1
        errors = [error] if error else list(outcome.errors)
        if outcome is not None:
            first = self.digests.setdefault(cell.name, outcome.digest)
            if outcome.digest != first:
                errors.append("output differs from the cell's first run")
        if errors:
            self.failed += 1
            for message in errors[:3]:
                print(f"perf: cell {cell.name}: {message}", file=sys.stderr)


def run_cell(cell, book, around=None):
    """(raw wall s, outcome or None) of one execution of ``cell``;
    ``around`` is a context manager entered just around the call."""
    gc.collect()
    gc.disable()
    outcome = error = None
    start = time.perf_counter()
    try:
        with around if around is not None else contextlib.nullcontext():
            outcome = cell.run()
    except Exception:
        error = traceback.format_exc()
    finally:
        wall = time.perf_counter() - start
        gc.enable()
    book.check(cell, outcome, error)
    return wall, outcome


def run_rep(cells, book):
    """One repetition of every cell, each between two calibrations.
    Returns ``[(normalised wall s, outcome or None), ...]``."""
    rows = []
    before = calibrate()
    for cell in cells:
        wall, outcome = run_cell(cell, book)
        after = calibrate()
        rows.append((wall * REF_S / ((before + after) / 2), outcome))
        before = after
    return rows


def _rep_rate(rows) -> float:
    """Completed tasks per normalised second of one repetition."""
    done = sum(o.completed for _, o in rows if o is not None)
    return _ratio(done, sum(w for w, _ in rows))


def _cell_digests(rows) -> list:
    return [o.digest if o is not None else "-" for _, o in rows]


def golden_cells(name, seed):
    """The recorded cell digests of ``name`` for ``seed``, or None."""
    with open(GOLDEN_JSON) as fh:
        return json.load(fh).get(name, {}).get(str(seed))


def _golden_match(name, seed, rows) -> int:
    """Compare the cells' digests with ``golden.json``: 1 on a match, 0
    on a mismatch, -1 when nothing is recorded for this seed.  A
    mismatch is reported, not failed: a change to the modelled design
    moves the outputs on purpose."""
    want = golden_cells(name, seed)
    if want is None:
        print(f"perf: golden {name} seed {seed}: none recorded",
              file=sys.stderr)
        return -1
    got = _cell_digests(rows)
    differ = [i for i, (a, b) in enumerate(zip(want, got)) if a != b]
    if len(want) != len(got) or differ:
        print(f"perf: golden {name} seed {seed}: MISMATCH "
              f"(cells {differ[:10]} of {len(got)})", file=sys.stderr)
        return 0
    print(f"perf: golden {name} seed {seed}: MATCH", file=sys.stderr)
    return 1


# -- set-up time --------------------------------------------------------------

def setup_probe(name: str, seed: int) -> None:
    """Child side of :func:`measure_setup`: import the program and
    build the inputs once in this fresh interpreter."""
    before = calibrate()
    start = time.perf_counter()
    _load_src()
    import workloads
    workloads.build(name, seed)
    wall = time.perf_counter() - start
    after = calibrate()
    print(json.dumps({"setup_s": wall * REF_S / ((before + after) / 2)}))


def measure_setup(name: str, seed: int) -> float:
    values = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
            check=True)
        values.append(json.loads(proc.stdout.strip().splitlines()[-1])
                      ["setup_s"])
    return statistics.median(values)


# -- simulated-time metrics ---------------------------------------------------

def sim_metrics(rows) -> dict:
    """Simulated-time end-to-end metrics of one repetition."""
    import workloads
    outs = [o for _, o in rows if o is not None]
    if not outs:
        return {"sim_p50_us": 0.0, "sim_p99_us": 0.0,
                "sim_throughput_per_s": 0.0}
    return {
        # mean of the cells' medians: the pooled median of a workload
        # whose cells have disjoint latency bands sits on one cell's
        # plateau and would not move when the others do
        "sim_p50_us": statistics.fmean(
            o.latency.percentile(50) / 1e3 for o in outs),
        "sim_p99_us": workloads.percentile_us([o.latency for o in outs],
                                              99),
        "sim_throughput_per_s": _ratio(
            sum(o.completed for o in outs),
            sum(o.makespan_ns for o in outs), 1e9),
    }


# -- untraced run -------------------------------------------------------------

def run_untraced(name, seed, seconds):
    setup_s = measure_setup(name, seed)
    import workloads
    cells = workloads.build(name, seed)
    book = Book()
    warm = run_rep(cells, book)
    rates = []
    start = time.perf_counter()
    while len(rates) < MIN_REPS or time.perf_counter() - start < seconds:
        rates.append(_rep_rate(run_rep(cells, book)))
    print(f"perf: {name} seed {seed}: {len(rates)} reps, "
          f"norm tasks/s {[round(r) for r in rates]}", file=sys.stderr)
    _golden_match(name, seed, warm)
    metrics = {
        "norm_tasks_per_s": _median(rates),
        "setup_s": setup_s,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics.update(sim_metrics(warm))
    return book, metrics


# -- traced run ---------------------------------------------------------------

def _count_metrics(per_cell, ref_wall) -> tuple:
    """Work counts per completed task, and the summed counters."""
    totals = {}
    for _, _, counts in per_cell:
        for key, value in counts.items():
            totals[key] = totals.get(key, 0) + value
    tasks = sum(o.completed for _, o, _ in per_cell if o is not None)
    metrics = {"sim.events_per_task": _ratio(totals["sim.events"], tasks)}
    for runtime in FIG5_RUNTIMES:
        sel = [(o, c) for cell, o, c in per_cell
               if cell.runtime == runtime and o is not None]
        metrics[f"sim.events_per_task.{runtime}"] = _ratio(
            sum(c["sim.events"] for _, c in sel),
            sum(o.completed for o, _ in sel))
    metrics["sim.host_ns_per_event"] = _ratio(ref_wall, totals["sim.events"],
                                              1e9)
    for name, key in (("ps.consumes_per_task", "ps.consumes"),
                      ("core.copy_backs_per_task", "core.copy_backs"),
                      ("core.spawns_per_task", "core.spawns"),
                      ("core.entry_copies_per_task", "core.entry_copies"),
                      ("pcie.transfers_per_task", "pcie.transfers"),
                      ("pcie.bytes_per_task", "pcie.bytes")):
        metrics[name] = _ratio(totals.get(key, 0), tasks)
    return metrics, totals


def _serve_metrics(outs) -> dict:
    """Admission and stage waits of every ServeReport (serve_obs and the
    nodes of fleet_lossy; 0 elsewhere)."""
    import workloads
    reports = []
    for o in outs:
        report = o.report
        if hasattr(report, "node_reports"):
            reports += report.node_reports.values()
        elif hasattr(report, "stage_hists"):
            reports.append(report)
    offered = sum(r.offered for r in reports)
    metrics = {
        "serve.admitted_pct": _ratio(sum(r.admitted for r in reports),
                                     offered, 100.0),
        "serve.spawns_per_request": _ratio(sum(r.spawns for r in reports),
                                           offered),
        "serve.max_queue_depth": max((r.max_queue_depth for r in reports),
                                     default=0),
    }
    for stage in STAGES:
        hists = [r.stage_hists[stage] for r in reports
                 if r.stage_hists[stage].total]
        metrics[f"stage.{stage}_p99_us"] = (
            workloads.percentile_us(hists, 99) if hists else 0.0)
    return metrics


def _cluster_metrics(outs, tracer) -> dict:
    """Coordinator and fabric work of fleet_lossy (0 elsewhere)."""
    fleets = [o.report for o in outs if hasattr(o.report, "node_reports")]
    offered = sum(f.frontier.get("offered", 0) for f in fleets)
    posted = sum(f.fabric_posted for f in fleets)
    return {
        "cluster.epochs": sum(f.epochs for f in fleets),
        "cluster.msgs_per_request": _ratio(posted, offered),
        "cluster.retransmits_per_request": _ratio(
            sum(f.fabric_retransmits for f in fleets), offered),
        "cluster.delivered_ratio": _ratio(
            sum(f.fabric_delivered for f in fleets), posted),
        "cluster.shard_step_pct": _ratio(
            tracer.span_ns("InProcessHost.step"),
            tracer.span_ns("run_cluster"), 100.0),
    }


def _output_metrics(name, seed, cells, warm, book) -> dict:
    """Paper error, SLO outcome and output checks of the warm-up rep."""
    import workloads
    outs = [o for _, o in warm if o is not None]
    complete = len(outs) == len(cells)
    return {
        "paper_err_pct": (workloads.paper_err_pct(cells, outs)
                          if name == "fig5_grid" and complete else 0.0),
        "sim_deadline_met_pct": _ratio(
            sum(o.lat_good for o in outs),
            sum(o.lat_offered for o in outs), 100.0),
        "sim_drop_pct": _ratio(sum(o.dropped + o.failed for o in outs),
                               sum(o.offered for o in outs), 100.0),
        "golden_match": _golden_match(name, seed, warm),
        "failed_pct": _ratio(book.failed, book.attempted, 100.0),
    }


def run_traced(name, seed, seconds, out_dir):
    import trace
    import workloads
    cells = workloads.build(name, seed)
    # obs.on_off_ratio: serve_obs is also timed with Obs detached
    variants = {"on": cells}
    if name == "serve_obs":
        variants["off"] = workloads.build_serve_without_obs(seed)
    book = Book()
    warm = run_rep(cells, book)
    if "off" in variants:
        run_rep(variants["off"], book)
    # untraced reference repetitions
    ref = {key: [] for key in variants}
    start = time.perf_counter()
    while (not all(ref.values())
           or time.perf_counter() - start < seconds * TRACE_REF_SHARE):
        for key, vcells in variants.items():
            ref[key].append(run_rep(vcells, book))
    ref_wall = _median([sum(w for w, _ in rows) for rows in ref["on"]])

    # the traced repetition
    tracer = trace.Tracer()
    prof = cProfile.Profile()

    @contextlib.contextmanager
    def traced(cell):
        with tracer.span(f"cell {cell.name}"):
            prof.enable()
            try:
                yield
            finally:
                prof.disable()

    per_cell = []
    traced_wall = 0.0
    before = calibrate()
    tracer.install()
    try:
        for cell in cells:
            wall, outcome = run_cell(cell, book, traced(cell))
            traced_wall += wall
            per_cell.append((cell, outcome, tracer.take()))
    finally:
        tracer.uninstall()
    after = calibrate()
    traced_norm = traced_wall * REF_S / ((before + after) / 2)
    shares, top = trace.self_time_by_layer(pstats.Stats(prof))
    outs = [o for _, o, _ in per_cell if o is not None]

    metrics = {f"{layer}.self_pct": shares[layer] for layer in trace.LAYERS}
    counts, totals = _count_metrics(per_cell, ref_wall)
    metrics.update(counts)
    metrics.update(_serve_metrics(outs))
    metrics["obs.on_off_ratio"] = 0.0
    if "off" in ref:
        metrics["obs.on_off_ratio"] = _ratio(
            _median([_rep_rate(rows) for rows in ref["on"]]),
            _median([_rep_rate(rows) for rows in ref["off"]]))
    metrics.update(_cluster_metrics(outs, tracer))
    # host time by fig5 runtime, from the untraced reference reps
    cell_wall = {cell.name: _median([rows[i][0] for rows in ref["on"]])
                 for i, cell in enumerate(cells)}
    for runtime in FIG5_RUNTIMES:
        metrics[f"cell.{runtime}.host_pct"] = _ratio(
            sum(cell_wall[c.name] for c in cells if c.runtime == runtime),
            sum(cell_wall.values()), 100.0)
    metrics["trace.overhead_pct"] = (_ratio(traced_norm, ref_wall) - 1.0) \
        * 100.0
    metrics.update(_output_metrics(name, seed, cells, warm, book))

    trace.write_chrome_trace(
        os.path.join(out_dir, f"{name}.trace.json"), tracer,
        {"workload": name, "seed": seed, "counts": totals,
         "traced_wall_s": traced_wall, "profile_top25": top})
    return book, metrics


# -- result line --------------------------------------------------------------

def _result(book, metrics, units) -> dict:
    return {
        "correct": book.failed == 0,
        "attempted": book.attempted,
        "failed": book.failed,
        "metrics": {key: {"value": value, "unit": units[key]}
                    for key, value in metrics.items()},
    }


def run_one(name, seed, seconds, traced, out_dir) -> int:
    declared = _declared()
    section = "per_layer" if traced else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[section]}
    if name not in {w["name"] for w in declared["workloads"]}:
        raise SystemExit(f"perf: unknown workload {name!r}")
    _load_src()
    if traced:
        book, metrics = run_traced(name, seed, seconds, out_dir)
    else:
        book, metrics = run_untraced(name, seed, seconds)
    differ = set(units) ^ set(metrics)
    if differ:
        raise SystemExit(f"perf: metrics differ from BENCHMARK.json: "
                         f"{sorted(differ)}")
    print(json.dumps(_result(book, metrics, units)))
    return 0 if book.failed == 0 else 1


# -- every workload -----------------------------------------------------------

def run_all(seed, runs, seconds, out_dir) -> int:
    declared = _declared()
    os.makedirs(out_dir, exist_ok=True)
    status = 0
    summary = []
    for workload in declared["workloads"]:
        name = workload["name"]
        jobs = [(seed + k, 0) for k in range(runs)] + [(seed, 1)]
        for run_seed, traced in jobs:
            cmd = [sys.executable, os.path.abspath(__file__),
                   "--workload", name, "--seed", str(run_seed),
                   "--seconds", str(seconds), "--trace", str(traced),
                   "--out", out_dir]
            print(f"== {name} seed {run_seed} trace {traced}", flush=True)
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=CHILD_TIMEOUT_S)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0:
                status = 1
            if not lines:
                print(f"perf: {name} produced no result", file=sys.stderr)
                status = 1
                continue
            result = json.loads(lines[-1])
            record = {"workload": name, "seed": run_seed, "trace": traced,
                      **result}
            path = os.path.join(out_dir,
                                f"{name}.s{run_seed}.t{traced}.json")
            with open(path, "w") as fh:
                json.dump(record, fh, indent=1, sort_keys=True)
            summary.append(record)
    for record in summary:
        print(f"\n{record['workload']} seed {record['seed']} "
              f"{'traced' if record['trace'] else 'untraced'}: "
              f"correct={record['correct']} attempted={record['attempted']} "
              f"failed={record['failed']}")
        for key, m in record["metrics"].items():
            print(f"  {key:36s} {m['value']:>16.6g} {m['unit']}")
    return status


def bless() -> int:
    """Rewrite golden.json from one repetition per workload and seed."""
    _load_src()
    import workloads
    golden = {}
    for name in workloads.NAMES:
        for seed in (0, 1):
            book = Book()
            rows = [(0.0, run_cell(cell, book)[1])
                    for cell in workloads.build(name, seed)]
            if book.failed:
                print(f"perf: {name} seed {seed} failed; not blessed",
                      file=sys.stderr)
                return 1
            golden.setdefault(name, {})[str(seed)] = _cell_digests(rows)
            print(f"{name} seed {seed}: {golden[name][str(seed)]}")
    with open(GOLDEN_JSON, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run one workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measuring time (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1,
                        help="untraced runs per workload (all workloads)")
    parser.add_argument("--out", default=DEFAULT_OUT)
    parser.add_argument("--bless", action="store_true",
                        help="rewrite perf/golden.json")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.bless:
        return bless()
    seconds = args.seconds
    if seconds is None:
        seconds = _declared()["run_seconds"]
    if args.workload:
        return run_one(args.workload, args.seed, seconds, bool(args.trace),
                       args.out)
    return run_all(args.seed, args.runs, seconds, args.out)


if __name__ == "__main__":
    sys.exit(main())
