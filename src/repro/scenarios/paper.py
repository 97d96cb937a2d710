"""The paper layer: every claim EXPERIMENTS.md makes, as a scenario.

Each ``paper.*`` scenario runs one :mod:`repro.bench` artefact at the
scaled task count the reproduction quotes, hands the detectors a
rounded, JSON-ready digest of its results (the report) plus the
derived ratios and counts a claim compares (the extra), and checks the
paper's shapes with the stock detectors: who wins, by roughly what
factor, and where the crossovers fall.  The artefact's own
paper-vs-measured text report, rendered from the same results, rides
along as the outcome's ``text`` (``python -m repro.bench paper.fig5``
prints it).  Under ``PAGODA_FULL=1`` the artefacts that size by task
count run at paper scale instead of their pinned counts.

EXPERIMENTS.md's headline and per-artefact tables are rendered from
the ``repro.scenarios/1`` JSON of these scenarios (:func:`render`,
spliced between :data:`BEGIN` and :data:`END` by :func:`splice`), so
the committed numbers are whatever the checked runs produce:
``python scripts/render_experiments.py`` rewrites them, and a tier-1
test fails when they drift.

Only the registry imports this module (the bench artefacts it pulls in
stay out of ``import repro.bench``'s path).
"""

from __future__ import annotations

from types import ModuleType
from typing import Callable, Dict, Mapping, Optional, Tuple

from repro.bench import (
    ablations,
    config_sweeps,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    fig10,
    fig11,
    latency_under_load,
    priorities,
    tab3,
    tab5,
)
from repro.bench.harness import full_scale
from repro.scenarios.detectors import ExtraValue, ReportValue
from repro.scenarios.registry import get, register
from repro.scenarios.spec import Scenario, ScenarioOutcome, ScenarioParams
from repro.sim.trace import geometric_mean

#: marker lines around the generated block of EXPERIMENTS.md.
BEGIN = ("<!-- BEGIN generated from the paper.* scenarios by "
         "scripts/render_experiments.py; do not edit by hand -->")
END = "<!-- END generated -->"

#: scenario name -> (artefact label, digest -> "measured" cell), in
#: EXPERIMENTS.md's row order.
SCENARIOS: Dict[str, Tuple[str, Callable[[dict], str]]] = {}


def _key(key) -> str:
    # dotted detector paths need str keys without dots (15000.0 -> 15000)
    if isinstance(key, float) and key.is_integer():
        return str(int(key))
    return str(key)


def _digest(value):
    """Rounded, JSON-ready copy of an artefact's results."""
    if isinstance(value, dict):
        return {_key(k): _digest(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_digest(v) for v in value]
    if isinstance(value, float):
        return round(value, 4)
    return value


def _scaled(pinned: int) -> Optional[int]:
    """A scenario's pinned task count, or ``None`` under ``PAGODA_FULL=1``
    so the artefact sizes itself at paper scale (32K tasks, 273K for
    SLUD: :func:`repro.bench.harness.default_num_tasks`)."""
    return None if full_scale() else pinned


def _paper(name: str, label: str, claim: str, module: ModuleType,
           run: Callable[[int], dict], derive: Callable[[dict], dict],
           detectors: list, measured: Callable[[dict], str],
           reshape: Callable[[dict], dict] = lambda results: results,
           ) -> None:
    """Register one artefact as ``paper.<name>``.

    ``run`` produces ``module``'s results, which ``module.report``
    renders as the outcome's text; ``reshape`` then turns them into the
    digest's JSON shape (``raw`` per-run stats are dropped first).
    """

    def runner(params: ScenarioParams) -> ScenarioOutcome:
        results = run(params.seed)
        text = module.report(results)
        results.pop("raw", None)
        results = reshape(results)
        return ScenarioOutcome(report=_digest(results),
                               extra=_digest(derive(results)), text=text)

    full = f"paper.{name}"
    register(Scenario(name=full, version=1, layer="paper",
                      description=claim, runner=runner,
                      detectors=tuple(detectors)))
    SCENARIOS[full] = (label, measured)


def _span(values) -> str:
    """``lo–hi`` at two decimals (one number when they agree)."""
    values = list(values)
    lo, hi = f"{min(values):.2f}", f"{max(values):.2f}"
    return lo if lo == hi else f"{lo}–{hi}"


# -- Fig. 5: overall performance ----------------------------------------------


def _fig5_extra(r: dict) -> dict:
    g, per = r["geomeans"], r["per_workload"]
    extra = {"pthreads_over_hyperq": g["pthreads"] / g["hyperq"]}
    for w, s in per.items():
        extra[f"pagoda_over_hyperq_{w}"] = s["pagoda"] / s["hyperq"]
    return extra


def _fig5_measured(d: dict) -> str:
    g, x = d["report"]["geomeans"], d["extra"]
    others = [x[f"pagoda_over_hyperq_{w}"] for w in fig5.WORKLOADS
              if w != "dct"]
    return (f"geomeans {g['pthreads']:.2f}x / {g['hyperq']:.2f}x / "
            f"{g['gemtc']:.2f}x; Pagoda {_span(others)}x HyperQ outside "
            f"DCT, {x['pagoda_over_hyperq_dct']:.2f}x on DCT")


_paper(
    "fig5", "Fig. 5",
    "Pagoda geomean 5.70x over PThreads, 1.51x over HyperQ, 1.69x over "
    "GeMTC; it beats HyperQ everywhere but copy-bound DCT (parity)", fig5,
    lambda seed: fig5.run(num_tasks=_scaled(384), seed=seed), _fig5_extra,
    [
        ReportValue("beats_pthreads", "geomeans.pthreads", ">", 3.0),
        ReportValue("hyperq_band_low", "geomeans.hyperq", ">", 1.2),
        ReportValue("hyperq_band_high", "geomeans.hyperq", "<", 2.5),
        ReportValue("gemtc_band_low", "geomeans.gemtc", ">", 1.2),
        ReportValue("gemtc_band_high", "geomeans.gemtc", "<", 3.0),
        ExtraValue("pthreads_weakest", "pthreads_over_hyperq", ">", 1.0),
        ExtraValue("dct_parity", "pagoda_over_hyperq_dct", ">=", 0.9),
    ] + [
        ExtraValue(f"beats_hyperq_{w}", f"pagoda_over_hyperq_{w}", ">", 1.0)
        for w in fig5.WORKLOADS if w != "dct"
    ],
    _fig5_measured,
)


# -- Fig. 6: weak scaling -----------------------------------------------------


def _fig6_extra(r: dict) -> dict:
    small, big = r["counts"][0], r["counts"][-1]
    extra = {"ahead_of_hyperq_at_max": sum(
        1 for t in r["times"].values()
        if t["pagoda"][big] < t["hyperq"][big])}
    for w, t in r["times"].items():
        growth = t["pagoda"][big] / t["pagoda"][small]
        extra[f"pagoda_growth_{w}"] = growth
        extra[f"pagoda_growth_over_count_ratio_{w}"] = growth / (big / small)
        extra[f"pagoda_over_gemtc_at_max_{w}"] = (
            t["pagoda"][big] / t["gemtc"][big])
        extra[f"hyperq_over_pagoda_at_max_{w}"] = (
            t["hyperq"][big] / t["pagoda"][big])
    return extra


def _fig6_measured(d: dict) -> str:
    counts, x = d["report"]["counts"], d["extra"]
    lead = _span(x[f"hyperq_over_pagoda_at_max_{w}"] for w in fig6.WORKLOADS)
    growth = _span(x[f"pagoda_growth_{w}"] for w in fig6.WORKLOADS)
    return (f"at {counts[-1]} tasks Pagoda leads HyperQ on "
            f"{x['ahead_of_hyperq_at_max']}/{len(fig6.WORKLOADS)} "
            f"benchmarks ({lead}x) and GeMTC on all; Pagoda time grows "
            f"{growth}x for a {counts[-1] // counts[0]}x task increase")


_paper(
    "fig6", "Fig. 6",
    "Pagoda pulls ahead of HyperQ and GeMTC beyond ~512 tasks; its time "
    "grows ~linearly with the task count", fig6,
    lambda seed: fig6.run(counts=fig6.task_counts(), seed=seed),
    _fig6_extra,
    [ExtraValue("ahead_of_hyperq_at_max", "ahead_of_hyperq_at_max", ">=",
                len(fig6.WORKLOADS) - 1)]
    + [ExtraValue(f"linear_growth_{w}",
                  f"pagoda_growth_over_count_ratio_{w}", "<", 2.0)
       for w in fig6.WORKLOADS]
    + [ExtraValue(f"beats_gemtc_at_max_{w}", f"pagoda_over_gemtc_at_max_{w}",
                  "<", 1.0) for w in fig6.WORKLOADS],
    _fig6_measured,
)


# -- Fig. 7: compute time vs threads per task ---------------------------------


def _hyperq_advantage(times: dict, threads: int) -> float:
    return geometric_mean([t["hyperq"][threads] / t["pagoda"][threads]
                           for t in times.values()])


def _fig7_extra(r: dict) -> dict:
    cells = [(pagoda_t, t["hyperq"][threads]) for t in r["times"].values()
             for threads, pagoda_t in t["pagoda"].items()]
    first, last = r["thread_counts"][0], r["thread_counts"][-1]
    adv_first = _hyperq_advantage(r["times"], first)
    adv_last = _hyperq_advantage(r["times"], last)
    return {
        "pagoda_win_share": sum(1 for p, h in cells if p <= h) / len(cells),
        "hyperq_advantage_first": adv_first,
        "hyperq_advantage_last": adv_last,
        "hyperq_advantage_shrink": adv_first / adv_last,
    }


def _fig7_measured(d: dict) -> str:
    g, x = d["report"]["geomeans_128"], d["extra"]
    counts = d["report"]["thread_counts"]
    return (f"{g['hyperq']:.2f}x / {g['gemtc']:.2f}x over HyperQ / GeMTC "
            f"at 128 thr; Pagoda at or ahead of HyperQ in "
            f"{100 * x['pagoda_win_share']:.0f}% of cells; HyperQ gap "
            f"{x['hyperq_advantage_first']:.2f}x at {counts[0]} thr → "
            f"{x['hyperq_advantage_last']:.2f}x at {counts[-1]} thr")


_paper(
    "fig7", "Fig. 7",
    "compute only: 2.29x over HyperQ and 2.26x over GeMTC at 128 "
    "threads/task; the HyperQ gap narrows as threads per task grow", fig7,
    lambda seed: fig7.run(num_tasks=_scaled(256), seed=seed), _fig7_extra,
    [
        ReportValue("hyperq_band_low", "geomeans_128.hyperq", ">", 1.3),
        ReportValue("hyperq_band_high", "geomeans_128.hyperq", "<", 3.5),
        ReportValue("gemtc_band_low", "geomeans_128.gemtc", ">", 1.3),
        ReportValue("gemtc_band_high", "geomeans_128.gemtc", "<", 3.5),
        ExtraValue("wins_almost_everywhere", "pagoda_win_share", ">", 0.85),
        ExtraValue("gap_narrows", "hyperq_advantage_shrink", ">", 1.0),
    ],
    _fig7_measured,
)


# -- Fig. 8: input size x thread count ----------------------------------------


def _fig8_extra(r: dict) -> dict:
    sizes, threads = r["sizes"], r["threads"]
    mid_size, mid_t = sizes[len(sizes) // 2], threads[len(threads) // 2]
    extra = {"conv_largest_shape":
             r["speedups"]["conv"][sizes[-1]][threads[-1]]}
    for w, per_size in r["speedups"].items():
        extra[f"small_thread_losses_{w}"] = sum(
            1 for size in sizes if not per_size[size][threads[0]] > 0.95)
        extra[f"mid_minus_small_peak_{w}"] = per_size[mid_size][mid_t] - max(
            per_size[mid_size][t] for t in threads[:2])
    return extra


def _fig8_measured(d: dict) -> str:
    r = d["report"]
    size, threads = r["sizes"][-1], r["threads"]
    picks = (threads[0], threads[len(threads) // 2], threads[-1])
    curves = "; ".join(
        f"{w.upper()} {size}²: " + " → ".join(
            f"{r['speedups'][w][str(size)][str(t)]:.2f}" for t in picks)
        for w in ("mm", "conv"))
    return f"{curves} at {'/'.join(map(str, picks))} threads"


_paper(
    "fig8", "Fig. 8",
    "MM/CONV over HyperQ: >1 at small thread counts for every input size, "
    "diminishing past ~512 threads; CONV wins again at the largest shape",
    fig8, lambda seed: fig8.run(seed=seed), _fig8_extra,
    [ExtraValue(f"small_threads_win_{w}", f"small_thread_losses_{w}", "<=", 1)
     for w in ("mm", "conv")]
    + [ExtraValue(f"advantage_diminishes_{w}", f"mid_minus_small_peak_{w}",
                  "<", 0.3) for w in ("mm", "conv")]
    + [ExtraValue("conv_swings_back", "conv_largest_shape", ">", 1.0)],
    _fig8_measured,
)


# -- Fig. 9: irregular tasks vs static fusion ---------------------------------


def _fig9_extra(r: dict) -> dict:
    return {f"pagoda_over_fusion_{w}": s["pagoda"] / s["fusion"]
            for w, s in r["per_workload"].items()}


def _fig9_measured(d: dict) -> str:
    x = d["extra"]
    ratios = [x[f"pagoda_over_fusion_{w}"] for w in fig9.WORKLOADS]
    return (f"{d['report']['pagoda_over_fusion']:.2f}x geomean; Pagoda "
            f"beats fusion on {sum(v > 1 for v in ratios)}/{len(ratios)} "
            f"benchmarks ({_span(ratios)}x)")


_paper(
    "fig9", "Fig. 9",
    "irregular task sizes: Pagoda 1.79x geomean over static fusion", fig9,
    lambda seed: fig9.run(num_tasks=_scaled(256), seed=seed), _fig9_extra,
    [
        ReportValue("band_low", "pagoda_over_fusion", ">", 1.3),
        ReportValue("band_high", "pagoda_over_fusion", "<", 3.0),
    ] + [
        ExtraValue(f"beats_fusion_{w}", f"pagoda_over_fusion_{w}", ">", 1.0)
        for w in fig9.WORKLOADS
    ],
    _fig9_measured,
)


# -- Fig. 10: average task latency --------------------------------------------


def _fig10_extra(r: dict) -> dict:
    count_ratio = r["counts"][-1] / r["counts"][0]
    big = r["counts"][-1]
    extra = {}
    for w, c in fig10.run_and_check(r).items():
        lat = r["latency"][w]
        extra[f"fused_growth_{w}"] = c["fused_growth"]
        extra[f"pagoda_growth_{w}"] = c["pagoda_growth"]
        extra[f"fused_growth_over_count_ratio_{w}"] = (
            c["fused_growth"] / count_ratio)
        extra[f"pagoda_over_fused_growth_{w}"] = (
            c["pagoda_growth"] / c["fused_growth"])
        extra[f"pagoda_over_fused_latency_at_max_{w}"] = (
            lat["pagoda"][big] / lat["fusion"][big])
    return extra


def _fig10_measured(d: dict) -> str:
    r, x = d["report"], d["extra"]
    parts = []
    for w in fig10.WORKLOADS:
        lat_us = [v / 1e3 for v in r["latency"][w]["pagoda"].values()]
        parts.append(f"{w.upper()} fused grows {x[f'fused_growth_{w}']:.1f}x, "
                     f"Pagoda {x[f'pagoda_growth_{w}']:.2f}x "
                     f"({_span(lat_us)} µs)")
    return (f"over a {r['counts'][-1] // r['counts'][0]}x count increase: "
            + "; ".join(parts))


_paper(
    "fig10", "Fig. 10",
    "fused latency grows ~linearly with the task count; Pagoda's stays "
    "flat", fig10,
    lambda seed: fig10.run(counts=fig10.task_counts(), seed=seed),
    _fig10_extra,
    [d for w in fig10.WORKLOADS for d in (
        ExtraValue(f"fused_grows_{w}",
                   f"fused_growth_over_count_ratio_{w}", ">", 0.25),
        ExtraValue(f"pagoda_flat_{w}", f"pagoda_over_fused_growth_{w}",
                   "<", 0.5),
        ExtraValue(f"pagoda_far_lower_{w}",
                   f"pagoda_over_fused_latency_at_max_{w}", "<", 0.1),
    )],
    _fig10_measured,
)


# -- Fig. 11: continuous spawning ---------------------------------------------


def _fig11_extra(r: dict) -> dict:
    return {f"pagoda_over_batching_{w}": s["pagoda"] / s["pagoda-batching"]
            for w, s in r["speedups"].items()}


def _fig11_measured(d: dict) -> str:
    s = d["report"]["speedups"]
    return (f"over GeMTC: Pagoda {_span(v['pagoda'] for v in s.values())}x, "
            f"Pagoda-Batching "
            f"{_span(v['pagoda-batching'] for v in s.values())}x; "
            f"Pagoda ahead of Batching on "
            f"{sum(v['pagoda'] > v['pagoda-batching'] for v in s.values())}"
            f"/{len(s)} benchmarks")


_paper(
    "fig11", "Fig. 11",
    "Pagoda > Pagoda-Batching > GeMTC in all cases", fig11,
    lambda seed: fig11.run(num_tasks=_scaled(384), seed=seed),
    _fig11_extra,
    [d for w in fig11.WORKLOADS for d in (
        ReportValue(f"beats_gemtc_{w}", f"speedups.{w}.pagoda", ">", 1.0),
        ExtraValue(f"spawning_beats_batching_{w}",
                   f"pagoda_over_batching_{w}", ">=", 0.95),
        ReportValue(f"batching_helps_{w}", f"speedups.{w}.pagoda-batching",
                    ">", 0.8),
    )],
    _fig11_measured,
)


# -- Table 3: copy/compute split under HyperQ ---------------------------------


def _tab3_extra(r: dict) -> dict:
    return {f"copy_pct_err_{w}": abs(r["copy_pct"][w] - paper)
            for w, paper in tab3.PAPER_COPY_PCT.items()}


def _tab3_measured(d: dict) -> str:
    got = d["report"]["copy_pct"]
    return "%copy (paper): " + ", ".join(
        f"{w} {got[w]:.0f} ({paper})"
        for w, paper in tab3.PAPER_COPY_PCT.items())


_paper(
    "tab3", "Table 3",
    "per-benchmark %copy under HyperQ; DCT and 3DES copy-bound, BF and "
    "SLUD compute-bound", tab3,
    lambda seed: tab3.run(num_tasks=_scaled(384), seed=seed), _tab3_extra,
    [ExtraValue(f"near_paper_{w}", f"copy_pct_err_{w}", "<=",
                max(10, 0.4 * paper))
     for w, paper in tab3.PAPER_COPY_PCT.items()]
    + [
        ReportValue("dct_copy_bound", "copy_pct.dct", ">", 55),
        ReportValue("3des_copy_bound", "copy_pct.3des", ">", 50),
        ReportValue("bf_compute_bound", "copy_pct.bf", "<", 25),
        ReportValue("slud_compute_bound", "copy_pct.slud", "<", 10),
    ],
    _tab3_measured,
)


# -- Table 5: shared-memory management ----------------------------------------

_SMEM = {True: "smem", False: "no_smem"}


def _tab5_reshape(r: dict) -> dict:
    # (workload, use_smem) tuple keys -> JSON-ready nested keys
    measured = r["measured"]
    return {"measured": {w: {_SMEM[s]: measured[(w, s)] for s in _SMEM}
                         for w in tab5.CONFIGS}}


def _tab5_extra(r: dict) -> dict:
    extra = {}
    for w, m in r["measured"].items():
        extra[f"smem_over_no_smem_kernel_{w}"] = (
            m["smem"]["kernel_us"] / m["no_smem"]["kernel_us"])
        for variant, cell in m.items():
            extra[f"occupancy_pct_{w}_{variant}"] = round(cell["occupancy"])
    return extra


def _tab5_measured(d: dict) -> str:
    m, x = d["report"]["measured"], d["extra"]
    cells = [(w, v) for w in tab5.CONFIGS for v in _SMEM.values()]
    kernels = ", ".join(
        f"{w.upper()} {m[w]['smem']['kernel_us']:.1f} vs "
        f"{m[w]['no_smem']['kernel_us']:.1f} µs" for w in tab5.CONFIGS)
    return ("occupancy " + "/".join(
                str(x[f"occupancy_pct_{w}_{v}"]) for w, v in cells)
            + f" %; per-task kernel time with vs without smem: {kernels}; "
            f"end-to-end over HyperQ "
            f"{_span(m[w][v]['speedup'] for w, v in cells)}x")


_paper(
    "tab5", "Table 5",
    "shared memory beats no shared memory (DCT 1.35 vs 1.25x, MM 1.51 vs "
    "1.20x over HyperQ); occupancy 25/97/97/97 %",
    tab5, lambda seed: tab5.run(num_tasks=_scaled(256), seed=seed),
    _tab5_extra,
    [d for w in tab5.CONFIGS for d in (
        ExtraValue(f"smem_faster_{w}", f"smem_over_no_smem_kernel_{w}",
                   "<", 1.0),
        ReportValue(f"beats_hyperq_{w}_smem",
                    f"measured.{w}.smem.speedup", ">", 1.0),
        ReportValue(f"beats_hyperq_{w}_no_smem",
                    f"measured.{w}.no_smem.speedup", ">", 1.0),
    )]
    + [ExtraValue(f"occupancy_{w}_{v}", f"occupancy_pct_{w}_{v}", "==", pct)
       for w, v, pct in (("dct", "smem", 25), ("dct", "no_smem", 97),
                         ("mm", "smem", 97), ("mm", "no_smem", 97))],
    _tab5_measured,
    reshape=_tab5_reshape,
)


# -- extensions: ablations, config sweeps, load, priorities -------------------


def _ablations_extra(r: dict) -> dict:
    rows, psched, cb = r["rows"], r["psched"], r["copyback"]
    timeouts = sorted(cb)
    extra = {
        "rows1_over_rows32_makespan":
            rows[1]["makespan"] / rows[32]["makespan"],
        "rows1_minus_rows32_copy_backs":
            rows[1]["copy_backs"] - rows[32]["copy_backs"],
        "psched_serial_minus_parallel_growth":
            (psched[16]["serial"] - psched[4]["serial"])
            - (psched[16]["parallel"] - psched[4]["parallel"]),
        "copy_backs_shortest_minus_longest_timeout":
            cb[timeouts[0]]["copy_backs"] - cb[timeouts[-1]]["copy_backs"],
    }
    for warps, v in psched.items():
        extra[f"psched_serial_over_parallel_{warps}"] = (
            v["serial"] / v["parallel"])
    return extra


def _ablations_measured(d: dict) -> str:
    r, x = d["report"], d["extra"]
    rows, ps, cb = r["rows"], r["psched"], r["copyback"]
    timeouts = sorted(cb, key=float)
    lo, hi = timeouts[0], timeouts[-1]
    return (f"two-copy spawn {r['protocol']['overhead']:.2f}x slower; "
            f"1 vs 32 TaskTable rows: {rows['1']['copy_backs']} vs "
            f"{rows['32']['copy_backs']} copy-backs, "
            f"{x['rows1_over_rows32_makespan']:.2f}x makespan; pSched "
            f"4 → 16 warps: serial {ps['4']['serial'] / 1e3:.2f} → "
            f"{ps['16']['serial'] / 1e3:.2f} µs, parallel "
            f"{ps['4']['parallel'] / 1e3:.2f} → "
            f"{ps['16']['parallel'] / 1e3:.2f} µs; copy-back timeout "
            f"{lo} → {hi} µs: {cb[lo]['copy_backs']} → "
            f"{cb[hi]['copy_backs']} copy-backs, makespan "
            f"{cb[lo]['makespan'] / 1e6:.2f} → "
            f"{cb[hi]['makespan'] / 1e6:.2f} ms")


_paper(
    "ablations", "Ablations",
    "§4.2.1 two-copy spawning is slower; a 1-row TaskTable throttles "
    "the spawner; Algorithm 2's parallel pSched stays flat; longer "
    "copy-back timeouts cut D2H traffic (§4.2.2)", ablations,
    lambda seed: ablations.run(num_tasks=384, seed=seed), _ablations_extra,
    [
        ReportValue("two_copies_slower", "protocol.overhead", ">", 1.05),
        ExtraValue("deep_table_never_hurts", "rows1_over_rows32_makespan",
                   ">=", 1.0),
        ExtraValue("shallow_table_copies_back_more",
                   "rows1_minus_rows32_copy_backs", ">", 0),
    ] + [
        ExtraValue(f"serial_psched_not_faster_{w}",
                   f"psched_serial_over_parallel_{w}", ">=", 1.0)
        for w in (4, 8, 16)
    ] + [
        ExtraValue("serial_psched_grows_faster",
                   "psched_serial_minus_parallel_growth", ">", 0),
        ExtraValue("longer_timeout_fewer_copy_backs",
                   "copy_backs_shortest_minus_longest_timeout", ">", 0),
    ],
    _ablations_measured,
)


def _sweeps_extra(r: dict) -> dict:
    g = r["gemtc_workers"]["sweep"]
    f = r["fusion_threads"]["sweep"]
    h = r["hyperq_connections"]["sweep"]
    spans = [v["makespan_ms"] for t, v in g.items() if t >= 64]
    return {
        "gemtc_makespan_spread": max(spans) / min(spans),
        "fusion_256_over_best": f[256] / min(f.values()),
        "hyperq_1_over_32": h[1] / h[32],
        "hyperq_16_over_32": h[16] / h[32],
    }


def _sweeps_measured(d: dict) -> str:
    g, x = d["report"]["gemtc_workers"]["sweep"], d["extra"]
    shapes = sorted(g, key=int)  # JSON sorted the keys as strings
    occupancy = "/".join(f"{g[t]['occupancy_pct']:.0f}" for t in shapes)
    return (f"GeMTC occupancy {occupancy} % "
            f"for {'/'.join(shapes)}-thread workers, makespan spread "
            f"{x['gemtc_makespan_spread']:.2f}x from 64 threads up; HyperQ "
            f"with 1 connection {x['hyperq_1_over_32']:.2f}x slower than "
            f"32, 16 connections {x['hyperq_16_over_32']:.2f}x; fused "
            f"256-thread choice {x['fusion_256_over_best']:.2f}x the best")


_paper(
    "config_sweeps", "Config sweeps",
    "§6.2: 32-thread GeMTC workers cap at 50 % occupancy, wider ones "
    "reach 100 % at similar speed; HyperQ needs many connections for "
    "narrow tasks", config_sweeps,
    lambda seed: config_sweeps.run(num_tasks=384, seed=seed), _sweeps_extra,
    [ReportValue(f"gemtc_occupancy_{t}",
                 f"gemtc_workers.sweep.{t}.occupancy_pct", "==", pct)
     for t, pct in ((32, 50.0), (64, 100.0), (128, 100.0), (256, 100.0))]
    + [
        ExtraValue("gemtc_shape_insensitive", "gemtc_makespan_spread",
                   "<", 1.5),
        ExtraValue("fusion_heuristic_defensible", "fusion_256_over_best",
                   "<=", 2.0),
        ExtraValue("one_connection_serializes", "hyperq_1_over_32", ">",
                   2.0),
        ExtraValue("connections_diminish", "hyperq_16_over_32", "<", 1.6),
    ],
    _sweeps_measured,
)


def _load_extra(r: dict) -> dict:
    table, gaps = r["results"], r["gaps_ns"]
    worst = gaps[-2]
    return {
        "crossover_gaps": sum(
            1 for g in gaps
            if table["pagoda"][g]["deadline_met_pct"] > 95.0
            and table["hyperq"][g]["deadline_met_pct"] < 50.0),
        "batching_over_pagoda_p99":
            table["pagoda-batching"][worst]["p99_us"]
            / table["pagoda"][worst]["p99_us"],
    }


def _load_measured(d: dict) -> str:
    table, gaps = d["report"]["results"], d["report"]["gaps_ns"]
    # the first rate Pagoda sustains and HyperQ does not, else the
    # rate the batching comparison uses
    gap = next((_key(g) for g in gaps
                if table["pagoda"][_key(g)]["deadline_met_pct"] > 95.0
                and table["hyperq"][_key(g)]["deadline_met_pct"] < 50.0),
               _key(gaps[-2]))
    pg, hq = table["pagoda"][gap], table["hyperq"][gap]
    return (f"at {1e6 / float(gap):.0f}K tasks/s Pagoda p99 "
            f"{pg['p99_us']:.1f} µs with {pg['deadline_met_pct']:.0f} % "
            f"inside the {latency_under_load.DEADLINE_NS / 1e3:.0f} µs "
            f"deadline, HyperQ p99 {hq['p99_us']:.0f} µs "
            f"({hq['deadline_met_pct']:.0f} %); batching p99 "
            f"{d['extra']['batching_over_pagoda_p99']:.1f}x Pagoda's there")


_paper(
    "latency_under_load", "Latency under load",
    "§1 motivation: Pagoda sustains task rates at which HyperQ misses "
    "its deadlines, and batching inflates the tail first",
    latency_under_load,
    lambda seed: latency_under_load.run(num_tasks=384, seed=seed),
    _load_extra,
    [ReportValue(f"light_load_on_time_{rt}",
                 f"results.{rt}."
                 f"{_key(latency_under_load.DEFAULT_GAPS_NS[0])}"
                 ".deadline_met_pct", ">", 95.0)
     for rt in ("pagoda", "pagoda-batching", "hyperq")]
    + [
        ExtraValue("pagoda_holds_where_hyperq_collapses", "crossover_gaps",
                   ">=", 1),
        ExtraValue("batching_inflates_tail", "batching_over_pagoda_p99",
                   ">", 1.0),
    ],
    _load_measured,
)


def _priorities_extra(r: dict) -> dict:
    fifo, prio = r["fifo-blocking"], r["deferred+priority"]
    return {
        "prio_over_fifo_urgent_p99":
            prio["urgent_p99_us"] / fifo["urgent_p99_us"],
        "prio_over_fifo_makespan": prio["makespan_ms"] / fifo["makespan_ms"],
    }


def _priorities_measured(d: dict) -> str:
    r, x = d["report"], d["extra"]
    return (f"urgent p99 {r['fifo-blocking']['urgent_p99_us']:.0f} → "
            f"{r['deferred+priority']['urgent_p99_us']:.0f} µs in a "
            f"{r['num_tasks']}-task bulk flood, makespan "
            f"{x['prio_over_fifo_makespan']:.2f}x")


_paper(
    "priorities", "Priorities",
    "deferred scheduling plus priority order cuts an urgent task's tail "
    "without costing throughput", priorities,
    lambda seed: priorities.run(num_tasks=1200, seed=seed),
    _priorities_extra,
    [
        ExtraValue("urgent_tail_cut", "prio_over_fifo_urgent_p99", "<", 0.5),
        ExtraValue("throughput_kept", "prio_over_fifo_makespan", "<", 1.15),
    ],
    _priorities_measured,
)


# -- EXPERIMENTS.md -----------------------------------------------------------


def render(digests: Mapping[str, dict]) -> str:
    """The generated block of EXPERIMENTS.md, markers included, from
    each paper scenario's ``repro.scenarios/1`` digest (by name)."""
    g = digests["paper.fig5"]["report"]["geomeans"]
    lines = [
        BEGIN,
        "",
        "| Pagoda geomean speedup over | paper | measured (384 tasks) "
        "| ratio |",
        "|---|---|---|---|",
    ]
    for runtime, label in (("pthreads", "PThreads (20 cores)"),
                           ("hyperq", "CUDA-HyperQ"), ("gemtc", "GeMTC")):
        paper = fig5.PAPER_GEOMEANS[runtime]
        lines.append(f"| {label} | {paper:.2f}x | **{g[runtime]:.2f}x** "
                     f"| {g[runtime] / paper:.2f} |")
    lines += [
        "",
        "| id | scenario | paper claim | measured | detectors | report |",
        "|---|---|---|---|---|---|",
    ]
    for name, (label, measured) in SCENARIOS.items():
        d = digests[name]
        passed = sum(v["passed"] for v in d["verdicts"])
        verdict = "✚" if d["passed"] else "✖"
        lines.append(f"| **{label}** | `{name}` | {get(name).description} | "
                     f"{measured(d)} | {verdict} {passed}/"
                     f"{len(d['verdicts'])} | `{d['report_sha256'][:12]}` |")
    lines += ["", END]
    return "\n".join(lines)


def splice(text: str, block: str) -> str:
    """``text`` with its generated block replaced by ``block``."""
    head, _, rest = text.partition(BEGIN)
    _, found, tail = rest.partition(END)
    if not found:
        raise ValueError("EXPERIMENTS.md has no generated block markers")
    return head + block + tail
