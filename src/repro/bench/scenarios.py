"""``repro.bench`` "scenarios" experiment — the scenario catalog, run.

Runs every registered :mod:`repro.scenarios` scenario at its default
seed (the incident catalog and the ``paper.*`` claims) and reports one
pass/fail line per scenario (the same lines the CI ``scenario-matrix``
job puts in its summary).

``python -m repro.bench scenarios --check`` exits non-zero if any
scenario fails, which is how the CI ``scenario-matrix`` job consumes
it.
"""

from __future__ import annotations

from typing import Dict, List

from repro.scenarios import names, run_scenario


def run() -> Dict:
    """Run the whole catalog; returns per-scenario summaries."""
    rows: List[Dict] = []
    for name in names():
        result = run_scenario(name)
        rows.append({
            "name": name,
            "version": result.scenario.version,
            "layer": result.scenario.layer,
            "seed": result.params.seed,
            "passed": result.passed,
            "detectors_passed":
                sum(1 for v in result.verdicts if v.passed),
            "detectors_total": len(result.verdicts),
            "line": result.summary_line(),
            "failures": [v.to_dict() for v in result.verdicts
                         if not v.passed],
        })
    return {
        "scenarios": rows,
        "passed": sum(1 for r in rows if r["passed"]),
        "total": len(rows),
        "all_passed": all(r["passed"] for r in rows),
    }


def report(results: Dict) -> str:
    """One line per scenario, plus any failing detector's evidence."""
    lines = [
        f"SCENARIOS: scenario catalog, {results['passed']}/"
        f"{results['total']} passed"
    ]
    for row in results["scenarios"]:
        lines.append("  " + row["line"])
        for failure in row["failures"]:
            lines.append(f"      FAIL {failure['detector']}: "
                         f"{failure['detail']}")
    return "\n".join(lines)


def run_check() -> int:
    """``--check`` mode: print the report, exit 1 on any failure."""
    results = run()
    print(report(results))
    return 0 if results["all_passed"] else 1
