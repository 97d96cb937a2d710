"""Command-line experiment runner: every checked experiment, by name.

The names are the :mod:`repro.scenarios` registry's, the one catalog of
checked experiments::

    python -m repro.bench paper.fig5
    python -m repro.bench serve.trace_replay
    python -m repro.bench all
    PAGODA_FULL=1 python -m repro.bench paper.fig5   # paper scale

One scenario prints its artefact's paper-vs-measured text report (the
``paper.*`` scenarios and ``partition.elastic_recovery`` have one),
then its pass/fail summary line and every failing detector's evidence.
``all`` runs the whole catalog and prints one line per scenario (the
lines the CI ``scenario-matrix`` job puts in its summary).  The exit
status is the verdict: 1 if any detector failed, else 0.
"""

from __future__ import annotations

import argparse
import sys
from typing import List

from repro.scenarios import ScenarioResult, names, run_scenario


def _failures(result: ScenarioResult) -> List[str]:
    """One line of evidence per failing detector."""
    return [f"      FAIL {v.detector}: {v.detail}"
            for v in result.verdicts if not v.passed]


def _run_all() -> int:
    results = [run_scenario(name) for name in names()]
    passed = sum(1 for r in results if r.passed)
    print(f"SCENARIOS: scenario catalog, {passed}/{len(results)} passed")
    for result in results:
        print("  " + result.summary_line())
        for line in _failures(result):
            print(line)
    return 0 if passed == len(results) else 1


def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser: one positional, a scenario name or ``all``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Run one checked experiment (a repro.scenarios "
                    "scenario) or, with 'all', the whole catalog; exits "
                    "1 if any detector fails.",
    )
    parser.add_argument(
        "scenario", choices=names() + ["all"],
        help="scenario to run, or 'all' for the catalog",
    )
    return parser


def main(argv=None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    if args.scenario == "all":
        return _run_all()
    result = run_scenario(args.scenario)
    if result.outcome.text:
        print(result.outcome.text)
        print()
    print(result.summary_line())
    for line in _failures(result):
        print(line)
    return 0 if result.passed else 1


if __name__ == "__main__":
    sys.exit(main())
