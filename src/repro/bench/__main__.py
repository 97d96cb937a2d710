"""Command-line experiment runner.

Run any paper artefact directly::

    python -m repro.bench fig5
    python -m repro.bench tab3 --tasks 1024
    python -m repro.bench all --tasks 256
    python -m repro.bench all --parallel 8

Reports print to stdout in paper-vs-measured form (the checked
versions of these runs are the ``paper.*`` scenarios, run with
``python -m repro.bench scenarios --check``).  With
``--parallel N`` the experiments fan out across N worker processes
(each simulation is single-threaded and deterministic, so the result
tables are identical to a serial run; only the wall-time lines
differ).
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.parallel import run_parallel
from repro.bench.runner import EXPERIMENTS, TASK_SIZED, run_one  # noqa: F401  (TASK_SIZED re-exported for compatibility)


def main(argv=None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Reproduce one of the paper's tables/figures.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="which artefact to reproduce",
    )
    parser.add_argument(
        "--tasks", type=int, default=None,
        help="override the task count (where applicable)",
    )
    parser.add_argument(
        "--parallel", type=int, default=None, metavar="N",
        help="fan independent experiments across N worker processes "
             "(default: serial)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="scenarios only: exit non-zero if any catalog scenario "
             "fails its detectors",
    )
    args = parser.parse_args(argv)
    if args.check:
        if args.experiment != "scenarios":
            parser.error("--check is only valid with 'scenarios'")
        from repro.bench.scenarios import run_check
        return run_check()
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [
        args.experiment
    ]
    if args.parallel is not None:
        if args.parallel < 1:
            parser.error("--parallel must be >= 1")
        for _name, report in run_parallel(names, args.tasks, args.parallel):
            print(report)
            print()
    else:
        for name in names:
            print(run_one(name, args.tasks))
            print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
