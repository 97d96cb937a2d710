#!/usr/bin/env python
"""Rewrite EXPERIMENTS.md's generated tables from the paper scenarios.

Runs every ``paper.*`` scenario of :mod:`repro.scenarios` at its
default seed and splices the tables :func:`repro.scenarios.paper.render`
draws from their ``repro.scenarios/1`` JSON between the block markers of
EXPERIMENTS.md (about 70 s on a 2-core host).  Commit the result: the
tier-1 suite fails while the committed tables differ from what the
scenarios produce.  Exits 1 if any paper scenario fails its detectors.
"""

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.scenarios import run_scenario  # noqa: E402
from repro.scenarios.paper import SCENARIOS, render, splice  # noqa: E402


def main() -> int:
    results = {name: run_scenario(name) for name in SCENARIOS}
    path = ROOT / "EXPERIMENTS.md"
    block = render({name: json.loads(r.to_json())
                    for name, r in results.items()})
    path.write_text(splice(path.read_text(), block))
    failed = [name for name, r in results.items() if not r.passed]
    for name in failed:
        print(f"FAIL {name}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
