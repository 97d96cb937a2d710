"""Every public definition in ``src/repro`` is reached from outside
the tests, or is kept here for a stated reason.

A public top-level ``def`` or ``class`` whose name appears nowhere in
``src/``, ``perf/``, ``scripts/`` or ``examples/`` apart from its own
definition (``__init__.py`` re-exports do not count) is code only the
tests run.  Such code either goes, with its tests, or is listed in
:data:`KEEP` with the reason it stays.  The scan is one textual pass:
a name mentioned only by another unreached definition counts as
reached.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).parent.parent

#: the trees whose mentions make a definition reached.
SEARCHED = ("src", "perf", "scripts", "examples")

#: unreached names that stay, one reason each.
KEEP = {
    "ReferenceProcessorSharing":
        "the frozen processor-sharing oracle the determinism tests "
        "compare the live pool against",
    "check_quiescent":
        "an invariant check of a drained session, run by the stress tests",
    "check_consistency":
        "the check that Tables 3 and 4 agree with the workload registry",
    "run_openmp": "a §6.2 CPU bake-off loser that EXPERIMENTS.md cites",
    "run_os_scheduler":
        "a §6.2 CPU bake-off loser that EXPERIMENTS.md cites",
    "run_python_pool":
        "a §6.2 CPU bake-off loser that EXPERIMENTS.md cites",
    "tesla_k40": "the Kepler preset behind the §4.2.2 claim",
    "pascal_gtx1080": "the Pascal preset behind the §7 claim",
}


def _sources():
    return {path: path.read_text()
            for tree in SEARCHED
            for path in sorted((ROOT / tree).rglob("*.py"))
            if path.name != "__init__.py"}


def _public_definitions(text):
    for node in ast.parse(text).body:
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef))
                and not node.name.startswith("_")):
            yield node.name


def unreached():
    """Public top-level names in ``src/repro`` mentioned nowhere in the
    searched trees but at their definition."""
    sources = _sources()
    corpus = "\n".join(sources.values())
    found = set()
    for path, text in sources.items():
        if ROOT / "src" / "repro" not in path.parents:
            continue
        for name in _public_definitions(text):
            if len(re.findall(rf"\b{re.escape(name)}\b", corpus)) == 1:
                found.add(name)
    return found


def test_only_kept_definitions_are_unreached():
    assert unreached() == set(KEEP)
