"""Every public definition, member and option in ``src/repro`` is
reached from outside the tests, or is kept here for a stated reason.

Three scans, each over the trees in :data:`SEARCHED`:

- a public top-level ``def`` or ``class`` whose name appears nowhere
  but inside its own definition (``__init__.py`` re-exports do not
  count) is code only the tests run;
- so is a public method of five lines or more whose name appears
  nowhere but inside its own definition;
- a defaulted field of a config class (:data:`OPTION_CLASSES`) that
  nothing sets is an option only the tests turn.

Such code either goes, with its tests, or is listed in :data:`KEEP`,
:data:`MEMBER_KEEP` or :data:`OPTION_KEEP` with the reason it stays.
The name scans are one textual pass: a name mentioned only by another
unreached definition counts as reached.
"""

import ast
import dataclasses
import functools
import io
import pathlib
import re
import tokenize
from collections import Counter

from repro.baselines.gemtc import GemtcConfig
from repro.baselines.hyperq import HyperQConfig
from repro.cluster.topology import NodeSpec
from repro.core.runtime import PagodaConfig
from repro.partition.elastic import ElasticConfig
from repro.partition.manager import PartitionSpec
from repro.serve.server import ServeConfig, TenantSpec
from repro.serve.slo import SloClass

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

#: unreached methods (``Class.method``) that stay, one reason each.
MEMBER_KEEP = {
    "QuotaLedger.check_physical":
        "an invariant check of the quota ledger, like check_quiescent",
    "FaultPlan.generate_fabric":
        "the fabric chaos sweep's plan generator; moving it into tests/ "
        "would not make it smaller",
}

#: the config classes whose every defaulted field must be set somewhere.
OPTION_CLASSES = (PagodaConfig, ServeConfig, HyperQConfig, GemtcConfig,
                  ElasticConfig, PartitionSpec, NodeSpec, TenantSpec,
                  SloClass)

#: options (``Class.field``) nothing sets by name, one reason each.
OPTION_KEEP = {
    "PagodaConfig.watchdog_deadline_ns":
        "set by the chaos scenarios through the **kwargs of "
        "scenarios.catalog._obs_config",
    "HyperQConfig.functional":
        "the baselines' functional mode checks kernel outputs",
    "GemtcConfig.functional":
        "the baselines' functional mode checks kernel outputs",
}


def _sources():
    return {path: path.read_text()
            for tree in SEARCHED
            for path in sorted((ROOT / tree).rglob("*.py"))
            if path.name != "__init__.py"}


def _is_public_def(node):
    return (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef))
            and not node.name.startswith("_"))


def _own_lines(lines, node):
    """The source lines of ``node``'s definition, decorators included."""
    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
    return "\n".join(lines[first - 1:node.end_lineno])


def _words(text):
    """Identifier-like word -> count outside ``#`` comments
    (``\\bname\\b`` matches, for every name at once): a name that
    only a comment mentions is not reached."""
    code = [token.string for token in
            tokenize.generate_tokens(io.StringIO(text).readline)
            if token.type != tokenize.COMMENT]
    return Counter(re.findall(r"\w+", " ".join(code)))


@functools.lru_cache(maxsize=None)
def _scan():
    """``(unreached definitions, unreached members)`` of ``src/repro``:
    names mentioned in the searched trees only inside their own
    definition."""
    sources = _sources()
    corpus = _words("\n".join(sources.values()))
    top, members = set(), set()
    for path, text in sources.items():
        if ROOT / "src" / "repro" not in path.parents:
            continue
        lines = text.splitlines()
        for node in ast.parse(text).body:
            if not _is_public_def(node):
                continue
            if corpus[node.name] == \
                    _words(_own_lines(lines, node))[node.name]:
                top.add(node.name)
            if not isinstance(node, ast.ClassDef):
                continue
            for sub in node.body:
                if (_is_public_def(sub)
                        and not isinstance(sub, ast.ClassDef)
                        and sub.end_lineno - sub.lineno >= 4
                        and corpus[sub.name]
                        == _words(_own_lines(lines, sub))[sub.name]):
                    members.add(f"{node.name}.{sub.name}")
    return top, members


def unreached():
    """Public top-level names in ``src/repro`` mentioned nowhere in the
    searched trees but inside their definition."""
    return _scan()[0]


def unreached_members():
    """Public methods of 5+ lines in ``src/repro`` mentioned nowhere in
    the searched trees but inside their definition."""
    return _scan()[1]


def _callee(call):
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _settings():
    """What the searched trees set: ``(callee, keyword or position)``
    pairs of every call (``cls(...)`` inside a class counts as a call
    of that class), keywords of ``dataclasses.replace``, and attribute
    names stored on anything but ``self``."""
    passed, stored = set(), set()
    for text in _sources().values():
        tree = ast.parse(text)
        owner = {}
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                for node in ast.walk(cls):
                    owner[node] = cls.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = _callee(node)
                if name == "cls":
                    name = owner.get(node)
                passed.update((name, kw.arg) for kw in node.keywords)
                passed.update((name, i) for i in range(len(node.args)))
            elif (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and not (isinstance(node.value, ast.Name)
                             and node.value.id == "self")):
                stored.add(node.attr)
    return passed, stored


def unset_options():
    """``Class.field`` of every defaulted config field that nothing in
    the searched trees sets."""
    passed, stored = _settings()
    found = set()
    for cls in OPTION_CLASSES:
        for index, field in enumerate(dataclasses.fields(cls)):
            if (field.default is dataclasses.MISSING
                    and field.default_factory is dataclasses.MISSING):
                continue
            if ((cls.__name__, field.name) in passed
                    or (cls.__name__, index) in passed
                    or ("replace", field.name) in passed
                    or field.name in stored):
                continue
            found.add(f"{cls.__name__}.{field.name}")
    return found


def test_only_kept_definitions_are_unreached():
    assert unreached() == set(KEEP)


def test_only_kept_members_are_unreached():
    assert unreached_members() == set(MEMBER_KEEP)


def test_only_kept_options_are_unset():
    assert unset_options() == set(OPTION_KEEP)
