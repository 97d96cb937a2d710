"""Structural rules over ``src/repro`` that no behaviour test can see.

- **The engine owns its records.**  An engine record is a private
  ``(when, seq, kind, payload, value)`` tuple.  Only ``repro.sim``
  builds one; every other layer schedules through the
  :class:`~repro.sim.engine.Engine` methods and ``Op._after``.  So no
  module outside ``repro/sim/`` names ``engine._seq``,
  ``engine._ready`` or ``engine._queue``, imports ``heapq`` (the heap
  is the engine's) or imports a record-kind constant from
  ``repro.sim.engine``.
- **Two record kinds, one resume path.**  ``repro.sim.engine`` defines
  two record kinds, and ``Process.__call__`` is the only code there
  that sends into a generator.
- **One Pagoda stack assembly.**  ``PagodaSession.__init__`` builds
  every Pagoda stack, a compute partition's included, so no module
  but ``repro/core/runtime.py`` constructs a ``TaskTable``, a
  ``MasterKernel`` or a ``PagodaHost``.
- **One fleet node.**  A fleet node is a serve server fed by the
  fabric, and ``repro/cluster/node.py`` is the one module that makes
  a server remote (sets ``TaskServer.remote``); ``repro.serve`` is the
  single-box layer under the cluster, so nothing in ``repro/serve/``
  imports from ``repro.cluster``.
- **No unused imports.**  Every name a non-``__init__`` module imports
  is used in it (``__init__`` modules import to re-export).
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).parent.parent / "src" / "repro"
ENGINE = SRC / "sim" / "engine.py"

#: the engine's record containers and sequence counter.
ENGINE_PRIVATE = {"_seq", "_ready", "_queue"}

#: reads of the engine's record containers outside ``repro.sim`` that
#: stay, one reason each: ``(module, attribute) -> reason``.  None do.
ALLOWED: dict = {}


def _outside_sim():
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if not rel.startswith("sim/"):
            yield rel, ast.parse(path.read_text(), str(path))


def _record_kinds():
    """The engine's module-level int constants: its record kinds."""
    tree = ast.parse(ENGINE.read_text())
    return {
        target.id
        for node in tree.body if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Constant)
        and type(node.value.value) is int
        for target in node.targets if isinstance(target, ast.Name)
    }


def _receiver(node):
    """The last name of an attribute's receiver (``x`` or ``a.x``)."""
    value = node.value
    if isinstance(value, ast.Name):
        return value.id
    if isinstance(value, ast.Attribute):
        return value.attr
    return None


def _record_builders():
    kinds = _record_kinds()
    found = []
    for rel, tree in _outside_sim():
        for node in ast.walk(tree):
            where = f"{rel}:{getattr(node, 'lineno', 0)}"
            if (isinstance(node, ast.Attribute)
                    and node.attr in ENGINE_PRIVATE
                    and _receiver(node) == "engine"
                    and (rel, node.attr) not in ALLOWED):
                found.append(f"{where} names engine.{node.attr}")
            elif isinstance(node, ast.Import):
                if any(a.name == "heapq" for a in node.names):
                    found.append(f"{where} imports heapq")
            elif isinstance(node, ast.ImportFrom):
                if node.module == "heapq":
                    found.append(f"{where} imports from heapq")
                elif node.module == "repro.sim.engine":
                    found.extend(
                        f"{where} imports record kind {a.name}"
                        for a in node.names if a.name in kinds)
    return found


def test_no_module_outside_sim_builds_an_engine_record():
    assert _record_builders() == []


def test_allowed_reads_still_exist():
    """An allowance whose read is gone is stale and goes too."""
    for (rel, attr), _reason in ALLOWED.items():
        tree = ast.parse((SRC / rel).read_text())
        assert any(
            isinstance(node, ast.Attribute) and node.attr == attr
            and _receiver(node) == "engine"
            for node in ast.walk(tree)
        ), f"{rel} no longer reads engine.{attr}"


def test_engine_has_two_record_kinds_and_one_resume_path():
    assert _record_kinds() == {"_FN", "_CALL"}
    tree = ast.parse(ENGINE.read_text())
    senders = []
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for fn in cls.body:
            if not isinstance(fn, ast.FunctionDef):
                continue
            if any(isinstance(node, ast.Attribute) and node.attr == "send"
                   for node in ast.walk(fn)):
                senders.append(f"{cls.name}.{fn.name}")
    assert senders == ["Process.__call__"]


#: the parts of a Pagoda stack, and the one module that assembles them.
STACK_PARTS = {"TaskTable", "MasterKernel", "PagodaHost"}
STACK_ASSEMBLY = "core/runtime.py"


def _stack_builders():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel == STACK_ASSEMBLY:
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute)
                    else None)
            if name in STACK_PARTS:
                found.append(f"{rel}:{node.lineno} constructs {name}")
    return found


def test_only_the_session_assembles_a_pagoda_stack():
    assert _stack_builders() == []


def test_the_session_still_assembles_every_stack_part():
    """The rule names the module that builds the parts; if they move,
    the rule must move with them."""
    tree = ast.parse((SRC / STACK_ASSEMBLY).read_text())
    built = {node.func.id for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name)}
    assert STACK_PARTS <= built


#: the one module that makes a server remote, and the layer below it.
REMOTE_NODE = "cluster/node.py"
SERVE_LAYER = "serve/"


def _remote_setters():
    """Modules that set ``remote``: in a class body (``TaskServer``'s
    own default excepted) or by an attribute store."""
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef):
                if rel == "serve/server.py" and node.name == "TaskServer":
                    continue
                targets = [t for stmt in node.body
                           if isinstance(stmt, ast.Assign)
                           for t in stmt.targets]
                targets += [stmt.target for stmt in node.body
                            if isinstance(stmt, ast.AnnAssign)]
                if any(isinstance(t, ast.Name) and t.id == "remote"
                       for t in targets):
                    found.add(rel)
            elif (isinstance(node, ast.Attribute) and node.attr == "remote"
                  and isinstance(node.ctx, ast.Store)):
                found.add(rel)
    return found


def _serve_imports_of_cluster():
    found = []
    for path in sorted((SRC / SERVE_LAYER).rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found.extend(f"{rel}:{node.lineno} imports {name}"
                         for name in names
                         if name == "repro.cluster"
                         or name.startswith("repro.cluster."))
    return found


def test_only_the_fleet_node_is_a_remote_server():
    assert _remote_setters() == {REMOTE_NODE}


def test_the_serve_layer_imports_nothing_from_the_cluster():
    assert _serve_imports_of_cluster() == []


def _bound_names(tree):
    """``(name, lineno)`` for every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                yield name, node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _quoted_names(tree):
    """Strings that Python reads as names: quoted annotations
    (``"Engine"``, ``List["Op"]``) and ``__all__`` entries."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            roots = [node.returns]
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            roots = [node.annotation]
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            roots = [node.value]
        else:
            continue
        for root in roots:
            for sub in ast.walk(root) if root is not None else ():
                if (isinstance(sub, ast.Constant)
                        and isinstance(sub.value, str)):
                    yield sub.value


def _used_names(tree):
    """Every name the module loads, quoted ones included."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for text in _quoted_names(tree):
        used.update(node.id
                    for node in ast.walk(ast.parse(text, mode="eval"))
                    if isinstance(node, ast.Name))
    return used


def _unused_in(source):
    """``(name, lineno)`` of each import ``source`` binds and never
    uses; an import marked ``# noqa: F401`` runs for its side effect."""
    tree = ast.parse(source)
    used = _used_names(tree)
    lines = source.splitlines()
    return [(name, line) for name, line in _bound_names(tree)
            if name not in used and "noqa: F401" not in lines[line - 1]]


def test_no_unused_imports():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name != "__init__.py":
            rel = path.relative_to(SRC).as_posix()
            found.extend(f"{rel}:{line} imports {name} and never uses it"
                         for name, line in _unused_in(path.read_text()))
    assert found == []


@pytest.mark.parametrize("source, unused", [
    ("import heapq\n", ["heapq"]),
    ("from typing import Any, Optional\nx: Optional[int]\n", ["Any"]),
    ("from typing import Any\ndef f(x: 'Any'): pass\n", []),
    ("from typing import List\ndef f() -> 'List[int]': pass\n", []),
    ("from a import b\n__all__ = ['b']\n", []),
    ("import os.path\nos.sep\n", []),
    ("from __future__ import annotations\n", []),
    ("import repro.scenarios.paper  # noqa: F401\n", []),
])
def test_unused_import_scan_reads_names_as_python_does(source, unused):
    assert [name for name, _line in _unused_in(source)] == unused
