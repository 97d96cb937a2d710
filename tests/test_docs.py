"""Documentation consistency: the deliverables reference real things."""

import importlib
import json
import pathlib
import re

import pytest

from tests.scenarios.shared import run_once

ROOT = pathlib.Path(__file__).parent.parent


def read(name):
    return (ROOT / name).read_text()


def test_required_documents_exist():
    for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md",
                 "docs/INTERNALS.md", "docs/EXTENDING.md"):
        assert (ROOT / name).is_file(), name


def test_design_confirms_paper_identity():
    design = read("DESIGN.md")
    assert "Pagoda" in design
    assert "PPoPP 2017" in design
    assert "No title collision" in design


def test_design_experiment_index_points_at_real_files():
    from repro.scenarios import names

    design = read("DESIGN.md")
    targets = re.findall(r"`(paper\.\w+)`", design)
    assert targets
    for target in targets:
        assert target in names(), target


#: a dotted ``repro.*`` name quoted in a document.
MODULE_REFERENCE = re.compile(r"`(repro\.[\w.]+)`")


def _resolves(name):
    """Whether ``name`` is a module, or an attribute path under one:
    the longest importable prefix is imported and every remaining part
    must be an attribute of what came before."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def _unresolved(doc):
    names = MODULE_REFERENCE.findall(read(doc))
    assert names, doc
    return sorted({n for n in names if not _resolves(n)})


def test_design_module_references_exist():
    assert _unresolved("DESIGN.md") == []


@pytest.mark.parametrize("doc", ["README.md", "docs/INTERNALS.md",
                                 "docs/EXTENDING.md", "EXPERIMENTS.md"])
def test_doc_module_references_exist(doc):
    assert _unresolved(doc) == []


def test_experiments_covers_every_paper_artefact():
    text = read("EXPERIMENTS.md")
    for artefact in ("Fig. 5", "Fig. 6", "Fig. 7", "Fig. 8", "Fig. 9",
                     "Fig. 10", "Fig. 11", "Table 3", "Table 5"):
        assert artefact in text, artefact
    assert "5.70" in text  # the headline geomean


def test_readme_quickstart_names_real_paths():
    readme = read("README.md")
    for target in re.findall(r"`(examples/[\w.]+\.py)`", readme):
        assert (ROOT / target).is_file(), target
    assert "pip install -e ." in readme


def test_experiments_tables_are_generated_from_the_paper_scenarios():
    """The committed tables are what the checked scenarios produce;
    ``python scripts/render_experiments.py`` refreshes them."""
    from repro.scenarios.paper import SCENARIOS, render, splice

    text = read("EXPERIMENTS.md")
    block = render({name: json.loads(run_once(name).to_json())
                    for name in SCENARIOS})
    assert splice(text, block) == text


def test_experiments_deviations_section_exists():
    """Honest reporting: the deviations section is a deliverable."""
    text = read("EXPERIMENTS.md")
    assert "Known deviations" in text


#: the documents whose ``scripts/...`` and ``*.json`` mentions must
#: name files in the tree.
REFERENCING_DOCS = ("README.md", "DESIGN.md", "docs/*.md",
                    ".claude/skills/verify/SKILL.md")
#: a relative path (an absolute one such as ``/tmp/x.json`` is an
#: example, not a reference) to a script or a JSON file.
FILE_REFERENCE = re.compile(
    r"(?<![\w/.])(scripts/[\w-]+\.(?:py|sh)|(?:[\w-]+/)*[\w-]+\.json)")


def test_scripts_are_executable_helpers():
    assert (ROOT / "scripts" / "calibrate.py").is_file()
    assert (ROOT / "scripts" / "reproduce_all.sh").is_file()
    docs = [path for pattern in REFERENCING_DOCS
            for path in sorted(ROOT.glob(pattern))]
    assert len(docs) >= 5
    missing = [(doc.relative_to(ROOT).as_posix(), target)
               for doc in docs
               for target in FILE_REFERENCE.findall(doc.read_text())
               if not (ROOT / target).is_file()]
    assert not missing
