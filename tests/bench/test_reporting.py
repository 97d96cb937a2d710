"""Reporting helpers."""

from repro.bench.reporting import format_table, paper_vs_measured


def test_format_table_alignment():
    text = format_table(["name", "val"], [["a", 1.5], ["bb", 20.25]],
                        title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "name" in lines[1] and "val" in lines[1]
    assert set(lines[2]) <= {"-", " "}
    assert "1.50" in text and "20.25" in text


def test_format_table_no_title():
    text = format_table(["x"], [[1]])
    assert not text.startswith("\n")
    assert text.splitlines()[0].strip() == "x"


def test_paper_vs_measured_ratio():
    text = paper_vs_measured(
        "CMP", [{"k": "w", "paper": 2.0, "measured": 3.0}], keys=["k"]
    )
    assert "1.50" in text  # measured/paper
    assert "CMP" in text


def test_paper_vs_measured_handles_missing():
    text = paper_vs_measured(
        "CMP", [{"k": "w", "paper": None, "measured": 3.0}], keys=["k"]
    )
    assert "-" in text

