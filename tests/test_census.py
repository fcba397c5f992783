"""Catalog construction, census decisions, and report emitters."""

from __future__ import annotations

import json

import pytest

from ecov import lattice
from ecov.census import (
    CSV_HEADER,
    CatalogEntry,
    CensusRow,
    catalog,
    emit,
    run_census,
)
from ecov.errors import UnknownFormat
from ecov.groups import parse_group_spec

HINTS_DIR = "src/ecov/data/hints"


def entry_map(entries):
    return {e.display: e for e in entries}


def row_map(rows):
    return {r.name: r for r in rows}


# ---------------------------------------------------------------------------
# Catalog


def test_catalog_small_contains_the_order_eight_families():
    names = {e.display for e in catalog(10)}
    for expected in ("C1", "C8", "D8", "Q8", "E(2,3)", "C2xC4", "S3", "C10"):
        assert expected in names
    assert len(names) == 25


def test_catalog_default_size_and_ordering():
    entries = catalog(60)
    assert len(entries) == 193
    keys = [(e.order, e.display) for e in entries]
    assert keys == sorted(keys)
    assert len({e.spec.text() for e in entries}) == len(entries)


def test_catalog_respects_max_order():
    assert all(e.order <= 24 for e in catalog(24))
    names = {e.display for e in catalog(60)}
    assert "PSL(2,7)" not in names  # order 168
    assert "A5" in names and "S4" in names and "W" in names


def test_catalog_psl_expectations():
    names = entry_map(catalog(700))
    assert names["PSL(2,7)"].expected_status is None
    assert names["PSL(2,5)"].expected_status == "No"
    assert names["PSL(2,11)"].expected_status == "No"


@pytest.mark.parametrize(
    "display,status",
    [
        ("C7", "NoCovering"),
        ("C3xC5", "NoCovering"),
        ("Dic1", "NoCovering"),
        ("A4", None),
        ("Dic5", "No"),
        ("S4", "No"),
        ("S3", "No"),
        ("D30", "No"),
        ("D18", "No"),
        ("W", "No"),
        ("A5", "No"),
        ("E(3,2)", "Yes"),
        ("D8", "Yes"),
        ("Q8", "Yes"),
        ("C6xC10", "Yes"),
        ("C2xC4", "Yes"),
    ],
)
def test_catalog_expected_statuses(display, status):
    entries = entry_map(catalog(60))
    assert entries[display].expected_status == status
    if status is not None:
        assert entries[display].expected_source


def test_catalog_q8_display_aliases_dic2():
    q8 = entry_map(catalog(10))["Q8"]
    assert q8.spec.text() == "Dic2"
    assert q8.order == 8


# ---------------------------------------------------------------------------
# Census runs


@pytest.fixture(scope="module")
def census24():
    entries = catalog(24)
    return entries, run_census(entries)


def test_census_is_clean_at_24(census24):
    entries, result = census24
    assert result.ok
    assert result.mismatches == [] and result.errors == []
    assert len(result.rows) == len(entries)


def test_census_row_values(census24):
    rows = row_map(census24[1].rows)
    a4 = rows["A4"]
    assert (a4.order, a4.exponent, a4.nilpotent) == (12, 6, False)
    assert (a4.equal_covering, a4.method) == ("No", "Exhaustive")
    d8 = rows["D8"]
    assert (d8.equal_covering, d8.method) == ("Yes", "RuleT16_Dihedral")
    assert d8.nilpotent is True
    c12 = rows["C12"]
    assert (c12.equal_covering, c12.method) == ("No", "RuleT1_Cyclic")
    assert rows["S4"].note == ""  # not simple, no annotation


def test_census_simple_note_on_a5():
    entries = [e for e in catalog(60) if e.display == "A5"]
    result = run_census(entries)
    assert result.ok
    (row,) = result.rows
    assert (row.order, row.exponent, row.nilpotent) == (60, 30, False)
    assert (row.equal_covering, row.method) == ("No", "RuleP2_SimpleHalfExp")
    assert "simple" in row.note and "conjecture" in row.note


def test_census_detects_a_wrong_expectation():
    entry = CatalogEntry(parse_group_spec("D8"), "D8", 8, "No", "doctored")
    result = run_census([entry])
    assert not result.ok
    assert len(result.mismatches) == 1
    assert "D8" in result.mismatches[0] and "Yes" in result.mismatches[0]


def test_census_collects_errors_without_dying(monkeypatch):
    monkeypatch.setattr(lattice, "_LATTICE_BUDGET", 10)
    entry = CatalogEntry(parse_group_spec("C1600"), "C1600", 1600, None, None)
    result = run_census([entry])
    # cyclic groups never need the lattice, so this one still succeeds
    assert result.ok and result.rows[0].method == "RuleT1_Cyclic"
    # A4 reaches the exhaustive stage, whose lattice outruns a 10-unit budget
    entry = CatalogEntry(parse_group_spec("A4"), "A4", 12, None, None)
    result = run_census([entry])
    assert result.rows == [] and len(result.errors) == 1
    assert "A4" in result.errors[0]


def test_census_jobs_do_not_change_output():
    entries = catalog(30)
    one = run_census(entries, jobs=1)
    many = run_census(entries, jobs=8)
    assert emit(one.rows) == emit(many.rows)
    assert emit(one.rows, format="json") == emit(many.rows, format="json")


def test_census_reports_errors_in_entry_order(tmp_path):
    entries = [
        CatalogEntry(parse_group_spec(f"cayley:{tmp_path / name}"), name, 1, None, None)
        for name in ("first.json", "second.json")
    ]
    result = run_census(entries, jobs=8)
    assert result.rows == []
    assert [e.split(":")[0] for e in result.errors] == ["first.json", "second.json"]


def test_census_hint_rows():
    result = run_census([], hints_dir=HINTS_DIR)
    assert result.ok
    rows = row_map(result.rows)
    assert set(rows) == {"M11", "M12"}
    m11, m12 = rows["M11"], rows["M12"]
    assert (m11.order, m11.exponent, m11.nilpotent) == (7920, 1320, False)
    assert (m11.equal_covering, m11.method) == ("No", "HintC1")
    assert (m12.order, m12.exponent) == (95040, 1320)
    assert (m12.equal_covering, m12.method) == ("No", "HintC1")
    for row in (m11, m12):
        assert "not constructed" in row.note and "conjecture" in row.note


def test_census_hint_errors_are_collected(tmp_path):
    (tmp_path / "bad.json").write_text("{}", encoding="utf-8")
    result = run_census([], hints_dir=str(tmp_path))
    assert result.rows == [] and len(result.errors) == 1
    assert "bad.json" in result.errors[0]


# ---------------------------------------------------------------------------
# Emitters


def sample_rows():
    return [
        CensusRow("C6", 6, 6, True, "No", "RuleT1_Cyclic", 12.34),
        CensusRow("PSL(2,5)", 60, 30, False, "No", "RuleP2_SimpleHalfExp", 5.6, note="simple"),
        CensusRow("M11", 7920, 1320, None, "No", "HintC1", 0.1),
    ]


def test_emit_csv_golden():
    text = emit(sample_rows())
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1] == "C6,6,6,true,No,RuleT1_Cyclic,0"
    assert lines[2] == '"PSL(2,5)",60,30,false,No,RuleP2_SimpleHalfExp,0'
    assert lines[3] == "M11,7920,1320,,No,HintC1,0"
    assert text.endswith("\n")


def test_emit_csv_timing():
    lines = emit(sample_rows(), timing=True).splitlines()
    assert lines[1].endswith(",12.3")
    assert lines[3].endswith(",0.1")


def test_emit_csv_empty_is_header_only():
    assert emit([]) == CSV_HEADER + "\n"


def test_emit_json_fields():
    docs = json.loads(emit(sample_rows(), format="json"))
    assert [d["name"] for d in docs] == ["C6", "PSL(2,5)", "M11"]
    plain = docs[0]
    assert set(plain) == {
        "name",
        "order",
        "exponent",
        "nilpotent",
        "equal_covering",
        "method",
        "elapsed_ms",
    }
    assert plain["nilpotent"] is True and plain["elapsed_ms"] == 0
    assert docs[1]["note"] == "simple"
    assert docs[2]["nilpotent"] is None


def test_emit_json_timing_rounds():
    docs = json.loads(emit(sample_rows(), format="json", timing=True))
    assert docs[0]["elapsed_ms"] == 12.3


def test_emit_markdown():
    lines = emit(sample_rows(), format="markdown").splitlines()
    assert lines[0].startswith("| Name | Order |")
    assert lines[0].endswith("| Note |")
    assert set(lines[1].replace("|", "").split()) == {"---"}
    assert "| C6 | 6 | 6 | true | No | RuleT1_Cyclic |  |" == lines[2]
    assert "| simple |" in lines[3]


def test_emit_rejects_unknown_format():
    with pytest.raises(UnknownFormat):
        emit([], format="yaml")


# ---------------------------------------------------------------------------
# The A5 report line matches the published shape end to end


def test_a5_csv_line():
    entries = [e for e in catalog(60) if e.display == "A5"]
    text = emit(run_census(entries).rows)
    assert text.splitlines()[1] == "A5,60,30,false,No,RuleP2_SimpleHalfExp,0"
