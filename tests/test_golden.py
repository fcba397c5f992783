"""The golden-output script: its comparison rule and its per-section report."""

from __future__ import annotations

import pytest

import golden

_BUDGET = b"D8\tsigma\tSearchBudgetExceeded\nD8\trho\t5\n"
_VALUE = b"D8\tsigma\t3\nD8\trho\t5\n"


def test_sections_are_the_fourteen_checks():
    assert list(golden.SECTIONS) == [
        "census", "decisions", "tables", "specs", "describe", "orders", "primes",
        "lattices", "big-lattices", "cli", "nilpotency", "invariants", "budgets", "witnesses",
    ]


def test_invariants_accept_a_base_budget_error_that_became_a_value():
    assert golden.agrees("invariants", _BUDGET, _VALUE)
    assert golden.agrees("invariants", _VALUE, _VALUE)


def test_invariants_reject_a_value_that_became_a_budget_error():
    assert not golden.agrees("invariants", _VALUE, _BUDGET)


@pytest.mark.parametrize(
    "head",
    [
        b"D10\tsigma\t3\nD8\trho\t5\n",  # another key
        b"D8\tepsilon\t3\nD8\trho\t5\n",  # another invariant on the same group
        b"D8\tsigma\t3\n",  # a line fewer
        _VALUE + b"D8\tpartition\tFalse\n",  # a line more
        b"D8\tsigma\t3\nD8\trho\t6\n",  # another value on a line the base finished
    ],
)
def test_invariants_reject_other_keys_values_and_line_counts(head):
    assert not golden.agrees("invariants", _BUDGET, head)


@pytest.mark.parametrize("section", [name for name in golden.SECTIONS if name != "invariants"])
def test_every_other_section_needs_equal_bytes(section):
    assert golden.agrees(section, _VALUE, _VALUE)
    assert not golden.agrees(section, _BUDGET, _VALUE)
    assert not golden.agrees(section, _VALUE, _VALUE.rstrip(b"\n"))


def test_report_names_each_section_and_the_tree_that_failed(monkeypatch, tmp_path, capsys):
    # tmp_path stands in for the base tree: it has no src/ecov and its own PYTHONPATH.
    monkeypatch.setattr(
        golden,
        "SECTIONS",
        {
            "shared": "import os, sys; print(sys.argv[1], os.environ['COLUMNS'])",
            "paths": "import os; print(os.environ['PYTHONPATH'])",
            "base-raises": "import pathlib; assert pathlib.Path('src/ecov').is_dir()",
        },
    )
    assert golden.main([str(tmp_path)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "shared: same",
        "paths: DIFFERS",
        "base-raises: FAILED, base exited 1",
    ]


def test_usage_takes_only_the_base_path(capsys):
    assert golden.main([]) == 2
    assert golden.main(["a", "b"]) == 2
    assert "usage: python tests/golden.py BASE" in capsys.readouterr().err
