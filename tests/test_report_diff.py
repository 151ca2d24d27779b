"""The report diff names the first key path where two stripped reports
differ, and the largest change of each AUROC value (tests/report_diff.py)."""

import copy
import json
from pathlib import Path

import pytest
from report_diff import MISSING, report_diff

# The stripped full-grid report that test_harness.py's pin hashes.
FULL_GRID_REPORT = Path(__file__).resolve().parent / "data" / "full_grid_report.json"

CELL = "cells[repeat=0 fraction=0.15 algorithm=salun]"


@pytest.fixture(scope="module")
def pinned():
    return json.loads(FULL_GRID_REPORT.read_text())


def cell(doc, fraction=0.15, algorithm="salun"):
    return next(c for c in doc["cells"] if (c["fraction"], c["algorithm"]) == (fraction, algorithm))


def test_equal_reports_name_no_path(pinned):
    diff = report_diff(pinned, copy.deepcopy(pinned))
    assert diff.path is None
    assert diff.max_delta == {"macro_auroc": 0.0, "per_class": 0.0, "per_group": 0.0}
    assert diff.describe().startswith("reports are equal")


def test_changed_per_group_value_is_named_with_its_change(pinned):
    moved = copy.deepcopy(pinned)
    before = cell(moved)["evals"]["test"]["per_group"]["1"]
    cell(moved)["evals"]["test"]["per_group"]["1"] = before + 0.01
    diff = report_diff(pinned, moved)
    assert diff.path == f"{CELL}.evals.test.per_group.1"
    assert diff.values == (before, before + 0.01)
    assert diff.max_delta["per_group"] == pytest.approx(0.01)
    assert diff.max_delta["macro_auroc"] == diff.max_delta["per_class"] == 0.0
    assert diff.describe().startswith(f"first difference at {CELL}.evals.test.per_group.1: ")


def test_changed_sweep_row_is_named(pinned):
    moved = copy.deepcopy(pinned)
    row = cell(moved)["sweep"][3]
    row["forget_macro"] += 1e-12
    diff = report_diff(pinned, moved)
    assert diff.path == f"{CELL}.sweep[3].forget_macro"
    assert diff.values[1] - diff.values[0] == pytest.approx(1e-12, rel=1e-3)


def test_incomplete_entry_is_named_by_its_cell(pinned):
    entry = {"repeat": 0, "fraction": 0.3, "algorithm": "relabel", "error": "all grid points failed"}
    moved = copy.deepcopy(pinned)
    moved["incomplete"].append(entry)
    diff = report_diff(pinned, moved)
    path = "incomplete[repeat=0 fraction=0.3 algorithm=relabel]"
    assert (diff.path, diff.values) == (path, (MISSING, entry))
    changed = copy.deepcopy(moved)
    changed["incomplete"][0]["error"] = "no exact-unlearning reference available"
    assert report_diff(moved, changed).path == f"{path}.error"


def test_cells_are_walked_in_repeat_fraction_algorithm_order(pinned):
    # Two cells move: the one that comes first in (repeat, fraction,
    # algorithm) order is named, wherever it sits in the list, and the
    # largest change of each AUROC value counts both.
    moved = copy.deepcopy(pinned)
    moved["cells"].reverse()
    cell(moved, 0.3, "exact")["evals"]["forget"]["macro_auroc"] += 0.02
    cell(moved, 0.05, "relabel")["evals"]["retain"]["per_class"]["2"] -= 0.005
    diff = report_diff(pinned, moved)
    assert diff.path == "cells[repeat=0 fraction=0.05 algorithm=relabel].evals.retain.per_class.2"
    assert diff.max_delta["macro_auroc"] == pytest.approx(0.02)
    assert diff.max_delta["per_class"] == pytest.approx(0.005)


def test_missing_cell_is_named_not_shifted(pinned):
    moved = copy.deepcopy(pinned)
    moved["cells"].remove(cell(moved, 0.05, "salun"))
    diff = report_diff(pinned, moved)
    assert diff.path == "cells[repeat=0 fraction=0.05 algorithm=salun]"
    assert diff.values[1] is MISSING
