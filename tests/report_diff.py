"""Name what moved between two stripped reports.

``report_diff(a, b)`` walks two ``report.json`` documents (``strip_timing``
applied, as ``json.loads`` reads them) and returns the first key path where
they differ, with both values, and the largest absolute change of each
``macro_auroc``, ``per_class`` and ``per_group`` value. Cells and
``incomplete`` entries are matched and walked in (repeat, fraction,
algorithm) order, so a cell missing from one report is named as missing
instead of shifting every cell after it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

MISSING = "<missing>"
# Report keys walked first, in this order: what a run was asked for, then
# its cells, then what is derived from them.
KEY_ORDER = ("config", "base_seed", "repeats", "difficulty", "cells", "incomplete", "summary")
AUROC_KEYS = ("macro_auroc", "per_class", "per_group")
CELL_KEYS = ("repeat", "fraction", "algorithm")


@dataclass
class ReportDiff:
    path: str | None = None  # the first differing key path; None when the reports are equal
    values: tuple = (None, None)
    max_delta: dict = field(default_factory=lambda: dict.fromkeys(AUROC_KEYS, 0.0))

    def describe(self) -> str:
        deltas = ", ".join(f"{key} {delta:.3g}" for key, delta in self.max_delta.items())
        if self.path is None:
            return f"reports are equal (largest |Δ|: {deltas})"
        a, b = (_short(v) for v in self.values)
        return f"first difference at {self.path}: {a} != {b} (largest |Δ|: {deltas})"


def _short(value, limit: int = 120) -> str:
    text = value if value is MISSING else json.dumps(value, sort_keys=True)
    return text if len(text) <= limit else text[:limit] + "…"


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _keyed(entries: list) -> dict | None:
    """A list of cells or ``incomplete`` entries keyed by (repeat, fraction,
    algorithm); None for any other list."""
    if not all(isinstance(e, dict) and all(k in e for k in CELL_KEYS) for e in entries):
        return None
    return {tuple(e[k] for k in CELL_KEYS): e for e in entries}


def _children(a, b):
    """(path suffix, child of a, child of b) of two containers, in walk order."""
    if isinstance(a, dict) and isinstance(b, dict):
        keys = [k for k in KEY_ORDER if k in a or k in b]
        keys += sorted((a.keys() | b.keys()) - set(keys))
        return [(f".{k}", a.get(k, MISSING), b.get(k, MISSING)) for k in keys]
    ka, kb = _keyed(a), _keyed(b)
    if ka is not None and kb is not None and len(ka) == len(a) and len(kb) == len(b):
        return [
            (f"[{' '.join(f'{n}={v}' for n, v in zip(CELL_KEYS, key))}]",
             ka.get(key, MISSING), kb.get(key, MISSING))
            for key in sorted(ka.keys() | kb.keys())
        ]
    n = max(len(a), len(b))
    return [(f"[{i}]", a[i] if i < len(a) else MISSING, b[i] if i < len(b) else MISSING)
            for i in range(n)]


def report_diff(a: dict, b: dict) -> ReportDiff:
    diff = ReportDiff()

    def walk(x, y, path: str, key: str, parent: str) -> None:
        same_kind = type(x) is type(y)
        if same_kind and isinstance(x, (dict, list)):
            for suffix, cx, cy in _children(x, y):
                child_key = suffix[1:] if suffix.startswith(".") else key
                walk(cx, cy, path + suffix, child_key, key)
            return
        if same_kind and (x == y or x != x and y != y):  # NaN equals NaN here
            return
        if diff.path is None:
            diff.path, diff.values = path.lstrip("."), (x, y)
        auroc = key if key == "macro_auroc" else parent
        if auroc in AUROC_KEYS and _is_number(x) and _is_number(y):
            diff.max_delta[auroc] = max(diff.max_delta[auroc], abs(x - y))

    walk(a, b, "", "", "")
    return diff
