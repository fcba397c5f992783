"""In-memory span recorder for the traced run.

The traced run wraps ecov's public functions from outside the package.  A
function is replaced in every ecov module that binds it, so calls through
any import path are caught, and so are recursive calls that go through a
module global (decide -> _decide_memo -> decide).  No file of the program
is changed.  Each span keeps (name, start, end, parent); a span's self time
is its duration minus the durations of its children.
"""
from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("groups", "analysis", "lattice", "covering", "census", "cli")

# (layer module, attribute, span name).  Several attributes may share a name.
TRACED = (
    ("groups", "build_group", "groups.build"),
    ("groups", "verify_table", "groups.verify_table"),
    ("groups", "GroupTable.element_orders", "groups.element_orders"),
    ("groups", "quotient", "groups.quotient"),
    ("analysis", "structure_report", "analysis.structure_report"),
    ("analysis", "is_nilpotent", "analysis.is_nilpotent"),
    ("analysis", "is_simple", "analysis.is_simple"),
    ("analysis", "index_p_subgroups", "analysis.index_p_subgroups"),
    ("lattice", "enumerate_subgroups", "lattice.enumerate_subgroups"),
    ("lattice", "maximal_subgroups", "lattice.maximal_subgroups"),
    ("lattice", "normal_subgroups_direct", "lattice.normal_subgroups_direct"),
    ("lattice", "normal_closure", "lattice.normal_closure"),
    ("covering", "decide", "covering.decide"),
    ("covering", "equal_covering_exhaustive", "covering.exhaustive"),
    ("covering", "sigma", "covering.search"),
    ("covering", "epsilon", "covering.search"),
    ("covering", "rho", "covering.search"),
    ("covering", "equal_partition_exists", "covering.search"),
    ("covering", "verify_certificate", "covering.verify_certificate"),
    ("census", "run_census", "census.run_census"),
    ("census", "emit", "census.emit"),
    ("cli", "main", "cli.main"),
)

# Span names whose number of calls is reported as "<name>.calls".
CALL_COUNTED = (
    "groups.verify_table",
    "groups.quotient",
    "lattice.normal_subgroups_direct",
    "covering.decide",
    "covering.verify_certificate",
)

_BINDING_MODULES = ("ecov", "ecov.groups", "ecov.analysis", "ecov.lattice", "ecov.covering", "ecov.census", "ecov.cli")


def metric_names() -> list[str]:
    """Every per-layer metric the traced run reports, in report order."""
    names = []
    for _, _, span in TRACED:
        if f"{span}_s" not in names:
            names.append(f"{span}_s")
        if span in CALL_COUNTED:
            names.append(f"{span}.calls")
        if span == "lattice.enumerate_subgroups":
            names.append("lattice.subgroups.count")
    names += [f"{layer}_s" for layer in LAYERS]
    names += ["untraced_s", "traced_wall_s", "trace_overhead_s"]
    return names


class Recorder:
    """Collects spans while installed; reports per-layer metrics per round."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.subgroups_found = 0
        self._open: list[int] = []

    def _wrap(self, name: str, fn):
        spans, open_ = self.spans, self._open
        clock = time.perf_counter
        counts_subgroups = name == "lattice.enumerate_subgroups"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, open_[-1] if open_ else -1])
            open_.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                open_.pop()
                spans[index][2] = clock()
            if counts_subgroups:
                self.subgroups_found += len(result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Replace every traced function at each module that binds it."""
        modules = [importlib.import_module(m) for m in _BINDING_MODULES]
        undo = []
        try:
            for layer, attr, name in TRACED:
                home = importlib.import_module(f"ecov.{layer}")
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[method]
                    setattr(cls, method, self._wrap(name, original))
                    undo.append((cls, method, original))
                    continue
                original = getattr(home, attr)
                wrapped = self._wrap(name, original)
                for mod in modules:
                    if getattr(mod, attr, None) is original:
                        setattr(mod, attr, wrapped)
                        undo.append((mod, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def metrics(self, traced_wall: float, untraced_wall: float, rounds: int) -> dict[str, float]:
        """Per-round self times by function and by layer, plus counts.

        The layer self times and untraced_s add up to traced_wall_s.
        """
        self_time = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                self_time[parent] -= end - start
        out: dict[str, float] = defaultdict(float)
        for (name, _, _, _), t in zip(self.spans, self_time):
            out[f"{name}_s"] += t
            out[f"{name.split('.')[0]}_s"] += t
            if name in CALL_COUNTED:
                out[f"{name}.calls"] += 1
        out["lattice.subgroups.count"] = self.subgroups_found
        covered = sum(end - start for _, start, end, parent in self.spans if parent < 0)
        if abs(sum(self_time) - covered) > 1e-9 * len(self.spans) + 1e-9:
            raise RuntimeError("span self times do not add up to the top-level spans")
        out["untraced_s"] = traced_wall - covered
        out["traced_wall_s"] = traced_wall
        per_round = {k: out[k] / rounds for k in metric_names() if k != "trace_overhead_s"}
        per_round["trace_overhead_s"] = per_round["traced_wall_s"] - untraced_wall
        return per_round

    def write(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
