"""Named group catalog, batch equal-covering census, and report emitters."""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

from .analysis import is_abelian, is_nilpotent, is_simple, is_square_free_distinct_primes
from .covering import _decide_hint_doc, decide, load_hints
from .errors import EcovError, SpecError, UnknownFormat
from .groups import GroupSpec, _is_prime, build_group, exponent, parse_group_spec, spec_order

__all__ = [
    "CatalogEntry",
    "CensusRow",
    "CensusResult",
    "catalog",
    "run_census",
    "emit",
]

CSV_HEADER = "name,order,exponent,nilpotent,equal_covering,method,elapsed_ms"

_PSL_QS = (4, 5, 7, 8, 9, 11, 13)

_SIMPLE_NOTE = (
    "simple; consistent with the conjecture that finite simple groups have no equal covering"
)
_HINT_NOTE = "decided from external subgroup data (group not constructed)"

_SRC_CYCLIC = "cyclic groups have no covering by proper subgroups"
_SRC_PGROUP = "a non-cyclic p-group is covered by its index-p subgroups, all of one order"
_SRC_SQUARE_FREE = "a group of square-free order has no equal covering"
_SRC_EXPONENT = "the exponent equals the group order, so no proper subgroup order is a multiple of it"
_SRC_NILPOTENT = "nilpotent with a non-cyclic Sylow subgroup: one index-p family covers"
_SRC_DIHEDRAL_EVEN = "a dihedral group of order 2n with n even is the union of three index-2 subgroups"
_SRC_SIMPLE = "simple-group census status"
_SRC_S4 = "exponent 12 and a unique subgroup of order 12, so no equal covering"


@dataclass(frozen=True)
class CatalogEntry:
    """One named group with an optional externally attested expectation."""

    spec: GroupSpec
    display: str
    order: int
    expected_status: str | None = None  # "Yes" | "No" | "NoCovering"
    expected_source: str | None = None


@dataclass
class CensusRow:
    """One decided group, mirroring the report columns."""

    name: str
    order: int
    exponent: int
    nilpotent: bool | None
    equal_covering: str
    method: str
    elapsed_ms: float = 0.0
    note: str = ""


@dataclass
class CensusResult:
    """Rows plus everything that went wrong, for exit-code decisions."""

    rows: list[CensusRow] = field(default_factory=list)
    mismatches: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches and not self.errors


def catalog(max_order: int = 60) -> list[CatalogEntry]:
    """Constructor-family catalog up to max_order, deduplicated by spec text.

    Expectations are attached only where an external source or a structural
    theorem forces the status; every other entry carries none.  A
    ``max_order`` below 1 gives the empty catalog.
    """
    if max_order < 1:
        return []
    entries: list[CatalogEntry] = []
    seen: set[str] = set()

    def add(text: str, expected: str | None, source: str | None, display: str | None = None) -> None:
        spec = parse_group_spec(text)
        key = spec.text()
        if key in seen:
            return
        order = spec_order(spec)
        if order is None or order > max_order:
            return
        seen.add(key)
        entries.append(CatalogEntry(spec, display or key, order, expected, source))

    for n in range(1, max_order + 1):
        add(f"C{n}", "NoCovering", _SRC_CYCLIC)

    for m in range(4, max_order + 1, 2):  # dihedral of order m = 2n, n >= 2
        n = m // 2
        if n % 2 == 0:
            add(f"D{m}", "Yes", _SRC_DIHEDRAL_EVEN)
        elif is_square_free_distinct_primes(m):
            add(f"D{m}", "No", _SRC_SQUARE_FREE)
        else:
            add(f"D{m}", "No", _SRC_EXPONENT)

    n = 1
    while 4 * n <= max_order:
        if n == 1:
            add("Dic1", "NoCovering", _SRC_CYCLIC)
        elif n == 2:
            add("Q8", "Yes", _SRC_PGROUP, display="Q8")
        elif n % 2 == 1:
            add(f"Dic{n}", "No", _SRC_EXPONENT)
        elif n & (n - 1) == 0:
            add(f"Dic{n}", "Yes", _SRC_PGROUP)
        else:
            add(f"Dic{n}", None, None)
        n += 1

    for p in filter(_is_prime, range(2, math.isqrt(max_order) + 1)):
        k = 2
        while p**k <= max_order:
            add(f"E({p},{k})", "Yes", _SRC_PGROUP)
            k += 1

    for a in range(2, max_order // 2 + 1):
        for b in range(a, max_order // a + 1):
            if math.gcd(a, b) == 1:
                add(f"C{a}xC{b}", "NoCovering", _SRC_CYCLIC)
            else:
                add(f"C{a}xC{b}", "Yes", _SRC_NILPOTENT)

    n = 3
    while math.factorial(n) <= max_order:
        if n == 3:
            add("S3", "No", _SRC_SQUARE_FREE)
        elif n == 4:
            add("S4", "No", _SRC_S4)
        else:
            add(f"S{n}", None, None)
        n += 1

    n = 4
    while math.factorial(n) // 2 <= max_order:
        if n in (5, 6):
            add(f"A{n}", "No", _SRC_SIMPLE)
        else:
            add(f"A{n}", None, None)
        n += 1

    add("W", "No", _SRC_EXPONENT)

    for q in _PSL_QS:
        text = f"PSL(2,{q})"
        if q == 7:
            add(text, None, None)  # no attested census status for this order
        else:
            add(text, "No", _SRC_SIMPLE)

    entries.sort(key=lambda e: (e.order, e.display))
    return entries


def _expectation_met(expected: str, status: str, method: str) -> bool:
    if expected == "Yes":
        return status == "Yes"
    if expected == "No":
        return status == "No" and method != "RuleT1_Cyclic"
    if expected == "NoCovering":
        return status == "No" and method == "RuleT1_Cyclic"
    return False


def _decide_entry(entry: CatalogEntry) -> CensusRow:
    t0 = time.perf_counter()
    G = build_group(entry.spec)
    decision = decide(G)
    elapsed = (time.perf_counter() - t0) * 1000.0
    note = ""
    if decision.status == "No" and not is_abelian(G) and is_simple(G):
        note = _SIMPLE_NOTE
    return CensusRow(
        name=entry.display,
        order=G.order,
        exponent=exponent(G),
        nilpotent=is_nilpotent(G),
        equal_covering=decision.status,
        method=decision.method,
        elapsed_ms=elapsed,
        note=note,
    )


def _hint_nilpotent(order: int, maximal_orders: list[int]) -> bool | None:
    # In a nilpotent group every maximal subgroup has prime index; one
    # composite index therefore disproves nilpotence.  The converse does not
    # hold, so the undisproved case stays unknown.
    for m in maximal_orders:
        index = order // m
        if index >= 2 and not _is_prime(index):
            return False
    return None


def _hint_files(hints_dir: str | None) -> list[Path]:
    """The sorted ``*.json`` files of the hint directory; none without one."""
    if hints_dir is None:
        return []
    try:
        return sorted(path for path in Path(hints_dir).iterdir() if path.name.endswith(".json"))
    except OSError as exc:
        raise SpecError(f"cannot read hint directory {hints_dir}: {exc}") from None


def _hint_rows(paths: list[Path], result: CensusResult) -> list[CensusRow]:
    rows = []
    for path in paths:
        try:
            doc = load_hints(str(path))
            t0 = time.perf_counter()
            decision = _decide_hint_doc(doc)
            elapsed = (time.perf_counter() - t0) * 1000.0
        except EcovError as exc:
            result.errors.append(f"{path.name}: {exc}")
            continue
        note = _HINT_NOTE
        if doc.get("simple") and decision.status == "No":
            note = f"{_HINT_NOTE}; {_SIMPLE_NOTE}"
        rows.append(
            CensusRow(
                name=doc["name"],
                order=doc["order"],
                exponent=doc["exponent"],
                nilpotent=_hint_nilpotent(doc["order"], doc["maximal_orders"]),
                equal_covering=decision.status,
                method=decision.method,
                elapsed_ms=elapsed,
                note=note,
            )
        )
    return rows


def run_census(
    entries: list[CatalogEntry],
    jobs: int = 1,
    hints_dir: str | None = None,
) -> CensusResult:
    """Decide every entry (plus hint files, if given) and collect problems.

    Entries are decided one after another, in order, so errors are reported
    in entry order; rows come back sorted by (order, name).  ``jobs`` is
    accepted for interface compatibility and has no effect.  A hint
    directory that cannot be listed raises ``SpecError`` before any entry
    is decided.
    """
    hint_files = _hint_files(hints_dir)
    result = CensusResult()
    for entry in entries:
        try:
            row = _decide_entry(entry)
        except EcovError as exc:
            result.errors.append(f"{entry.display}: {exc}")
            continue
        result.rows.append(row)
        if entry.expected_status is not None and not _expectation_met(
            entry.expected_status, row.equal_covering, row.method
        ):
            result.mismatches.append(
                f"{entry.display}: expected {entry.expected_status} "
                f"({entry.expected_source}), got {row.equal_covering} via {row.method}"
            )

    result.rows.extend(_hint_rows(hint_files, result))

    result.rows.sort(key=lambda r: (r.order, r.name))
    return result


def _bool_cell(value: bool | None) -> str:
    if value is None:
        return ""
    return "true" if value else "false"


def emit(rows: list[CensusRow], format: str = "csv", timing: bool = False) -> str:
    """Render rows as csv, json, or markdown; elapsed is zeroed unless timing.

    The csv layout is the seven-column report; the simple-group annotation
    travels only in the json and markdown forms.
    """
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER.split(","))
        for r in rows:
            ms = f"{r.elapsed_ms:.1f}" if timing else "0"
            writer.writerow(
                [r.name, r.order, r.exponent, _bool_cell(r.nilpotent), r.equal_covering, r.method, ms]
            )
        return buf.getvalue()
    if format == "json":
        docs = []
        for r in rows:
            doc = {
                "name": r.name,
                "order": r.order,
                "exponent": r.exponent,
                "nilpotent": r.nilpotent,
                "equal_covering": r.equal_covering,
                "method": r.method,
                "elapsed_ms": round(r.elapsed_ms, 1) if timing else 0,
            }
            if r.note:
                doc["note"] = r.note
            docs.append(doc)
        return json.dumps(docs, indent=2) + "\n"
    if format == "markdown":
        lines = [
            "| Name | Order | Exponent | Nilpotent | Equal covering | Method | Note |",
            "| --- | --- | --- | --- | --- | --- | --- |",
        ]
        for r in rows:
            ms = f" ({r.elapsed_ms:.1f} ms)" if timing else ""
            lines.append(
                f"| {r.name} | {r.order} | {r.exponent} | {_bool_cell(r.nilpotent)} "
                f"| {r.equal_covering} | {r.method}{ms} | {r.note} |"
            )
        return "\n".join(lines) + "\n"
    raise UnknownFormat(f"unknown census output format {format!r}")
