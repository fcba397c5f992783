"""The benchmark's workloads: seeded inputs, one timed round, and its checks.

Each workload runs in one process with no threads or worker processes and
calls ecov only through public entry points (`ecov.census.run_census`,
`ecov.census.emit`, `ecov.cli.main`).  Those are looked up on their module
at call time, so the traced run's wrappers are seen.  A round is a fixed
list of operations; an operation that ends in an `EcovError` (inside
run_census, or as a non-zero CLI exit) counts as failed, while a wrong
answer is reported by check() and ends the run.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import random
import re
import time
from dataclasses import dataclass
from pathlib import Path

from ecov import build_group, catalog, census, cli

import oracle

CENSUS_MAX_ORDER = 240
BRUTE_FORCE_MAX_ORDER = 12


@dataclass
class Round:
    """One pass over a workload's operations."""

    wall: float  # seconds from the first operation's start to the last one's end
    latencies: list[float]  # seconds, one per operation
    failures: list[str]  # "<operation>: <error>" for each failed operation
    outputs: list


def _table_rows(spec: str) -> list[list[int]]:
    return build_group(spec).table.tolist()


class Census:
    """Every catalog(240) entry decided by run_census, then emitted as CSV.

    Its time goes to table construction and verify_table, then element
    orders, is_nilpotent and the normal-subgroup scan of the quotient rule;
    the lattice and the searches are almost never reached.
    """

    def __init__(self, seed: int, workdir: Path):
        self.entries = catalog(CENSUS_MAX_ORDER)
        random.Random(seed).shuffle(self.entries)

    def run_round(self) -> Round:
        latencies, failures, rows = [], [], []
        start = time.perf_counter()
        for entry in self.entries:
            t0 = time.perf_counter()
            result = census.run_census([entry])
            latencies.append(time.perf_counter() - t0)
            failures += result.errors
            rows += result.rows
        rows.sort(key=lambda r: (r.order, r.name))
        text = census.emit(rows, "csv")
        wall = time.perf_counter() - start
        return Round(wall, latencies, failures, [text])

    def check(self, rnd: Round) -> list[str]:
        header, *lines = csv.reader(io.StringIO(rnd.outputs[0]))
        errors = []
        if header != ["name", "order", "exponent", "nilpotent", "equal_covering", "method", "elapsed_ms"]:
            errors.append(f"census CSV header {header}")
        failed = {f.split(":")[0] for f in rnd.failures}
        expected_names = {e.display for e in self.entries} - failed
        if sorted(line[0] for line in lines) != sorted(expected_names):
            errors.append("census CSV does not hold one row per decided entry")
        for line in lines:
            name, order, exp, nil, status, method, _ = line
            facts = oracle.census_facts(name)
            got = (int(order), int(exp), nil == "true", status, method == "RuleT1_Cyclic")
            want = (
                facts.order,
                facts.exponent,
                facts.nilpotent,
                "Yes" if facts.equal_covering else "No",
                facts.no_covering,
            )
            if got != want:
                errors.append(f"census row {line!r}: theory gives {want}")
        # The oracle itself is tested against a power-set brute force.
        for entry in catalog(BRUTE_FORCE_MAX_ORDER):
            brute = oracle.brute_force_facts(_table_rows(entry.spec.text()))
            if brute != oracle.census_facts(entry.display):
                errors.append(f"oracle disagrees with brute force on {entry.display}: {brute}")
        return errors


# Fixed heavy queries.  epsilon E(2,5) (true value 3) and rho E(3,4) (true
# value 10) exhaust the search node budget on every run: see ROADMAP item 5.
HEAVY_QUERIES = (
    ("sigma", "PSL(2,8)"),
    ("sigma", "PSL(2,11)"),
    ("check", "PSL(2,9)"),
    ("epsilon", "E(2,5)"),
    ("rho", "E(3,4)"),
)

_E_SMALL = ("E(2,2)", "E(2,3)", "E(2,4)", "E(3,2)", "E(3,3)", "E(5,2)", "E(7,2)")
_D_SMALL = tuple(f"D{2 * n}" for n in range(3, 17))
_DIC_SMALL = tuple(f"Dic{n}" for n in range(1, 13))
_CXC_SMALL = tuple(f"C{a}xC{b}" for a in range(2, 11) for b in range(a, 31) if a * b <= 60)
_C_SMALL = tuple(f"C{n}" for n in range(2, 61))

# Light query slots: the seed draws LIGHT_PER_SLOT groups for each slot from
# small groups of one family, so every seed gives a similar cost mix.
LIGHT_SLOTS = (
    ("sigma", _E_SMALL),
    ("sigma", _D_SMALL),
    ("sigma", _CXC_SMALL),
    ("epsilon", _E_SMALL),
    ("epsilon", _D_SMALL),
    ("epsilon", _CXC_SMALL),
    ("rho", _E_SMALL),
    ("rho", _CXC_SMALL),
    ("partition", _E_SMALL),
    ("partition", _CXC_SMALL),
    ("check", _D_SMALL),
    ("check", _DIC_SMALL),
    ("check", _CXC_SMALL),
    ("check", _E_SMALL),
    ("check", _C_SMALL),
)
LIGHT_PER_SLOT = 8


@dataclass
class CliResult:
    argv: list[str]
    code: int
    stdout: str
    stderr: str


def _run_cli(argv: list[str]) -> tuple[CliResult, float]:
    """One in-process CLI call with its output captured, and its latency."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - t0
    return CliResult(argv, code, out.getvalue(), err.getvalue()), elapsed


def _cli_round(queries: list[list[str]]) -> Round:
    latencies, failures, outputs = [], [], []
    start = time.perf_counter()
    for argv in queries:
        result, elapsed = _run_cli(argv)
        latencies.append(elapsed)
        outputs.append(result)
        if result.code != 0:
            failures.append(f"{' '.join(argv[:2])}: exit {result.code}: {result.stderr.strip()}")
    wall = time.perf_counter() - start
    return Round(wall, latencies, failures, outputs)


class Invariants:
    """sigma/epsilon/rho/partition/check queries through the CLI.

    Its time goes to enumerate_subgroups, the maximal-subgroup scan and the
    branch-and-bound searches; verify_table does little.
    """

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        pairs = list(HEAVY_QUERIES)
        for command, family in LIGHT_SLOTS:
            pairs += [(command, rng.choice(family)) for _ in range(LIGHT_PER_SLOT)]
        rng.shuffle(pairs)
        self.workdir = workdir
        self.queries = []
        for i, (command, spec) in enumerate(pairs):
            argv = [command, spec]
            if command in oracle.WITNESS_MODES:
                argv += ["--witness", str(workdir / f"witness-{i}.json")]
            self.queries.append(argv)

    def run_round(self) -> Round:
        self.workdir.mkdir(parents=True, exist_ok=True)
        for old in self.workdir.glob("witness-*.json"):
            old.unlink()
        return _cli_round(self.queries)

    def check(self, rnd: Round) -> list[str]:
        errors = []
        for res in rnd.outputs:
            if res.code == 0:
                errors += [f"{' '.join(res.argv[:2])}: {e}" for e in self._check_one(res)]
        return errors

    def _check_one(self, res: CliResult) -> list[str]:
        command, spec = res.argv[:2]
        want = oracle.expected_answer(command, spec)
        first = res.stdout.splitlines()[0] if res.stdout else ""
        got = _parse_answer(command, spec, first)
        if got != want:
            return [f"answered {first!r}, theory gives {want}"]
        if command == "check":
            return []
        witness = Path(res.argv[3])
        if got in (False, oracle.INFINITY):
            return ["wrote a witness for an empty answer"] if witness.exists() else []
        if not witness.exists():
            return ["no witness file written"]
        doc = json.loads(witness.read_text(encoding="utf-8"))
        size = None if command == "partition" else got
        return oracle.witness_errors(_table_rows(spec), doc, command, size)


_VALUE_LINE = re.compile(r"(sigma|epsilon|rho)\((.+)\) = (infinity|\d+)")
_ANSWER_PREFIXES = (
    ("Yes — ", "Yes"),
    ("No covering exists — ", "NoCovering"),
    ("No — ", "No"),
    ("equal partition: yes — ", True),
)


def _parse_answer(command: str, spec: str, first: str):
    """The answer on a report's first line, or the line itself if not understood."""
    if command in ("sigma", "epsilon", "rho"):
        m = _VALUE_LINE.fullmatch(first)
        if m and m[1] == command:
            return oracle.INFINITY if m[3] == "infinity" else int(m[3])
        return first
    if first == f"equal partition: none for {spec}":
        return False
    return next((answer for prefix, answer in _ANSWER_PREFIXES if first.startswith(prefix)), first)


class LargeGroups:
    """describe of groups above the lattice limit through the CLI.

    Time and memory go to permutation closure, Light's test and the
    normal-subgroup scan behind is_simple.
    """

    SPECS = ("M11", "PSL(2,16)", "A7", "C1510")

    def __init__(self, seed: int, workdir: Path):
        self.queries = [["describe", spec] for spec in self.SPECS]

    def run_round(self) -> Round:
        return _cli_round(self.queries)

    def check(self, rnd: Round) -> list[str]:
        errors = []
        for res in rnd.outputs:
            if res.code != 0:
                continue
            spec = res.argv[1]
            want = oracle.DESCRIBE[spec].expected_lines(spec)
            got = tuple(res.stdout.splitlines()[:3])
            if got != want:
                errors.append(f"describe {spec}: got {got}, theory gives {want}")
        return errors


WORKLOADS = {"census": Census, "invariants": Invariants, "large-groups": LargeGroups}
