"""Check that this tree prints the same bytes as a base checkout: python tests/golden.py BASE

Each section runs once in BASE (for example `git worktree add /tmp/base <sha>`)
and once in this tree, each in a fresh `python -c` process with
PYTHONPATH=<tree>/src, COLUMNS=80 and, as sys.argv[1], one scratch directory
shared by both runs, since the CLI transcript prints the paths it writes.
The script prints one line per section and exits 1 if any section's outputs
disagree (see agrees) or any run exits non-zero.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

HEAD = Path(__file__).resolve().parents[1]

SECTIONS = {
    "census": 'from ecov import cli; raise SystemExit(cli.main(["census", "--max-order", "240"]))',
    "decisions": r"""
import json
from ecov.census import catalog
from ecov.covering import decide
from ecov.groups import build_group
for mode in ("auto", "exhaustive"):
    for entry in catalog(120):
        d = decide(build_group(entry.spec), mode)
        cert = None if d.certificate is None else d.certificate.to_json(entry.display)
        print(mode, entry.display, d.status, d.method, json.dumps(cert, sort_keys=True), sep="\t")
""",
    # Field tables are hashed as int64 arrays, so lists and arrays print alike.
    "tables": r"""
import hashlib
import numpy as np
from ecov.gf import factor_prime_power, small_field
from ecov.groups import build_group
for q in range(2, 33):
    if factor_prime_power(q):
        F = small_field(q)
        hashes = [hashlib.sha256(np.asarray(t, dtype=np.int64).tobytes()).hexdigest() for t in (F.add, F.mul, F.neg, F.inv)]
        print(f"GF({q})", F.p, F.k, *hashes, sep="\t")
specs = [f"S{n}" for n in range(3, 8)] + [f"A{n}" for n in range(4, 8)]
specs += [f"PSL(2,{q})" for q in (4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27)] + ["M11", "S4xC2", "A5xC3"]
specs += ["E(2,12)", "E(3,7)", "E(5,5)"]
for spec in specs:
    G = build_group(spec)
    table = hashlib.sha256(G.table.tobytes()).hexdigest()
    inverse = hashlib.sha256(str(G.inverse).encode()).hexdigest()
    print(spec, G.order, G.generators, table, inverse, sep="\t")
""",
    # File specs and parameters past Python's 4,300-digit int/str limit are
    # left out: their error handling is tested in tests/test_cli.py.
    "specs": r"""
import hashlib
from ecov.groups import build_group, parse_group_spec, spec_order
specs = [
    "C1", "C12", "c 12", "C0", "C99999999999999999999", "D4", "d 8", "D7", "D0", "Dic1", "DIC3", "dic 5",
    "Q8", "q8", "S1", "S4", "s5", "S8", "A1", "A2", "A5", "a 6", "E(2,3)", "e( 3 , 2 )", "E(4,2)", "E(2,0)",
    "E(2,14)", "PSL(2,7)", "psl(2, 9)", "PSL(2,6)", "PSL(2,64)", "M11", "m12", "M13", "W", "w",
    "C2xS3", "C2XC2xC2", "WxC2", "Q8xC3xC2", "C2xxC3", "X99", "Zork9", "", "cayley:", "perm: ",
]
for text in specs:
    try:
        spec = parse_group_spec(text)
        G = build_group(spec)
        table = hashlib.sha256(G.table.tobytes()).hexdigest()
        row = (spec.text(), spec.family, spec_order(spec), G.meta.name, G.meta.kind, G.meta.params, G.generators, table)
    except Exception as exc:
        row = (type(exc).__name__, exc)
    print(repr(text), *row, sep="\t")
""",
    "describe": r"""
from ecov import cli
for spec in ("M11", "PSL(2,16)", "PSL(2,25)", "A7", "S7", "C1510"):
    code = cli.main(["describe", spec])
    print(f"exit {code}")
""",
    "orders": r"""
import hashlib
from ecov.census import catalog
from ecov.groups import build_group, exponent
specs = [entry.spec for entry in catalog(240)]
specs += ["M11", "PSL(2,16)", "PSL(2,25)", "A7", "S7", "C1510"]
for spec in specs:
    G = build_group(spec)
    orders = hashlib.sha256(str(G.element_orders()).encode()).hexdigest()
    print(spec, orders, exponent(G), sep="\t")
""",
    "primes": r"""
import hashlib
from ecov.analysis import factorize, index_p_subgroups, smallest_prime_divisor
from ecov.census import catalog
from ecov.gf import factor_prime_power
from ecov.groups import _is_prime, build_group
for n in range(1, 20001):
    least = smallest_prime_divisor(n) if n >= 2 else None
    print(n, factorize(n), _is_prime(n), least, factor_prime_power(n), sep="\t")
for spec in [entry.spec.text() for entry in catalog(240)] + ["E(2,9)", "E(3,6)"]:
    G = build_group(spec)
    for p in factorize(G.order):
        subgroups = hashlib.sha256(repr(index_p_subgroups(G, p)).encode()).hexdigest()
        print(spec, p, subgroups, sep="\t")
""",
    "lattices": r"""
import hashlib
import json
from ecov.analysis import is_abelian
from ecov.census import catalog
from ecov.groups import build_group
from ecov.lattice import get_lattice, lattice_to_json, normal_subgroups_direct
for entry in catalog(240):
    G = build_group(entry.spec)
    if entry.order <= 120:
        doc = json.dumps(lattice_to_json(get_lattice(G)))
        print(entry.display, hashlib.sha256(doc.encode()).hexdigest(), sep="\t")
    if not is_abelian(G):
        for N in normal_subgroups_direct(G):
            print(entry.display, list(N.generators), list(N.members), sep="\t")
""",
    "big-lattices": r"""
import hashlib
import json
from ecov.groups import build_group
from ecov.lattice import get_lattice, lattice_to_json
for spec in ("PSL(2,7)", "PSL(2,8)", "A6", "PSL(2,9)", "PSL(2,11)", "PSL(2,13)", "S6", "A7", "PSL(2,16)", "S7", "PSL(2,25)", "M11"):
    doc = json.dumps(lattice_to_json(get_lattice(build_group(spec))))
    print(spec, hashlib.sha256(doc.encode()).hexdigest(), sep="\t")
""",
    # One process runs every command, so state one call leaves behind shows in the next.
    "cli": r"""
import contextlib
import io
import pathlib
import shutil
import sys
from ecov import cli
files = pathlib.Path(sys.argv[1])
shutil.rmtree(files, ignore_errors=True)
files.mkdir()
cert, witness, out = (str(files / name) for name in ("cert.json", "witness.json", "out.txt"))
argvs = [
    ["check", "D12"], ["check", "A4", "--rules-only"], ["check", "C12", "--exhaustive-only"],
    ["check", "D12", "--emit-certificate", cert], ["verify", cert],
    ["sigma", "S3", "--witness", witness], ["verify", witness], ["epsilon", "D8", "--witness", witness],
    ["rho", "C2xC2", "--witness", witness], ["partition", "E(2,3)", "--witness", witness],
    ["describe", "S4", "--lattice-limit", "10"], ["describe", "S4"], ["--out", out, "describe", "D8"],
    ["describe", "D8"], ["census", "--max-order", "24"], ["--jobs", "2", "census", "--max-order", "24", "--format", "json"],
    ["--lattice-limit", "5", "sigma", "S3"], ["check", "A4", "--rules-only", "--exhaustive-only"],
    ["describe", "X99"], ["frobnicate"], [], ["--help"], ["sigma", "--help"],
]
seen = {}
for argv in argvs:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    print(argv, code, repr(stdout.getvalue()), repr(stderr.getvalue()), sep="\t")
    for path in sorted(files.iterdir()):
        if seen.get(path.name) != (text := path.read_text(encoding="utf-8")):
            print(path.name, repr(text), sep="\t")
            seen[path.name] = text
""",
    # The decisions section covers the orders up to 120.
    "nilpotency": r"""
import json
from ecov.analysis import structure_report
from ecov.census import catalog
from ecov.covering import decide
from ecov.groups import build_group
entries = catalog(240)
for spec in [entry.spec.text() for entry in entries] + ["D1920", "D3840", "Dic480", "Dic960", "C2xA5", "S4xC2", "E(2,8)"]:
    print(spec, repr(structure_report(build_group(spec))), sep="\t")
for entry in entries:
    if entry.order > 120:
        d = decide(build_group(entry.spec))
        cert = None if d.certificate is None else d.certificate.to_json(entry.display)
        print(entry.display, d.status, d.method, json.dumps(cert, sort_keys=True), sep="\t")
""",
    "invariants": r"""
from ecov.census import catalog
from ecov.covering import epsilon, equal_partition_exists, rho, sigma
from ecov.groups import build_group
groups = [(entry.display, entry.spec) for entry in catalog(96)]
groups += [(text, text) for text in ("PSL(2,7)", "PSL(2,8)", "PSL(2,11)", "S5", "S6", "A6", "D402", "E(5,3)", "C6xC21")]
for key, spec in groups:
    G = build_group(spec)
    for name, value in (
        ("sigma", lambda: sigma(G).value),
        ("epsilon", lambda: epsilon(G)[0]),
        ("rho", lambda: rho(G)[0]),
        ("partition", lambda: equal_partition_exists(G)[0]),
    ):
        try:
            value = value()
        except Exception as exc:
            value = type(exc).__name__
        print(key, name, value, sep="\t")
""",
    # Each threshold is bisected on the module constants alone, which both
    # modules read at call time, so the same code runs on any tree.
    "budgets": r"""
from ecov import covering, lattice
from ecov.analysis import is_nilpotent
from ecov.errors import ResourceLimitExceeded
from ecov.groups import build_group

def outcome(module, name, limit, run):
    setattr(module, name, limit)
    try:
        run()
        return None
    except ResourceLimitExceeded as exc:
        return str(exc)

def least(module, name, run):
    default = getattr(module, name)
    lo, hi = -1, 0  # run raises under lo (if lo >= 0); hi is tried next
    while outcome(module, name, hi, run) is not None:
        lo, hi = hi, 2 * hi + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if outcome(module, name, mid, run) is None:
            hi = mid
        else:
            lo = mid
    below = outcome(module, name, hi - 1, run)
    setattr(module, name, default)
    return hi, "completes" if below is None else below

for spec in ("S4", "A4", "D12", "S5", "A5", "PSL(2,7)", "E(2,4)"):
    G = build_group(spec)
    print(spec, "lattice", *least(lattice, "_LATTICE_BUDGET", lambda: lattice.enumerate_subgroups(G)), sep="\t")
    if not is_nilpotent(G):
        lattice.get_lattice(G)
        for search in (covering.sigma, covering.epsilon, covering.rho):
            print(spec, search.__name__, *least(covering, "_SEARCH_BUDGET", lambda: search(G)), sep="\t")
""",
    # The theory witnesses: every member of each pencil, spread and equal
    # partition.  E(2,11) and larger are left out, since they reach the lattice.
    "witnesses": r"""
import json
from ecov.analysis import is_abelian, is_cyclic, is_nilpotent
from ecov.census import catalog
from ecov.covering import epsilon, equal_partition_exists, rho, sigma
from ecov.groups import build_group
groups = [(entry.display, entry.spec) for entry in catalog(240)]
groups += [(text, text) for text in ("E(2,9)", "E(3,6)", "E(5,3)", "C6xC21", "C2xC4000")]
for key, spec in groups:
    G = build_group(spec)
    if is_cyclic(G) or not is_nilpotent(G):
        continue
    witnesses = [("sigma", sigma(G).witness), ("epsilon", epsilon(G)[1]), ("partition", equal_partition_exists(G)[1])]
    if is_abelian(G):
        witnesses.append(("rho", rho(G)[1]))
    for name, cert in witnesses:
        print(key, name, json.dumps(None if cert is None else cert.to_json(key), sort_keys=True), sep="\t")
""",
}


def agrees(section: str, base: bytes, head: bytes) -> bool:
    """Byte-equal outputs, except that an `invariants` line on which the base
    ran out of search budget may carry a value at the head under the same key.
    """
    if section != "invariants":
        return base == head
    base_lines, head_lines = base.splitlines(), head.splitlines()
    return len(base_lines) == len(head_lines) and all(
        b == h or (b.endswith(b"\tSearchBudgetExceeded") and b.rsplit(b"\t", 1)[0] == h.rsplit(b"\t", 1)[0])
        for b, h in zip(base_lines, head_lines)
    )


def _run(code: str, tree: Path, scratch: Path) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "COLUMNS": "80"}
    return subprocess.run([sys.executable, "-c", code, str(scratch)], cwd=tree, env=env, stdout=subprocess.PIPE)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tests/golden.py BASE", file=sys.stderr)
        return 2
    trees = {"base": Path(argv[0]).resolve(), "head": HEAD}
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        for section, code in SECTIONS.items():
            runs = {name: _run(code, tree, Path(tmp, section)) for name, tree in trees.items()}
            failed = [f"{name} exited {run.returncode}" for name, run in runs.items() if run.returncode]
            if failed:
                verdict = "FAILED, " + " and ".join(failed)
            else:
                verdict = "same" if agrees(section, runs["base"].stdout, runs["head"].stdout) else "DIFFERS"
            print(f"{section}: {verdict}", flush=True)
            ok &= verdict == "same"
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
