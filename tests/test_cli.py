"""End-to-end command line tests, run through subprocesses."""

from __future__ import annotations

import json
import os
import resource
import shutil
import subprocess
import sys

import pytest

from ecov import cli, lattice
from ecov.covering import qualifying_divisors
from ecov.groups import build_group, exponent
from ecov.lattice import get_lattice

HINTS_DIR = "src/ecov/data/hints"


def run(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "ecov.cli", *args],
        capture_output=True,
        text=True,
        **kwargs,
    )


# ---------------------------------------------------------------------------
# check


def test_check_yes_line():
    proc = run("check", "D12")
    assert proc.returncode == 0
    line = proc.stdout.splitlines()[0]
    assert line.startswith("Yes — RuleT16_Dihedral (")
    assert line.endswith("certificate of 3 subgroups of order 6")


def test_check_cyclic_line():
    proc = run("check", "C7")
    assert proc.returncode == 0
    assert proc.stdout.startswith("No covering exists — RuleT1_Cyclic (")


def test_check_no_line():
    proc = run("check", "S4")
    assert proc.returncode == 0
    assert proc.stdout.startswith("No — Exhaustive (")


def test_check_rules_only_inconclusive():
    proc = run("check", "A4", "--rules-only")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("inconclusive:")


def test_check_exhaustive_only():
    proc = run("check", "C12", "--exhaustive-only")
    assert proc.returncode == 0
    assert proc.stdout.startswith("No — Exhaustive (")


def test_check_emit_certificate_roundtrip(tmp_path):
    cert = tmp_path / "c.json"
    proc = run("check", "D8", "--emit-certificate", str(cert))
    assert proc.returncode == 0
    assert f"certificate written to {cert}" in proc.stdout
    proc = run("verify", str(cert))
    assert proc.returncode == 0
    assert proc.stdout == "certificate ok: EqualCovering with 3 subgroups of order 4\n"


# ---------------------------------------------------------------------------
# invariants


def test_sigma_output():
    proc = run("sigma", "A4")
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == [
        "sigma(A4) = 5",
        "witness: 5 subgroups of orders {3, 4}",
    ]


def test_sigma_cyclic_is_infinity():
    proc = run("sigma", "C6")
    assert proc.returncode == 0
    assert proc.stdout == "sigma(C6) = infinity\n"


def test_epsilon_output():
    proc = run("epsilon", "D12")
    assert proc.stdout.splitlines() == [
        "epsilon(D12) = 3",
        "witness: 3 subgroups of order 6",
    ]


def test_rho_output():
    proc = run("rho", "E(2,3)")
    assert proc.stdout.splitlines() == [
        "rho(E(2,3)) = 5",
        "witness: 5 subgroups of orders {2, 4}",
    ]


def test_partition_outputs():
    assert run("partition", "E(3,2)").stdout == (
        "equal partition: yes — 4 subgroups of order 3\n"
    )
    proc = run("partition", "Q8")
    assert proc.returncode == 0
    assert proc.stdout == "equal partition: none for Q8\n"


# ---------------------------------------------------------------------------
# witness files and verify


def test_witness_roundtrip(tmp_path):
    cert = tmp_path / "cert.json"
    proc = run("epsilon", "D12", "--witness", str(cert))
    assert proc.returncode == 0
    doc = json.loads(cert.read_text(encoding="utf-8"))
    assert doc["mode"] == "EqualCovering"
    assert doc["group"] == "D12"
    assert [len(m) for m in doc["members"]] == [6, 6, 6]

    proc = run("verify", str(cert))
    assert proc.returncode == 0
    assert proc.stdout == "certificate ok: EqualCovering with 3 subgroups of order 6\n"


def test_verify_rejects_tampered_certificate(tmp_path):
    cert = tmp_path / "cert.json"
    run("epsilon", "D12", "--witness", str(cert))
    doc = json.loads(cert.read_text(encoding="utf-8"))
    doc["members"] = doc["members"][:2]
    cert.write_text(json.dumps(doc), encoding="utf-8")

    proc = run("verify", str(cert))
    assert proc.returncode == 1
    assert proc.stdout.startswith("certificate invalid: UnionIncomplete(")


def d8_strict_certificate(tmp_path, **changes):
    quads = [list(s.members) for s in get_lattice(build_group("D8")).subgroups if s.order == 4]
    doc = {"mode": "StrictSPartition", "group": "D8", "members": quads, "s": [0, 2]}
    doc.update(changes)
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(doc), encoding="utf-8")
    return cert


@pytest.mark.parametrize("s", [[0, 8], [0, -6]], ids=["s-8", "s-neg6"])
def test_verify_reports_out_of_range_s_as_not_a_subgroup(tmp_path, s):
    assert run("verify", str(d8_strict_certificate(tmp_path))).returncode == 0
    proc = run("verify", str(d8_strict_certificate(tmp_path, s=s)))
    assert proc.returncode == 1
    assert proc.stdout == "certificate invalid: NotASubgroup(-1,)\n"
    assert proc.stderr == ""


@pytest.mark.parametrize(
    "changes", [{"members": 5}, {"members": [["a"]]}, {"s": 3}], ids=["members-int", "members-str", "s-int"]
)
def test_verify_rejects_malformed_certificate_lists(tmp_path, changes):
    proc = run("verify", str(d8_strict_certificate(tmp_path, **changes)))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: certificate ")
    assert "Traceback" not in proc.stderr


# ---------------------------------------------------------------------------
# describe


def test_describe_d12():
    proc = run("describe", "D12")
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == [
        "D12: order 12, exponent 6",
        "cyclic no; abelian no; nilpotent no; p-group no; simple no; square-free order no",
        "center order 2; smallest prime divisor 2",
        "subgroups: 16 in 10 conjugacy classes; 6 maximal; 7 normal",
    ]


def test_describe_above_lattice_limit_still_reports():
    proc = run("describe", "C1600")
    assert proc.returncode == 0
    assert "subgroups: not enumerated (order above lattice limit 1500)" in proc.stdout


def test_describe_emit_lattice(tmp_path):
    out = tmp_path / "lat.json"
    proc = run("describe", "D12", "--emit-lattice", str(out))
    assert proc.returncode == 0
    rows = json.loads(out.read_text(encoding="utf-8"))
    assert len(rows) == 16

    proc = run("describe", "C1600", "--emit-lattice", str(tmp_path / "no.json"))
    assert proc.returncode == 3
    assert proc.stderr.startswith("resource limit:")


# ---------------------------------------------------------------------------
# census


def test_census_csv_head():
    proc = run("census", "--max-order", "12")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == "name,order,exponent,nilpotent,equal_covering,method,elapsed_ms"
    assert lines[1] == "C1,1,1,true,No,RuleT1_Cyclic,0"
    assert "C2xC2,4,2,true,Yes,RuleT17_PGroup,0" in lines


def test_census_deterministic_and_jobs_invariant():
    base = run("census", "--max-order", "16").stdout
    again = run("census", "--max-order", "16").stdout
    parallel = run("--jobs", "8", "census", "--max-order", "16").stdout
    assert base == again == parallel


def test_census_out_matches_stdout(tmp_path):
    out = tmp_path / "census.csv"
    proc = run("census", "--max-order", "12", "--out", str(out))
    assert proc.returncode == 0 and proc.stdout == ""
    assert out.read_text(encoding="utf-8") == run("census", "--max-order", "12").stdout


def test_census_json_format():
    proc = run("census", "--max-order", "8", "--format", "json")
    docs = json.loads(proc.stdout)
    byname = {d["name"]: d for d in docs}
    assert byname["Q8"]["equal_covering"] == "Yes"
    assert byname["Q8"]["method"] == "RuleT17_PGroup"
    assert byname["C6"]["nilpotent"] is True


def test_census_markdown_format():
    proc = run("census", "--max-order", "6", "--format", "markdown")
    lines = proc.stdout.splitlines()
    assert lines[0] == "| Name | Order | Exponent | Nilpotent | Equal covering | Method | Note |"
    assert any(line.startswith("| S3 | 6 | 6 | false | No |") for line in lines)


def test_census_hints_append_rows():
    proc = run("census", "--max-order", "6", "--hints", HINTS_DIR)
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[-2] == "M11,7920,1320,false,No,HintC1,0"
    assert lines[-1] == "M12,95040,1320,false,No,HintC1,0"


@pytest.mark.parametrize("max_order", ["0", "-1", "-100"])
def test_census_below_order_1_is_the_empty_catalog(capsys, max_order):
    assert cli.main(["census", "--max-order", max_order]) == 0
    out, err = capsys.readouterr()
    assert out == "name,order,exponent,nilpotent,equal_covering,method,elapsed_ms\n"
    assert err == ""


@pytest.mark.parametrize("kind", ["missing", "file"])
def test_census_unreadable_hint_directory_exits_2(tmp_path, capsys, kind):
    path = tmp_path / "hints"
    if kind == "file":
        shutil.copy(f"{HINTS_DIR}/m11.json", path)
    assert cli.main(["census", "--max-order", "6", "--hints", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: cannot read hint directory {path}: ")
    assert len(err.splitlines()) == 1


def test_census_timing_fills_elapsed():
    proc = run("census", "--max-order", "6", "--timing")
    cells = [line.rsplit(",", 1)[1] for line in proc.stdout.splitlines()[1:]]
    assert all(c != "0" for c in cells)
    assert all(float(c) >= 0.0 for c in cells)


def test_census_and_hints_check_refuse_boolean_hint_fields(tmp_path):
    # bool subclasses int: read as 1, "exponent": true would pass the
    # divisibility checks and put a True exponent cell in the census row.
    doc = {
        "name": "X",
        "order": 7920,
        "exponent": True,
        "maximal_orders": [720, True],
        "exponent_multiple_union_covers": False,
    }
    (tmp_path / "x.json").write_text(json.dumps(doc), encoding="utf-8")
    proc = run("hints-check", str(tmp_path / "x.json"))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    proc = run("census", "--max-order", "1", "--hints", str(tmp_path))
    assert proc.returncode == 1
    assert any(line.startswith("error: x.json: ") for line in proc.stderr.splitlines())
    assert not any("True" in line.split(",") for line in proc.stdout.splitlines())


# ---------------------------------------------------------------------------
# hints-check


def test_hints_check_lines():
    proc = run("hints-check", f"{HINTS_DIR}/m11.json")
    assert proc.returncode == 0
    assert proc.stdout.startswith("M11: No — HintC1 (")
    proc = run("hints-check", f"{HINTS_DIR}/m12.json")
    assert proc.returncode == 0
    assert proc.stdout.startswith("M12: No — HintC1 (")


# ---------------------------------------------------------------------------
# exit codes and global flags


@pytest.mark.parametrize(
    "args",
    [
        ("check", "X99"),
        ("check", "PSL(2,64)"),
        ("check",),
        ("nosuchcmd",),
        ("census", "--format", "yaml"),
        ("hints-check", "/nonexistent/hints.json"),
    ],
)
def test_usage_and_spec_errors_exit_2(args):
    proc = run(*args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr


def _unreadable(tmp_path, kind):
    """A path that cannot be read as UTF-8 text: missing, a directory, or Latin-1 bytes."""
    if kind == "missing":
        return str(tmp_path / "nonexistent.txt")
    if kind == "directory":
        return str(tmp_path)
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"name": "caf\xe9"}\n')
    return str(path)


@pytest.mark.parametrize("kind", ["missing", "directory", "non-utf8"])
@pytest.mark.parametrize(
    "command,what",
    [
        (["describe", "perm:{}"], "permutation file"),
        (["describe", "cayley:{}"], "Cayley table file"),
        (["verify", "{}"], "certificate"),
        (["hints-check", "{}"], "hint file"),
    ],
    ids=["perm", "cayley", "verify", "hints-check"],
)
def test_unreadable_input_files_exit_2(tmp_path, capsys, command, what, kind):
    path = _unreadable(tmp_path, kind)
    assert cli.main([arg.format(path) for arg in command]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: cannot read {what} {path}: ")


@pytest.mark.parametrize(
    "args,what",
    [
        (["describe", "C4", "--out", "{}"], "report"),
        (["describe", "C4", "--emit-lattice", "{}"], "lattice"),
        (["check", "D8", "--emit-certificate", "{}"], "certificate"),
        (["sigma", "D8", "--witness", "{}"], "witness"),
    ],
    ids=["out", "emit-lattice", "emit-certificate", "witness"],
)
def test_unwritable_output_paths_exit_2(tmp_path, args, what):
    path = tmp_path / "missing" / "x.txt"
    proc = run(*(arg.format(path) for arg in args))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"error: cannot write {what} {path}: ")
    assert len(proc.stderr.splitlines()) == 1 and "Traceback" not in proc.stderr


def test_census_reports_an_unreadable_hint_file_as_an_error_row(tmp_path, capsys):
    shutil.copy(f"{HINTS_DIR}/m11.json", tmp_path)
    (tmp_path / "bad.json").write_bytes(b'{"name": "caf\xe9"}\n')
    assert cli.main(["census", "--max-order", "1", "--hints", str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines()[-1] == "M11,7920,1320,false,No,HintC1,0"
    assert err.startswith(f"error: bad.json: cannot read hint file {tmp_path / 'bad.json'}: ")


@pytest.mark.parametrize(
    "args,code,message",
    [
        # Parameters and orders past Python's 4,300-digit int/str limit.
        (["describe", "C" + "9" * 5000], 2, "error: cyclic parameter has too many digits\n"),
        (["describe", "S2000"], 3, "resource limit: S2000 has order at least 2^19052, above the limit 10000\n"),
        (["check", "E(2,20000)"], 3, "resource limit: E(2,20000) has order at least 2^20000, above the limit 10000\n"),
        # p above the order limit skips the prime test, so a composite p
        # (10^401 + 1 is divisible by 11) meets the order check instead.
        (
            ["describe", f"E({10**401 + 1},1)"],
            3,
            f"resource limit: E({10**401 + 1},1) has order {10**401 + 1}, above the limit 10000\n",
        ),
        # Trial division of this prime p would run for minutes; p <= 10000 is still tested.
        (
            ["describe", "E(1000000000000000003,1)"],
            3,
            "resource limit: E(1000000000000000003,1) has order 1000000000000000003, above the limit 10000\n",
        ),
        (["describe", "E(4,2)"], 2, "error: E(p,k) needs prime p, got 4\n"),
        # Past 2^20 bits p**k is not computed; 2^(k * (bit length of p - 1)) bounds it.
        (
            ["describe", f"E({10**401 + 1},100000)"],
            3,
            f"resource limit: E({10**401 + 1},100000) has order at least 2^133200000, above the limit 10000\n",
        ),
        (["check", "E(2,1000000000)"], 3, "resource limit: E(2,1000000000) has order at least 2^1000000000, above the limit 10000\n"),
        # Orders that print keep their decimal form.
        (["describe", "M12"], 3, "resource limit: M12 has order 95040, above the limit 10000\n"),
        (
            ["check", "C99999999999999999999"],
            3,
            "resource limit: C99999999999999999999 has order 99999999999999999999, above the limit 10000\n",
        ),
    ],
    ids=[
        "C-5000-digits",
        "S2000",
        "E(2,20000)",
        "E-402-digit-p",
        "E-19-digit-prime-p",
        "E(4,2)",
        "E-402-digit-p-k-100000",
        "E(2,1000000000)",
        "M12",
        "C-20-digits",
    ],
)
def test_huge_parameters_exit_2_or_3(capsys, args, code, message):
    assert cli.main(args) == code
    assert capsys.readouterr() == ("", message)


def test_lattice_limit_exit_3_and_flag_positions():
    """M11's lattice is within the work budget, and --lattice-limit is a
    usage error before or after the subcommand."""
    proc = run("check", "M11")
    assert proc.returncode == 0
    assert proc.stdout.startswith("No — Exhaustive (")
    before = run("--lattice-limit", "10", "check", "A4")
    after = run("check", "A4", "--lattice-limit", "10")
    assert before.returncode == after.returncode == 2
    assert "unrecognized arguments: --lattice-limit 10" in after.stderr


@pytest.mark.parametrize("spec,least_index", [("A7", 7), ("M11", 11), ("PSL(2,27)", 28)])
def test_check_answers_no_when_every_qualifying_index_is_below_the_least_index(capsys, spec, least_index):
    """A member of order d of an equal covering has index |G|/d, and d is
    a proper divisor that the exponent divides.  Every such index is below
    the least index of a proper subgroup: 7 in A7, 11 in M11, and q + 1 = 28
    in PSL(2,27) (Galois: q + 1 for q > 11).  So no subgroup has a
    qualifying order, and no equal covering exists."""
    G = build_group(spec)
    assert all(G.order // d < least_index for d in qualifying_divisors(G.order, exponent(G)))
    assert cli.main(["check", spec]) == 0
    assert capsys.readouterr().out.startswith("No — Exhaustive (")


@pytest.mark.parametrize("spec", ["S7", "C2xA7"])
def test_check_answers_no_on_groups_of_degree_7(capsys, spec):
    """S7 and C2xA7 have order 5040 and exponent 420, so a qualifying order
    d is a multiple of 420, hence of 7.

    A subgroup H of S7 with 7 dividing |H| holds a 7-cycle, so H is
    transitive of prime degree 7, hence primitive.  By Burnside, H is then
    in AGL(1,7) or 2-transitive, so |H| is one of 7, 14, 21, 42, 168, 2520,
    5040 (C7, D7, 7:3, 7:6, PSL(3,2), A7, S7).  The only proper one that 420
    divides is A7, which alone does not cover S7.

    In C2xA7, H projects onto a subgroup P of A7 with |H| = |P| or 2|P|, and
    7 divides |P|, so |P| is one of the orders above.  The only proper |H|
    that 420 divides is 2520 with P = A7, and then H meets C2 trivially, so
    H is the graph of a map A7 -> C2, trivial as A7 is simple: H = A7, which
    alone does not cover.  So neither group has an equal covering."""
    G = build_group(spec)
    assert qualifying_divisors(G.order, exponent(G)) == [420, 840, 1260, 1680, 2520]
    assert cli.main(["check", spec]) == 0
    assert capsys.readouterr().out.startswith("No — Exhaustive (")


def test_invariants_build_no_lattice_they_do_not_need(monkeypatch, capsys):
    """A cyclic sigma and a nilpotent rho answer without enumerating subgroups."""

    def refuse(*args, **kwargs):
        raise AssertionError("the subgroup lattice was enumerated")

    monkeypatch.setattr(lattice, "enumerate_subgroups", refuse)
    assert cli.main(["sigma", "C1500"]) == 0
    assert capsys.readouterr().out == "sigma(C1500) = infinity\n"
    assert cli.main(["rho", "C2xC600"]) == 0
    assert capsys.readouterr() == ("rho(C2xC600) = infinity\n", "")


def test_rho_searches_above_order_200(capsys):
    """rho has no order cut-off: D402 gets its 202 blocks, the rotations and the 201 reflections."""
    assert cli.main(["rho", "D402"]) == 0
    assert capsys.readouterr() == ("rho(D402) = 202\nwitness: 202 subgroups of orders {2, 201}\n", "")


def test_epsilon_and_partition_answer_from_the_exponent_alone(monkeypatch, capsys):
    """No proper divisor of 3002 is a multiple of exp(D3002) = 3002, so D3002
    has neither an equal covering nor an equal partition, at any order."""

    def refuse(*args, **kwargs):
        raise AssertionError("the subgroup lattice was enumerated")

    monkeypatch.setattr(lattice, "enumerate_subgroups", refuse)
    assert cli.main(["epsilon", "D3002"]) == 0
    assert capsys.readouterr().out == "epsilon(D3002) = infinity\n"
    assert cli.main(["partition", "D3002"]) == 0
    assert capsys.readouterr().out == "equal partition: none for D3002\n"


def test_partition_answers_at_any_order_without_a_lattice(monkeypatch, capsys):
    """Isaacs' criterion reads the table alone: E(2,7) and E(3,5), whose
    lattices are large, answer Yes with their order-p subgroups."""

    def refuse(*args, **kwargs):
        raise AssertionError("the subgroup lattice was enumerated")

    monkeypatch.setattr(lattice, "enumerate_subgroups", refuse)
    assert cli.main(["partition", "E(2,7)"]) == 0
    assert capsys.readouterr() == ("equal partition: yes — 127 subgroups of order 2\n", "")
    assert cli.main(["partition", "E(3,5)"]) == 0
    assert capsys.readouterr() == ("equal partition: yes — 121 subgroups of order 3\n", "")


@pytest.mark.parametrize("spec,bound", [("S10000000", 110000000), ("A10000000", 109999999)])
def test_huge_degree_exits_3_without_the_factorial(spec, bound):
    """(10^7)! would take minutes; the order check needs only the bound
    n! >= (n//2)^(n - n//2) >= 2^((n - n//2) * (bits of n//2 - 1))."""
    proc = run("describe", spec, timeout=60)
    assert proc.returncode == 3
    assert proc.stderr == f"resource limit: {spec} has order at least 2^{bound}, above the limit 10000\n"


def test_perm_orbit_above_the_limit_exits_3_before_the_closure(tmp_path):
    """A 12,007-cycle generates C12007.  Closing it holds more than 10,000
    image rows of 12,007 points before it passes the limit, gigabytes, and
    dies of a MemoryError under a 1 GiB address-space limit.  The orbit
    alone bounds the order, so the refusal comes first."""
    path = tmp_path / "cycle.txt"
    path.write_text("(" + ",".join(str(i) for i in range(1, 12008)) + ")\n", encoding="utf-8")

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    proc = run("describe", f"perm:{path}", timeout=60, preexec_fn=limit_memory, env=env)
    assert proc.returncode == 3
    assert proc.stderr == f"resource limit: perm:{path}: an orbit has more than 10000 points, so the order exceeds the limit\n"


def test_check_rejects_non_associative_cayley_file(tmp_path):
    # C1024 with one intercalate swapped: Latin, identity 0, two-sided
    # inverses, and only associativity fails.
    n, h = 1024, 513
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    for r in (1, h):
        table[r][1], table[r][h] = table[r][h], table[r][1]
    path = tmp_path / "loop.json"
    path.write_text(json.dumps({"order": n, "table": table}), encoding="utf-8")
    proc = run("check", f"cayley:{path}")
    assert proc.returncode == 2
    assert "invalid Cayley table: NotAssociative" in proc.stderr


def test_seed_flag_is_accepted():
    proc = run("--seed", "42", "check", "D12")
    assert proc.returncode == 0


def test_package_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "ecov", "check", "D8"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("Yes — RuleT16_Dihedral")


# ---------------------------------------------------------------------------
# one parser per process


def _leak_prone_argvs(out, witness, cert):
    """Calls whose neighbours could see each other's values through a shared parser."""
    return [
        ["--out", out, "describe", "D8"],
        ["describe", "D8"],
        ["describe", "S4", "--seed", "10"],
        ["describe", "S4"],
        ["describe", "C12", "--out", out],
        ["--jobs", "5", "sigma", "S3"],
        ["sigma", "S3", "--witness", witness],
        ["sigma", "S3"],
        ["epsilon", "D8"],
        ["rho", "C2xC2", "--witness", witness],
        ["partition", "E(2,3)", "--witness", witness],
        ["check", "D12", "--emit-certificate", witness],
        ["check", "A4", "--rules-only"],
        ["check", "A4", "--rules-only", "--exhaustive-only"],
        ["check", "C12", "--exhaustive-only"],
        ["check", "A4"],
        ["verify", cert],
        ["--seed", "3", "describe", "X99"],
        ["census", "--max-order", "12", "--format", "json"],
        ["--jobs", "2", "census", "--max-order", "12"],
        ["frobnicate"],
        [],
        ["--help"],
        ["sigma", "--help"],
    ]


def _take_files(paths):
    """The text of each of paths that exists, which is then removed."""
    files = {}
    for path in paths:
        if path.exists():
            files[path.name] = path.read_text(encoding="utf-8")
            path.unlink()
    return files


def _outcome(capsys, argv, written):
    """Exit code, stdout, stderr and the text of each file the call wrote."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err, _take_files(written)


def test_cached_parser_leaks_nothing_between_calls(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    out, witness, cert = tmp_path / "out.txt", tmp_path / "witness.json", tmp_path / "d12.json"
    assert cli.main(["check", "D12", "--emit-certificate", str(cert)]) == 0
    capsys.readouterr()
    argvs = _leak_prone_argvs(str(out), str(witness), str(cert))
    forward = [_outcome(capsys, argv, (out, witness)) for argv in argvs]
    backward = [_outcome(capsys, argv, (out, witness)) for argv in reversed(argvs)]
    for argv, a, b in zip(argvs, forward, reversed(backward)):
        assert a == b, argv
    assert cli._build_parser() is cli._build_parser()

    # --help, an --out call and a usage error, each in a fresh interpreter
    # with a parser of its own, give the same bytes.
    for argv in (["--help"], argvs[0], argvs[13]):
        proc = subprocess.run([sys.executable, "-m", "ecov", *argv], capture_output=True, text=True)
        fresh = (proc.returncode, proc.stdout, proc.stderr, _take_files((out, witness)))
        assert fresh == forward[argvs.index(argv)], argv
