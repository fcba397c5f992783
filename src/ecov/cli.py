"""Command-line front door: reports, decisions, invariants, and the census."""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .analysis import structure_report
from .census import catalog, emit, run_census
from .covering import (
    INFINITY,
    Certificate,
    _decide_hint_doc,
    decide,
    epsilon,
    equal_partition_exists,
    load_hints,
    rho,
    sigma,
    verify_certificate,
)
from .errors import (
    EcovError,
    InconclusiveHints,
    ResourceLimitExceeded,
    RulesInconclusive,
    SpecError,
)
from .groups import _read_user_file, build_group
from .lattice import get_lattice, lattice_to_json, maximal_subgroups, normal_subgroups

__all__ = ["main"]

FULL_LATTICE_LIMIT = 1500  # describe summarises the lattice only up to this order


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


def _fmt_value(value) -> str:
    return "infinity" if value == INFINITY else str(int(value))


def _member_summary(cert: Certificate) -> str:
    orders = sorted({len(m) for m in cert.members})
    k = len(cert.members)
    if len(orders) == 1:
        return f"{k} subgroups of order {orders[0]}"
    listed = ", ".join(str(o) for o in orders)
    return f"{k} subgroups of orders {{{listed}}}"


def _write_file(path: str, what: str, text: str) -> None:
    """Write UTF-8 text to path; failing to (``OSError``) raises ``SpecError``
    naming ``what`` was written, so a bad path exits as an input error."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise SpecError(f"cannot write {what} {path}: {exc}") from None


def _write_json(path: str, what: str, doc) -> None:
    _write_file(path, what, json.dumps(doc, indent=2) + "\n")


def _deliver(text: str, out: str | None) -> None:
    text = text if text.endswith("\n") else text + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        _write_file(out, "report", text)


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_describe(args) -> int:
    G = build_group(args.spec)
    lines = []
    rep = structure_report(G)
    if G.order <= FULL_LATTICE_LIMIT:
        L = get_lattice(G)
        lattice_line = (
            f"subgroups: {len(L.subgroups)} in {len(L.classes)} conjugacy classes; "
            f"{len(maximal_subgroups(L))} maximal; {len(normal_subgroups(L))} normal"
        )
        if args.emit_lattice:
            _write_json(args.emit_lattice, "lattice", lattice_to_json(L))
            lattice_line += f"\nlattice written to {args.emit_lattice}"
    else:
        lattice_line = f"subgroups: not enumerated (order above lattice limit {FULL_LATTICE_LIMIT})"
        if args.emit_lattice:
            raise ResourceLimitExceeded(
                f"cannot export the lattice of {G.meta.name}: order {G.order} "
                f"is above the lattice limit {FULL_LATTICE_LIMIT}"
            )
    pg = f"yes (p = {rep.p})" if rep.is_p_group else "no"
    lines.append(f"{G.meta.name}: order {rep.order}, exponent {rep.exponent}")
    lines.append(
        f"cyclic {_yn(rep.is_cyclic)}; abelian {_yn(rep.is_abelian)}; "
        f"nilpotent {_yn(rep.is_nilpotent)}; p-group {pg}; simple {_yn(rep.is_simple)}; "
        f"square-free order {_yn(rep.order_is_square_free)}"
    )
    lines.append(
        f"center order {rep.center_order}"
        + (
            f"; smallest prime divisor {rep.smallest_prime_divisor}"
            if rep.smallest_prime_divisor is not None
            else ""
        )
    )
    lines.append(lattice_line)
    _deliver("\n".join(lines), args.out)
    return 0


def _cmd_check(args) -> int:
    G = build_group(args.spec)
    mode = "rules" if args.rules_only else "exhaustive" if args.exhaustive_only else "auto"
    decision = decide(G, mode)
    if decision.status == "Yes":
        cert = decision.certificate
        line = (
            f"Yes — {decision.method} ({decision.citation}), "
            f"certificate of {_member_summary(cert)}"
        )
    elif decision.method == "RuleT1_Cyclic":
        line = f"No covering exists — {decision.method} ({decision.citation})"
    else:
        line = f"No — {decision.method} ({decision.citation})"
    if args.emit_certificate:
        if decision.certificate is None:
            line += "\nno certificate to write (negative decision)"
        else:
            _write_json(args.emit_certificate, "certificate", decision.certificate.to_json(G.meta.name))
            line += f"\ncertificate written to {args.emit_certificate}"
    _deliver(line, args.out)
    return 0


def _invariant_command(args) -> int:
    G = build_group(args.spec)
    name = args.invariant
    if name == "sigma":
        result = sigma(G)
        value, witness = result.value, result.witness
    elif name == "epsilon":
        value, witness = epsilon(G)
    else:
        value, witness = rho(G)
    lines = [f"{name}({G.meta.name}) = {_fmt_value(value)}"]
    if witness is not None:
        lines.append(f"witness: {_member_summary(witness)}")
        if args.witness:
            _write_json(args.witness, "witness", witness.to_json(G.meta.name))
            lines.append(f"witness written to {args.witness}")
    _deliver("\n".join(lines), args.out)
    return 0


def _cmd_partition(args) -> int:
    G = build_group(args.spec)
    exists, cert = equal_partition_exists(G)
    if exists:
        lines = [f"equal partition: yes — {_member_summary(cert)}"]
        if args.witness:
            _write_json(args.witness, "witness", cert.to_json(G.meta.name))
            lines.append(f"witness written to {args.witness}")
    else:
        lines = [f"equal partition: none for {G.meta.name}"]
    _deliver("\n".join(lines), args.out)
    return 0


def _cmd_verify(args) -> int:
    doc = _read_user_file(args.certificate, "certificate", json.load)
    if not isinstance(doc, dict) or not isinstance(doc.get("group"), str):
        raise SpecError("certificate JSON needs a 'group' spec string")
    cert = Certificate.from_json(doc)
    G = build_group(doc["group"])
    report = verify_certificate(G, cert)
    if report.ok:
        _deliver(f"certificate ok: {cert.mode} with {_member_summary(cert)}", args.out)
        return 0
    _deliver(f"certificate invalid: {report.describe()}", args.out)
    return 1


def _cmd_census(args) -> int:
    entries = catalog(args.max_order)
    result = run_census(entries, jobs=args.jobs, hints_dir=args.hints)
    _deliver(emit(result.rows, args.format, timing=args.timing), args.out)
    for line in result.mismatches:
        print(f"mismatch: {line}", file=sys.stderr)
    for line in result.errors:
        print(f"error: {line}", file=sys.stderr)
    return 0 if result.ok else 1


def _cmd_hints_check(args) -> int:
    doc = load_hints(args.hints_file)
    decision = _decide_hint_doc(doc)
    _deliver(
        f"{doc['name']}: {decision.status} — {decision.method} ({decision.citation})",
        args.out,
    )
    return 0


# ---------------------------------------------------------------------------
# Parser


def _add_common(parser: argparse.ArgumentParser, top: bool) -> None:
    d = (lambda v: v) if top else (lambda v: argparse.SUPPRESS)
    parser.add_argument("--jobs", type=int, default=d(1), metavar="N",
                        help="accepted for interface compatibility; batch runs are serial")
    parser.add_argument("--seed", type=int, default=d(0), metavar="N",
                        help="accepted for interface compatibility; every algorithm is deterministic")
    parser.add_argument("--out", default=d(None), metavar="PATH",
                        help="write the report to PATH instead of stdout")


@functools.cache  # built on the first main() call; shared, so callers must not modify it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ecov",
        description="Equal coverings of finite groups: decisions, invariants, and census reports.",
    )
    _add_common(parser, top=True)
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("describe", help="structure report and subgroup-lattice summary")
    p.add_argument("spec", help="group spec, e.g. D12, E(3,2), C2xS3, PSL(2,7)")
    p.add_argument("--emit-lattice", metavar="PATH", help="write the annotated lattice as JSON")
    _add_common(p, top=False)
    p.set_defaults(func=_cmd_describe)

    p = sub.add_parser("check", help="decide whether the group has an equal covering")
    p.add_argument("spec")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--rules-only", action="store_true",
                   help="structural rules only; inconclusive exits 1")
    g.add_argument("--exhaustive-only", action="store_true",
                   help="skip the rules and run the per-divisor union test")
    p.add_argument("--emit-certificate", metavar="PATH", help="write the Yes certificate as JSON")
    _add_common(p, top=False)
    p.set_defaults(func=_cmd_check)

    for name, blurb in (
        ("sigma", "minimum covering size (infinity for cyclic groups)"),
        ("epsilon", "minimum equal-covering size (infinity when none exists)"),
        ("rho", "minimum partition size (infinity when none exists)"),
    ):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("spec")
        p.add_argument("--witness", metavar="PATH", help="write the witness certificate as JSON")
        _add_common(p, top=False)
        p.set_defaults(func=_invariant_command, invariant=name)

    p = sub.add_parser("partition", help="decide whether an equal partition exists")
    p.add_argument("spec")
    p.add_argument("--witness", metavar="PATH", help="write the witness certificate as JSON")
    _add_common(p, top=False)
    p.set_defaults(func=_cmd_partition)

    p = sub.add_parser("verify", help="re-check a certificate JSON file")
    p.add_argument("certificate", help="path to a certificate written by check/sigma/epsilon/rho")
    _add_common(p, top=False)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("census", help="decide the whole catalog and emit a report")
    p.add_argument("--max-order", type=int, default=60, metavar="N")
    p.add_argument("--format", choices=("csv", "json", "markdown"), default="csv")
    p.add_argument("--hints", metavar="DIR", help="directory of hint files for groups too large to build")
    p.add_argument("--timing", action="store_true", help="report real per-row times instead of 0")
    _add_common(p, top=False)
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("hints-check", help="no-only decision from a hint file")
    p.add_argument("hints_file")
    _add_common(p, top=False)
    p.set_defaults(func=_cmd_hints_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (RulesInconclusive, InconclusiveHints) as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return 1
    except ResourceLimitExceeded as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EcovError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
