"""Batch command-line front end.

Subcommands: validate, operators, harmonic, decompose, verify, table,
catalog, report.  Exit codes follow one convention everywhere:
0 = everything verified / holds, 1 = a check failed, 2 = an error
(bad input, unknown key, symbolic mode where matrices are required, ...).

JSON output (--json) and the human rendering are generated from the same
data, and repeated runs on identical inputs are byte-identical.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import time
from pathlib import Path

from . import __version__, catalog, hodge, model, reports
from . import operators as ops
from .model import ManifoldSpec, SpecError
from .scalars import NotInvertible, RenderLimitError


def _load_spec(args) -> ManifoldSpec:
    if getattr(args, "entry", None):
        return catalog.get(args.entry).spec
    try:
        text = Path(args.spec).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SpecError(f"{args.spec}: not UTF-8 text ({exc.reason} at byte "
                        f"{exc.start})") from None
    except OSError as exc:
        raise SpecError(f"{args.spec}: {exc.strerror}") from None
    return model.parse_spec(text)


def _load_matrix_spec(args) -> ManifoldSpec:
    """The spec of a command that builds operator matrices; a spec above the
    work bound, or one that `validate` rejects (d^2 != 0), is an error
    located at its source."""
    spec = _load_spec(args)
    try:
        ops.require_work_bound(spec)
        model.validate(spec)
    except (ops.OperatorError, SpecError) as exc:
        raise SpecError(f"{args.spec or args.entry}: {exc}") from None
    return spec


def _parse_pq(text: str, n: int) -> tuple[int, int]:
    # ASCII digits only: int() alone takes spaces, '+', '_' and every
    # Unicode decimal digit
    match = re.fullmatch(r"(-?[0-9]+),(-?[0-9]+)", text)
    try:
        p, q = map(int, match.groups())
    except (AttributeError, ValueError):  # no match, or past the digit limit
        raise SpecError(f"--pq expects 'p,q', got {text!r}")
    if not (0 <= p <= n and 0 <= q <= n):
        raise SpecError(f"--pq {p},{q} is out of range: p and q must lie in "
                        f"0..{n}")
    return p, q


def _strictness(result: dict) -> str:
    if "strict" not in result:
        return ""
    return " (strict)" if result["strict"] else " (equality)"


def _emit(payload: dict, as_json: bool, human_lines) -> None:
    if as_json:
        sys.stdout.write(reports.dump_json(payload))
    else:
        for line in human_lines(payload):
            print(line)


# -- subcommands -------------------------------------------------------------

def cmd_validate(args) -> int:
    spec = _load_spec(args)
    report = model.validate(spec)
    payload = {"engine_version": __version__, **report.to_dict(),
               "flags": reports.spec_flags(spec)}

    def human(p):
        yield f"spec {p['spec_name']}: " + ("OK" if p["ok"] else "FAILED")
        for item in p["items"]:
            detail = f"  ({item['detail']})" if item["detail"] else ""
            yield f"  {item['check_id']:16s} {item['status']}{detail}"
        yield f"  flags: {p['flags']}"

    _emit(payload, args.json, human)
    return 0 if report.ok else 1


def cmd_operators(args) -> int:
    spec = _load_matrix_spec(args)
    pq = _parse_pq(args.pq, spec.n)
    matrix = ops.operator_matrix(spec, args.op, pq)
    payload = {"spec_name": spec.name, "engine_version": __version__,
               **matrix.to_dict()}

    def human(p):
        yield (f"{p['op']} on {spec.name} at {tuple(p['source'])} -> "
               f"targets {[tuple(t) for t in p['targets']]}, "
               f"shape {tuple(p['shape'])}")
        for row in p["entries"]:
            yield "  [" + ", ".join(row) + "]"

    _emit(payload, args.json, human)
    return 0


def cmd_harmonic(args) -> int:
    spec = _load_matrix_spec(args)
    pq = _parse_pq(args.pq, spec.n)
    space = hodge.harmonic_space(spec, args.op, pq)
    payload = {"spec_name": spec.name, "engine_version": __version__,
               "check_id": f"harmonic:{args.op}:{pq[0]},{pq[1]}",
               "status": "Computed",
               "scope": "invariant forms only",
               "dim": space.dim,
               "basis": [f.render() for f in space.forms()]}
    if args.entry:
        certificates = reports.reference_bases(catalog.get(args.entry),
                                               args.op, pq)
        if certificates:
            payload["reference_bases"] = certificates

    def human(p):
        yield (f"invariant H^{pq}_{args.op} on {p['spec_name']}: "
               f"dim {p['dim']}")
        for b in p["basis"]:
            yield f"  {b}"
        for cert in p.get("reference_bases", []):
            yield (f"  reference basis {cert['id']}: spans_space = "
                   f"{cert['spans_space']}")
            if cert["change_of_basis"] is not None:
                for gen, row in zip(cert["generators"],
                                    cert["change_of_basis"]):
                    yield f"    {gen} = [{', '.join(row)}] . echelon basis"

    _emit(payload, args.json, human)
    return 0


def cmd_decompose(args) -> int:
    spec = _load_matrix_spec(args)
    form = model.parse_form(args.form, spec.n, spec.symbols, "--form")
    try:
        form_text = form.render()
    except RenderLimitError as exc:  # the number comes from --form
        raise SpecError(str(exc), "--form") from None
    if not form.is_constant_coefficient():
        raise SpecError(f"--form {args.form!r} has symbolic coefficients; "
                        "decompose needs constant ones")
    decomposition = hodge.primitive_decompose(spec, form)
    exact = decomposition.reconstruct(spec) == form
    payload = {"spec_name": spec.name, "engine_version": __version__,
               "check_id": "primitive_decomposition",
               "status": "Computed",
               "input": form_text,
               "components": {str(r): beta.render() for r, beta in
                              sorted(decomposition.components.items())},
               "reconstruction_exact": exact}

    def human(p):
        yield f"primitive decomposition on {p['spec_name']}: {p['input']}"
        for r, beta in p["components"].items():
            yield f"  r = {r}: (1/{r}!) L^{r} applied to  {beta}"
        yield f"  reconstruction exact: {p['reconstruction_exact']}"

    _emit(payload, args.json, human)
    return 0 if exact else 1


def cmd_verify(args) -> int:
    spec = _load_matrix_spec(args)
    check_ids = hodge.CHECK_IDS if args.all else [args.check]
    results = [hodge.verify(spec, check_id) for check_id in check_ids]
    payload = {"spec_name": spec.name, "engine_version": __version__,
               "scope": "invariant forms only",
               "results": [r.to_dict() for r in results]}

    def human(p):
        for r in p["results"]:
            yield (f"{r['check_id']:15s} {r['status']}{_strictness(r)}  "
                   f"{r['detail']}")
            for w in r.get("witnesses", []):
                yield f"    witness: {w}"

    _emit(payload, args.json, human)
    return 1 if any(r.status == "Fails" for r in results) else 0


def cmd_table(args) -> int:
    spec = _load_matrix_spec(args)
    table = hodge.hodge_table(spec, args.op)
    payload = {"spec_name": spec.name, "engine_version": __version__,
               "check_id": f"hodge_table:{args.op}",
               "status": "Computed",
               "scope": "invariant forms only",
               "table": table}

    def human(p):
        yield (f"invariant h^(p,q)_{args.op} for {p['spec_name']} "
               f"(rows p = 0..n)")
        for row in p["table"]:
            yield "  " + " ".join(f"{v:3d}" for v in row)

    _emit(payload, args.json, human)
    return 0


def cmd_catalog(args) -> int:
    rows = []
    for key in catalog.keys():
        entry = catalog.get(key)
        rows.append({"key": key, "n": entry.spec.n,
                     **reports.spec_flags(entry.spec),
                     "provenance": entry.provenance})
    payload = {"engine_version": __version__, "entries": rows}

    def human(p):
        for row in p["entries"]:
            yield (f"{row['key']:12s} n={row['n']}  cc={str(row['constant_coefficient']):5s} "
                   f"ak={str(row['almost_kahler']):5s} scale={row['unitary_scale']}  "
                   f"{row['provenance']}")

    _emit(payload, args.json, human)
    return 0


def cmd_report(args) -> int:
    # AKHODGE_VERBOSE only adds stderr progress logging, never output facts
    verbose = bool(os.environ.get("AKHODGE_VERBOSE"))
    sections = []
    any_fails = False
    for key in catalog.keys():
        started = time.monotonic()
        entry = catalog.get(key)
        spec = entry.spec
        validation = model.validate(spec)
        checks = [r.to_dict() for r in hodge.verify_all(spec)]
        expectations = reports.run_entry_expectations(entry)
        statuses = ([r["status"] for r in checks]
                    + [r["status"] for r in expectations])
        any_fails = any_fails or "Fails" in statuses or not validation.ok
        sections.append({
            "entry": key,
            "provenance": entry.provenance,
            "validation": validation.to_dict(),
            "theorem_checks": checks,
            "expected_results": expectations,
        })
        if verbose:
            print(f"[report] {key}: {time.monotonic() - started:.2f}s",
                  file=sys.stderr)
    payload = {"engine_version": __version__,
               "scope": "invariant forms only",
               "entries": sections,
               "summary": {
                   "fails": sum(1 for s in sections for r in
                                s["theorem_checks"] + s["expected_results"]
                                if r["status"] == "Fails"),
                   "errata_flagged": sum(1 for s in sections for r in
                                         s["expected_results"]
                                         if r["status"] == "Erratum"),
               }}

    def human(p):
        for section in p["entries"]:
            yield f"== {section['entry']}: {section['provenance']}"
            yield ("   validation: "
                   + ("OK" if section["validation"]["ok"] else "FAILED"))
            for r in section["theorem_checks"]:
                yield f"   {r['check_id']:15s} {r['status']}{_strictness(r)}"
            for r in section["expected_results"]:
                yield f"   {r['check_id']:24s} {r['status']}  {r['detail']}"
                if r["status"] == "Erratum":
                    yield "     [paper erratum; engine value reported above]"
        s = p["summary"]
        yield (f"summary: {s['fails']} failing checks, "
               f"{s['errata_flagged']} paper errata flagged")

    _emit(payload, args.json, human)
    return 1 if any_fails else 0


# -- argument wiring -----------------------------------------------------------

def _add_source_args(sub):
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--entry", choices=catalog.keys(),
                       help="built-in catalog entry")
    group.add_argument("--spec", help="path to an .akspec file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="akhodge",
        description="exact invariant Hodge theory on almost-Kahler coframes")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("validate", help="structural checks on a spec")
    _add_source_args(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_validate)

    p = subs.add_parser("operators", help="dump an exact operator matrix")
    _add_source_args(p)
    p.add_argument("--op", required=True, choices=ops.OPERATOR_IDS)
    p.add_argument("--pq", required=True, help="source bidegree, e.g. 1,1")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_operators)

    p = subs.add_parser("harmonic", help="invariant harmonic-space basis")
    _add_source_args(p)
    p.add_argument("--op", required=True,
                   choices=("d", "mu", "del", "delbar", "mubar"))
    p.add_argument("--pq", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_harmonic)

    p = subs.add_parser("decompose", help="primitive decomposition of a form")
    _add_source_args(p)
    p.add_argument("--form", required=True,
                   help="form expression, e.g. 'phi{13,2} + i*phi{23,1}'")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_decompose)

    p = subs.add_parser("verify", help="run theorem checks")
    _add_source_args(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--check", choices=hodge.CHECK_IDS)
    group.add_argument("--all", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_verify)

    p = subs.add_parser("table", help="table of invariant harmonic dimensions")
    _add_source_args(p)
    p.add_argument("--op", required=True,
                   choices=("d", "mu", "del", "delbar", "mubar"))
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_table)

    p = subs.add_parser("catalog", help="list built-in entries")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_catalog)

    p = subs.add_parser("report", help="full reproduction report over the "
                                       "catalog")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    while "--form" in argv[:-1]:  # a printed form may start with `-`
        i = argv.index("--form")
        argv[i:i + 2] = ["--form=" + argv[i + 1]]
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (SpecError, ops.OperatorError, catalog.UnknownKeyError,
            hodge.AmbientMismatchError, hodge.CrossCheckMismatchError,
            NotInvertible, RenderLimitError) as exc:
        if isinstance(exc, RenderLimitError):
            # the number comes from the input: name its spec or entry
            source = (getattr(args, "spec", None)
                      or getattr(args, "entry", None))
            exc = f"{source}: {exc}" if source else exc
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
