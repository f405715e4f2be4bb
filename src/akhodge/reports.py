"""JSON report assembly and the expected-value runner for catalog entries,
the one reader of their expectation items (`harmonic --entry` takes its
reference-basis certificates from `reference_bases`).

Every report row carries {spec_name, engine_version, check_id, status} plus
an optional witness; serialization is deterministic (construction order,
canonical scalar text), so repeated runs are byte-identical.
"""

from __future__ import annotations

import json
from typing import Any

from . import __version__, hodge, model, operators as ops
from .exterior import Form
from .scalars import decimal_text


def form_to_json(form: Form) -> list[dict]:
    return [{"monomial": mono.render(), "coeff": coeff.render()}
            for mono, coeff in form.terms()]


def dump_json(obj: Any) -> str:
    return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"


def base_row(spec_name: str, check_id: str, status: str, **extra) -> dict:
    row = {"spec_name": spec_name, "engine_version": __version__,
           "check_id": check_id, "status": status}
    row.update(extra)
    return row


def spec_flags(spec) -> dict:
    """The flags of a spec as its JSON reports them: unitary_scale as its
    decimal text, or None."""
    return {"constant_coefficient": spec.constant_coefficient,
            "almost_kahler": spec.almost_kahler,
            "unitary_scale": (None if spec.unitary_scale is None
                              else decimal_text(spec.unitary_scale))}


def _parse_in_spec(spec, text: str) -> Form:
    return model.parse_form(text, spec.n, spec.symbols)


def _span_certificate(spec, item: dict):
    """(H, generators, certificate) of a harmonic_span item, H its invariant
    harmonic space; the certificate says whether the generators span H and
    gives their coordinates in H's echelon basis (None unless all lie in H)."""
    pq = tuple(item["pq"])
    space = hodge.harmonic_space(spec, item["op"], pq)
    gens = [_parse_in_spec(spec, g) for g in item["generators"]]
    coords = space.coordinates_of(hodge.forms_to_rows(gens, pq, spec.n))
    return space, gens, {
        "id": item["id"], "generators": item["generators"],
        "spans_space": hodge.Subspace.from_forms(spec.n, pq, gens) == space,
        "change_of_basis": (None if coords is None else [
            [c.render() for c in row] for row in coords.data])}


def reference_bases(entry, op: str, pq: tuple[int, int]) -> list[dict]:
    """The certificates of the entry's harmonic_span items on H^{p,q}_op."""
    return [_span_certificate(entry.spec, item)[2] for item in entry.expected
            if item["kind"] == "harmonic_span" and item["op"] == op
            and tuple(item["pq"]) == pq]


def run_expected_item(entry, item: dict) -> dict:
    """Evaluate one declarative expectation of a catalog entry."""
    spec = entry.spec
    kind = item["kind"]
    check_id = item.get("id", kind)

    if kind == "flags":
        have = {**spec_flags(spec), "integrable": ops.is_integrable(spec)}
        mismatches = [key for key in ("almost_kahler", "constant_coefficient",
                                      "unitary_scale", "integrable")
                      if key in item and have[key] != item[key]]
        status = "Holds" if not mismatches else "Fails"
        return base_row(spec.name, check_id, status,
                        detail="spec flags as declared" if not mismatches
                        else f"flag mismatch: {mismatches}")

    if kind == "validate":
        report = model.validate(spec)
        got = {i.check: i.status for i in report.items}
        bad = {k: (v, got.get(k)) for k, v in item["expect"].items()
               if got.get(k) != v}
        status = "Holds" if not bad else "Fails"
        return base_row(spec.name, check_id, status,
                        detail="validation statuses as expected" if not bad
                        else f"unexpected statuses: {bad}")

    if kind == "component_image":
        form = _parse_in_spec(spec, item["form"])
        image = ops.component(spec, item["op"], form)
        expected = _parse_in_spec(spec, item["equals"])
        if image != expected:
            return base_row(spec.name, check_id, "Fails",
                            detail=f"{item['op']}({item['form']}) = "
                                   f"{image.render()}, expected "
                                   f"{expected.render()}")
        row = base_row(spec.name, check_id, "Holds",
                       detail=f"{item['op']}({item['form']}) = "
                              f"{image.render()}",
                       witness=form_to_json(image))
        if "nonzeroness" in item:
            got = hodge._form_nonzeroness(spec, image).value
            if got != item["nonzeroness"]:
                row["status"] = "Fails"
                row["detail"] += f"; nonzeroness {got} != {item['nonzeroness']}"
            else:
                row["detail"] += f"; nonzeroness {got}"
        if "note" in item:
            row["note"] = item["note"]
        return row

    if kind == "membership":
        form = _parse_in_spec(spec, item["form"])
        result = hodge.harmonic_membership(spec, item["op"], form)
        ok = result.status == item["status"]
        if ok and "witness" in item:
            ok = result.witness == _parse_in_spec(spec, item["witness"])
        return base_row(spec.name, check_id, "Holds" if ok else "Fails",
                        detail=f"{item['form']} is {result.status} for "
                               f"Delta_{item['op']}"
                               + (f" (witness {result.witness.render()}, "
                                  f"{result.witness_class.value})"
                                  if result.witness is not None else ""))

    if kind == "harmonic_dim":
        pq = tuple(item["pq"])
        space = hodge.harmonic_space(spec, item["op"], pq)
        ok = space.dim == item["dim"]
        return base_row(spec.name, check_id, "Holds" if ok else "Fails",
                        detail=f"dim H^{pq}_{item['op']} = {space.dim} "
                               f"(invariant forms only)")

    if kind == "harmonic_span":
        space, gens, certificate = _span_certificate(spec, item)
        if certificate["spans_space"]:
            return base_row(spec.name, check_id, "Holds",
                            detail="span matches the invariant harmonic space",
                            change_of_basis=certificate["change_of_basis"])
        status = "Erratum" if "erratum" in item else "Fails"
        missing = [g.render() for g in gens if not space.member(g)]
        return base_row(spec.name, check_id, status,
                        detail=item.get("erratum",
                                        "span disagrees with harmonic space"),
                        witness=[f.render() for f in space.forms()],
                        non_harmonic_generators=missing)

    if kind == "check":
        report = hodge.verify(spec, item["check"])
        ok = report.status == item["status"]
        if ok and "strict" in item:
            ok = report.strict == item["strict"]
        row = base_row(spec.name, f"verify:{item['check']}",
                       "Holds" if ok else "Fails",
                       detail=report.detail)
        if report.strict is not None:
            row["strict"] = report.strict
        if report.witnesses:
            row["witness"] = report.witnesses
        return row

    if kind == "complexify_match":
        derived = model.complexify(entry.real_presentation)
        diffs = [spec.coframe[j - 1] for j in range(1, spec.n + 1)
                 if spec.structure.get(j, Form.zero())
                 != derived.get(j, Form.zero())]
        return base_row(spec.name, check_id, "Fails" if diffs else "Holds",
                        detail=f"mismatch on {diffs}" if diffs
                        else "complexified real structure equations match "
                        "the catalog equations")

    if kind == "member_sum21":
        form = _parse_in_spec(spec, item["form"])
        # the delbar cell at (2,1); H^{1,0} cap P^{1,0} = H^{1,0}
        cell = hodge.lefschetz_decomposition(spec, "delbar", "delbar", (2, 1))
        is_member = cell.total.member(form)
        ok = is_member == item["expect"]
        status = "Holds" if ok else ("Erratum" if "erratum" in item
                                     else "Fails")
        row = base_row(spec.name, check_id, status,
                       detail=f"member = {is_member} in "
                              "(H^{2,1} cap P) + L(H^{1,0})")
        if not ok and "erratum" in item:
            row["detail"] += "; " + item["erratum"]
        return row

    if kind == "L_image_line":
        lifted = hodge.lefschetz_decomposition(
            spec, "delbar", "delbar", (2, 1)).parts[1]
        line = hodge.line_of(spec, _parse_in_spec(spec, item["generator"]))
        ok = lifted == line
        return base_row(spec.name, check_id, "Holds" if ok else "Fails",
                        detail=f"L(H^(1,0)_delbar) = "
                               f"span({item['generator']}), dim "
                               f"{lifted.dim}")

    if kind == "laplacian_diff_nonzero":
        pq = tuple(item["pq"])
        form = _parse_in_spec(spec, item["form"])
        diff = ops.laplacian_matrix(spec, "delbar", pq) - \
            ops.laplacian_matrix(spec, "del", pq)
        witness = hodge.apply_blocks(hodge.forms_to_rows([form], pq, spec.n),
                                     pq, spec.n, diff)
        nonzero = not witness.is_zero()
        return base_row(spec.name, check_id,
                        "Holds" if nonzero else "Fails",
                        detail=f"(Delta_delbar - Delta_del)({item['form']}) "
                               f"= {witness.render()}"
                               + (" != 0" if nonzero else ""),
                        witness=form_to_json(witness))

    if kind == "kernel_equality":
        pq = tuple(item["pq"])
        a = hodge.harmonic_space(spec, item["ops"][0], pq)
        b = hodge.harmonic_space(spec, item["ops"][1], pq)
        ok = (a == b) == item["expect"]
        return base_row(spec.name, check_id, "Holds" if ok else "Fails",
                        detail=f"H^{pq}_{item['ops'][0]} "
                               f"{'=' if a == b else '!='} "
                               f"H^{pq}_{item['ops'][1]} "
                               f"(dims {a.dim}, {b.dim})")

    raise ValueError(f"unknown expected-item kind {kind!r}")


def run_entry_expectations(entry) -> list[dict]:
    return [run_expected_item(entry, item) for item in entry.expected]
