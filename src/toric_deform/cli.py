"""Command-line interface: fan files in, deterministic JSON reports out.

Commands: fan check, triples, h1, deform, scroll {rigid,path,fan}, lift.
Reports carry the echoed inputs, the results, named boolean checks with
witnesses, and timing kept outside the results block so that results are
byte-identical across runs. Exit codes: 0 success, 1 failed check,
2 input error.

Reports, on stdout and in ``scroll fan -o`` files, and error reports on
stderr are written by ``dumps``: the bytes of json.dumps(report,
indent=2, sort_keys=True), made about twice as fast. json.dumps with
``indent`` runs its pure-Python encoder, which was the largest single
cost of a short deform or lift.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import re
import sys
import time

from .cohomology import span_check
from .deform import (
    DeformationData,
    ambient_fan,
    build_deformation,
    eta_map,
    kernel_binomial,
    verify_central_fiber,
)
from .fan import Fan, cox_data, require_smooth_complete, validate
from .hypersurf import lift_polynomial, parse_polynomial, render_terms
from .scrolls import (
    ScrollSpec,
    is_rigid,
    normalize,
    path_to_rigid,
    rigid_model,
    scroll_fan,
)
from .triples import (
    AdmissibleTriple,
    Support,
    chamber_support,
    h1_closed_form,
    triples_at_degree,
)

_VECTOR_RE = re.compile(r"-?\d+(,-?\d+)*\Z")


class InputError(Exception):
    """Bad file, flag, or value; maps to exit code 2, as does a ValueError."""


def parse_fan(path: str) -> Fan:
    """Load and validate a fan JSON file {dim, rays, max_cones}.

    Raises:
        InputError: unreadable file, bad JSON, or missing or malformed
            fields.
        ValueError: a structurally invalid fan.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read fan file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"fan file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError("fan file must hold a JSON object")
    for field in ("dim", "rays", "max_cones"):
        if field not in data:
            raise InputError(f"fan file missing field '{field}'")
    # type() rather than isinstance(): JSON true/false load as bool, an int subclass
    if type(data["dim"]) is not int:
        raise InputError("field 'dim' must be an integer")
    for name in ("rays", "max_cones"):
        rows = data[name]
        if not isinstance(rows, list):
            raise InputError(f"field '{name}' must be a list")
        for k, row in enumerate(rows):
            if not isinstance(row, list) or not all(type(x) is int for x in row):
                raise InputError(f"{name}[{k}] must be a list of integers")
    return Fan(
        dim=data["dim"],
        rays=tuple(tuple(r) for r in data["rays"]),
        max_cones=tuple(tuple(c) for c in data["max_cones"]),
    )


_encode_str = json.encoder.encode_basestring_ascii


def _json_key(key) -> str:
    """A dict key as json writes it: a str as it is, None and numbers as JSON."""
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return json.dumps(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def dumps(obj) -> str:
    """json.dumps(obj, indent=2, sort_keys=True), byte for byte, but faster.

    With ``indent`` set, json.dumps falls back to its pure-Python encoder,
    which yields one small chunk per token through nested generators. This
    walk appends about one chunk per item to a list and joins every 512 of
    them into a block, so that few small strings are alive at once and
    the writer's peak memory stays below json's, which keeps every chunk
    until the end. Strings go through the same C escaper, ints through
    int.__repr__, and every other leaf but None and the bools (floats, int
    subclasses) through the C encoder of json.dumps itself, which also
    raises the same TypeError on anything that is not JSON (numpy
    scalars, sets). Keys are sorted and then converted as json does. A
    circular container is not detected: it recurses until Python's
    recursion limit.
    """
    blocks: list[str] = []
    chunks: list[str] = []
    emit, encode, int_repr = chunks.append, _encode_str, int.__repr__

    def walk(o, nl: str) -> None:
        if len(chunks) > 512:
            blocks.append("".join(chunks))
            chunks.clear()
        inner = nl + "  "
        if isinstance(o, dict):
            sep = "{" + inner
            for key in sorted(o):
                text = key if type(key) is str else _json_key(key)
                head, value = sep + encode(text) + ": ", o[key]
                kind = type(value)
                if kind is int:
                    emit(head + int_repr(value))
                elif kind is str:
                    emit(head + encode(value))
                else:
                    emit(head)
                    walk(value, inner)
                sep = "," + inner
            emit(nl + "}" if o else "{}")
        elif isinstance(o, (list, tuple)):
            sep = "[" + inner
            for value in o:
                kind = type(value)
                if kind is int:
                    emit(sep + int_repr(value))
                elif kind is str:
                    emit(sep + encode(value))
                else:
                    emit(sep)
                    walk(value, inner)
                sep = "," + inner
            emit(nl + "]" if o else "[]")
        else:
            emit("null" if o is None else "true" if o is True else "false" if o is False
                 else json.dumps(o))

    walk(obj, "\n")
    blocks.append("".join(chunks))
    return "".join(blocks)


def fan_to_json(fan: Fan) -> dict:
    return {
        "dim": fan.dim,
        "rays": [list(r) for r in fan.rays],
        "max_cones": [list(c) for c in fan.max_cones],
    }


def _ints(vec) -> list[int]:
    return [int(x) for x in vec]


def _matrix(mat, row_labels, col_labels) -> dict:
    rows = [_ints(row) for row in mat]
    assert len(rows) == len(row_labels) and all(
        len(r) == len(col_labels) for r in rows
    )
    return {
        "rows": rows,
        "row_labels": list(row_labels),
        "col_labels": list(col_labels),
    }


def _parse_vector(text: str, name: str) -> tuple[int, ...]:
    if not _VECTOR_RE.fullmatch(text.strip()):
        raise InputError(f"{name} must be a comma-separated integer list, got {text!r}")
    return tuple(int(x) for x in text.strip().split(","))


def _triple_json(t: AdmissibleTriple) -> dict:
    return {"m": list(t.m), "rho": t.rho, "component": list(t.component)}


def _support_check(support: Support) -> dict:
    """Every feasible chamber with two or more components was bounded."""
    return {
        "name": "support_complete",
        "ok": support.unbounded is None,
        "witness": support.unbounded,
    }


def _support_counters(support: Support | None) -> dict:
    if support is None:
        return {"chambers": 0, "fm_systems": 0}
    return {"chambers": support.chambers, "fm_systems": support.fm_systems}


def _s_labels(r: int) -> list[str]:
    return [f"S{i + 1}" for i in range(r)]


def _deformation_json(fan: Fan, d: DeformationData) -> dict:
    n = fan.dim
    labels = list(d.column_labels)
    pair_labels = labels[1:]
    ambient_rows = [f"x{k + 1}" for k in range(n + 2)]
    return {
        "a": _ints(d.a),
        "column_labels": labels,
        "P": _matrix(d.P, ambient_rows, labels),
        "Ptilde": _matrix(d.Ptilde, ambient_rows[: n + 1], pair_labels),
        "Qtilde": _matrix(
            d.Qtilde,
            [f"d{k + 1}" for k in range(len(d.Qtilde))],
            pair_labels,
        ),
        "psi": _matrix(d.psi, pair_labels, _s_labels(fan.n_rays)),
        "nu": _matrix(d.nu, _s_labels(fan.n_rays), pair_labels),
        "ambient_cones": [
            {"cone": list(sigma), "columns": list(st), "labels": [labels[c] for c in st]}
            for sigma, st in zip(fan.max_cones, d.ambient_cones)
        ],
        "trinomial": {
            "labels": labels,
            "terms": [
                {"coefficient": c, "exponents": list(e)} for c, e in d.terms
            ],
            "rendered": render_terms(d.terms, d.column_labels),
        },
        "kernel_binomial": _ints(kernel_binomial(d)),
        "eta": eta_map(d),
    }


def _build_triple(fan: Fan, args) -> AdmissibleTriple:
    m = _parse_vector(args.m, "--m")
    if len(m) != fan.dim:
        raise InputError(f"--m has length {len(m)}, fan dimension is {fan.dim}")
    if not 0 <= args.rho < fan.n_rays:
        raise InputError(f"--rho must name a ray index in 0..{fan.n_rays - 1}")
    component = _parse_vector(args.component, "--component")
    if any(not 0 <= i < fan.n_rays for i in component):
        raise InputError(f"--component entries must lie in 0..{fan.n_rays - 1}")
    return AdmissibleTriple(m=m, rho=args.rho, component=tuple(sorted(component)))


def cmd_fan_check(args) -> tuple[dict, list[dict]]:
    fan = parse_fan(args.fan)
    report = validate(fan)
    results: dict = {"validate": dict(report), "n_rays": fan.n_rays, "dim": fan.dim}
    cox = None
    if report["smooth"]:
        try:
            cox = cox_data(fan)
        except ValueError:
            # Cl(X) has torsion, so there is no grading to print: the rays
            # span a sublattice of index > 1, and the fan is not complete
            pass
    if cox is not None:
        results["cox"] = {
            "cl_rank": cox.cl_rank,
            "grading": _matrix(
                cox.grading_rows,
                [f"d{k + 1}" for k in range(cox.cl_rank)],
                _s_labels(fan.n_rays),
            ),
            "irrelevant_components": [list(c) for c in cox.irrelevant_components],
        }
    checks = [
        {"name": "smooth", "ok": bool(report["smooth"]), "witness": None},
        {"name": "complete", "ok": bool(report["complete"]), "witness": None},
    ]
    return results, checks


def cmd_triples(args) -> tuple[dict, list[dict], dict]:
    """The whole support, or with --bound B the triples with |m(v)| <= B.

    Only the unbounded report claims completeness, so only it carries the
    support_complete check.
    """
    fan = parse_fan(args.fan)
    support = chamber_support(fan, args.bound)
    results = {
        "bound": args.bound,
        "count": len(support.triples),
        "triples": [_triple_json(t) for t in support.triples],
    }
    checks = [] if args.bound is not None else [_support_check(support)]
    return results, checks, _support_counters(support)


def cmd_h1(args) -> tuple[dict, list[dict], dict]:
    """H^1 per degree: the closed form everywhere, the stalk where triples live.

    The closed form (triples.h1_closed_form) is zero at every degree
    without admissible triples, so those degrees build no stalk system.
    The sweep finds the others with triples.chamber_support: all of them,
    or with --bound B those with |m(v)| <= B on every ray; --degree m
    reports that one degree, and build_parser rejects it together with
    --bound. At each,
    span_check gives h1_dim and span_rank from the generic stalk, and its
    h1_dim must agree with the closed form. Without a bound the report
    also carries support_complete. The rank_fallbacks counter reports the
    degrees where span_check's rank mod p was not sharp and the exact rank
    of its constraints ran; stalk_rows and stalk_nonzeros sum the
    constraint rows and their nonzero entries over those degrees.
    """
    fan = parse_fan(args.fan)
    require_smooth_complete(fan, "h1")
    if args.degree is not None:
        m = _parse_vector(args.degree, "--degree")
        if len(m) != fan.dim:
            raise InputError(f"--degree has length {len(m)}, fan dimension is {fan.dim}")
        support = None
        by_degree = [(m, triples_at_degree(fan, m))]
    else:
        support = chamber_support(fan, args.bound)
        by_degree = [(m, list(ts)) for m, ts in itertools.groupby(support.triples, key=lambda t: t.m)]

    entries = []
    total = 0
    witness = None
    cech_degrees = 0
    rank_fallbacks = 0
    work = {"stalk_rows": 0, "stalk_nonzeros": 0}
    for m, triples in by_degree:
        if triples:
            closed = h1_closed_form(triples)
            rep = span_check(fan, m, triples, work)
            cech_degrees += 1
            rank_fallbacks += not rep["certified"]
            total += closed
            if witness is None and rep["h1_dim"] != closed:
                witness = {
                    "degree": list(m),
                    "closed_form": closed,
                    "cech": rep["h1_dim"],
                }
            elif witness is None and not rep["spans"]:
                witness = {"degree": list(m)}
        else:
            # --degree without triples: the closed form is zero, and this
            # is the entry span_check gives at such a degree
            rep = {"h1_dim": 0, "span_rank": 0, "spans": True}
        entries.append(
            {
                "degree": list(m),
                "h1_dim": rep["h1_dim"],
                "span_rank": rep["span_rank"],
                "spans": bool(rep["spans"]),
                "triples": [_triple_json(t) for t in triples],
            }
        )
    results = {"bound": args.bound, "degrees": entries, "total_h1": total}
    checks = [{"name": "cocycles_span", "ok": witness is None, "witness": witness}]
    if support is not None and args.bound is None:
        checks.append(_support_check(support))
    counters = _support_counters(support)
    counters.update(cech_degrees=cech_degrees, rank_fallbacks=rank_fallbacks, **work)
    return results, checks, counters


def cmd_deform(args) -> tuple[dict, list[dict], dict]:
    fan = parse_fan(args.fan)
    d = build_deformation(fan, _build_triple(fan, args))
    results = _deformation_json(fan, d)
    ambient = ambient_fan(d)
    results["ambient_fan"] = fan_to_json(ambient)
    report = verify_central_fiber(fan, d)
    checks = [
        {"name": name, "ok": bool(entry["ok"]), "witness": entry["witness"]}
        for name, entry in report["checks"].items()
    ]
    return results, checks, report["work"]


def cmd_lift(args) -> tuple[dict, list[dict]]:
    fan = parse_fan(args.fan)
    d = build_deformation(fan, _build_triple(fan, args))
    w = _parse_vector(args.cls, "--class")
    rank = cox_data(fan).cl_rank
    if len(w) != rank:
        raise InputError(f"--class has length {len(w)}, class group rank is {rank}")
    monomials = parse_polynomial(args.poly, fan.n_rays)
    res = lift_polynomial(fan, d, w, monomials)
    pair_labels = list(d.column_labels[1:])
    results = {
        "class": list(w),
        "polynomial": render_terms(monomials, _s_labels(fan.n_rays)),
        "monomials": [
            {
                "coefficient": m.coefficient,
                "exponent": list(m.exponent),
                "liftable": m.liftable,
                "preimage": None if m.preimage is None else list(m.preimage),
            }
            for m in res.monomials
        ],
        "lifted": None
        if res.lifted is None
        else {
            "labels": pair_labels,
            "terms": [
                {"coefficient": c, "exponents": list(e)} for c, e in res.lifted
            ],
            "rendered": render_terms(res.lifted, pair_labels),
        },
        "first_failure": res.first_failure,
    }
    witness = None
    if res.first_failure is not None:
        witness = {"monomial": res.first_failure}
    checks = [
        {"name": "all_liftable", "ok": res.all_liftable, "witness": witness}
    ]
    return results, checks


def _parse_spec(text: str) -> ScrollSpec:
    return ScrollSpec(a=_parse_vector(text, "twists"))


def cmd_scroll_rigid(args) -> tuple[dict, list[dict]]:
    spec = _parse_spec(args.twists)
    results = {
        "twists": list(spec.a),
        "normalized": list(normalize(spec).a),
        "rigid": is_rigid(spec),
    }
    return results, []


def cmd_scroll_path(args) -> tuple[dict, list[dict]]:
    spec = _parse_spec(args.twists)
    moves = path_to_rigid(spec)
    target = rigid_model(spec)
    end = normalize(moves[-1].to_spec) if moves else normalize(spec)
    results = {
        "twists": list(spec.a),
        "normalized": list(normalize(spec).a),
        "target": list(target.a),
        "length": len(moves),
        "moves": [
            {
                "from": list(mv.from_spec.a),
                "to": list(mv.to_spec.a),
                "i": mv.i,
                "j": mv.j,
                "dprime": mv.dprime,
                "triple": _triple_json(mv.triple),
            }
            for mv in moves
        ],
    }
    checks = [
        {
            "name": "endpoint_is_rigid_model",
            "ok": end == target,
            "witness": None if end == target else {"endpoint": list(end.a)},
        }
    ]
    return results, checks


def cmd_scroll_fan(args) -> tuple[dict, list[dict]]:
    spec = _parse_spec(args.twists)
    fan = scroll_fan(spec)
    payload = fan_to_json(fan)
    results = {"twists": list(spec.a), "fan": payload}
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(dumps(payload) + "\n")
        except OSError as exc:
            raise InputError(f"cannot write {args.output}: {exc}") from exc
        results["written"] = args.output
    return results, []


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on the first call and shared by later ones."""
    parser = argparse.ArgumentParser(
        prog="toric-deform",
        description="Exact deformation computations for smooth complete toric fans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fan_p = sub.add_parser("fan", help="fan file utilities")
    fan_sub = fan_p.add_subparsers(dest="subcommand", required=True)
    check_p = fan_sub.add_parser("check", help="validate a fan file")
    check_p.add_argument("--fan", required=True, help="fan JSON file")
    check_p.set_defaults(handler=cmd_fan_check)

    triples_p = sub.add_parser("triples", help="enumerate admissible triples")
    triples_p.add_argument("--fan", required=True)
    triples_p.add_argument("--bound", type=int, default=None)
    triples_p.set_defaults(handler=cmd_triples)

    h1_p = sub.add_parser("h1", help="graded tangent cohomology")
    h1_p.add_argument("--fan", required=True)
    h1_where = h1_p.add_mutually_exclusive_group()
    h1_where.add_argument("--degree", default=None, help="single degree m1,m2,...")
    h1_where.add_argument("--bound", type=int, default=None)
    h1_p.set_defaults(handler=cmd_h1)

    deform_p = sub.add_parser("deform", help="build a deformation package")
    deform_p.add_argument("--fan", required=True)
    deform_p.add_argument("--m", required=True, help="degree m1,m2,...")
    deform_p.add_argument("--rho", type=int, required=True)
    deform_p.add_argument("--component", required=True, help="ray indices i1,i2,...")
    deform_p.set_defaults(handler=cmd_deform)

    lift_p = sub.add_parser("lift", help="lift a homogeneous polynomial")
    lift_p.add_argument("--fan", required=True)
    lift_p.add_argument("--m", required=True)
    lift_p.add_argument("--rho", type=int, required=True)
    lift_p.add_argument("--component", required=True)
    lift_p.add_argument("--class", dest="cls", required=True, help="divisor class c1,c2,...")
    lift_p.add_argument("--poly", required=True, help='e.g. "2*S1^3*S4 + S2*S3"')
    lift_p.set_defaults(handler=cmd_lift)

    scroll_p = sub.add_parser("scroll", help="rational normal scrolls")
    scroll_sub = scroll_p.add_subparsers(dest="subcommand", required=True)
    rigid_p = scroll_sub.add_parser("rigid", help="rigidity of a twist sequence")
    rigid_p.add_argument("twists", help="comma-separated twists, e.g. 3,1,0")
    rigid_p.set_defaults(handler=cmd_scroll_rigid)
    path_p = scroll_sub.add_parser("path", help="deformation path to the rigid model")
    path_p.add_argument("twists")
    path_p.set_defaults(handler=cmd_scroll_path)
    sfan_p = scroll_sub.add_parser("fan", help="emit the scroll fan as JSON")
    sfan_p.add_argument("twists")
    sfan_p.add_argument("-o", "--output", default=None, help="write the fan here")
    sfan_p.set_defaults(handler=cmd_scroll_fan)

    return parser


def _is_flag(tok: str) -> bool:
    """The one rule for tokens: a flag is '--' or starts with it, or is a
    dash and one letter (-h, -o); every other token is a value."""
    return tok.startswith("--") or (len(tok) == 2 and tok[0] == "-" and tok[1].isalpha())


def _protect_values(argv: list[str]) -> list[str]:
    """argv rewritten so that argparse reads every value as a value.

    argparse takes a value that starts with '-' ('-1,0', '-S1^3*S2') for
    an unknown option. So such a value after a flag that takes one is
    joined to it ('--m -1,0' becomes '--m=-1,0'), and such a value after
    no flag is positional: it moves behind a '--' at the end, together
    with whatever follows a '--' of argv's own.
    """
    out: list[str] = []
    positional: list[str] = []
    k = 0
    while k < len(argv):
        tok = argv[k]
        k += 1
        if tok == "--":
            positional += argv[k:]
            break
        if not _is_flag(tok):
            (positional if tok.startswith("-") else out).append(tok)
            continue
        takes_value = "=" not in tok and tok not in ("-h", "--help")
        if takes_value and k < len(argv) and argv[k].startswith("-") and not _is_flag(argv[k]):
            tok = f"{tok}={argv[k]}"
            k += 1
        out.append(tok)
    return [*out, "--", *positional] if positional else out


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(_protect_values(argv))

    command = args.command
    if getattr(args, "subcommand", None):
        command = f"{args.command} {args.subcommand}"
    inputs = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in {"command", "subcommand", "handler"} and v is not None
    }

    started = time.perf_counter()
    try:
        # handlers return (results, checks), plus work counters where kept
        results, checks, *counters = args.handler(args)
    except (InputError, ValueError) as exc:
        sys.stderr.write(dumps({"command": command, "error": str(exc)}) + "\n")
        return 2
    elapsed = time.perf_counter() - started

    timing = {"seconds": round(elapsed, 6)}
    if counters:
        timing["counters"] = counters[0]
    report = {
        "command": command,
        "inputs": inputs,
        "results": results,
        "checks": checks,
        "timing": timing,
    }
    sys.stdout.write(dumps(report) + "\n")
    return 0 if all(c["ok"] for c in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
