"""Command-line front end.

Machine mode (default) writes one JSON document to stdout; --pretty switches
to aligned human-readable output.  Exit status: 0 success, 1 domain error
(with a one-line diagnostic on stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .linalg import MAX_TOKEN_DIGITS, format_rational
from . import io as sio
from .everest import (
    EverestParams,
    c_constant,
    everest_verify,
    everest_volume,
    vertex_families,
)
from .birkhoff import (
    birkhoff_context,
    determinant_identities,
    projected_birkhoff,
    verify_birkhoff_volume_relation,
)
from .spine import enumerate_spines, is_spine, spine
from .triangulation import (
    Triangulation,
    fold,
    lift,
    pulling_triangulation,
    shadow,
    spinal_triangulation,
)
from .volume import lifting_relation_report, polytope_volume

# The library's errors (PolytopeError, SpineError, TriangulationError, ...)
# are ValueErrors.
DOMAIN_ERRORS = (ValueError, OSError)


def _parse_int(tok: str, name: str, what: str | None = None) -> int:
    """Every integer on the command line goes through here.  The token,
    stripped of whitespace, must be ASCII -?[0-9]+: what else int() reads
    (0_7, +7, non-ASCII digits) would alias a value silently.  It may have
    at most MAX_TOKEN_DIGITS digits, the bound on coordinates.  A token that
    is no integer is quoted in the error as ``what`` (default "name 'tok'");
    one past the bound is named by ``name`` alone, not echoed."""
    digits = tok.strip().removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{what or f'{name} {tok!r}'} is not an integer")
    if len(digits) > MAX_TOKEN_DIGITS:
        raise ValueError(
            f"{name}: integer of {len(digits)} digits is past the "
            f"{MAX_TOKEN_DIGITS}-digit limit"
        )
    return int(tok)


def _parse_index_set(raw: str, option: str) -> list[int]:
    """Comma-separated indices; empty tokens are skipped."""
    idx = []
    for tok in raw.split(","):
        tok = tok.strip()
        if tok:
            what = f"index {tok!r} in {option} {raw!r}"
            idx.append(_parse_int(tok, f"index in {option}", what))
    return idx


def _parse_order(raw: str | None) -> list[int] | None:
    """An --order value, or None without one; an empty value is an empty
    order, which no polytope accepts, not the default order."""
    return None if raw is None else _parse_index_set(raw, "--order")


def _parse_spine_set(raw: str) -> list[int]:
    """A --set value: each index at most once, never merged silently."""
    idx = _parse_index_set(raw, "--set")
    for k, i in enumerate(idx):
        if i in idx[:k]:
            raise ValueError(f"index {i} is repeated in --set {raw!r}")
    return idx


def _emit(doc, pretty_lines, args) -> None:
    if args.pretty:
        for line in pretty_lines:
            print(line)
    else:
        print(json.dumps(doc, sort_keys=True))


def _volume_doc(report) -> dict:
    return {
        "dim": report.dim,
        "n_simplices": report.n_simplices,
        "volume": None if report.volume is None else format_rational(report.volume),
        "sq_volume": format_rational(report.sq_volume),
    }


def cmd_facets(args) -> int:
    p = sio.load_polytope(args.polytope)
    facets = p.facets()
    doc = {
        "dim": p.dim,
        "facets": [
            {
                "normal": sio.vector_to_strings(f.normal),
                "offset": format_rational(f.offset),
                "vertices": list(f.incident),
            }
            for f in facets
        ],
    }
    lines = [f"dim {p.dim}, {len(facets)} facets"]
    for f in facets:
        lhs = " ".join(sio.vector_to_strings(f.normal))
        lines.append(
            f"[{lhs}] . x <= {format_rational(f.offset)}   vertices {list(f.incident)}"
        )
    _emit(doc, lines, args)
    return 0


def cmd_spine_check(args) -> int:
    p = sio.load_polytope(args.polytope)
    idx = _parse_spine_set(args.set)
    ok = is_spine(p, idx)
    _emit({"set": sorted(idx), "is_spine": ok}, ["true" if ok else "false"], args)
    return 0


def cmd_spine_enum(args) -> int:
    min_size = _parse_int(args.min_size, "--min-size")
    p = sio.load_polytope(args.polytope)
    spines = enumerate_spines(p, min_size)
    doc = {"min_size": min_size, "spines": [list(s) for s in spines]}
    lines = [str(list(s)) for s in spines] or [f"no spine has {min_size} or more points"]
    _emit(doc, lines, args)
    return 0


def _triangulation_lines(t: Triangulation) -> list[str]:
    lines = [f"dim {t.dim}, {t.n_simplices} maximal simplices"]
    lines.extend(str(list(c)) for c in t.simplices)
    return lines


def cmd_triangulate(args) -> int:
    p = sio.load_polytope(args.polytope)
    if args.spinal:
        t = spinal_triangulation(spine(p, _parse_spine_set(args.set)))
    else:
        t = pulling_triangulation(p, _parse_order(args.order))
    _emit(sio.triangulation_to_doc(t), _triangulation_lines(t), args)
    return 0


def cmd_fold(args) -> int:
    p = sio.load_polytope(args.polytope)
    sp = spine(p, _parse_spine_set(args.set))
    sm = shadow(sp)
    order = _parse_order(args.order)
    if order is not None:
        t = pulling_triangulation(p, order)
    else:
        t = spinal_triangulation(sp)
    folded = fold(t, sm)
    doc = sio.triangulation_to_doc(folded)
    doc["shadow_points"] = [sio.vector_to_strings(q) for q in sm.star_points]
    lines = _triangulation_lines(folded)
    lines.append("shadow points:")
    lines.extend(
        f"  {k}: ({', '.join(sio.vector_to_strings(q))})"
        for k, q in enumerate(sm.star_points)
    )
    _emit(doc, lines, args)
    return 0


def cmd_lift(args) -> int:
    p = sio.load_polytope(args.polytope)
    sp = spine(p, _parse_spine_set(args.set))
    sm = shadow(sp)
    doc = sio.load_json(args.star, "triangulation")
    simplices = sio.simplices_from_doc(doc)
    sio.check_star_doc(doc, sm.e, sm.star_points)
    # The constructor keeps the cells as given, so lift refuses a repeat.
    star = Triangulation(sm.star_points, tuple(simplices), sm.e)
    lifted = lift(star, sm)
    _emit(sio.triangulation_to_doc(lifted), _triangulation_lines(lifted), args)
    return 0


def cmd_volume(args) -> int:
    p = sio.load_polytope(args.polytope)
    order = _parse_order(args.order)
    rep = polytope_volume(p, order)
    if rep.volume is not None:
        lines = [format_rational(rep.volume)]
    else:
        lines = [f"{format_rational(rep.sq_volume)} (squared)"]
    _emit(_volume_doc(rep), lines, args)
    return 0


def cmd_verify_lifting(args) -> int:
    p = sio.load_polytope(args.polytope)
    rep = lifting_relation_report(spine(p, _parse_spine_set(args.set)))
    doc = {
        "binom": rep.binom,
        "vol_polytope_sq": format_rational(rep.vol_p_sq),
        "vol_spine_sq": format_rational(rep.vol_spine_sq),
        "vol_shadow_sq": format_rational(rep.vol_shadow_sq),
        "lhs": format_rational(rep.lhs),
        "rhs": format_rational(rep.rhs),
        "holds": rep.holds,
    }
    lines = [
        f"binom^2 * vol(P)^2 = {format_rational(rep.lhs)}",
        f"vol(U)^2 * vol(shadow)^2 = {format_rational(rep.rhs)}",
        "holds" if rep.holds else "FAILS",
    ]
    _emit(doc, lines, args)
    return 0 if rep.holds else 1


def cmd_everest(args) -> int:
    params = EverestParams(
        _parse_int(args.n, "n"), _parse_int(args.s, "s")
    )
    if args.action == "vertices":
        fam = vertex_families(params)
        doc = {
            "n": params.n,
            "s": params.s,
            "vertices": [sio.vector_to_strings(v) for v in fam.everest],
        }
        lines = [f"{len(fam.everest)} vertices"]
        lines.extend(
            "(" + ", ".join(sio.vector_to_strings(v)) + ")"
            for v in fam.everest
        )
        _emit(doc, lines, args)
        return 0
    if args.action == "volume":
        method = args.method or "formula"
        value = everest_volume(params, method)
        doc = {
            "n": params.n,
            "s": params.s,
            "method": method,
            "volume": format_rational(value),
        }
        _emit(doc, [format_rational(value)], args)
        return 0
    checks = everest_verify(params, args.lifting)
    ok = all(checks.values())
    doc = {
        "n": params.n,
        "s": params.s,
        "volume": format_rational(c_constant(params)),
        "checks": checks,
        "ok": ok,
    }
    lines = [f"{name}: {'pass' if flag else 'FAIL'}" for name, flag in checks.items()]
    _emit(doc, lines, args)
    return 0 if ok else 1


def cmd_birkhoff(args) -> int:
    n = _parse_int(args.n, "n")
    ctx = birkhoff_context(n)
    if args.action == "context":
        rep = determinant_identities(ctx)
        doc = {
            "n": n,
            "n_vertices": len(ctx.vertices),
            "spine_size": len(ctx.spine_vectors),
            "det_btb": format_rational(rep.det_btb),
            "abs_det_c": format_rational(rep.det_c_abs),
            "det_j": format_rational(rep.det_j),
            "identities_ok": rep.all_ok,
        }
        lines = [
            f"n = {n}: {len(ctx.vertices)} vertices, spine of {len(ctx.spine_vectors)}",
            f"det(B^T B) = {format_rational(rep.det_btb)}",
            f"|det C| = {format_rational(rep.det_c_abs)}",
            f"det J = {format_rational(rep.det_j)}",
            f"identities: {'pass' if rep.all_ok else 'FAIL'}",
        ]
        _emit(doc, lines, args)
        return 0 if rep.all_ok else 1
    if args.action == "project":
        p = projected_birkhoff(ctx)
        doc = {
            "n": n,
            "ambient_dim": p.ambient_dim,
            "vertices": [sio.vector_to_strings(v) for v in p.vertices],
        }
        lines = [f"{p.n_vertices} vertices in R^{p.ambient_dim}"]
        lines.extend("(" + ", ".join(sio.vector_to_strings(v)) + ")" for v in p.vertices)
        _emit(doc, lines, args)
        return 0
    rep = determinant_identities(ctx)
    doc = {
        "n": n,
        "identities_ok": rep.all_ok,
    }
    lines = [f"identities: {'pass' if rep.all_ok else 'FAIL'}"]
    ok = rep.all_ok
    if args.volume:
        vol = verify_birkhoff_volume_relation(ctx)
        doc.update(
            {
                "vol_truncated": format_rational(vol.vol_ab),
                "vol_birkhoff": format_rational(vol.vol_birkhoff),
                "vol_projected": format_rational(vol.vol_projected),
                "volume_relation_ok": vol.all_ok,
            }
        )
        lines.append(f"vol(B_{n}) = {format_rational(vol.vol_birkhoff)}")
        lines.append(f"vol(projected) = {format_rational(vol.vol_projected)}")
        lines.append(f"volume relation: {'pass' if vol.all_ok else 'FAIL'}")
        ok = ok and vol.all_ok
    _emit(doc, lines, args)
    return 0 if ok else 1


def cmd_selftest(args) -> int:
    from .selfcheck import run_selftest

    return run_selftest(only=args.only)


# Verb -> (handler, help line, its arguments after --pretty as (name,
# add_argument keywords), where its options apply), in help order.  A row
# (option, key, value, refusal) lets the option be given only where key is
# value: a positional key by its value, an option key by whether it is
# given.  `main` raises the refusal of the first row an argv breaks.
VERBS = {
    "facets": (cmd_facets, "enumerate facets of a polytope file", [("polytope", {})], []),
    "spine-check": (cmd_spine_check, "test the facet criterion for a vertex set", [
        ("polytope", {}),
        ("--set", dict(required=True, help="comma-separated vertex indices"))], []),
    "spine-enum": (cmd_spine_enum, "enumerate all spines", [
        ("polytope", {}), ("--min-size", dict(default="2"))], []),
    "triangulate": (cmd_triangulate, "pulling or spinal triangulation", [
        ("polytope", {}), ("--order", dict(help="pulling order as comma-separated indices")),
        ("--spinal", dict(action="store_true")),
        ("--set", dict(help="spine indices for --spinal"))], [
        ("--spinal", "--set", True, "--spinal needs --set with the spine indices"),
        ("--order", "--spinal", False, "--spinal pulls the spine first and takes no --order"),
        ("--set", "--spinal", True, "--set applies only with --spinal")]),
    "fold": (cmd_fold, "fold a spinal triangulation to the shadow", [
        ("polytope", {}), ("--set", dict(required=True)),
        ("--order", dict(help="optional spinal pulling order"))], []),
    "lift": (cmd_lift, "lift a star triangulation of the shadow", [
        ("polytope", {}), ("--set", dict(required=True)),
        ("--star", dict(required=True, help="triangulation JSON over the shadow table"))], []),
    "volume": (cmd_volume, "exact volume by pulling triangulation", [
        ("polytope", {}), ("--order", {})], []),
    "verify-lifting": (cmd_verify_lifting, "check the projection volume law", [
        ("polytope", {}), ("--set", dict(required=True))], []),
    "everest": (cmd_everest, "Everest polytope operations", [
        ("action", dict(choices=["vertices", "volume", "verify"])), ("n", {}), ("s", {}),
        ("--method", dict(choices=["formula", "hull", "lifting"])),
        ("--lifting", dict(action="store_true", help="include the lifting route in verify"))], [
        ("--method", "action", "volume", "--method applies only to everest volume"),
        ("--lifting", "action", "verify", "--lifting applies only to everest verify")]),
    "birkhoff": (cmd_birkhoff, "Birkhoff projection pipeline", [
        ("action", dict(choices=["context", "project", "verify"])), ("n", {}),
        ("--volume", dict(action="store_true", help="also check the volume relation"))], [
        ("--volume", "action", "verify", "--volume applies only to birkhoff verify")]),
    "selftest": (cmd_selftest, "run the acceptance checks minus long items", [
        ("--only", dict(help="run a single criterion by number"))], []),
}


def build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The parser of every verb in VERBS, or with ``only`` of that verb
    alone; a verb's own parser is the same either way."""
    ap = argparse.ArgumentParser(
        prog="spinaltri",
        description="Exact spinal triangulations, shadows, and polytope volumes.",
        allow_abbrev=False,
    )
    sub = ap.add_subparsers(dest="verb", required=True)
    for name, (fn, help_line, arguments, _) in VERBS.items():
        if only in (None, name):
            p = sub.add_parser(name, help=help_line, allow_abbrev=False)
            p.set_defaults(func=fn)
            p.add_argument("--pretty", action="store_true", help="human-readable output")
            for arg, kwargs in arguments:
                p.add_argument(arg, **kwargs)
    return ap


def _state(args, name: str):
    """A positional's value, or whether an option is given."""
    value = getattr(args, name.removeprefix("--"))
    return value not in (None, False) if name.startswith("--") else value


def main(argv=None) -> int:
    """Run one command.  An argv (default ``sys.argv[1:]``) that starts with
    a verb is parsed by that verb's parser alone; any other, or one that
    leaves a token unparsed, by the full parser, which prints its errors."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args, rest = None, argv
    if argv and argv[0] in VERBS:
        args, rest = build_parser(argv[0]).parse_known_args(argv)
    if args is None or rest:
        args = build_parser().parse_args(argv)
    try:
        for option, key, value, refusal in VERBS[args.verb][3]:
            if _state(args, option) and _state(args, key) != value:
                raise ValueError(refusal)
        return args.func(args)
    except DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
