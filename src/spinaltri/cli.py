"""Command-line front end.

Machine mode (default) writes one JSON document to stdout; --pretty switches
to aligned human-readable output.  Exit status: 0 success, 1 domain error
(with a one-line diagnostic on stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .linalg import format_rational
from . import io as sio
from .everest import (
    EverestParams,
    c_constant,
    everest_volume,
    g_eval,
    se_checks,
    vertex_families,
)
from .birkhoff import (
    birkhoff_context,
    determinant_identities,
    projected_birkhoff,
    verify_birkhoff_volume_relation,
)
from .polytope import PolytopeError
from .spine import SpineError, enumerate_spines, is_spine, spine
from .triangulation import (
    Triangulation,
    TriangulationError,
    fold,
    lift,
    pulling_triangulation,
    shadow,
    spinal_triangulation,
)
from .volume import lifting_relation_report, polytope_volume

DOMAIN_ERRORS = (
    PolytopeError,
    SpineError,
    TriangulationError,
    ValueError,
    OSError,
)


def _parse_index_set(raw: str) -> list[int]:
    try:
        return [int(tok) for tok in raw.split(",") if tok.strip() != ""]
    except ValueError:
        raise ValueError(f"could not parse index set {raw!r}") from None


def _parse_spine_set(raw: str) -> list[int]:
    """A --set value: each index at most once, never merged silently."""
    idx = _parse_index_set(raw)
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
    p = sio.load_polytope(args.polytope)
    spines = enumerate_spines(p, args.min_size)
    doc = {"min_size": args.min_size, "spines": [list(s) for s in spines]}
    _emit(doc, [str(list(s)) for s in spines], args)
    return 0


def _triangulation_lines(t: Triangulation) -> list[str]:
    lines = [f"dim {t.dim}, {t.n_simplices} maximal simplices"]
    lines.extend(str(list(c)) for c in t.simplices)
    return lines


def cmd_triangulate(args) -> int:
    p = sio.load_polytope(args.polytope)
    if args.spinal:
        if args.set is None:
            raise ValueError("--spinal needs --set with the spine indices")
        t = spinal_triangulation(spine(p, _parse_spine_set(args.set)))
    else:
        order = _parse_index_set(args.order) if args.order else None
        t = pulling_triangulation(p, order)
    _emit(sio.triangulation_to_doc(t), _triangulation_lines(t), args)
    return 0


def cmd_fold(args) -> int:
    p = sio.load_polytope(args.polytope)
    sp = spine(p, _parse_spine_set(args.set))
    sm = shadow(sp)
    order = _parse_index_set(args.order) if args.order else None
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
    with open(args.star) as fh:
        doc = json.load(fh, parse_float=str)
    simplices = sio.simplices_from_doc(doc, len(sm.star_points))
    star = Triangulation.make(sm.star_points, simplices, sm.e)
    lifted = lift(star, sm)
    _emit(sio.triangulation_to_doc(lifted), _triangulation_lines(lifted), args)
    return 0


def cmd_volume(args) -> int:
    p = sio.load_polytope(args.polytope)
    order = _parse_index_set(args.order) if args.order else None
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
    params = EverestParams(args.n, args.s)
    if args.action == "vertices":
        fam = vertex_families(params)
        doc = {
            "n": args.n,
            "s": args.s,
            "vertices": [sio.vector_to_strings(v) for v in fam.everest.points],
        }
        lines = [f"{len(fam.everest.points)} vertices"]
        lines.extend(
            "(" + ", ".join(sio.vector_to_strings(v)) + ")"
            for v in fam.everest.points
        )
        _emit(doc, lines, args)
        return 0
    if args.action == "volume":
        value = everest_volume(params, args.method)
        doc = {
            "n": args.n,
            "s": args.s,
            "method": args.method,
            "volume": format_rational(value),
        }
        _emit(doc, [format_rational(value)], args)
        return 0
    if args.action == "verify":
        return _everest_verify(params, args)
    raise ValueError(f"unknown everest action {args.action!r}")


def _everest_verify(params: EverestParams, args) -> int:
    checks: list[tuple[str, bool]] = []
    fam = vertex_families(params)  # raises on any cardinality mismatch
    checks.append(("family_cardinalities", True))
    checks.append(
        ("vertices_on_unit_level", all(g_eval(params, v) == 1 for v in fam.everest.points))
    )
    checks.extend(se_checks(params).items())
    hull_vol = everest_volume(params, "hull")
    checks.append(("hull_volume_matches_formula", hull_vol == c_constant(params)))
    if args.lifting:
        checks.append(
            ("lifting_volume_matches_formula",
             everest_volume(params, "lifting") == c_constant(params))
        )
    ok = all(flag for _, flag in checks)
    doc = {
        "n": params.n,
        "s": params.s,
        "volume": format_rational(c_constant(params)),
        "checks": {name: flag for name, flag in checks},
        "ok": ok,
    }
    lines = [f"{name}: {'pass' if flag else 'FAIL'}" for name, flag in checks]
    _emit(doc, lines, args)
    return 0 if ok else 1


def cmd_birkhoff(args) -> int:
    if args.action == "context":
        ctx = birkhoff_context(args.n)
        rep = determinant_identities(ctx)
        doc = {
            "n": args.n,
            "n_vertices": len(ctx.vertices),
            "spine_size": len(ctx.spine_vectors),
            "det_btb": format_rational(rep.det_btb),
            "abs_det_c": format_rational(rep.det_c_abs),
            "det_j": format_rational(rep.det_j),
            "identities_ok": rep.all_ok,
        }
        lines = [
            f"n = {args.n}: {len(ctx.vertices)} vertices, spine of {len(ctx.spine_vectors)}",
            f"det(B^T B) = {format_rational(rep.det_btb)}",
            f"|det C| = {format_rational(rep.det_c_abs)}",
            f"det J = {format_rational(rep.det_j)}",
            f"identities: {'pass' if rep.all_ok else 'FAIL'}",
        ]
        _emit(doc, lines, args)
        return 0 if rep.all_ok else 1
    if args.action == "project":
        p = projected_birkhoff(birkhoff_context(args.n))
        doc = {
            "n": args.n,
            "ambient_dim": p.ambient_dim,
            "vertices": [sio.vector_to_strings(v) for v in p.vertices],
        }
        lines = [f"{p.n_vertices} vertices in R^{p.ambient_dim}"]
        lines.extend("(" + ", ".join(sio.vector_to_strings(v)) + ")" for v in p.vertices)
        _emit(doc, lines, args)
        return 0
    if args.action == "verify":
        ctx = birkhoff_context(args.n)
        rep = determinant_identities(ctx)
        doc = {
            "n": args.n,
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
            lines.append(f"vol(B_{args.n}) = {format_rational(vol.vol_birkhoff)}")
            lines.append(f"vol(projected) = {format_rational(vol.vol_projected)}")
            lines.append(f"volume relation: {'pass' if vol.all_ok else 'FAIL'}")
            ok = ok and vol.all_ok
        _emit(doc, lines, args)
        return 0 if ok else 1
    raise ValueError(f"unknown birkhoff action {args.action!r}")


def cmd_selftest(args) -> int:
    from .selfcheck import run_selftest

    return run_selftest(only=args.only)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="spinaltri",
        description="Exact spinal triangulations, shadows, and polytope volumes.",
    )
    sub = ap.add_subparsers(dest="verb", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=fn)
        p.add_argument("--pretty", action="store_true", help="human-readable output")
        return p

    p = add("facets", cmd_facets, help="enumerate facets of a polytope file")
    p.add_argument("polytope")

    p = add("spine-check", cmd_spine_check, help="test the facet criterion for a vertex set")
    p.add_argument("polytope")
    p.add_argument("--set", required=True, help="comma-separated vertex indices")

    p = add("spine-enum", cmd_spine_enum, help="enumerate all spines")
    p.add_argument("polytope")
    p.add_argument("--min-size", type=int, default=2)

    p = add("triangulate", cmd_triangulate, help="pulling or spinal triangulation")
    p.add_argument("polytope")
    p.add_argument("--order", help="pulling order as comma-separated indices")
    p.add_argument("--spinal", action="store_true")
    p.add_argument("--set", help="spine indices for --spinal")

    p = add("fold", cmd_fold, help="fold a spinal triangulation to the shadow")
    p.add_argument("polytope")
    p.add_argument("--set", required=True)
    p.add_argument("--order", help="optional spinal pulling order")

    p = add("lift", cmd_lift, help="lift a star triangulation of the shadow")
    p.add_argument("polytope")
    p.add_argument("--set", required=True)
    p.add_argument("--star", required=True, help="triangulation JSON over the shadow table")

    p = add("volume", cmd_volume, help="exact volume by pulling triangulation")
    p.add_argument("polytope")
    p.add_argument("--order")

    p = add("verify-lifting", cmd_verify_lifting, help="check the projection volume law")
    p.add_argument("polytope")
    p.add_argument("--set", required=True)

    p = add("everest", cmd_everest, help="Everest polytope operations")
    p.add_argument("action", choices=["vertices", "volume", "verify"])
    p.add_argument("n", type=int)
    p.add_argument("s", type=int)
    p.add_argument("--method", choices=["formula", "hull", "lifting"], default="formula")
    p.add_argument("--lifting", action="store_true", help="include the lifting route in verify")

    p = add("birkhoff", cmd_birkhoff, help="Birkhoff projection pipeline")
    p.add_argument("action", choices=["context", "project", "verify"])
    p.add_argument("n", type=int)
    p.add_argument("--volume", action="store_true", help="also check the volume relation")

    p = add("selftest", cmd_selftest, help="run the acceptance checks minus long items")
    p.add_argument("--only", help="run a single criterion by number")

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
