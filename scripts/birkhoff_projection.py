#!/usr/bin/env python3
"""Run the Birkhoff projection pipeline and print the results.

Builds the explicit matrices, checks the determinant identities, lists the
projected polytope's vertices, and (for n = 3 or 4) verifies
the volume relation with both sides triangulated independently.
"""

import argparse

from spinaltri.birkhoff import (
    birkhoff_context,
    determinant_identities,
    projected_birkhoff,
    verify_birkhoff_volume_relation,
)
from spinaltri.linalg import format_rational


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("-n", type=int, default=3)
    args = ap.parse_args()
    n = args.n

    ctx = birkhoff_context(n)
    print(f"n = {n}: {len(ctx.vertices)} permutation matrices, spine of {n}")
    rep = determinant_identities(ctx)
    print(f"det(B^T B) = {format_rational(rep.det_btb)}  (expect {n}^{2 * (n - 1)})")
    print(f"|det C| = {format_rational(rep.det_c_abs)}, det J = {format_rational(rep.det_j)}")
    print(f"identities: {'pass' if rep.all_ok else 'FAIL'}")

    if n >= 3:
        p = projected_birkhoff(ctx)
        print(f"projected polytope: {p.n_vertices} vertices in R^{p.ambient_dim}")
        m = n - 1
        for v in p.vertices:
            rows = [
                " ".join(format_rational(x).rjust(2) for x in v[i * m : (i + 1) * m])
                for i in range(m - 1)
            ]
            print("   [" + " | ".join(rows) + "]")

    if n in (3, 4):
        vol = verify_birkhoff_volume_relation(ctx)
        print(f"vol(B_{n}) = {format_rational(vol.vol_birkhoff)}")
        print(f"vol(projected) = {format_rational(vol.vol_projected)}")
        print(f"volume relation: {'pass' if vol.all_ok else 'FAIL'}")


if __name__ == "__main__":
    main()
