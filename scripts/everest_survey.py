#!/usr/bin/env python3
"""Survey the Everest polytopes at desk scale.

For each (n, s) in a small grid: vertex counts of the sign-pattern families,
the closed-form volume, and (where the dimension permits) the independent
hull-triangulation volume.
"""

import argparse
import sys

from spinaltri.everest import (
    EverestError,
    EverestParams,
    c_constant,
    everest_polytope,
    vertex_families,
)
from spinaltri.linalg import format_rational
from spinaltri.volume import polytope_volume


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=3)
    ap.add_argument("--max-s", type=int, default=3)
    ap.add_argument("--hull-dim-cap", type=int, default=4,
                    help="triangulate the hull only up to this dimension")
    args = ap.parse_args()

    header = f"{'(n,s)':>7} {'|V|':>5} {'formula':>10} {'hull':>10}"
    print(header)
    print("-" * len(header))
    for n in range(1, args.max_n + 1):
        for s in range(1, args.max_s + 1):
            params = EverestParams(n, s)
            try:
                fam = vertex_families(params)
            except EverestError as exc:  # past the pattern cap
                print(f"error: {exc}", file=sys.stderr)
                sys.exit(1)
            formula = c_constant(params)
            if params.dim <= args.hull_dim_cap:
                hull = polytope_volume(everest_polytope(params)).volume
                hull_str = format_rational(hull)
                if hull != formula:
                    print(
                        f"error: E({n},{s}) hull volume {hull_str} differs from "
                        f"the closed form {format_rational(formula)}",
                        file=sys.stderr,
                    )
                    sys.exit(1)
            else:
                hull_str = "-"
            print(
                f"({n},{s})".rjust(7),
                str(len(fam.everest)).rjust(5),
                format_rational(formula).rjust(10),
                hull_str.rjust(10),
            )


if __name__ == "__main__":
    main()
