"""Timing of the kernel-route Jacobi identity check against the box size.

The contraction cost grows like B^3 times the kernel width, so this is the
first thing to profile when the check gets slow on a new law.

Usage: python3 scripts/jacobi_scaling.py [--bmax B] [--trunc N]
"""

import argparse
import time

from fglcalc.fgl import standard_law
from fglcalc.vertex import HeisenbergAlgebra, jacobi_identity_check


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--bmax", type=int, default=4)
    ap.add_argument("--trunc", type=int, default=20)
    args = ap.parse_args()

    for kind in ("additive", "multiplicative"):
        law = standard_law(kind, trunc=max(args.trunc, 18))
        A = HeisenbergAlgebra(law, W=6)
        bg, vac = A.generator, A.vacuum
        print(f"== {kind} (trunc {args.trunc})")
        for B in range(2, args.bmax + 1):
            t0 = time.time()
            r = jacobi_identity_check(A, bg, bg, vac, B=B)
            dt = time.time() - t0
            print(f"   B={B}: {'pass' if r.ok else 'FAIL'} "
                  f"cells={r.details.get('cells') if r.ok else '-'} "
                  f"N={r.details.get('N') if r.ok else '-'} {dt:.2f}s")
        print()


if __name__ == "__main__":
    main()
