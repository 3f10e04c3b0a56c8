"""Compare the additive and multiplicative Heisenberg constructions.

Prints the Lie bracket table on {vac, b} with the quotient representatives,
the field-level skew defect for the generator pair, and the lie_axiom_check
summary (which slots were scoped out by the recorded defect pairs).

Usage: python3 scripts/bracket_defects.py [--weight W]
"""

import argparse
from fractions import Fraction

from fglcalc.fgl import standard_law
from fglcalc.vertex import (
    HeisenbergAlgebra,
    field_skew_defect,
    lie_axiom_check,
    lie_bracket,
    state_text,
)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--weight", type=int, default=6)
    args = ap.parse_args()
    W = args.weight

    for kind in ("additive", "multiplicative"):
        law = standard_law(kind, trunc=max(12, 3 * W))
        A = HeisenbergAlgebra(law, W=W)
        print(f"== {kind} (W={W}, trunc {law.trunc})")

        names = {"vac": A.vacuum, "b": A.generator}
        for na, a in names.items():
            for nb, b in names.items():
                q = lie_bracket(A, a, b)
                print(f"   [{na},{nb}] = {state_text(q.rep)}")

        d, emin, emax = field_skew_defect(A, A.generator, A.generator)
        if d:
            cells = ", ".join(f"z^{k}: {state_text(v)}"
                              for k, v in sorted(d.items()))
            print(f"   skew defect (b,b) on [{emin},{emax}]: {cells}")
        else:
            print("   skew defect (b,b): none")

        r = lie_axiom_check(A)
        print(f"   lie_axiom_check: {'pass' if r.ok else 'FAIL'}; "
              f"skew-scoped pairs {r.details['skew_defect_pairs']}, "
              f"conjugation-scoped {r.details['conjugation_defect_pairs']}, "
              f"triples {r.details['triples']}")
        print()


if __name__ == "__main__":
    main()
