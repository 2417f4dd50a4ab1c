"""Build two order-3 code families and verify them exhaustively.

Also shows what a failure looks like: a code with a repeated column gets
caught by the MDS precheck with the offending column set as witness.
"""

from mdskit import explicit_code, field_make, is_mds3_rs_fast, is_mds_ell
from mdskit.constructions import build_k3_n3, build_k3_n4


def main():
    code = build_k3_n4(7).code
    print(f"k3-n4: [{code.n},{code.k}] over a field of order {code.field.order}")
    print(" ", is_mds3_rs_fast(code).to_line())

    code = build_k3_n3(7).code
    print(f"k3-n3: [{code.n},{code.k}] over a field of order {code.field.order}")
    print(" ", is_mds3_rs_fast(code).to_line())
    # the generic span-intersection path agrees, just slower
    print(" ", is_mds_ell(code, 3).to_line())

    f3 = field_make(3, [])
    bad = explicit_code(f3, [[1, 0, 1, 0], [0, 1, 0, 1]])
    rep = is_mds_ell(bad, 3)
    print("repeated-column code:")
    print(" ", rep.to_line())
    print("  witness columns:", rep.witness.sets if rep.witness else None)


if __name__ == "__main__":
    main()
