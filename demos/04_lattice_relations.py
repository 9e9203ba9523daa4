"""The exchange relations behind the trace construction.

Everything downstream (the q-cycling of the basis, the transition
recursion, the normalization factor) rests on four operator identities
between R-matrices, L-matrices and the column operators.  They are
polynomial identities in x, y over the oscillator algebra, so comparing
the normal forms of both sides checks every matrix element on every Fock
state at once; the comparison is symbolic in q and t throughout.
"""

from macprod import verify_intertwining
from macprod.lattice import build_R, intertwining_mismatch

# unitarity of the rank-2 R-matrix, in cleared form
R = build_R(2)
print("R(x,y) acts on pairs of colours; nonzero entries:",
      sorted(R), "\n")

for kind, what in (("yba", "R LL = LL R on the full lattice"),
                   ("rll", "R tL tL = tL tL R' across one trivialized row"),
                   ("zf", "R AA = AA (exchange of column operators)"),
                   ("twist", "S A(qx) = q^i A(x) S (quasi-periodicity)")):
    for r in (1, 2, 3):
        ok = verify_intertwining(kind, r, cutoff=4)
        print(f"{kind:6s} rank {r}: {'holds' if ok else 'FAILS'}   ({what})")
    print()

# what a failure report would look like: compare yba against rll shapes
miss = intertwining_mismatch("yba", 2, cutoff=4)
print("first mismatch for the true relation:", miss)
