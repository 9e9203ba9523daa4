"""Symmetrization and the two classical degenerations.

Summing the basis over a rearrangement class gives the symmetric
Macdonald polynomial P.  Setting q = t collapses it to a Schur
polynomial, q = 0 to a Hall-Littlewood polynomial; both limits are
recomputed here by independent oracles (tableau enumeration and the
antisymmetrization formula) rather than by trusting the engine twice.
"""

from fractions import Fraction

from macprod import compute_P, hall_littlewood, schur

lam = (2, 1, 0)
n = len(lam)

P = compute_P(lam)
print(f"P_{lam} = {P}\n")

s = schur(lam, n)
assert P.specialize(q="t") == s
print(f"q = t   ->  schur:           {s}")

hl = hall_littlewood(lam, n)
assert P.specialize(q=0) == hl
print(f"q = 0   ->  hall-littlewood: {hl}")

# a numeric spot check away from the classical points
v = sum(c.as_fraction() for c in
        P.specialize(q=Fraction(1, 3), t=Fraction(1, 5)).terms.values())
print(f"\nP at x = 1, q = 1/3, t = 1/5: {v}")
