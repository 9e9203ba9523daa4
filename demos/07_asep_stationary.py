"""Stationary law of a multispecies exclusion ring from polynomials.

At q = 1 the basis polynomials evaluated at x = 1 are stationary
weights of a continuous-time exclusion process: species hop on a ring,
and when two particles of different species are adjacent they swap at
a rate depending on which one is ahead.  The generator's null space is
computed independently here (exact rational linear algebra) and agrees
with the polynomial weights under exactly one of the two possible hop
orientations, which pins the convention.
"""

from fractions import Fraction

from macprod import asep_stationary, compute_f
from macprod.compositions import orbit
from macprod.oracles import CONVENTIONS

species = (2, 1, 0)
th = Fraction(1, 2)

weights = {}
for mu in orbit(species):
    weights[mu] = sum(c.as_fraction() for c in
                      compute_f(mu).specialize(q=1, t=th).terms.values())
total = sum(weights.values())

print(f"species {species} on a ring, t = {th}\n")
print(f"polynomial weights (total {total}):")
for mu, w in sorted(weights.items()):
    print(f"  {mu}: {w}  ->  {w / total}")

for conv in CONVENTIONS:
    pi = asep_stationary(species, th, conv)
    match = all(pi[mu] == w / total for mu, w in weights.items())
    print(f"\nconvention {conv!r}: {'matches' if match else 'does not match'}")
    if not match:
        for mu in sorted(pi):
            print(f"  {mu}: {pi[mu]}")
