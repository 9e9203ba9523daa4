"""Build one basis polynomial from oscillator traces, slowly.

The polynomial attached to a composition is a sum over lattice path
configurations: each row of the rank-r lattice carries the corresponding
part, each balanced configuration contributes an x-monomial times a
product of exact traces, and a single normalization factor makes the
result monic on x^lambda.
"""

from fractions import Fraction

from macprod import (compute_f, expand_configurations, omega_norm,
                     raw_trace_sum, specialize)

lam = (0, 0, 1, 1, 2, 2)

print(f"composition lambda = {lam}\n")

cfgs = expand_configurations(lam)
print(f"{len(cfgs)} balanced configurations:")
for c in cfgs:
    mono = "*".join(f"x{i + 1}^{e}" if e > 1 else f"x{i + 1}"
                    for i, e in enumerate(c.exps) if e)
    print(f"  rows {list(c.paths)}   {mono:24s} weight {c.weight}")

print(f"\nnormalization Omega = {omega_norm(lam)}")

raw = raw_trace_sum(lam)
f = compute_f(lam)
# raw = Omega f, coefficient by coefficient, at q = 1/3, t = 1/5
at = dict(q=Fraction(1, 3), t=Fraction(1, 5))
omega = specialize(omega_norm(lam), **at).as_fraction()
assert {e: c.as_fraction() for e, c in raw.specialize(**at).terms.items()} \
    == {e: omega * c.as_fraction() for e, c in f.specialize(**at).terms.items()}

print(f"\nf_lambda = {f}")

# the answer does not depend on the lattice rank, as long as the rank
# holds the largest part
assert compute_f(lam, r=3) == f
assert compute_f(lam, r=4) == f
print("\nrank-3 and rank-4 lattices reproduce the rank-2 answer")
