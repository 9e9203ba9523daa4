"""Product-then-filter enumerations, kept as test references.

`product_configurations` is the row-path product walk that
`expand_configurations` replaced.  Every row lists all of its admissible
lattice paths through the reduced L-matrices of levels r..1; the walk
takes every combination of one path per row and keeps those whose
occupation change balances in each (level, family) slot.  It visits
prod_i #paths(lam_i) combinations, so it is only usable on small
compositions.

`level_transfers` is the reference for the walk of `matprod._transfers`,
which generates only the balanced transfers, column by owed column: it
takes every combination of one tL^(r) entry per row and keeps those whose
family words balance.
"""

from functools import lru_cache
from itertools import product
from typing import NamedTuple

from helpers import net_change
from macprod.errors import IndexOutOfRange
from macprod.lattice import build_tildeL
from macprod.oscillator import kpow, trace_factored
from macprod.qtfield import Factored

_ONE_F = Factored({(0, 0): 1})


@lru_cache(maxsize=None)
def _tl(level):
    return build_tildeL(level, space=level)


def _slots(r):
    return [(j, f) for j in range(2, r + 1) for f in range(2, j + 1)]


class RowPath(NamedTuple):
    path: tuple     # (nu_r, .., nu_0)
    xdeg: int
    factors: tuple  # ((level, family), atoms) pairs
    net: tuple      # per-slot net occupation change


@lru_cache(maxsize=None)
def row_paths(part, r):
    """All admissible single-row paths for a part value at rank r."""
    if part > r:
        raise IndexOutOfRange(f"part {part} exceeds rank {r}")
    paths = [(part,)]
    for j in range(r, 0, -1):
        nxt = []
        for p in paths:
            row = p[-1]
            for col in range(j):
                if col == 0 or row == 0 or row > col:
                    nxt.append(p + (col,))
        paths = nxt
    out = []
    for p in paths:
        xdeg = 0
        fac = {}
        for idx, j in enumerate(range(r, 0, -1)):
            e = _tl(j).entry(p[idx], p[idx + 1])
            if not e:
                break
            t = e[0]
            xdeg += t.xdeg
            for slot, atoms in t.factors:
                fac[slot] = atoms
        else:
            net = tuple((slot, net_change(atoms)) for slot, atoms in fac.items())
            out.append(RowPath(p, xdeg, tuple(sorted(fac.items())), net))
    return tuple(out)


def product_configurations(lam, r):
    """Balanced configurations as (paths, exps, unreduced Factored weight),
    in the order of the product over rows."""
    rows = [row_paths(p, r) for p in lam]
    slots = _slots(r)
    twist = {(j, f): (kpow(0, f - 1),) for j, f in slots}
    out = []
    for combo in product(*rows):
        net = {}
        for rp in combo:
            for slot, d in rp.net:
                net[slot] = net.get(slot, 0) + d
        if any(net.values()):
            continue
        weight = _ONE_F
        for slot in slots:
            word = ()
            for rp in combo:
                word += dict(rp.factors).get(slot, ())
            weight = weight * trace_factored(word + twist[slot])
            if not weight:
                break
        if weight:
            out.append((tuple(rp.path for rp in combo),
                        tuple(rp.xdeg for rp in combo), weight))
    return out


def level_transfers(lam, r):
    """Level-r transfers out of lam by the per-family filter: every
    combination of one tL^(r) entry per row whose family words balance,
    as (mu, exps, unreduced Factored weight), in lexicographic order of
    mu, zero weights included.  Each family word is the row words in row
    order followed by the twist atom."""
    rows = [[(col, _tl(r).entry(part, col)[0]) for col in range(r)
             if _tl(r).entry(part, col)] for part in lam]
    out = []
    for combo in product(*rows):
        words = {}
        for _, t in combo:
            for slot, atoms in t.factors:
                words[slot] = words.get(slot, ()) + atoms
        families = range(2, r + 1)
        if any(net_change(words.get((r, f), ())) for f in families):
            continue
        weight = _ONE_F
        for f in families:
            weight = weight * trace_factored(
                words.get((r, f), ()) + (kpow(0, f - 1),))
        out.append((tuple(col for col, _ in combo),
                    tuple(t.xdeg for _, t in combo), weight))
    return out
