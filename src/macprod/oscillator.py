"""t-deformed boson operators and exact traces on the polynomial Fock space.

States |0>, |1>, ... carry the radical-free action

    raise:  A|m> = |m+1>          lower:  a|m> = (1 - t^m)|m-1>
    kpow(p, c): |m> -> t^(p m) q^(c m) |m>,

so a A - t A a = (1 - t) and A a = 1 - k.  Words are tuples of atoms; the
leftmost atom is the operator applied last.  Traces over m >= 0 are summed
in closed form by walking the word once: no normal ordering is needed, and
a walk that dips below occupation zero picks up the factor (1 - t^0) = 0
automatically at the offending m, so the geometric resummation is valid
without case analysis.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType

from .errors import DivergentTrace, NotDyck
from .qtfield import Factored, QTRat, _dict_mul, zero

LOWER = ("a",)
RAISE = ("A",)

_NO_FACTOR = MappingProxyType({})


def kpow(te=1, qe=0):
    """Diagonal atom t^(te m) q^(qe m); exponents must be nonnegative."""
    if te < 0 or qe < 0:
        raise ValueError("kpow exponents must be nonnegative")
    return ("k", te, qe)


def parse_word(text):
    """Parse "a A k k^(2,1)" into a word tuple."""
    out = []
    for tok in text.split():
        if tok == "a":
            out.append(LOWER)
        elif tok == "A":
            out.append(RAISE)
        elif tok == "k":
            out.append(kpow())
        elif tok.startswith("k^(") and tok.endswith(")"):
            body = tok[3:-1]
            te, qe = (int(v) for v in body.split(","))
            out.append(kpow(te, qe))
        else:
            raise ValueError(f"unknown oscillator token {tok!r}")
    return tuple(out)


def word_str(word):
    toks = []
    for atom in word:
        if atom == LOWER:
            toks.append("a")
        elif atom == RAISE:
            toks.append("A")
        else:
            _, te, qe = atom
            toks.append("k" if (te, qe) == (1, 0) else f"k^({te},{qe})")
    return " ".join(toks)


@lru_cache(maxsize=1 << 14)
def walk(word, m, cutoff=None):
    """Apply the word (a tuple of atoms) to |m>; return (m_out, factor).

    The factor is a read-only Laurent dict {(q_exp, t_exp): int}: each
    lower at height h contributes (1 - t^h) and each kpow(p, c) the
    monomial t^(p h) q^(c h), so no division ever occurs.  With a cutoff
    M the top state is killed by the raise atom (A|M> = 0), matching the
    truncated matrix representation; the output is then (None, {}).
    Results are memoised per (word, m, cutoff).
    """
    h = m
    factor = {(0, 0): 1}
    for atom in reversed(word):
        tag = atom[0]
        if tag == "A":
            if cutoff is not None and h >= cutoff:
                return None, _NO_FACTOR
            h += 1
        elif tag == "a":
            if h == 0:
                return None, _NO_FACTOR
            factor = _dict_mul(factor, {(0, 0): 1, (0, h): -1})
            h -= 1
        else:
            _, te, qe = atom
            if te * h or qe * h:
                factor = {(a + qe * h, b + te * h): v
                          for (a, b), v in factor.items()}
    return h, MappingProxyType(factor)


def _expand_lowers(heights):
    """Coefficients of prod_s (1 - t^{h_s} y) in y: entry k maps
    t-exponent -> int for the y^k term."""
    coeffs = [{0: 1}]
    for hs in heights:
        new = [dict(c) for c in coeffs] + [{}]
        for k, c in enumerate(coeffs):
            tgt = new[k + 1]
            for te, v in c.items():
                tgt[te + hs] = tgt.get(te + hs, 0) - v
        coeffs = [{te: v for te, v in c.items() if v} for c in new]
    return coeffs


def trace_factored(word):
    """Sum_{m>=0} <m|word|m> as a Factored value, denominators factored.

    Walking right to left with symbolic offset h from the start state m,
    each lower contributes (1 - t^(h+m)), each kpow(p,c) contributes
    t^(p(h+m)) q^(c(h+m)); the product expands into finitely many
    geometric series in m, summed as sum_k c_k / (1 - q^Q t^(P+k)).
    Raises DivergentTrace when the total kpow exponent is (0, 0) on a
    balanced word (ratio-1 geometric series).
    """
    h = 0
    ct = cq = 0  # constant Laurent prefactor exponents
    P = Q = 0    # per-m exponents from kpow atoms
    lower_heights = []
    for atom in reversed(word):
        tag = atom[0]
        if tag == "A":
            h += 1
        elif tag == "a":
            lower_heights.append(h)
            h -= 1
        else:
            _, te, qe = atom
            ct += te * h
            cq += qe * h
            P += te
            Q += qe
    if h != 0:
        return Factored({})
    if P == 0 and Q == 0:
        raise DivergentTrace("balanced word with no damping k-power")
    terms = [Factored({(cq, ct + te): v for te, v in c.items()})
             * Factored.binomial(Q, P + k, -1)
             for k, c in enumerate(_expand_lowers(lower_heights)) if c]
    return Factored.sum(terms).cancel()


def trace_closed_form(word):
    """Sum_{m>=0} <m|word|m> as a closed-form QTRat (see trace_factored)."""
    return trace_factored(word).reduce()


def dyck_map(word):
    """Nesting-depth multiplicities of a Dyck word.

    Input is either a parenthesis string or a word of lower/raise atoms
    with "(" = lower, ")" = raise.  Returns (m_1, .., m_L) where m_d
    counts pairs enclosed by exactly d-1 others; trailing zeros dropped.
    """
    if isinstance(word, str):
        steps = []
        for ch in word:
            if ch == "(":
                steps.append(1)
            elif ch == ")":
                steps.append(-1)
            elif not ch.isspace():
                raise NotDyck(f"unexpected character {ch!r}")
    else:
        steps = []
        for atom in word:
            if atom == LOWER:
                steps.append(1)
            elif atom == RAISE:
                steps.append(-1)
            else:
                raise NotDyck("only lower/raise atoms allowed in a Dyck word")
    depth = 0
    counts = {}
    for s in steps:
        if s == 1:
            depth += 1
            counts[depth] = counts.get(depth, 0) + 1
        else:
            depth -= 1
            if depth < 0:
                raise NotDyck("unbalanced: closes below depth zero")
    if depth != 0:
        raise NotDyck("unbalanced: unclosed opens remain")
    top = max(counts, default=0)
    return tuple(counts.get(d, 0) for d in range(1, top + 1))


def psi_eval(mvec, x):
    """Sum_{n>=0} x^n prod_i (1 - t^(n+i))^(m_i) in closed form.

    x is a QTRat; the sum collapses to sum_k c_k / (1 - x t^k).  Raises
    DivergentTrace if some needed denominator 1 - x t^k is zero.
    """
    heights = [i for i, mi in enumerate(mvec, start=1) for _ in range(mi)]
    total = zero()
    for k, c in enumerate(_expand_lowers(heights)):
        if not c:
            continue
        num = zero()
        for te, v in c.items():
            num = num + QTRat.monomial(te=te, c=v)
        den = 1 - x * QTRat.monomial(te=k)
        if den.is_zero():
            raise DivergentTrace(f"pole at ratio x t^{k} = 1")
        total = total + num / den
    return total
