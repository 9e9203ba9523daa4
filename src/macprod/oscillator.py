"""t-deformed boson operators and exact traces on the polynomial Fock space.

States |0>, |1>, ... carry the radical-free action

    raise:  A|m> = |m+1>          lower:  a|m> = (1 - t^m)|m-1>
    kpow(p, c): |m> -> t^(p m) q^(c m) |m>,

so a A - t A a = (1 - t) and A a = 1 - k.  Words are tuples of atoms; the
leftmost atom is the operator applied last.  One symbolic walk of a word,
normal_form, gives its matrix elements <m+d|word|m> on every state m at
once as a finite sum of coefficients times (t^m)^alpha (q^m)^beta.  No
normal ordering is needed: a walk that dips below occupation zero picks
up the factor (1 - t^0) = 0 automatically at the offending m.  Traces
over m >= 0 are the d = 0 case, summed as geometric series; the lattice
layer checks exchange relations by comparing normal forms.
"""

from __future__ import annotations

from .errors import DivergentTrace, NotDyck
from .qtfield import _ONE_D, Factored, QTRat

LOWER = ("a",)
RAISE = ("A",)


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
            try:
                te, qe = (int(v) for v in tok[3:-1].split(","))
            except ValueError:
                raise ValueError(
                    f"unknown oscillator token {tok!r}") from None
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


def normal_form(word):
    """The matrix elements of a word on every Fock state at once.

    Returns (d, coeffs) with coeffs = {(alpha, beta): Laurent dict
    {(q_exp, t_exp): int}}, nonzero, such that for every m >= 0

        <m+d|word|m> = sum c_(alpha, beta) (t^m)^alpha (q^m)^beta,

    which is 0 when the walk passes below occupation zero.  Walking right
    to left with symbolic offset h from the start state m, each lower
    contributes (1 - t^(h+m)) and each kpow(p, c) t^(p(h+m)) q^(c(h+m));
    the product of the lowers expands in powers of t^m.  Distinct
    (alpha, beta) give linearly independent functions of m, so a sum of
    normal forms vanishes on every state exactly when it is empty.
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
    return h, {(P + k, Q): {(cq, ct + te): v for te, v in c.items()}
               for k, c in enumerate(_expand_lowers(lower_heights)) if c}


def trace_factored(word):
    """Sum_{m>=0} <m|word|m> as a Factored value, denominators factored:
    the d = 0 normal form summed as sum c / (1 - q^beta t^alpha).
    Raises DivergentTrace when the total kpow exponent is (0, 0) on a
    balanced word (ratio-1 geometric series).
    """
    d, coeffs = normal_form(word)
    if d != 0:
        return Factored({})
    if (0, 0) in coeffs:
        raise DivergentTrace("balanced word with no damping k-power")
    return Factored.sum([Factored(c) * Factored.binomial(beta, alpha, -1)
                         for (alpha, beta), c in coeffs.items()]).cancel()


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

    x is a QTRat monomial q^a t^b with a, b >= 0 (ValueError otherwise);
    the sum collapses to sum_k c_k / (1 - q^a t^(b+k)), one Factored.sum
    reduced once.  Raises DivergentTrace if some needed denominator
    1 - x t^k is zero."""
    if not (isinstance(x, QTRat) and x.den == _ONE_D and len(x.num) == 1
            and 1 in x.num.values()):
        raise ValueError(f"psi_eval needs x = q^a t^b with a, b >= 0, "
                         f"not {x!r}")
    (a, b), = x.num
    heights = [i for i, mi in enumerate(mvec, start=1) for _ in range(mi)]
    terms = []
    for k, c in enumerate(_expand_lowers(heights)):
        if c:
            if not (a or b + k):
                raise DivergentTrace(f"pole at ratio x t^{k} = 1")
            terms.append(Factored({(0, te): v for te, v in c.items()}) *
                         Factored.binomial(a, b + k, -1))
    return Factored.sum(terms).reduce()
