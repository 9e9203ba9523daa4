"""Command-line interface.

Verbs: compute (f, E, P, transition), verify (qkz, yba, rll, zf, twist,
eigen, recursion, oracle), expand, trace.  Exit codes: 0 success, 1 a
verification failed, 2 usage error, 3 internal assertion.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import hecke, lattice, matprod, oracles
from .errors import DivergentTrace, InternalError, MacprodError
from .oscillator import parse_word, trace_closed_form, word_str
from .qtfield import specialize as qt_specialize


class UsageError(argparse.ArgumentTypeError):
    """Bad flag value.  Subclassing ArgumentTypeError lets argparse report
    composition parse errors (with entry position) under exit code 2."""


def parse_composition(text):
    out = []
    for pos, tok in enumerate(text.split(","), start=1):
        tok = tok.strip()
        if not tok.isdigit():
            raise UsageError(
                f"composition entry {pos} ({tok!r}) is not a non-negative integer")
        out.append(int(tok))
    return tuple(out)


def parse_specialization(text):
    q = t = None
    for pos, part in enumerate(text.split(","), start=1):
        key, sep, val = part.partition("=")
        key, val = key.strip(), val.strip()
        if not sep or key not in ("q", "t") or not val:
            raise UsageError(f"assignment {pos} ({part.strip()!r}) is not q=... or t=...")
        if (key, val) in (("q", "t"), ("t", "q")):
            parsed = val
        else:
            try:
                parsed = Fraction(val)
            except (ValueError, ZeroDivisionError):
                raise UsageError(f"assignment {pos}: bad numeric value {val!r}")
        if key == "q":
            q = parsed
        else:
            t = parsed
    return q, t


def emit_poly(poly, fmt, head):
    if fmt == "json":
        print(json.dumps({**head, "poly": poly.to_obj()}, sort_keys=True))
    elif fmt == "latex":
        print(poly.latex())
    else:
        print(poly)


def emit_scalar(value, fmt, head):
    if fmt == "json":
        print(json.dumps({**head, "value": value.to_obj()}, sort_keys=True))
    elif fmt == "latex":
        print(value.latex())
    else:
        print(value)


def _need_lambda(args):
    if args.lam is None:
        raise UsageError("--lambda is required here")
    return args.lam


def cmd_compute(args):
    lam = _need_lambda(args)
    head = {"target": args.target, "lambda": list(lam)}
    if args.target == "f":
        lam, rank = matprod._rank(lam, args.rank)
        poly = matprod.compute_f(lam, rank)
        head = {"lambda": list(lam), "rank": rank,
                "omega": matprod.omega_norm(lam, rank).to_obj()}
    elif args.target == "E":
        poly = hecke.compute_E(lam)
    elif args.target == "P":
        poly = matprod.compute_P(lam, n=len(lam))
    else:
        if args.mu is None:
            raise UsageError("compute transition needs --mu")
        poly = matprod.transition(lam, args.mu, args.rank)
        head["mu"] = list(args.mu)
    if args.specialize:
        q, t = parse_specialization(args.specialize)
        poly = poly.specialize(q=q, t=t)
    emit_poly(poly, args.format, head)
    return 0


def cmd_verify(args):
    target = args.target
    if target in ("yba", "rll", "zf", "twist"):
        ranks = [args.rank] if args.rank is not None else [1, 2, 3]
        ok = True
        for r in ranks:
            miss = lattice.intertwining_mismatch(target, r, args.cutoff)
            line = f"verify {target} rank={r} cutoff={args.cutoff}: "
            if miss is None:
                print(line + "pass")
            else:
                ok = False
                pos, slots, state = miss
                print(line + "FAIL")
                print(f"  first mismatch at matrix position {pos}, "
                      f"in-state {dict(zip(slots, state))}", file=sys.stderr)
        return 0 if ok else 1
    if target == "qkz":
        lam = args.lam_plus if args.lam_plus is not None else _need_lambda(args)
        bad = hecke.qkz_failures(lam)
        if not bad:
            print(f"verify qkz {lam}: pass")
            return 0
        print(f"verify qkz {lam}: FAIL")
        for mu, why in bad:
            print(f"  member {mu}: {why}", file=sys.stderr)
        return 1
    if target == "eigen":
        lam = _need_lambda(args)
        i = hecke.eigen_failure(lam,
                                hecke._integral(lam, hecke.compute_E(lam))[0])
        if i is None:
            print(f"verify eigen {lam}: pass")
            return 0
        print(f"verify eigen {lam}: FAIL")
        print(f"  first failing Murphy equation: Y_{i} E != y_{i} E",
              file=sys.stderr)
        return 1
    if target == "recursion":
        lam = _need_lambda(args)
        rep = matprod.recursion_report(lam, args.rank)
        if rep.ok:
            print(f"verify recursion {lam}: pass "
                  f"({len(rep.terms)} transfer terms)")
            return 0
        print(f"verify recursion {lam}: FAIL")
        print(f"  lhs {rep.lhs}", file=sys.stderr)
        print(f"  rhs {rep.rhs}", file=sys.stderr)
        return 1
    if target == "oracle":
        lam = _need_lambda(args)
        got, want = oracles.eigen_solve_E(lam), hecke.compute_E(lam)
        if got == want:
            print(f"verify oracle {lam}: pass")
            return 0
        print(f"verify oracle {lam}: FAIL")
        e = min(e for e in got.terms.keys() | want.terms.keys()
                if got.coeff_of(e) != want.coeff_of(e))
        print(f"  first mismatch at x^{e}: oracle {got.coeff_of(e)}, "
              f"raising {want.coeff_of(e)}", file=sys.stderr)
        return 1
    raise UsageError(f"cannot verify target {target!r}")


def cmd_expand(args):
    lam = _need_lambda(args)
    if args.by_transition:
        prefactor, terms = matprod.transfer_table(lam, args.rank)
        if args.format == "json":
            print(json.dumps({
                "lambda": list(lam),
                "prefactor": prefactor.to_obj(),
                "terms": [{"mu": list(mu), "weight": w.to_obj()}
                          for mu, w in terms]}, sort_keys=True))
        else:
            print(f"prefactor: {prefactor}")
            for mu, w in terms:
                print(f"mu={mu}: {w}")
        return 0
    cfgs = matprod.expand_configurations(lam, args.rank)
    if args.format == "json":
        print(json.dumps({
            "lambda": list(lam),
            "configurations": [{
                "paths": [list(p) for p in c.paths],
                "exponents": list(c.exps),
                "weight": c.weight.to_obj()} for c in cfgs]}, sort_keys=True))
        return 0
    print(f"{len(cfgs)} balanced configurations")
    for c in cfgs:
        mono = "*".join(f"x{i + 1}" + (f"^{e}" if e > 1 else "")
                        for i, e in enumerate(c.exps) if e)
        print(f"paths {list(c.paths)}  {mono or '1'}  weight {c.weight}")
    return 0


def cmd_trace(args):
    try:
        word = parse_word(args.word)
    except (MacprodError, ValueError) as exc:
        raise UsageError(str(exc))
    try:
        value = trace_closed_form(word)
    except DivergentTrace as exc:
        print(f"trace diverges: {exc}", file=sys.stderr)
        return 1
    if args.specialize:
        q, t = parse_specialization(args.specialize)
        value = qt_specialize(value, q=q, t=t)
    emit_scalar(value, args.format, {"word": word_str(word)})
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="macprod",
        description="Exact Macdonald polynomials from oscillator traces")
    sub = p.add_subparsers(dest="verb", required=True)

    def common(sp, *formats):
        sp.add_argument("--lambda", dest="lam", type=parse_composition,
                        default=None, metavar="a,b,c")
        sp.add_argument("--rank", type=int, default=None)
        if formats:
            sp.add_argument("--format", choices=formats, default="text")

    c = sub.add_parser("compute", help="compute a polynomial")
    c.add_argument("target", choices=("f", "E", "P", "transition"))
    common(c, "text", "json", "latex")
    c.add_argument("--mu", type=parse_composition, default=None)
    c.add_argument("--specialize", default=None,
                   metavar="q=0|q=t|q=NUM,t=NUM")
    c.set_defaults(func=cmd_compute)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("target", choices=("qkz", "yba", "rll", "zf", "twist",
                                      "eigen", "recursion", "oracle"))
    common(v)
    v.add_argument("--lambda-plus", dest="lam_plus", type=parse_composition,
                   default=None, metavar="a,b,c")
    v.add_argument("--cutoff", type=int, default=4)
    v.set_defaults(func=cmd_verify)

    e = sub.add_parser("expand", help="list trace configurations")
    common(e, "text", "json")
    e.add_argument("--by-transition", action="store_true",
                   help="group by single-layer transfer target")
    e.set_defaults(func=cmd_expand)

    t = sub.add_parser("trace", help="closed form of an oscillator trace")
    t.add_argument("word", help="for example 'a A k^(2,1)'")
    t.add_argument("--format", choices=("text", "json", "latex"),
                   default="text")
    t.add_argument("--specialize", default=None)
    t.set_defaults(func=cmd_trace)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (InternalError, AssertionError) as exc:
        print(f"internal assertion failed: {exc}", file=sys.stderr)
        return 3
    except MacprodError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
