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
from functools import lru_cache

from . import hecke, lattice, matprod, oracles
from .errors import DivergentTrace, InternalError, MacprodError
from .oscillator import parse_word, trace_closed_form, word_str
from .qtfield import specialize as qt_specialize
from .xpoly import XPoly


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
    values = {"q": None, "t": None}
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
        values[key] = parsed
    return values["q"], values["t"]


def emit(value, fmt, head, key):
    """Print value as text, latex, or a canonical JSON line holding head
    and value.to_obj() under key; the exit code, 0."""
    if fmt == "json":
        print(json.dumps({**head, key: value.to_obj()}, sort_keys=True))
    elif fmt == "latex":
        print(value.latex())
    else:
        print(value)
    return 0


def report(subject, failures, note=""):
    """The pass/FAIL line of one verification on stdout, each failure
    line on stderr; the exit code."""
    if not failures:
        print(f"verify {subject}: pass{note}")
        return 0
    print(f"verify {subject}: FAIL")
    for line in failures:
        print(f"  {line}", file=sys.stderr)
    return 1


def print_computed(args, poly, head):
    """emit poly, specialised when --specialize asks."""
    if args.specialize:
        q, t = parse_specialization(args.specialize)
        poly = poly.specialize(q=q, t=t)
    return emit(poly, args.format, head, "poly")


def cmd_compute_f(args):
    lam, rank = matprod._rank(args.lam, args.rank)
    return print_computed(args, matprod.compute_f(lam, rank), {
        "lambda": list(lam), "rank": rank,
        "omega": matprod.omega_norm(lam, rank).to_obj()})


def cmd_compute_E(args):
    return print_computed(args, hecke.compute_E(args.lam),
                          {"target": "E", "lambda": list(args.lam)})


def cmd_compute_P(args):
    return print_computed(args, matprod.compute_P(args.lam, n=len(args.lam)),
                          {"target": "P", "lambda": list(args.lam)})


def cmd_compute_transition(args):
    return print_computed(
        args, matprod.transition(args.lam, args.mu, args.rank),
        {"target": "transition", "lambda": list(args.lam),
         "mu": list(args.mu)})


def cmd_verify_lattice(args):
    codes = []
    for r in [args.rank] if args.rank is not None else [1, 2, 3]:
        miss = lattice.intertwining_mismatch(args.target, r, args.cutoff)
        failures = []
        if miss is not None:
            failures = [f"first mismatch at matrix position {miss[0]}, "
                        f"in-state {dict(zip(miss[1], miss[2]))}"]
        codes.append(report(f"{args.target} rank={r} cutoff={args.cutoff}",
                            failures))
    return max(codes)


def cmd_verify_qkz(args):
    return report(f"qkz {args.lam}", [f"member {mu}: {why}" for mu, why
                                      in hecke.qkz_failures(args.lam)])


def cmd_verify_eigen(args):
    E, _ = hecke._integral(args.lam, hecke.compute_E(args.lam))
    i = hecke.eigen_failure(args.lam, E)
    return report(f"eigen {args.lam}", [] if i is None else [
        f"first failing Murphy equation: Y_{i} E != y_{i} E"])


def cmd_verify_recursion(args):
    rep = matprod.recursion_report(args.lam, args.rank)
    return report(f"recursion {args.lam}",
                  [] if rep.ok else [f"lhs {rep.lhs}", f"rhs {rep.rhs}"],
                  f" ({len(rep.terms)} transfer terms)")


def cmd_verify_oracle(args):
    got, want = oracles.eigen_solve_E(args.lam), hecke.compute_E(args.lam)
    failures = []
    if got != want:
        e = min(e for e in got.terms.keys() | want.terms.keys()
                if got.coeff_of(e) != want.coeff_of(e))
        failures = [f"first mismatch at x^{e}: oracle {got.coeff_of(e)}, "
                    f"raising {want.coeff_of(e)}"]
    return report(f"oracle {args.lam}", failures)


def cmd_expand(args):
    lam = args.lam
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
        mono = XPoly._mono_str(c.exps) or "1"
        print(f"paths {list(c.paths)}  {mono}  weight {c.weight}")
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
    return emit(value, args.format, {"word": word_str(word)}, "value")


_COMPOSITION = dict(type=parse_composition, required=True, metavar="a,b,c")
_FLAGS = {
    "--lambda": dict(_COMPOSITION, dest="lam"),
    "--mu": _COMPOSITION,
    "--rank": dict(type=int, default=None),
    "--cutoff": dict(type=int, default=4),
    "--specialize": dict(default=None, metavar="q=0|q=t|q=NUM,t=NUM"),
}


def _leaf(targets, name, func, flags, formats=(), help=None):
    """A command taking exactly the named flags (keys of _FLAGS), spelled
    in full, and --format when formats are given."""
    sp = targets.add_parser(name, help=help, allow_abbrev=False)
    for flag in flags:
        sp.add_argument(flag, **_FLAGS[flag])
    if formats:
        sp.add_argument("--format", choices=formats, default="text")
    sp.set_defaults(func=func)
    return sp


@lru_cache(maxsize=None)
def build_parser():
    """The parser, built on first use and reused for every later call."""
    p = argparse.ArgumentParser(
        prog="macprod", allow_abbrev=False,
        description="Exact Macdonald polynomials from oscillator traces")
    sub = p.add_subparsers(dest="verb", required=True)
    formats = ("text", "json", "latex")

    c = sub.add_parser("compute", help="compute a polynomial",
                       allow_abbrev=False)
    c = c.add_subparsers(dest="target", required=True)
    for name, func, flags in (
            ("f", cmd_compute_f, ("--rank",)), ("E", cmd_compute_E, ()),
            ("P", cmd_compute_P, ()),
            ("transition", cmd_compute_transition, ("--mu", "--rank"))):
        _leaf(c, name, func, ("--lambda", *flags, "--specialize"), formats)

    v = sub.add_parser("verify", help="run a verification suite",
                       allow_abbrev=False)
    v = v.add_subparsers(dest="target", required=True)
    _leaf(v, "qkz", cmd_verify_qkz, ()).add_argument(
        "--lambda-plus", "--lambda", **_FLAGS["--lambda"])
    for name in ("yba", "rll", "zf", "twist"):
        _leaf(v, name, cmd_verify_lattice, ("--rank", "--cutoff"))
    _leaf(v, "eigen", cmd_verify_eigen, ("--lambda",))
    _leaf(v, "recursion", cmd_verify_recursion, ("--lambda", "--rank"))
    _leaf(v, "oracle", cmd_verify_oracle, ("--lambda",))

    e = _leaf(sub, "expand", cmd_expand, ("--lambda", "--rank"),
              ("text", "json"), help="list trace configurations")
    e.add_argument("--by-transition", action="store_true",
                   help="group by single-layer transfer target")

    t = _leaf(sub, "trace", cmd_trace, ("--specialize",), formats,
              help="closed form of an oscillator trace")
    t.add_argument("word", help="for example 'a A k^(2,1)'")
    return p


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
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
