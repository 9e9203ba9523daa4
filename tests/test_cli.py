"""End-to-end checks of the command line entry point.

Everything goes through main(argv) so the exit codes the contract promises
(0 ok, 1 failed verification, 2 usage, 3 internal) are what is asserted.
"""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

from helpers import add
from macprod import clear_caches, cli, hecke, matprod, oracles
from macprod.cli import main
from macprod.errors import InternalNonPolynomial
from macprod.oscillator import parse_word, trace_closed_form
from macprod.qtfield import QTRat
from macprod.xpoly import XPoly


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_compute_p_text(capsys):
    code, out, _ = run(capsys, "compute", "P", "--lambda", "1,0")
    assert code == 0
    assert out.strip() == "x1 + x2"


def test_compute_e_json_roundtrip(capsys):
    code, out, _ = run(capsys, "compute", "E", "--lambda", "1,0",
                       "--format", "json")
    assert code == 0
    line = out.strip()
    obj = json.loads(line)
    # canonical: re-serializing with sorted keys reproduces the bytes
    assert json.dumps(obj, sort_keys=True) == line
    assert XPoly.from_obj(obj["poly"]) == hecke.compute_E((1, 0))


def test_compute_f_json_schema(capsys):
    code, out, _ = run(capsys, "compute", "f", "--lambda", "2,0,1",
                       "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert set(obj) == {"lambda", "rank", "poly", "omega"}
    assert obj["rank"] == 2
    assert XPoly.from_obj(obj["poly"]) == matprod.compute_f((2, 0, 1))


def test_compute_latex(capsys):
    code, out, _ = run(capsys, "compute", "f", "--lambda", "0,0,1,1,2,2",
                       "--format", "latex")
    assert code == 0
    assert "x_{3} x_{4} x_{5}^{2} x_{6}^{2}" in out


def test_specialize_flag(capsys):
    code, out, _ = run(capsys, "compute", "E", "--lambda", "1,0",
                       "--specialize", "q=0")
    assert code == 0 and out.strip() == "x1"
    code, out, _ = run(capsys, "compute", "E", "--lambda", "1,0",
                       "--specialize", "q=1")
    assert code == 0 and out.strip() == "x1 + x2"


def test_specialize_swap_flag(capsys):
    # q=t,t=q swaps the variables: (q t - q)/(q t - 1) becomes
    # (q t - t)/(q t - 1), in either order of the assignments
    for spec in ("q=t,t=q", "t=q,q=t"):
        code, out, _ = run(capsys, "compute", "E", "--lambda", "1,0",
                           "--specialize", spec)
        assert code == 0 and out.strip() == "x1 + (q*t - t)/(q*t - 1)*x2"


def test_a_pole_names_the_substitution_in_plain_form(capsys):
    # E_(1,0) has denominator q t - 1
    for spec, named in (("q=1,t=1", "q=1, t=1"), ("t=2,q=1/2", "q=1/2, t=2")):
        code, out, err = run(capsys, "compute", "E", "--lambda", "1,0",
                             "--specialize", spec)
        assert (code, out) == (2, "")
        assert err == f"error: denominator vanishes under {named}\n"


def test_usage_errors(capsys):
    assert run(capsys, "compute", "f", "--lambda", "1,0,x")[0] == 2
    code, _, err = run(capsys, "compute", "f")
    assert code == 2 and "--lambda" in err
    assert run(capsys, "compute", "transition", "--lambda", "1,0")[0] == 2
    assert run(capsys, "compute", "E", "--lambda", "1,0",
               "--specialize", "bogus")[0] == 2
    assert run(capsys, "badverb")[0] == 2


def test_parse_error_reports_position(capsys):
    code = main(["compute", "f", "--lambda", "1,?,0"])
    err = capsys.readouterr().err
    assert code == 2
    assert "entry 2" in err


def test_verify_passes(capsys):
    assert run(capsys, "verify", "qkz", "--lambda-plus", "1,1,0")[0] == 0
    assert run(capsys, "verify", "twist", "--rank", "1")[0] == 0
    assert run(capsys, "verify", "eigen", "--lambda", "0,1")[0] == 0
    assert run(capsys, "verify", "recursion", "--lambda", "2,0,1")[0] == 0
    assert run(capsys, "verify", "oracle", "--lambda", "1,1")[0] == 0
    for kind, rank, cutoff in (("yba", 4, 4), ("rll", 4, 4), ("twist", 4, 4),
                               ("zf", 4, 3), ("zf", 5, 4), ("zf", 4, 6),
                               ("yba", 5, 4), ("rll", 5, 4), ("twist", 5, 4),
                               ("zf", 5, 2)):
        assert run(capsys, "verify", kind, "--rank", str(rank), "--cutoff",
                   str(cutoff)) == (
            0, f"verify {kind} rank={rank} cutoff={cutoff}: pass\n", "")


def test_python_dash_m_runs_the_cli():
    src = Path(__file__).resolve().parents[1] / "src"
    for argv, code, out in ((["verify", "zf", "--rank", "2"], 0,
                             "verify zf rank=2 cutoff=4: pass\n"),
                            (["verify", "zf", "--rank", "0"], 2, "")):
        proc = subprocess.run([sys.executable, "-m", "macprod", *argv],
                              env={**os.environ, "PYTHONPATH": str(src)},
                              capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout) == (code, out), proc.stderr


def test_verify_oracle_on_five_parts(capsys):
    # the row-reduction oracle did not finish this orbit of 10 in 90 s
    code, out, _ = run(capsys, "verify", "oracle", "--lambda", "2,0,0,2,2")
    assert code == 0
    assert out == "verify oracle (2, 0, 0, 2, 2): pass\n"


def test_verify_oracle_failure_locates_the_monomial(capsys, monkeypatch):
    real = oracles.eigen_solve_E
    monkeypatch.setattr(oracles, "eigen_solve_E",
                        lambda lam: add(real(lam), XPoly.monomial((0, 1))))
    code, out, err = run(capsys, "verify", "oracle", "--lambda", "1,0")
    assert code == 1
    assert out == "verify oracle (1, 0): FAIL\n"
    want = hecke.compute_E((1, 0)).coeff_of((0, 1))
    got = add(real((1, 0)), XPoly.monomial((0, 1))).coeff_of((0, 1))
    assert err == (f"  first mismatch at x^(0, 1): oracle {got}, "
                   f"raising {want}\n")


def test_verify_eigen_failure_locates_the_murphy_index(capsys, monkeypatch):
    E = hecke.compute_E((0, 1, 0))
    real = hecke.murphy_apply

    def skewed(i, f):
        g = real(i, f)
        return g.times({(0, 0): 2}) if i == 2 else g
    monkeypatch.setattr(hecke, "compute_E", lambda lam: E)
    monkeypatch.setattr(hecke, "murphy_apply", skewed)
    code, out, err = run(capsys, "verify", "eigen", "--lambda", "0,1,0")
    assert code == 1
    assert out == "verify eigen (0, 1, 0): FAIL\n"
    assert err == "  first failing Murphy equation: Y_2 E != y_2 E\n"


def test_verify_eigen_denominator_outside_hhl_exits_3(capsys, monkeypatch):
    # 1 - q^2 t does not divide D_(0,1) = 1 - q t^2; the check is a raise,
    # not an assert, so -O keeps it
    E = XPoly(2, {(0, 1): QTRat(1),
                  (1, 0): QTRat(1, {(0, 0): 1, (2, 1): -1})})
    monkeypatch.setattr(hecke, "compute_E", lambda lam: E)
    code, out, err = run(capsys, "verify", "eigen", "--lambda", "0,1")
    assert code == 3 and out == ""
    assert "does not divide D_(0, 1)" in err
    src = Path(__file__).resolve().parents[1] / "src"
    script = ("import sys; from macprod import cli, hecke; "
              "from macprod.qtfield import QTRat; "
              "from macprod.xpoly import XPoly; "
              "E = XPoly(2, {(0, 1): QTRat(1), "
              "(1, 0): QTRat(1, {(0, 0): 1, (2, 1): -1})}); "
              "hecke.compute_E = lambda lam: E; "
              "sys.exit(cli.main(['verify', 'eigen', '--lambda', '0,1']))")
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert "does not divide D_(0, 1)" in proc.stderr


def test_verify_lattice_rank_below_one_exits_2(capsys):
    # rank 0 is an explicit rank, not "all ranks"
    for rank in ("0", "-1"):
        code, out, err = run(capsys, "verify", "yba", "--rank", rank)
        assert code == 2 and out == ""
        assert "rank must be >= 1" in err


def test_verify_failure_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(hecke, "qkz_failures",
                        lambda lam: [((1, 0), "T_1 f != t f")])
    code, out, err = run(capsys, "verify", "qkz", "--lambda-plus", "1,0")
    assert code == 1
    assert "FAIL" in out
    assert "member (1, 0)" in err


def test_internal_error_exits_3(capsys, monkeypatch):
    def boom(lam, r=None):
        raise InternalNonPolynomial("trace sum lost monicity")
    monkeypatch.setattr(matprod, "compute_f", boom)
    code, _, err = run(capsys, "compute", "f", "--lambda", "1,0")
    assert code == 3
    assert "internal" in err


def test_expand_modes(capsys):
    code, out, _ = run(capsys, "expand", "--lambda", "1,0")
    assert code == 0
    assert out.startswith("1 balanced configurations")
    code, out, _ = run(capsys, "expand", "--lambda", "1,0",
                       "--format", "json")
    obj = json.loads(out)
    assert code == 0 and len(obj["configurations"]) == 1
    code, out, _ = run(capsys, "expand", "--lambda", "3,1,0,2",
                       "--by-transition")
    assert code == 0
    assert out.count("mu=") == 4
    # expand is the one listing command: compute f has no --configs
    code, out2, _ = run(capsys, "compute", "f", "--lambda", "1,0",
                        "--configs")
    assert code == 2 and out2 == ""


def test_part_above_rank_exits_2(capsys):
    code, out, err = run(capsys, "compute", "transition", "--lambda", "3,0",
                         "--mu", "1,0", "--rank", "2")
    assert code == 2 and out == ""
    assert "rank 2 below largest part" in err


def test_verify_has_no_format_option(capsys):
    code, out, _ = run(capsys, "verify", "eigen", "--lambda", "0,1",
                       "--format", "json")
    assert code == 2 and out == ""


def test_expand_has_no_latex_format(capsys):
    code, out, _ = run(capsys, "expand", "--lambda", "1,0",
                       "--format", "latex")
    assert code == 2 and out == ""


def test_expand_by_transition_skips_the_configuration_sum(capsys,
                                                           monkeypatch):
    calls = []
    real = matprod.expand_configurations

    def counted(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(matprod, "expand_configurations", counted)
    for fmt in ("text", "json"):
        code, out, _ = run(capsys, "expand", "--lambda", "3,1,0,2",
                           "--by-transition", "--format", fmt)
        assert code == 0 and "prefactor" in out
    assert calls == []
    # the counter does see the listing that does run the sum
    assert run(capsys, "expand", "--lambda", "1,0")[0] == 0
    assert len(calls) == 1


def test_trace_verb(capsys):
    code, out, _ = run(capsys, "trace", "a A k^(2,1)")
    assert code == 0
    assert out.strip() == str(trace_closed_form(parse_word("a A k^(2,1)")))
    code, _, err = run(capsys, "trace", "a A")
    assert code == 1 and "diverges" in err
    assert run(capsys, "trace", "a b")[0] == 2


LEAVES = {
    "compute f": ["--lambda", "1,0"],
    "compute E": ["--lambda", "1,0"],
    "compute P": ["--lambda", "1,0"],
    "compute transition": ["--lambda", "1,0", "--mu", "1,0"],
    **{f"verify {kind}": ["--rank", "1"]
       for kind in ("yba", "rll", "zf", "twist")},
    "verify qkz": ["--lambda-plus", "1,0"],
    "verify eigen": ["--lambda", "1,0"],
    "verify oracle": ["--lambda", "1,0"],
    "verify recursion": ["--lambda", "1,0"],
    "expand": ["--lambda", "1,0"],
    "trace": ["a A k"],
}


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "compute" in capsys.readouterr().out
    for leaf in LEAVES:
        code, out, _ = run(capsys, *leaf.split(), "--help")
        assert code == 0 and out.startswith(f"usage: macprod {leaf} ")


UNREAD = [("compute f", "--mu"),
          *[(f"compute {x}", flag) for x in "EP" for flag in ("--rank", "--mu")],
          *[(f"verify {kind}", flag) for kind in ("yba", "rll", "zf", "twist")
            for flag in ("--lambda", "--lambda-plus")],
          ("verify qkz", "--rank"), ("verify qkz", "--cutoff"),
          *[(f"verify {x}", flag) for x in ("eigen", "oracle")
            for flag in ("--rank", "--lambda-plus", "--cutoff")],
          ("verify recursion", "--lambda-plus"),
          ("verify recursion", "--cutoff")]
VALUES = {"--mu": "1,0", "--rank": "1", "--lambda": "1,0",
          "--lambda-plus": "1,0", "--cutoff": "4"}


def test_flags_a_command_does_not_read_exit_2(capsys):
    assert len(UNREAD) == 23
    for leaf, flag in UNREAD:
        argv = [*leaf.split(), *LEAVES[leaf]]
        assert run(capsys, *argv)[0] == 0, argv
        code, out, _ = run(capsys, *argv, flag, VALUES[flag])
        assert code == 2 and out == "", (leaf, flag)


def test_abbreviated_flags_exit_2(capsys):
    # argparse would otherwise read --lam as --lambda and --r as --rank
    for full, short in (("compute E --lambda 1,0", "compute E --lam 1,0"),
                        ("compute f --lambda 1,0 --rank 2",
                         "compute f --lambda 1,0 --r 2")):
        assert run(capsys, *full.split())[0] == 0
        code, out, _ = run(capsys, *short.split())
        assert code == 2 and out == "", short


def test_verify_qkz_spells_its_input_two_ways(capsys):
    for lam in ("1,1,0", "2,1,0"):
        assert (run(capsys, "verify", "qkz", "--lambda", lam)
                == run(capsys, "verify", "qkz", "--lambda-plus", lam))


def test_parser_is_built_once_on_first_use(capsys):
    cli.build_parser.cache_clear()
    for _ in range(2):
        assert run(capsys, "verify", "twist", "--rank", "1")[0] == 0
    assert cli.build_parser.cache_info().misses == 1
    # importing the module builds nothing
    src = Path(__file__).resolve().parents[1] / "src"
    script = ("from macprod import cli; "
              "print(cli.build_parser.cache_info().misses)")
    proc = subprocess.run([sys.executable, "-c", script],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=120)
    assert proc.stdout == "0\n", proc.stderr


def golden_mismatches(workload, rng=None):
    """Jobs of a benchmark pool whose stdout or exit code differ from
    perfbench/golden/<workload>.json, run in the order rng shuffles them
    to, or in file order."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "golden" / f"{workload}.json"
    with open(path, encoding="utf-8") as fh:
        jobs = list(json.load(fh)["jobs"].items())
    assert jobs
    if rng is not None:
        rng.shuffle(jobs)
    bad = []
    for job, want in jobs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(job.split())
        if code != want["exit"] or out.getvalue() != want["stdout"]:
            bad.append(job)
    return bad


def test_basis_golden_outputs():
    # every job of the benchmark's basis pool, byte for byte
    assert golden_mismatches("basis") == []


def test_basis_golden_outputs_in_shuffled_orders_from_cold_caches():
    # no job's output depends on the row, twist or trace tables that an
    # earlier job filled
    for seed in (1, 2, 3):
        clear_caches()
        assert golden_mismatches("basis", random.Random(seed)) == [], seed


def test_raising_golden_outputs():
    # every job of the benchmark's raising pool, byte for byte
    assert golden_mismatches("raising") == []


def test_raising_golden_outputs_in_shuffled_orders_from_cold_caches():
    # no job's output depends on what an earlier job left in a memo
    for seed in (1, 2, 3):
        clear_caches()
        assert golden_mismatches("raising", random.Random(seed)) == [], seed


def test_certify_golden_outputs():
    # every job of the benchmark's certify pool, byte for byte
    assert golden_mismatches("certify") == []
