"""Command-line surface: exit codes, artifact formats, config, manifests."""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from oracles import digit_slice, rudin_shapiro, sum_of_digits

import radixion
from radixion import algebra, analysis, bulk, cli, numeration, tile
from radixion.caps import check_power
from radixion.errors import CapExceeded, UsageError

KNUTH = ("--poly", "2,2,1", "--digits", "0,0;1,0")
NEGABINARY = ("--poly", "2,1", "--digits", "0;1")
ONE_PLUS_I = ("--poly", "2,-2,1", "--digits", "0,0;1,0")
FIVE_A = ("--poly", "5,4,1", "--digits", "0,0;1,0;2,0;3,0;4,0")
FIVE_B = ("--poly", "5,4,1", "--digits", "0,0;-4,-2;2,0;3,0;4,0")
# base (-3 + i sqrt 3) / 2, digits {0, 1, 2}: its embedding chart is not integral
EISENSTEIN = ("--poly", "3,3,1", "--digits", "0,0;1,0;2,0")


def run(capsysbinary, *argv):
    code = cli.main(list(argv))
    captured = capsysbinary.readouterr()
    return code, captured.out, captured.err


def run_json(capsysbinary, *argv):
    code, out, err = run(capsysbinary, *argv)
    return code, json.loads(out.decode()), err


# ------------------------------------------------------------- exit codes


def test_expand_golden(capsysbinary):
    code, payload, _ = run_json(capsysbinary, "expand", *KNUTH, "--element=-1,0")
    assert code == 0
    assert payload["digits"] == [1, 0, 1, 1, 1]
    assert payload["sum_of_digits"] == [4, 0]
    assert payload["adjacent_pairs"] == 2


def test_expand_cycle_exits_one_with_witness(capsysbinary):
    code, out, err = run(capsysbinary, "expand", *ONE_PLUS_I, "--element=-1,1")
    assert code == 1
    payload = json.loads(out.decode())
    assert payload["error"] == "no finite expansion"
    assert payload["cycle"] == [[-1, 1]]
    assert b"error:" in err


def cli_child(*argv):
    """Run the CLI with argv in a child process and return it, done; one
    that runs past 20 s raises, so a hang fails its test."""
    src = os.path.dirname(os.path.dirname(radixion.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-m", "radixion.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=20)


def test_slice_past_the_expansion_returns_at_once():
    # the digits past an expansion are the zero digit: the window is cut to it
    values = []
    for window in ("2,100000000000", "2,inf", "100000000000,inf"):
        done = cli_child("expand", *KNUTH, "--element", "7,3", "--slice", window)
        assert done.returncode == 0, done.stderr
        values.append(json.loads(done.stdout)["slice"]["value"])
    assert values == [[1, 2], [1, 2], [0, 0]]


def test_huge_constant_term_is_decided_at_once():
    # x^2 + (10^20 + 3): no divisor of the constant term is tried
    done = cli_child("distortion", "--poly", "100000000000000000003,0,1")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["embedding_moduli"] == [10**10, 10**10]


def test_degree_nine_subset_graph_closes_its_stalled_bracket():
    # its Collatz-Wielandt bracket stops narrowing at [9.641588010995367,
    # 9.641588010995374], wider than BRACKET_WIDTH: closed, not iterated 10^5 times
    done = cli_child("cns-carry", "--poly", "10,9,8,7,6,5,4,3,2,1", "--subset-graph")
    assert done.returncode == 0, done.stderr
    row = json.loads(done.stdout)["rows"][0]
    assert (row["subset_states"], row["subset_dominant"]) == (1022, 9.641588010995)


def test_expand_strips_its_element_once(capsysbinary, monkeypatch):
    strips = []
    strip = numeration._strip_one
    monkeypatch.setattr(numeration, "_strip_one", lambda ns, n: strips.append(n) or strip(ns, n))
    for window in ("0,3", "2,inf", "1,100000", "9,12"):
        strips.clear()
        code, payload, _ = run_json(capsysbinary, "expand", *KNUTH, "--element", "7,3",
                                    "--slice", window)
        assert code == 0 and len(strips) == len(payload["digits"]) == 7, window


def test_expand_fields_match_the_oracles(capsysbinary, request, random_systems, cns_systems):
    """sum_of_digits, adjacent_pairs and slice, read off one expansion,
    equal the oracles, which expand the element again, on the golden, random
    and first 10 CNS systems: about 8 elements of N_lam per system, lam the
    largest with Q^lam <= 4096, at windows inside and past the expansion."""
    golden = [request.getfixturevalue(n) for n in ("knuth", "negabinary", "five_a", "five_b")]
    windows = ((0, 3), (1, math.inf), (2, 7), (0, math.inf), (4, 40), (30, math.inf))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # quartic irreducibility is not checked
        for ns in golden + list(random_systems) + [ns for ns, _ in cns_systems[:10]]:
            system = ("--poly", str(ns.poly), "--digits", numeration.format_digits(ns.digits))
            lam = int(math.log(4096, ns.Q) + 1e-9)
            rows = list(numeration.enumerate_N(ns, lam))
            for x in rows[::max(1, len(rows) // 8)]:
                for nu, mu in windows:
                    window = "%d,%s" % (nu, "inf" if mu == math.inf else mu)
                    code, payload, _ = run_json(capsysbinary, "expand", *system, "--element",
                                                algebra.format_element(x), "--slice", window)
                    assert code == 0
                    assert payload["sum_of_digits"] == list(sum_of_digits(ns, x)), (ns, x)
                    pairs = rudin_shapiro(ns, x) if ns.Q == 2 else None
                    assert payload.get("adjacent_pairs") == pairs, (ns, x)
                    assert payload["slice"]["value"] == list(digit_slice(ns, x, nu, mu)), (ns, x)


def test_cns_carry_negative_weight_exits_one(capsysbinary):
    # x^2 - x + 2 has beta_1 = -6: its collapsed polynomial has no Perron root
    code, _, err = run(capsysbinary, "cns-carry", "--poly", "2,-1,1")
    assert code == 1
    assert b"w_1 = -6" in err


@pytest.mark.parametrize("poly, factor", [("4,4,5,2,1", "x^2 + x + 2"),
                                          ("9,6,7,2,1", "x^2 + x + 3"),
                                          ("4,0,4,0,1", "x^2 + 2")])
def test_repeated_factor_exits_one(capsysbinary, poly, factor):
    # the base is refused by its exact square-free test, before any root is
    # sought: one error line naming the factor, through every subcommand
    digits = ";".join("%d,0,0,0" % r for r in range(int(poly.split(",")[0])))
    line = "error: polynomial has a repeated factor: %s divides it and its derivative\n" % factor
    for argv in (["distortion", "--poly", poly], ["carry", "--poly", poly, "--digits", digits],
                 ["check-fns", "--poly", poly, "--digits", digits]):
        assert run(capsysbinary, *argv) == (1, b"", line.encode()), argv


def test_usage_errors_exit_two(capsysbinary):
    assert run(capsysbinary, "expand", *KNUTH, "--bogus")[0] == 2
    assert run(capsysbinary, "expand", "--element=1,0")[0] == 2  # missing system
    assert run(capsysbinary, "expand", *KNUTH)[0] == 2  # no mode selected
    assert run(capsysbinary, "expand", *KNUTH, "--element=1")[0] == 2  # arity
    assert run(capsysbinary, "cns-carry")[0] == 2
    assert run(capsysbinary, "cns-carry", "--m", "10", "--poly", "101,20,1")[0] == 2
    assert run(capsysbinary, "expand", *KNUTH, "--element=1,0", "--slice", "a,b")[0] == 2
    assert run(capsysbinary, "expand", *KNUTH, "--box", "0", "--slice", "1,2")[0] == 2  # no element
    # flags are checked before the element is expanded, so no cycle (exit 1) hides them
    for bad in (("--slice", "a,b"), ("--slice", "3,1"), ("--box", "-1"), ("--enumerate", "-1")):
        assert run(capsysbinary, "expand", *ONE_PLUS_I, "--element=-1,1", *bad)[0] == 2
    assert run(capsysbinary, "tile", *KNUTH, "--depth", "10", "--resolution", "64",
               "--boxdim", "32,32,64")[0] == 2  # two distinct resolutions
    assert run(capsysbinary, "weyl", *NEGABINARY, "--fn", "sod", "--identity-alphas", "2",
               "--lambda", "3", "--filter", "primes")[0] == 2  # the identity sums all of N_lambda
    # --fn names one of the digit statistics of the CLI's table
    assert run(capsysbinary, "weyl", *KNUTH, "--fn", "pair", "--alpha", "0.5", "--lambda", "4")[0] == 2
    assert run(capsysbinary, "fourier-decay", *KNUTH, "--fn", "pair", "--alpha", "0.5",
               "--lam-max", "4")[0] == 2
    for lam in ("0", "-2"):  # no lambda of at least 1 to check the identity at, before any draw
        code, out, err = run(capsysbinary, "weyl", *NEGABINARY, "--fn", "sod", "--identity-alphas",
                             "3", "--lambda", lam)
        assert (code, out, err.count(b"error:"), b"Traceback" in err) == (2, b"", 1, False), lam
    for count in ("-1", "0"):  # 0: an identity checked at no alpha, a cover of no samples
        assert run(capsysbinary, "weyl", *NEGABINARY, "--fn", "sod", "--identity-alphas", count,
                   "--lambda", "3")[0] == 2
        assert run(capsysbinary, "tile", *KNUTH, "--depth", "4", "--cover-samples", count)[0] == 2
    for count in ("0", "-3"):  # a thread count below 1: one error line, no artifact
        code, out, err = run(capsysbinary, "weyl", *KNUTH, "--fn", "rs", "--alpha", "0.5",
                             "--lambda", "2", "--threads", count)
        assert (code, out, err.count(b"error:")) == (2, b"", 1), count


def test_one_subparser_reads_as_all_ten(capsysbinary, monkeypatch):
    # a named subcommand configures its own subparser only; help, usage
    # errors and exit codes are those of the parser of all ten
    assert list(cli._build_parser("census")[1]) == ["census"]
    assert len(cli._build_parser("cens")[1]) == len(cli._SUBCOMMANDS) == 10
    argvs = [["--help"], [], ["frobnicate", *KNUTH], ["--threads", "2", "carry", *KNUTH],
             ["expand", *KNUTH, "--bogus"], ["tile", *KNUTH, "--depth", "4", "--space", "polar"],
             ["census", *KNUTH], ["weyl", *KNUTH, "--fn", "rs", "--alpha"],
             *([name, "--help"] for name, *_ in cli._SUBCOMMANDS)]
    runs = [run(capsysbinary, *argv) for argv in argvs]
    assert [code for code, _, _ in runs] == [0 if "--help" in argv else 2 for argv in argvs]
    build_all = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda name=None: build_all())
    assert [run(capsysbinary, *argv) for argv in argvs] == runs


def test_undeclared_format_exits_two_before_work(capsysbinary, monkeypatch):
    def no_work(*args):
        raise AssertionError("work started for an undeclared format")

    monkeypatch.setattr(tile, "tile_rasters", no_work)
    monkeypatch.setattr(analysis, "weyl_sum", no_work)
    for argv in (("tile", *KNUTH, "--depth", "4", "--format", "dot"),
                 ("weyl", *KNUTH, "--fn", "rs", "--alpha", "0.5", "--lambda", "2",
                  "--format", "pgm"),
                 ("carry", *KNUTH, "--format", "csv"),
                 ("primes", *KNUTH, "--lambda", "2", "--format", "dot")):
        code, _, err = run(capsysbinary, *argv)
        assert code == 2 and b"invalid choice" in err
    code, _, err = run(capsysbinary, "weyl", *NEGABINARY, "--fn", "sod", "--identity-alphas",
                       "3", "--lambda", "2", "--format", "csv")
    assert code == 2 and b"the identity check has no CSV form" in err


def test_boxdim_checked_before_streaming(capsysbinary, monkeypatch):
    def no_work(*args):
        raise AssertionError("the cloud was streamed before --boxdim was checked")

    monkeypatch.setattr(tile, "tile_rasters", no_work)
    for boxdim in ("256,512", "256,256,512"):
        code, _, err = run(capsysbinary, "tile", *KNUTH, "--depth", "25", "--resolution",
                           "1024", "--boxdim", boxdim)
        assert code == 2 and b"at least 3 distinct resolutions" in err


def test_pgm_degree_checked_before_streaming(capsysbinary, monkeypatch):
    def no_work(*args):
        raise AssertionError("the cloud was streamed before --format pgm was checked")

    monkeypatch.setattr(tile, "tile_rasters", no_work)
    code, _, err = run(capsysbinary, "tile", "--poly", "2,2,2,1", "--digits", "0,0,0;1,0,0",
                       "--depth", "18", "--resolution", "256", "--format", "pgm")
    assert code == 2 and b"PGM output needs a 1- or 2-dimensional raster" in err


def test_caps_exit_three(capsysbinary, monkeypatch):
    assert run(capsysbinary, "expand", *KNUTH, "--enumerate", "30")[0] == 3
    code, _, err = run(capsysbinary, "fourier-decay", *KNUTH, "--fn", "rs", "--alpha",
                       "0.5", "--lam-max", "120", "--t-samples", "4")
    assert code == 3 and b"lam_max 120" in err
    monkeypatch.setenv("RADIXION_CAP", "10")
    assert run(capsysbinary, "expand", *KNUTH, "--enumerate", "5")[0] == 3
    # the 2^5 - 2 subset states of a quartic are counted before any is built
    # (the degree-4 warning comes first, as one line)
    monkeypatch.setenv("RADIXION_CAP", "16")
    code, out, err = run(capsysbinary, "cns-carry", "--poly", "5,4,3,2,1", "--subset-graph")
    assert (code, out) == (3, b"")
    assert err.splitlines() == [
        b"warning: irreducibility is only verified up to degree 3; degree 4 polynomial is"
        b" accepted unchecked",
        b"error: subset graph of 30 states exceeds cap 16"]


@pytest.mark.parametrize("argv, message", [
    (("distortion", "--poly", "5,4,3,2,1"),
     b"irreducibility is only verified up to degree 3; degree 4 polynomial is accepted unchecked"),
    (("cns-carry", "--poly", "3,3,3,1", "--subset-graph"),
     b"coefficient condition c_d < ... < c_0 violated; transducer weights may be negative"),
])
def test_warnings_print_as_one_line(capsysbinary, argv, message):
    # a warning raised in a subcommand is one "warning:" line on stderr, no
    # source path or source line; stdout and the exit code are those of a
    # run with warnings ignored, and stderr holds the warning and the manifest
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        quiet = run(capsysbinary, *argv)
    code, out, err = run(capsysbinary, *argv)
    assert (code, out) == quiet[:2] and code == 0
    warning, manifest = err.splitlines()
    assert warning == b"warning: " + message
    assert manifest.startswith(b"manifest: ") and b".py:" not in err
    assert quiet[2].splitlines()[0].startswith(b"manifest: ")


# sizes far past 4300 decimal digits, which no %d may print
@pytest.mark.parametrize("argv", [
    ("weyl", *FIVE_A, "--fn", "rs", "--alpha", "0.3", "--lambda", "100000"),
    ("weyl", *FIVE_A, "--fn", "rs", "--alpha", "0.3", "--lambda", "100000", "--filter", "primes"),
    ("fourier-decay", *FIVE_A, "--fn", "rs", "--alpha", "0.3", "--lam-max", "100000"),
    ("primes", *FIVE_A, "--lambda", "100000"),
    ("tile", *FIVE_A, "--depth", "100000"),
    ("expand", *FIVE_A, "--enumerate", "100000"),
    ("census", *KNUTH, "--mu", "20000", "--nu", "0", "--rho", "0"),
])
def test_huge_sizes_are_refused_by_name(capsysbinary, argv):
    code, out, err = run(capsysbinary, *argv)
    assert code == 3 and out == b"" and b"Traceback" not in err
    (line,) = [line for line in err.splitlines() if line.startswith(b"error:")]
    assert len(line) <= 200 and (b"5^100000 " in line or b"2^20000 " in line), line


def test_every_lambda_is_checked_before_any_pass(capsysbinary, monkeypatch):
    # --lambda 14,60: lambda 60 exits 3 on the element cap, and no lambda-14
    # work comes first, over the primes or over all of N_lambda
    def no_work(*args):
        raise AssertionError("work started before every lambda was checked")

    monkeypatch.setattr(bulk, "split_tables", no_work)
    monkeypatch.setattr(bulk, "_norm_bits", no_work)
    monkeypatch.setattr(analysis, "_closed_histogram", no_work)
    for filter in ("primes", "all"):
        code, out, err = run(capsysbinary, "weyl", *KNUTH, "--fn", "rs", "--alpha", "0.5",
                             "--lambda", "14,60", "--filter", filter)
        assert (code, out) == (3, b"")
        (line,) = [line for line in err.splitlines() if line.startswith(b"error:")]
        assert line == b"error: table of %d elements exceeds cap %d" % (2**60, 2**24)


def test_prime_request_builds_one_table_and_one_split(capsysbinary, monkeypatch):
    # every lambda of a weyl --filter primes request, in any order and with
    # repeats, is counted by one pass: one split, one norm table (the sieve
    # of the ring's norms; the sieves of its sieving primes pass no ring)
    calls = []
    for name in ("split_tables", "_norm_bits"):
        def spy(*args, name=name, real=getattr(bulk, name)):
            if name == "split_tables" or len(args) > 1:
                calls.append(name)
            return real(*args)
        monkeypatch.setattr(bulk, name, spy)
    for lams in ("14,22", "3,16,14,8,14"):
        calls.clear()
        code, _, _ = run(capsysbinary, "weyl", *KNUTH, "--fn", "rs", "--alpha", "0.6180339887",
                         "--lambda", lams, "--filter", "primes")
        assert code == 0 and sorted(calls) == ["_norm_bits", "split_tables"], lams


def test_huge_powers_are_never_built():
    # building 5^(10^8) takes more than a minute
    with pytest.raises(CapExceeded, match=r"table of 5\^100000000 elements exceeds cap 16777216"):
        check_power(5, 10**8, "table of %s elements", 1 << 24)
    assert check_power(5, 3, "table of %s elements", 125) == 125
    with pytest.raises(CapExceeded, match="table of 625 elements exceeds cap 124"):
        check_power(5, 4, "table of %s elements", 124)
    # a size from 2^64 on is named as a power, built or not
    with pytest.raises(CapExceeded, match=r"table of 2\^64 elements"):
        check_power(2, 64, "table of %s elements", 1 << 62)
    with pytest.raises(CapExceeded, match=r"table of 5\^100 elements"):
        check_power(5, 100, "table of %s elements", 10**50)
    with pytest.raises(CapExceeded, match="table of %d elements" % 2**63):
        check_power(2, 63, "table of %s elements", 1 << 62)
    with pytest.raises(UsageError, match="negative exponent"):
        check_power(5, -1, "table of %s elements", 1 << 24)


@pytest.mark.parametrize("argv, code, message", [
    (("weyl", *KNUTH, "--fn", "sod", "--alpha", "1e308", "--lambda", "3"), 1,
     b"phase 2 pi h <w, v> at h = 1, w = (1e+308, 0.0), v = (1, 0)"),
    (("weyl", *KNUTH, "--fn", "sod", "--alpha", "inf", "--lambda", "3"), 2, b"(inf, 0.0)"),
    (("fourier-decay", *KNUTH, "--fn", "rs", "--alpha", "inf", "--lam-max", "4"), 2, b"(inf,)"),
    (("fourier-decay", *KNUTH, "--fn", "rs", "--alpha", "nan", "--lam-max", "4"), 2, b"(nan,)"),
    (("fourier-decay", *KNUTH, "--fn", "rs", "--alpha", "1e308", "--lam-max", "4"), 1,
     b"phase 2 pi <w, inc> at w = (1e+308,), inc = (1,)"),
    (("fourier-decay", *KNUTH, "--fn", "sod", "--alpha", "1e308", "--lam-max", "4"), 1,
     b"phase alpha mu_q b at alpha = 1e+308, b = 0"),
])
def test_phase_past_the_float_range_is_an_error(capsysbinary, argv, code, message):
    # a non-finite weight is a usage error; a finite one whose phase
    # overflows is a domain error, raised before any exponential
    got, out, err = run(capsysbinary, *argv)
    assert (got, out) == (code, b"") and err.count(b"error:") == 1 and message in err
    assert b"Traceback" not in err


def test_box_cap_exits_three_before_expanding(capsysbinary, monkeypatch):
    def no_expansion(*args):
        raise AssertionError("an element was expanded")

    monkeypatch.setattr(numeration, "expand", no_expansion)
    code, _, err = run(capsysbinary, "expand", *KNUTH, "--box", "2000")
    assert code == 3
    assert b"box of 16008001 elements exceeds cap" in err


def test_box_cap_comes_before_the_element(capsysbinary):
    # -1 + i has no finite expansion in base 1 + i: expanded first, it
    # would exit 1 with a cycle witness
    code, out, err = run(capsysbinary, "expand", *ONE_PLUS_I, "--element=-1,1", "--box", "5000")
    assert (code, out) == (3, b"") and err.count(b"error:") == 1
    assert b"box of 100020001 elements exceeds cap" in err


def test_wide_digit_primes_classify_each_row(capsysbinary):
    # norms reach about 2.8e14 over the 2 rows of N_1 and 2e10 over the 16384
    # rows of N_14, tables far past the rows' own bytes: no table is built,
    # and each row is classified alone.  Every element is a multiple of the
    # composite digit (16777217 = 97 * 257 * 673, 1001 = 7 * 11 * 13).
    for digits, lam in (("0,0;16777217,0", "1"), ("0,0;1001,0", "14")):
        code, payload, _ = run_json(capsysbinary, "primes", "--poly", "2,2,1", "--digits", digits,
                                    "--lambda", lam)
        assert (code, payload["count"]) == (0, 0)
    code, payload, _ = run_json(capsysbinary, "weyl", "--poly", "2,2,1", "--digits", "0,0;16777217,0",
                                "--fn", "sod", "--alpha", "0.5", "--lambda", "1", "--filter", "primes")
    assert (code, payload["rows"][0]["count"]) == (0, 0)


def test_tile_cap_exits_three_before_streaming(capsysbinary, monkeypatch):
    def no_chunks(*args):
        raise AssertionError("a chunk was generated")

    monkeypatch.setattr(tile, "cloud_chunks", no_chunks)
    monkeypatch.setenv("RADIXION_CAP", "1000")  # the cap stays in points
    code, _, err = run(capsysbinary, "tile", *KNUTH, "--depth", "10", "--cover-samples", "100")
    assert code == 3
    assert b"cloud of 1024 points exceeds cap 1000" in err


@pytest.mark.parametrize("argv, count", [
    (("fourier-decay", *KNUTH, "--fn", "rs", "--alpha", "0.5", "--lam-max", "3",
      "--t-samples", "8388609"), b"8388609 t samples of 2 integers each"),
    (("weyl", *NEGABINARY, "--fn", "sod", "--identity-alphas", "16777217", "--lambda", "2"),
     b"16777217 identity alphas of 1 integers each"),
    (("tile", *KNUTH, "--depth", "4", "--cover-samples", "8388609"),
     b"8388609 cover samples of 2 integers each"),
])
def test_sample_counts_exit_three_before_any_draw(capsysbinary, monkeypatch, argv, count):
    # each count times its integers per sample passes the 2^24 element cap
    def refuse(*args):
        raise AssertionError("a sample was drawn or the cloud streamed")

    monkeypatch.setattr(algebra, "dyadic_samples", refuse)
    monkeypatch.setattr(tile, "tile_rasters", refuse)
    code, _, err = run(capsysbinary, *argv)
    assert code == 3 and count + b" exceed cap 16777216" in err


def test_capped_fns_decision_keeps_tile_exit_zero(capsysbinary, monkeypatch):
    monkeypatch.setenv("RADIXION_CAP", "8")  # 8 points; Knuth's carry closure holds 15 states
    code, payload, _ = run_json(  # 1 cover sample of 2 integers, over 6 translates, fits the cap too
        capsysbinary, "tile", *KNUTH, "--depth", "3", "--resolution", "64", "--cover-samples", "1"
    )
    assert code == 0
    assert payload["area_method"] == "occupancy"


def test_non_fns_still_exits_zero(capsysbinary):
    code, payload, _ = run_json(capsysbinary, "check-fns", *ONE_PLUS_I)
    assert code == 0
    assert payload["is_fns"] is False
    assert payload["witness_cycle"] == [[-1, 1]]
    assert payload["candidates_examined"] == 2  # 1 expands, -1 reaches the fixed point i


# --------------------------------------------------------------- formats


def test_carry_json_key_order(capsysbinary):
    code, out, _ = run(capsysbinary, "carry", *KNUTH)
    assert code == 0
    payload = json.loads(out.decode())
    assert list(payload) == ["states", "spectral_radius", "eta2", "iterations"]
    assert payload["states"] == 15
    assert abs(payload["eta2"] - 0.238186456899) < 1e-12
    assert b"0.238186456899" in out


def test_carry_dot_automaton(capsysbinary):
    code, out, _ = run(capsysbinary, "carry", *NEGABINARY, "--format", "dot")
    assert code == 0
    text = out.decode()
    assert text.startswith("digraph carry {")
    assert '0 [label="0" shape=doublecircle];' in text
    assert '1 -> 2 [label="0"];' in text
    assert '2 -> 1 [label="1"];' in text


def test_census_csv(capsysbinary):
    code, out, _ = run(
        capsysbinary, "census", *KNUTH, "--mu", "6", "--nu", "5", "--rho", "0,2",
        "--format", "csv",
    )
    assert code == 0
    assert out.decode().splitlines() == ["rho,count", "0,62", "2,54"]


def test_weyl_csv_header(capsysbinary):
    code, out, _ = run(
        capsysbinary, "weyl", *KNUTH, "--fn", "rs", "--alpha", "0.5",
        "--lambda", "2,4", "--format", "csv",
    )
    assert code == 0
    lines = out.decode().splitlines()
    assert lines[0] == "lambda,h,filter,count,re_sum,im_sum,normalized"
    assert len(lines) == 3
    assert lines[1].startswith("2,1,all,4,")
    assert lines[2].startswith("4,1,all,16,")


def test_fourier_csv_header(capsysbinary):
    code, out, _ = run(
        capsysbinary, "fourier-decay", *KNUTH, "--fn", "rs", "--alpha", "0.5",
        "--lam-max", "3", "--t-samples", "10", "--format", "csv",
    )
    assert code == 0
    lines = out.decode().splitlines()
    assert lines[0] == "lambda,samples,max_logq,gamma_emp"
    assert len(lines) == 4


def test_tile_pgm(capsysbinary):
    code, out, _ = run(
        capsysbinary, "tile", *NEGABINARY, "--depth", "8", "--resolution", "64",
        "--format", "pgm",
    )
    assert code == 0
    header = b"P5\n# bbox -0.664062500000 0.332031250000\n# system 2,1|0;1\n64 1\n255\n"
    assert out == header + b"\x00" * 64  # all cells occupied at this depth


# sha256 of the whole `tile --depth 6 --format csv` artifact, one row per
# point in first-digit-major order, as the one-array route wrote it
TILE_CSV_SHA256 = {
    KNUTH: "cc4c7646fadf8e6def559ce77cf7546ad23e6b5ac44c12ca54ebc97a89d659d9",
    FIVE_A: "339a3b2891123860ca02b36db4916c02b00e0d675e8608cfb2d1b1ed4652f2e4",
}


@pytest.mark.parametrize("block", [bulk.ROW_BLOCK, 100], ids=["default", "100"])
@pytest.mark.parametrize("system", list(TILE_CSV_SHA256))
def test_tile_csv_golden(capsysbinary, monkeypatch, system, block):
    monkeypatch.setattr(bulk, "ROW_BLOCK", block)  # 100: many streamed chunks
    code, out, _ = run(capsysbinary, "tile", *system, "--depth", "6", "--format", "csv")
    assert code == 0
    assert hashlib.sha256(out).hexdigest() == TILE_CSV_SHA256[system]


def test_primes_csv_rows(capsysbinary):
    code, out, _ = run(capsysbinary, "primes", *KNUTH, "--lambda", "3", "--format", "csv")
    assert code == 0
    rows = out.decode().splitlines()
    assert rows == ["0,1", "-1,-2", "-2,-1"]


def test_csv_blocks_render_like_cells():
    floats = np.array([[-0.0, 0.0], [1e-13, -1e-13], [np.nan, np.inf],
                       [-np.inf, 123.4567890123456], [-2.5, 7.0]])
    ints = np.array([[0, -1], [2**40, -(2**40)], [7, 3]])
    rows = [("rho", 2), (0.5, -0.0)]
    expected = "h1,h2\n" + "".join(
        ",".join(cli._cell(v) for v in row) + "\n"
        for row in [*floats.tolist(), *ints.tolist(), *rows]
    )
    for blocks in ([floats, ints[:0], ints, rows],  # whole blocks, and blocks of 1 or 2 rows
                   [floats[:2], floats[2:4], floats[4:], ints[:1], ints[1:], rows[:1], rows[1:]]):
        assert cli._csv_bytes((("h1", "h2"), blocks)) == expected.encode("ascii")
    assert cli._csv_bytes((None, [ints[:0]])) == b"\n"


# Runs argv[1:] and prints its exit code and peak RSS in kB.  A child's
# ru_maxrss includes the RSS of the process it was forked from, so the
# command is started from this small interpreter, not from the test run.
PEAK_RSS = ("import os, subprocess, sys; p = subprocess.Popen(sys.argv[1:]); "
            "_, status, usage = os.wait4(p.pid, 0); p.returncode = 0; "
            "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)")


def peak_rss_mb(*argv) -> float:
    """Run the CLI with argv in a child process; assert exit 0, return its peak RSS."""
    src = os.path.dirname(os.path.dirname(radixion.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    cmd = [sys.executable, "-c", PEAK_RSS, sys.executable, "-m", "radixion.cli", *argv]
    done = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True)
    code, peak_kb = (int(v) for v in done.stdout.split())
    assert code == 0
    return peak_kb / 1024  # ru_maxrss is in kB on Linux


def test_prime_sum_memory_fence(tmp_path):
    """Criterion 7's rs run streams its row blocks: the child peaks at or
    below 100 MB (it held the whole lambda=22 table at 386 MB)."""
    assert peak_rss_mb("weyl", *KNUTH, "--fn", "rs", "--alpha", "0.6180339887",
                       "--lambda", "14,22", "--filter", "primes", "--format", "csv",
                       "--out", str(tmp_path / "rs.csv")) <= 100


def test_identity_sweep_memory_fence(tmp_path):
    """Criterion 6 streams each lambda once for all 20 alphas: the child
    peaks at or below 60 MB (it built the whole table per lambda at 79 MB)."""
    lams = ",".join(str(lam) for lam in range(1, 21))
    assert peak_rss_mb("weyl", *NEGABINARY, "--fn", "sod", "--identity-alphas", "20",
                       "--lambda", lams, "--seed", "0", "--out", str(tmp_path / "c6.json")) <= 60


def test_tile_memory_fence(tmp_path, monkeypatch):
    """Criterion 5's depth-25 run decides lattice membership by stripping,
    one block of cell centres at a time: the child peaks at or below 80 MB
    (its one-byte-per-cell bitmap of N_25 held it at 131 MB)."""
    monkeypatch.setenv("RADIXION_CAP", "34000000")
    assert peak_rss_mb("tile", *KNUTH, "--depth", "25", "--resolution", "1024",
                       "--boxdim", "256,512,1024", "--out", str(tmp_path / "c5.json")) <= 80


def test_distortion_values_and_format_guard(capsysbinary):
    code, payload, _ = run_json(capsysbinary, "distortion", "--poly", "7,-6,1")
    assert code == 0
    assert abs(payload["theta_max"] - 1.526103032396) < 1e-12
    assert abs(payload["theta_max"] + payload["theta_min"] - 2.0) < 1e-12
    assert run(capsysbinary, "distortion", "--poly", "7,-6,1", "--format", "csv")[0] == 2


def test_weyl_identity_mode(capsysbinary):
    code, payload, _ = run_json(
        capsysbinary, "weyl", *NEGABINARY, "--fn", "sod",
        "--identity-alphas", "3", "--lambda", "1,2,3",
    )
    assert code == 0
    assert payload["identity"]["max_abs_error"] <= 1e-9
    code, _, _ = run(
        capsysbinary, "weyl", *NEGABINARY, "--fn", "sod",
        "--identity-alphas", "3", "--lambda", "1", "--alpha", "0.5",
    )
    assert code == 2


# ----------------------------------------------------------------- config


def test_config_merge_flags_win(capsysbinary, tmp_path):
    cfg = tmp_path / "census.json"
    cfg.write_text(json.dumps({"mu": 4, "rho": "0"}))
    code, out, _ = run(
        capsysbinary, "census", *KNUTH, "--config", str(cfg),
        "--mu", "6", "--nu", "5", "--rho", "0,2", "--format", "csv",
    )
    assert code == 0
    assert out.decode().splitlines() == ["rho,count", "0,62", "2,54"]
    # config alone supplies what flags omit
    code, out, _ = run(
        capsysbinary, "census", *KNUTH, "--config", str(cfg),
        "--nu", "4", "--format", "csv",
    )
    assert code == 0
    assert out.decode().splitlines()[1].startswith("0,")


def test_config_unknown_key_rejected(capsysbinary, tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    assert run(capsysbinary, "census", *KNUTH, "--config", str(cfg),
               "--mu", "4", "--nu", "3", "--rho", "0")[0] == 2


# -------------------------------------------------------------- manifests


def test_out_writes_artifact_and_manifest(capsysbinary, tmp_path):
    out_path = tmp_path / "rows.csv"
    code, _, err = run(
        capsysbinary, "weyl", *KNUTH, "--fn", "rs", "--alpha", "0.5",
        "--lambda", "2,4", "--format", "csv", "--out", str(out_path),
    )
    assert code == 0
    data = out_path.read_bytes()
    manifest = json.loads((tmp_path / "rows.csv.manifest.json").read_text())
    assert manifest["result_digest"] == "sha256:" + hashlib.sha256(data).hexdigest()
    assert manifest["subcommand"] == "weyl"
    assert "granularity" not in manifest
    assert "wall_time_s" in manifest
    assert manifest["flags"]["lam"] == "2,4"


# one run per streamed artifact: the tile in both spaces and every format,
# prime-filtered weyl sums of both digit functions (five-B's digit sums in a
# box wider than N_lambda at lambda 1 and 2, a narrower one at 4), primes
# with the norm table and without it (a wide digit), the N_lambda count
BLOCK_RUNS = [("tile", *EISENSTEIN, "--depth", "6", "--resolution", "64", "--space", space,
               "--format", fmt) for space in tile.SPACE_TAGS for fmt in ("json", "csv", "pgm")] + [
    ("weyl", *KNUTH, "--fn", fn, "--alpha", "0.6180339887", "--lambda", "4,8,11",
     "--filter", "primes") for fn in ("sod", "rs")] + [
    ("weyl", "--poly", "5,4,1", "--digits", "0,0;-4,-2;2,0;3,0;4,0", "--fn", "sod",
     "--form", "1/3,0.25", "--lambda", "1,2,4", "--filter", "primes"),
    ("primes", *KNUTH, "--lambda", "11", "--format", "csv"),
    ("primes", "--poly", "5,4,1", "--digits", "0,0;1,0;2,0;3,0;104,0", "--lambda", "4",
     "--format", "csv"),
    ("expand", *KNUTH, "--enumerate", "11"),
]


def test_artifacts_do_not_depend_on_blocks(capsysbinary, each_row_block):
    """Every artifact is byte-identical under each bulk.ROW_BLOCK, the
    embedding cloud included: its chart adds terms in a fixed order."""
    for argv in BLOCK_RUNS:
        code, first, _ = run(capsysbinary, *argv)
        assert code == 0
        for size in each_row_block():
            assert run(capsysbinary, *argv)[:2] == (0, first), (argv, size)
    weyl = next(argv for argv in BLOCK_RUNS if argv[0] == "weyl")
    assert "granularity" not in json.loads(run(capsysbinary, *weyl)[1].decode())
    assert run(capsysbinary, *weyl, "--granularity", "8")[0] == 2  # the knob is gone


# a valid run of every subcommand
ONE_RUN_EACH = (
    ("expand", *KNUTH, "--element=1,0"),
    ("check-fns", *KNUTH),
    ("carry", *KNUTH),
    ("census", *KNUTH, "--mu", "4", "--nu", "3", "--rho", "0"),
    ("cns-carry", "--m", "10"),
    ("tile", *KNUTH, "--depth", "4"),
    ("weyl", *KNUTH, "--fn", "rs", "--alpha", "0.5", "--lambda", "2"),
    ("weyl", *NEGABINARY, "--fn", "sod", "--identity-alphas", "2", "--lambda", "2"),
    ("fourier-decay", *KNUTH, "--fn", "rs", "--alpha", "0.5", "--lam-max", "3", "--t-samples", "4"),
    ("primes", *KNUTH, "--lambda", "2"),
    ("distortion", "--poly", "7,-6,1"),
)


def test_bad_seed_or_out_exits_two_before_work(capsysbinary, monkeypatch, tmp_path):
    def no_work(args):
        raise AssertionError("work started")

    handlers_refused = tuple(spec[:4] + (no_work,) for spec in cli._SUBCOMMANDS)
    monkeypatch.setattr(cli, "_SUBCOMMANDS", handlers_refused)
    assert {argv[0] for argv in ONE_RUN_EACH} == {spec[0] for spec in cli._SUBCOMMANDS}
    config = tmp_path / "seed.json"
    config.write_text(json.dumps({"seed": -1}))
    missing = str(tmp_path / "missing" / "out.json")
    for argv in ONE_RUN_EACH:
        with pytest.raises(AssertionError, match="work started"):
            cli.main(list(argv))
        for bad, message in ((("--seed", "-1"), b"nonnegative integer"),
                             (("--seed=x",), b"nonnegative integer"),
                             (("--config", str(config)), b"nonnegative integer"),
                             (("--threads", "0"), b"--threads must be at least 1"),
                             (("--out", missing), b"no directory"),
                             (("--out", str(tmp_path)), b"is a directory")):
            code, _, err = run(capsysbinary, *argv, *bad)
            assert code == 2 and message in err, (argv, bad)
    assert not os.path.exists(os.path.dirname(missing))


# Runs through cli.main in one fresh interpreter: the subcommands that build
# no arrays (the carry automaton and its Perron root are pure Python, and so
# are the embeddings), then the benchmark's set-up probe (import radixion.cli,
# build the parser, NumberSystem.parse) and the embeddings and distortion of
# a degree-9 base; none of them may load numpy.
NUMPY_FREE = """
import sys
import warnings
from radixion import algebra, cli
from radixion.algebra import MinimalPolynomial
from radixion.numeration import NumberSystem
warnings.simplefilter("ignore")  # degree 9 is accepted unchecked
out = sys.argv[1]
for group in %r:
    for argv in group:
        assert cli.main([*argv, "--out", out]) == 0, argv
    if group[0][0] == "check-fns":
        assert "radixion.carry" not in sys.modules, "check-fns or expand imported carry"
cli.main(["census", "--help"])
NumberSystem.parse("5,4,1", "0,0;1,0;2,0;3,0;4,0")
base = MinimalPolynomial.parse("10,9,8,7,6,5,4,3,2,1")
assert len(base.embeddings().roots) == 9 and algebra.distortion(base).theta_max > 1
print(sorted(name for name in sys.modules
             if name.split(".")[0] in ("numpy", "dataclasses", "_hashlib")))
""" % ([
    [
        ["check-fns", *KNUTH],
        ["distortion", "--poly", "2,2,1"],
        ["distortion", "--poly", "3,3,3,1"],
        ["expand", *KNUTH, "--element", "7,3", "--slice", "1,inf"],
        ["expand", *FIVE_A, "--box", "2"],
        ["expand", *KNUTH, "--enumerate", "12"],
        ["expand", *FIVE_A, "--enumerate", "8"],
        ["expand", *FIVE_B, "--enumerate", "8"],
    ],
    [
        ["fourier-decay", *KNUTH, "--fn", "rs", "--alpha", "0.5", "--lam-max", "6",
         "--t-samples", "20"],
        ["fourier-decay", *KNUTH, "--fn", "sod", "--form", "1/3,0.25", "--lam-max", "6",
         "--t-samples", "20"],
        ["weyl", *NEGABINARY, "--fn", "sod", "--identity-alphas", "3", "--lambda", "1,2,8"],
        ["weyl", *FIVE_A, "--fn", "rs", "--alpha", "0.3", "--lambda", "3,6", "--filter", "all"],
        ["census", *KNUTH, "--mu", "6", "--nu", "4", "--rho", "2,3", "--format", "csv"],
        ["cns-carry", "--m", "10,100"],
        ["carry", *KNUTH],
        ["carry", *KNUTH, "--format", "dot"],
        ["cns-carry", "--m", "5", "--subset-graph"],
    ],
],)


def test_integer_subcommands_start_without_numpy(tmp_path):
    src = os.path.dirname(os.path.dirname(radixion.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", NUMPY_FREE, str(tmp_path / "out.json")],
                          env=env, capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-1] == "[]"


# The criterion-5 tile and criterion-7 weyl runs of the README through
# cli.main in one fresh interpreter: none may load numpy.ma, which costs
# 13 ms and 1.3 MB to import and which np.unique loads for float arrays.
MASKED_FREE = """
import sys
from radixion import cli
for argv in %r:
    assert cli.main([*argv, "--out", sys.argv[1]]) == 0, argv
print("numpy.ma" in sys.modules)
""" % ([
    ["tile", *NEGABINARY, "--depth", "18", "--resolution", "1024"],
    ["tile", *KNUTH, "--depth", "18", "--resolution", "1024"],
    ["tile", *KNUTH, "--depth", "25", "--resolution", "1024", "--boxdim", "256,512,1024"],
    *(["weyl", *KNUTH, "--fn", fn, "--alpha", "0.6180339887", "--lambda", "14,22",
       "--filter", "primes", "--format", "csv"] for fn in ("sod", "rs")),
],)


def test_tile_and_prime_runs_leave_numpy_ma_unloaded(tmp_path):
    src = os.path.dirname(os.path.dirname(radixion.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
               RADIXION_CAP="34000000")
    done = subprocess.run([sys.executable, "-c", MASKED_FREE, str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-1] == "False"


def test_fourier_decay_runs_to_lambda_60(tmp_path, monkeypatch):
    # exact phases: no float or int64 limit on the positions, only the cap
    monkeypatch.setenv("RADIXION_CAP", str(10**50))
    rows = {}
    for lam_max in ("60", "8"):
        path = tmp_path / lam_max
        argv = ["fourier-decay", *FIVE_A, "--fn", "rs", "--alpha", "0.3", "--lam-max", lam_max,
                "--t-samples", "50", "--out", str(path)]
        assert cli.main(argv) == 0
        rows[lam_max] = json.loads(path.read_text())["rows"]
    assert len(rows["60"]) == 60 and rows["60"][:8] == rows["8"]
    assert all(row["max_logq"] <= row["lambda"] for row in rows["60"])


def test_every_export_resolves():
    for name in radixion.__all__:
        assert getattr(radixion, name) is not None, name
    namespace = {}
    exec("from radixion import *", namespace)
    assert set(radixion.__all__) <= set(namespace)
    with pytest.raises(AttributeError):
        radixion.no_such_name


def test_stdout_runs_emit_manifest_line(capsysbinary):
    _, _, err = run(capsysbinary, "carry", *NEGABINARY)
    assert any(line.startswith(b"manifest: {") for line in err.splitlines())


def test_repeat_runs_byte_identical(capsysbinary, tmp_path):
    argv = ["weyl", *KNUTH, "--fn", "sod", "--alpha", "0.6180339887",
            "--lambda", "4,8", "--filter", "primes", "--format", "csv"]
    blobs, manifests = [], []
    for name, threads in (("a", "1"), ("b", "3"), ("c", "1")):
        path = tmp_path / name
        assert cli.main(argv + ["--threads", threads, "--out", str(path)]) == 0
        blobs.append(path.read_bytes())
        manifests.append(json.loads((tmp_path / (name + ".manifest.json")).read_text()))
    assert blobs[0] == blobs[1] == blobs[2]
    for m in manifests:
        del m["wall_time_s"]
        del m["flags"]["threads"]
        del m["flags"]["out"]
    assert manifests[0] == manifests[1] == manifests[2]
