"""End-to-end acceptance runs, one test per numbered criterion.

Each experiment is a single CLI invocation in a subprocess writing an
artifact file; criterion 10 re-runs every recorded invocation and
demands byte-identical artifacts and manifests (modulo wall time).
Sub-checks are collected per criterion so a failure reports every
violated clause at once.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from oracles import whole_table

from radixion import bulk, numeration
from radixion.numeration import NumberSystem, digit_sum

KNUTH = ("--poly", "2,2,1", "--digits", "0,0;1,0")
NEGABINARY = ("--poly", "2,1", "--digits", "0;1")
ONE_PLUS_I = ("--poly", "2,-2,1", "--digits", "0,0;1,0")
FIVE_A = ("--poly", "5,4,1", "--digits", "0,0;1,0;2,0;3,0;4,0")
FIVE_B = ("--poly", "5,4,1", "--digits", "0,0;-4,-2;2,0;3,0;4,0")

ETA2_GOLDENS = (
    ("c1_knuth", KNUTH, 0.238186),
    ("c1_five_a", FIVE_A, 0.195636),
    ("c1_five_b", FIVE_B, 0.053205),
)


class Runner:
    def __init__(self, root):
        self.root = root
        self.registry = {}

    def invoke(self, name, argv, env_extra=None, rerun_dir=None):
        """Run one CLI invocation, keep its artifact, return (path, seconds)."""
        out = (rerun_dir or self.root) / name
        cmd = [sys.executable, "-m", "radixion.cli", *argv, "--out", str(out)]
        env = dict(os.environ)
        env.update(env_extra or {})
        start = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, env=env)
        elapsed = time.monotonic() - start
        assert proc.returncode == 0, "%s failed: %s" % (name, proc.stderr.decode())
        if rerun_dir is None:
            self.registry[name] = (tuple(argv), dict(env_extra or {}))
        return out, elapsed

    @staticmethod
    def payload(path):
        return json.loads(path.read_bytes())

    @staticmethod
    def csv_rows(path):
        lines = path.read_text().splitlines()
        return lines[0].split(","), [line.split(",") for line in lines[1:]]


@pytest.fixture(scope="module")
def runner(tmp_path_factory):
    return Runner(tmp_path_factory.mktemp("acceptance"))


def report(failures):
    assert not failures, "violated clauses:\n" + "\n".join("  - " + f for f in failures)


def test_criterion_01_carry_constants(runner):
    failures = []
    for name, system, target in ETA2_GOLDENS:
        path, elapsed = runner.invoke(name, ["carry", *system])
        eta2 = runner.payload(path)["eta2"]
        if abs(eta2 - target) > 5e-5:
            failures.append("%s eta2 %.12f not within 5e-5 of %.6f" % (name, eta2, target))
        if elapsed >= 5.0:
            failures.append("%s took %.1fs (budget 5s)" % (name, elapsed))
    report(failures)


def test_criterion_02_census_bound(runner):
    path, elapsed = runner.invoke(
        "c2_census",
        ["census", *KNUTH, "--mu", "14", "--nu", "12", "--rho", "2,3,4,5,6,7,8",
         "--threads", "2", "--format", "csv"],
    )
    header, rows = runner.csv_rows(path)
    assert header == ["rho", "count"]
    failures = []
    expected = {2: 16364, 3: 16276, 4: 15604, 5: 14164, 6: 12044, 7: 9668, 8: 7476}
    for rho_text, count_text in rows:
        rho, count = int(rho_text), int(count_text)
        bound = 8.0 * 2.0 ** (14 - 0.238186 * rho)
        if count > bound:
            failures.append("rho=%d count %d exceeds bound %.1f" % (rho, count, bound))
        if count != expected[rho]:
            failures.append("rho=%d count %d drifted from %d" % (rho, count, expected[rho]))
    if elapsed >= 300.0:
        failures.append("census took %.1fs (budget 300s)" % elapsed)
    report(failures)


def test_criterion_03_fns_decisions(runner):
    cases = (
        ("c3_knuth", KNUTH, True),
        ("c3_one_plus_i", ONE_PLUS_I, False),
        ("c3_negabinary", NEGABINARY, True),
        ("c3_five_a", FIVE_A, True),
    )
    failures = []
    total = 0.0
    for name, system, expected in cases:
        path, elapsed = runner.invoke(name, ["check-fns", *system])
        total += elapsed
        payload = runner.payload(path)
        if payload["is_fns"] is not expected:
            failures.append("%s decided %s" % (name, payload["is_fns"]))
        if not expected and not payload["witness_cycle"]:
            failures.append("%s returned no cycle witness" % name)
    if total >= 10.0:
        failures.append("decisions took %.1fs (budget 10s)" % total)
    report(failures)


def test_criterion_04_roundtrip_and_counts(runner):
    failures = []
    total = 0.0
    for name, system in (("c4_box_knuth", KNUTH), ("c4_box_five_a", FIVE_A),
                         ("c4_box_five_b", FIVE_B)):
        path, elapsed = runner.invoke(name, ["expand", *system, "--box", "5"])
        total += elapsed
        box = runner.payload(path)["box"]
        if box["roundtrip_failures"]:
            failures.append("%s: %d round-trip failures" % (name, box["roundtrip_failures"]))
        if box["expanded"] + box["cycles"] != box["elements"]:
            failures.append("%s: box accounting is inconsistent" % name)
    for name, system, lam, size in (
        ("c4_count_knuth", KNUTH, 12, 2**12),
        ("c4_count_five_a", FIVE_A, 8, 5**8),
        ("c4_count_five_b", FIVE_B, 8, 5**8),
    ):
        path, elapsed = runner.invoke(name, ["expand", *system, "--enumerate", str(lam)])
        total += elapsed
        enum = runner.payload(path)["enumeration"]
        if enum["count"] != size or enum["distinct"] != size:
            failures.append("%s: %d/%d instead of %d distinct elements"
                            % (name, enum["count"], enum["distinct"], size))
    knuth = NumberSystem.parse("2,2,1", "0,0;1,0")
    for lam in range(1, 12):
        elems = list(numeration.enumerate_N(knuth, lam))
        if len(set(elems)) != 2**lam:
            failures.append("library: length-%d set is not 2^%d distinct" % (lam, lam))
    if total >= 30.0:
        failures.append("round-trips took %.1fs (budget 30s)" % total)
    report(failures)


def test_criterion_05_tile_geometry(runner):
    failures = []
    neg_path, t_neg = runner.invoke(
        "c5_negabinary",
        ["tile", *NEGABINARY, "--depth", "18", "--resolution", "1024"],
    )
    neg = runner.payload(neg_path)
    (lo, hi) = neg["bbox"][0]
    cell = (hi - lo) / 1024
    if abs(lo - (-2.0 / 3.0)) > cell:
        failures.append("raster low edge %.6f not within one cell of -2/3" % lo)
    if abs(hi - 1.0 / 3.0) > cell:
        failures.append("raster high edge %.6f not within one cell of 1/3" % hi)
    dragon_path, t_dragon = runner.invoke(
        "c5_dragon",
        ["tile", *KNUTH, "--depth", "18", "--resolution", "1024"],
    )
    area = runner.payload(dragon_path)["area"]
    if abs(area - 1.0) > 0.03:
        failures.append("area %.12f not within 0.03 of 1.00" % area)
    box_path, t_box = runner.invoke(
        "c5_boxdim",
        ["tile", *KNUTH, "--depth", "25", "--resolution", "1024",
         "--boxdim", "256,512,1024"],
        env_extra={"RADIXION_CAP": "34000000"},
    )
    dim = runner.payload(box_path)["boxdim"]["dimension"]
    if not 1.46 <= dim <= 1.58:
        failures.append("boundary dimension %.6f outside [1.46, 1.58]" % dim)
    if t_neg + t_dragon + t_box >= 120.0:
        failures.append("tile runs took %.1fs (budget 120s)" % (t_neg + t_dragon + t_box))
    report(failures)


def test_criterion_06_factorization_identity(runner):
    lams = ",".join(str(v) for v in range(1, 21))
    path, elapsed = runner.invoke(
        "c6_identity",
        ["weyl", *NEGABINARY, "--fn", "sod", "--identity-alphas", "20",
         "--lambda", lams, "--seed", "0"],
    )
    identity = runner.payload(path)["identity"]
    failures = []
    if identity["max_scaled_error"] > 1e-9:
        failures.append("scaled factorization error %.3e exceeds 1e-9"
                        % identity["max_scaled_error"])
    if elapsed >= 60.0:
        failures.append("identity sweep took %.1fs (budget 60s)" % elapsed)
    report(failures)


def coprime_average(lam, alpha):
    """Mean of e(alpha s(n)) over the n = a + bq of N_lam coprime to q(q-1).

    For Knuth's base q = -1+i, q divides n exactly when a is even, and
    q - 1 divides n exactly when a + b = 0 mod 5, since q = 1 in
    Z[q]/(q-1) = Z/5.
    """
    ns = NumberSystem.parse("2,2,1", "0,0;1,0")
    coords, (_, s) = whole_table(ns, lam), bulk.statistic_rows(digit_sum(ns), ns.Q, lam, lam, 0)
    a, b = coords[:, 0], coords[:, 1]
    keep = (a % 2 == 1) & ((a + b) % 5 != 0)
    return complex(np.exp(2j * math.pi * alpha * s[keep, 0]).mean())


def test_criterion_07_prime_equidistribution(runner):
    failures = []
    total = 0.0
    for fn in ("sod", "rs"):
        path, elapsed = runner.invoke(
            "c7_%s" % fn,
            ["weyl", *KNUTH, "--fn", fn, "--alpha", "0.6180339887",
             "--lambda", "14,22", "--filter", "primes", "--format", "csv"],
        )
        total += elapsed
        header, rows = runner.csv_rows(path)
        assert header == ["lambda", "h", "filter", "count", "re_sum", "im_sum", "normalized"]
        if fn == "sod":
            # s(n) = n mod (q-1) and N(q-1) = 5, so primes avoid the class
            # s = 0 mod 5 and |S|/count keeps a coherent term near 0.24 until
            # lambda is in the hundreds.  Decorrelation means the prime sum
            # follows the sum over the elements coprime to q(q-1).
            gap = {}
            for r in rows:
                lam = int(r[0])
                s_p = complex(float(r[4]), float(r[5])) / int(r[3])
                gap[lam] = abs(s_p - coprime_average(lam, 0.6180339887))
            if gap[22] >= 0.1:
                failures.append("sod: |S_p - S_c| %.6f at lambda 22 is not below 0.1"
                                % gap[22])
            if gap[22] >= gap[14]:
                failures.append("sod: |S_p - S_c| %.6f at lambda 22 did not drop below"
                                " %.6f at 14" % (gap[22], gap[14]))
            continue
        normalized = {int(r[0]): float(r[6]) for r in rows}
        if normalized[22] >= 0.1:
            failures.append("%s: |S|/count %.6f at lambda 22 is not below 0.1"
                            % (fn, normalized[22]))
        if normalized[22] >= normalized[14]:
            failures.append("%s: %.6f at lambda 22 did not drop below %.6f at 14"
                            % (fn, normalized[22], normalized[14]))
    if total >= 600.0:
        failures.append("prime sums took %.1fs (budget 600s)" % total)
    report(failures)


def test_criterion_08_fourier_decay(runner):
    path, elapsed = runner.invoke(
        "c8_fourier",
        ["fourier-decay", *KNUTH, "--fn", "rs", "--alpha", "0.5",
         "--lam-max", "18", "--t-samples", "1000", "--seed", "0"],
    )
    rows = runner.payload(path)["rows"]
    failures = []
    for row in rows:
        lam = row["lambda"]
        if row["max_logq"] > lam / 2 + 3:
            failures.append("lambda %d: max log_Q |S| %.4f above lambda/2 + 3"
                            % (lam, row["max_logq"]))
        if row["gamma_emp"] > lam / 2 + 2:
            failures.append("lambda %d: gamma_emp %.4f above lambda/2 + 2"
                            % (lam, row["gamma_emp"]))
    if len(rows) != 18:
        failures.append("expected 18 rows, found %d" % len(rows))
    if elapsed >= 300.0:
        failures.append("decay sweep took %.1fs (budget 300s)" % elapsed)
    report(failures)


def test_criterion_09_cns_family(runner):
    failures = []
    family_path, t_family = runner.invoke(
        "c9_family", ["cns-carry", "--m", "10,100,1000,10000"]
    )
    rows = runner.payload(family_path)["rows"]
    bounds = [row["eta_bound"] for row in rows]
    if bounds != sorted(bounds):
        failures.append("eta bounds %s are not increasing" % bounds)
    for row, m in zip(rows, (10, 100, 1000, 10000)):
        floor = 0.5 - 2.0 / math.log(m)
        if row["eta_bound"] < floor:
            failures.append("m=%d eta bound %.6f below %.6f" % (m, row["eta_bound"], floor))
    first = rows[0]
    if first["alphas"][0] != 326 or first["betas"] != [78, 2]:
        failures.append("m=10 recursion constants drifted: %s / %s"
                        % (first["alphas"], first["betas"]))
    if abs(first["lambda"] - 85.6155) > 1e-3:
        failures.append("m=10 growth root %.6f not within 1e-3 of 85.6155" % first["lambda"])
    subset_path, t_subset = runner.invoke(
        "c9_subset", ["cns-carry", "--m", "5,10,20", "--subset-graph"]
    )
    for row in runner.payload(subset_path)["rows"]:
        if row["subset_dominant"] > row["lambda"] + 1e-6:
            failures.append("m=%d subset growth %.9f exceeds collapsed root %.9f"
                            % (row["m"], row["subset_dominant"], row["lambda"]))
    if t_family + t_subset >= 10.0:
        failures.append("family runs took %.1fs (budget 10s)" % (t_family + t_subset))
    report(failures)


def test_criterion_10_determinism(runner, tmp_path_factory):
    assert runner.registry, "no invocations were recorded"
    rerun_dir = tmp_path_factory.mktemp("rerun")
    failures = []
    for name in sorted(runner.registry):
        argv, env_extra = runner.registry[name]
        path, _ = runner.invoke(name, list(argv), env_extra, rerun_dir=rerun_dir)
        if path.read_bytes() != (runner.root / name).read_bytes():
            failures.append("%s artifact bytes changed between runs" % name)
        first = json.loads((runner.root / (name + ".manifest.json")).read_text())
        second = json.loads((rerun_dir / (name + ".manifest.json")).read_text())
        for manifest in (first, second):
            manifest.pop("wall_time_s")
            manifest["flags"].pop("out")
        if first != second:
            failures.append("%s manifests disagree beyond wall time" % name)
    report(failures)
