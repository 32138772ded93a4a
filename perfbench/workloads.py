"""The benchmark's workloads: README acceptance invocations and their checks.

A group holds the invocations whose cost one later optimisation is meant
to move (carry-census, fourier, prime-sums, tile; see NOTES.md for the
mapping).  A workload is what one benchmark run times: `compute` runs the
three CPU-bound groups, `tile` the memory-bound one.  Fewer, longer
workloads keep each run long enough to average over the host's speed
changes; the groups stay visible in every record.  An invocation lists the
published flags of its README command minus `--threads`, `--seed` and
`--out`, which the runner adds.  Its check reads the artifact and returns
`(failures, values)`: failures are acceptance clauses that pass on the
current code and must keep passing; values are recorded only, among them
the clauses that fail by design (criterion-5 area, criterion-7 `fn=sod`).
Checks compare values within tolerances, never artifact digests.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable

KNUTH = ("--poly", "2,2,1", "--digits", "0,0;1,0")
NEGABINARY = ("--poly", "2,1", "--digits", "0;1")
ONE_PLUS_I = ("--poly", "2,-2,1", "--digits", "0,0;1,0")
FIVE_A = ("--poly", "5,4,1", "--digits", "0,0;1,0;2,0;3,0;4,0")
FIVE_B = ("--poly", "5,4,1", "--digits", "0,0;-4,-2;2,0;3,0;4,0")

# Acceptance time budgets in seconds, per criterion (criterion 1: per
# invocation).  Recorded next to the measured times, never checked.
BUDGETS_S = {1: 5.0, 2: 300.0, 3: 10.0, 4: 30.0, 5: 120.0, 6: 60.0, 7: 600.0,
             8: 300.0, 9: 10.0}

# Explicit --threads of every invocation, timed and traced.  The README
# census value is 2, but on a 2-vCPU VM shared with other tenants a
# two-thread child needs both cores at once: with one core busy elsewhere,
# the --rho 5 census went from 3.2 to 4.2-4.9 s at --threads 2 and stayed
# at 5.2-5.5 s at --threads 1.  One thread per child keeps the times a
# measure of the program rather than of the host's scheduler.
THREADS = 1

CENSUS_COUNTS = {2: 16364, 3: 16276, 4: 15604, 5: 14164, 6: 12044, 7: 9668, 8: 7476}


@dataclass(frozen=True)
class Invocation:
    name: str
    criterion: int
    argv: tuple  # subcommand and its published flags
    check: Callable  # artifact path -> (failures, values)
    seeded: bool = False  # takes the benchmark's --seed
    env: dict = field(default_factory=dict)  # extra environment for this child only


@dataclass(frozen=True)
class Group:
    name: str
    invocations: tuple
    systems: tuple  # (poly, digits) pairs constructed by the set-up probe
    focus: tuple  # layers expected to take most of the group's traced time


@dataclass(frozen=True)
class Workload:
    name: str
    groups: tuple

    @property
    def invocations(self):
        return tuple(inv for group in self.groups for inv in group.invocations)

    @property
    def systems(self):
        return tuple(dict.fromkeys(pair for group in self.groups for pair in group.systems))


def _json(path):
    return json.loads(path.read_bytes())


def _csv(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _clause(ok, text):
    return [] if ok else [text]


def eta2_is(target):
    def check(path):
        eta2 = _json(path)["eta2"]
        return (_clause(abs(eta2 - target) <= 5e-5,
                        "eta2 %.12f not within 5e-5 of %.6f" % (eta2, target)),
                {"eta2": eta2})
    return check


def census_counts(path):
    header, rows = _csv(path)
    if header != ["rho", "count"]:
        return ["census header %s" % header], {}
    failures, values = [], {}
    for rho_text, count_text in rows:
        rho, count = int(rho_text), int(count_text)
        values["count_rho%d" % rho] = count
        bound = 8.0 * 2.0 ** (14 - 0.238186 * rho)
        failures += _clause(count <= bound, "rho=%d count %d exceeds bound %.1f"
                            % (rho, count, bound))
        failures += _clause(count == CENSUS_COUNTS.get(rho), "rho=%d count %d != %s"
                            % (rho, count, CENSUS_COUNTS.get(rho)))
    failures += _clause(bool(rows), "census artifact has no rows")
    return failures, values


def fns_verdict(expected):
    def check(path):
        payload = _json(path)
        failures = _clause(payload["is_fns"] is expected,
                           "decided %s, expected %s" % (payload["is_fns"], expected))
        if not expected:
            failures += _clause(bool(payload["witness_cycle"]), "no cycle witness")
        return failures, {"candidates_examined": payload["candidates_examined"]}
    return check


def box_roundtrip(path):
    box = _json(path)["box"]
    return (_clause(box["roundtrip_failures"] == 0,
                    "%d round-trip failures" % box["roundtrip_failures"])
            + _clause(box["elements"] == 11 ** 2
                      and box["expanded"] + box["cycles"] == box["elements"],
                      "box accounting %s" % box),
            {"cycles": box["cycles"]})


def enumeration_count(size):
    def check(path):
        enum = _json(path)["enumeration"]
        return (_clause(enum["count"] == size and enum["distinct"] == size,
                        "%d/%d instead of %d distinct" % (enum["count"], enum["distinct"], size)),
                {})
    return check


def cns_family(path):
    rows = _json(path)["rows"]
    bounds = [row["eta_bound"] for row in rows]
    failures = _clause(len(rows) == 4 and bounds == sorted(bounds),
                       "eta bounds %s are not increasing" % bounds)
    for row, m in zip(rows, (10, 100, 1000, 10000)):
        floor = 0.5 - 2.0 / math.log(m)
        failures += _clause(row["eta_bound"] >= floor, "m=%d eta bound %.6f below %.6f"
                            % (m, row["eta_bound"], floor))
    first = rows[0]
    failures += _clause(first["alphas"][0] == 326 and first["betas"] == [78, 2],
                        "m=10 constants %s / %s" % (first["alphas"], first["betas"]))
    failures += _clause(abs(first["lambda"] - 85.6155) <= 1e-3,
                        "m=10 growth root %.6f not within 1e-3 of 85.6155" % first["lambda"])
    return failures, {"eta_bounds": bounds}


def cns_subset(path):
    rows = _json(path)["rows"]
    failures = _clause(len(rows) == 3, "expected 3 rows, found %d" % len(rows))
    for row in rows:
        failures += _clause(row["subset_dominant"] <= row["lambda"] + 1e-6,
                            "m=%d subset growth %.9f exceeds collapsed root %.9f"
                            % (row["m"], row["subset_dominant"], row["lambda"]))
    return failures, {}


def fourier_bounds(path):
    rows = _json(path)["rows"]
    failures = _clause(len(rows) == 18, "expected 18 rows, found %d" % len(rows))
    for row in rows:
        lam = row["lambda"]
        failures += _clause(row["max_logq"] <= lam / 2 + 3, "lambda %d: max_logq %.4f"
                            % (lam, row["max_logq"]))
        failures += _clause(row["gamma_emp"] <= lam / 2 + 2, "lambda %d: gamma_emp %.4f"
                            % (lam, row["gamma_emp"]))
    return failures, {"max_logq_18": rows[-1]["max_logq"] if rows else None}


def identity_error(path):
    identity = _json(path)["identity"]
    err = identity["max_scaled_error"]
    return _clause(err <= 1e-9, "scaled identity error %.3e exceeds 1e-9" % err), {
        "max_scaled_error": err}


def _normalized(path):
    header, rows = _csv(path)
    if header != ["lambda", "h", "filter", "count", "re_sum", "im_sum", "normalized"]:
        raise ValueError("weyl header %s" % header)
    return {int(r[0]): float(r[6]) for r in rows}


def prime_sum_rs(path):
    norm = _normalized(path)
    return (_clause(norm[22] < 0.1, "|S|/count %.6f at lambda 22 not below 0.1" % norm[22])
            + _clause(norm[22] < norm[14], "%.6f at lambda 22 not below %.6f at 14"
                      % (norm[22], norm[14])),
            {"normalized": norm})


def prime_sum_sod(path):
    # By design the fn=sod clauses fail (s(n) = n mod (q-1)); values only.
    return [], {"normalized": _normalized(path)}


def negabinary_bbox(path):
    lo, hi = _json(path)["bbox"][0]
    cell = (hi - lo) / 1024
    return (_clause(abs(lo + 2.0 / 3.0) <= cell, "low edge %.6f not within a cell of -2/3" % lo)
            + _clause(abs(hi - 1.0 / 3.0) <= cell, "high edge %.6f not within a cell of 1/3" % hi),
            {"bbox": [lo, hi]})


def dragon_area(path):
    # By design the area clause (1.00 +/- 0.03) fails at depth 18; value only.
    payload = _json(path)
    return [], {"area": payload["area"], "cover_fraction": payload["cover_fraction"]}


def boundary_dimension(path):
    dim = _json(path)["boxdim"]["dimension"]
    return _clause(1.46 <= dim <= 1.58, "boundary dimension %.6f outside [1.46, 1.58]" % dim), {
        "dimension": dim}


def _systems(*specs):
    return tuple((spec[1], spec[3]) for spec in specs)


LAMBDAS_1_20 = ",".join(str(v) for v in range(1, 21))
GOLDEN = "0.6180339887"

GROUPS = {g.name: g for g in (
    Group(
        "carry-census",
        (
            Invocation("c1_knuth", 1, ("carry", *KNUTH), eta2_is(0.238186)),
            Invocation("c1_five_a", 1, ("carry", *FIVE_A), eta2_is(0.195636)),
            Invocation("c1_five_b", 1, ("carry", *FIVE_B), eta2_is(0.053205)),
            # The published census runs --rho 2..8 (about 43 s at two threads);
            # rho=5 (about 5 s at one thread) keeps bulk.strip_residuals the
            # dominant layer of the census and leaves room for two reps a run.
            Invocation("c2_census", 2, ("census", *KNUTH, "--mu", "14", "--nu", "12",
                                        "--rho", "5", "--format", "csv"), census_counts),
            Invocation("c3_knuth", 3, ("check-fns", *KNUTH), fns_verdict(True)),
            Invocation("c3_one_plus_i", 3, ("check-fns", *ONE_PLUS_I), fns_verdict(False)),
            Invocation("c3_negabinary", 3, ("check-fns", *NEGABINARY), fns_verdict(True)),
            Invocation("c3_five_a", 3, ("check-fns", *FIVE_A), fns_verdict(True)),
            Invocation("c4_box_knuth", 4, ("expand", *KNUTH, "--box", "5"), box_roundtrip),
            Invocation("c4_box_five_a", 4, ("expand", *FIVE_A, "--box", "5"), box_roundtrip),
            Invocation("c4_box_five_b", 4, ("expand", *FIVE_B, "--box", "5"), box_roundtrip),
            Invocation("c4_count_knuth", 4, ("expand", *KNUTH, "--enumerate", "12"),
                       enumeration_count(2 ** 12)),
            Invocation("c4_count_five_a", 4, ("expand", *FIVE_A, "--enumerate", "8"),
                       enumeration_count(5 ** 8)),
            Invocation("c4_count_five_b", 4, ("expand", *FIVE_B, "--enumerate", "8"),
                       enumeration_count(5 ** 8)),
            Invocation("c9_family", 9, ("cns-carry", "--m", "10,100,1000,10000"), cns_family),
            Invocation("c9_subset", 9, ("cns-carry", "--m", "5,10,20", "--subset-graph"),
                       cns_subset),
        ),
        _systems(KNUTH, FIVE_A, FIVE_B, ONE_PLUS_I, NEGABINARY),
        ("bulk.strip_residuals",),
    ),
    Group(
        "fourier",
        (
            # The published run samples 1000 t (about 27 s); 125 (about 5 s at
            # one thread) keeps all 18 rows and the 32-row blocks that set the
            # peak RSS.
            Invocation("c8_fourier", 8, ("fourier-decay", *KNUTH, "--fn", "rs", "--alpha", "0.5",
                                         "--lam-max", "18", "--t-samples", "125"),
                       fourier_bounds, seeded=True),
        ),
        _systems(KNUTH),
        ("analysis.fourier_decay",),
    ),
    Group(
        "prime-sums",
        (
            Invocation("c6_identity", 6, ("weyl", *NEGABINARY, "--fn", "sod",
                                          "--identity-alphas", "20", "--lambda", LAMBDAS_1_20),
                       identity_error, seeded=True),
            Invocation("c7_sod", 7, ("weyl", *KNUTH, "--fn", "sod", "--alpha", GOLDEN,
                                     "--lambda", "14,22", "--filter", "primes",
                                     "--format", "csv"), prime_sum_sod),
            Invocation("c7_rs", 7, ("weyl", *KNUTH, "--fn", "rs", "--alpha", GOLDEN,
                                    "--lambda", "14,22", "--filter", "primes",
                                    "--format", "csv"), prime_sum_rs),
        ),
        _systems(NEGABINARY, KNUTH),
        ("bulk.digit_table", "analysis.prime_mask", "analysis.weyl_sum"),
    ),
    Group(
        "tile",
        (
            Invocation("c5_negabinary", 5, ("tile", *NEGABINARY, "--depth", "18",
                                            "--resolution", "1024"),
                       negabinary_bbox, seeded=True),
            Invocation("c5_dragon", 5, ("tile", *KNUTH, "--depth", "18", "--resolution", "1024"),
                       dragon_area, seeded=True),
            # Depth 25 stays: at depths 23 and 24 the fitted dimension is
            # 1.592 and 1.586, outside the acceptance band.
            Invocation("c5_boxdim", 5, ("tile", *KNUTH, "--depth", "25", "--resolution", "1024",
                                        "--boxdim", "256,512,1024"),
                       boundary_dimension, seeded=True, env={"RADIXION_CAP": "34000000"}),
        ),
        _systems(NEGABINARY, KNUTH),
        ("tile.rasterize", "tile.tile_points"),
    ),
)}

WORKLOADS = {w.name: w for w in (
    Workload("compute", tuple(GROUPS[g] for g in ("carry-census", "fourier", "prime-sums"))),
    Workload("tile", (GROUPS["tile"],)),
)}
