"""Command-line surface: reproducible experiments over number systems.

Every invocation writes one artifact (JSON, CSV, PGM, or DOT) to stdout
or --out, plus a run manifest (sidecar file with --out, single stderr
line otherwise).  All floating output is fixed at 12 decimals and all
key orders are fixed, so identical invocations with identical seeds are
byte-identical.  A warning raised while a subcommand runs is printed to
stderr as one line, "warning: <message>", before the manifest or error.

Exit codes: 0 success, 1 domain error, 2 usage error, 3 resource cap.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import sys
import time
import warnings
from typing import TYPE_CHECKING, NamedTuple

from . import __version__, algebra, numeration
from .algebra import SPACE_TAGS, MinimalPolynomial
from .caps import ENUM_CAP, FNS_BOX_CAP, check_power, check_samples, effective_cap
from .errors import CapExceeded, CycleDetected, RadixionError, UsageError
from .numeration import NumberSystem

try:  # the interpreter's own sha256, which loads no OpenSSL as hashlib does
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256

from _json import encode_basestring_ascii as _quote  # json.dumps of a str, without json

if TYPE_CHECKING:
    from . import carry, tile

# ------------------------------------------------------- deterministic text


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return "%.12f" % x


def _plain(obj):
    """numpy scalars and arrays as Python values, without importing numpy."""
    np = sys.modules.get("numpy")
    return obj.tolist() if np and isinstance(obj, (np.generic, np.ndarray)) else obj


def _write_json(obj, parts, indent, level):
    obj = _plain(obj)
    if obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, int):
        parts.append(str(int(obj)))
    elif isinstance(obj, float):
        x = float(obj)
        parts.append(_fmt_float(x) if math.isfinite(x) else _quote(_fmt_float(x)))
    elif isinstance(obj, str):
        parts.append(_quote(obj))
    elif isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        parts.append("{")
        for j, (k, v) in enumerate(obj.items()):
            if j:
                parts.append(",")
            if indent:
                parts.append("\n" + " " * (indent * (level + 1)))
            parts.append(_quote(str(k)))
            parts.append(": " if indent else ":")
            _write_json(v, parts, indent, level + 1)
        if indent:
            parts.append("\n" + " " * (indent * level))
        parts.append("}")
    elif isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            parts.append("[]")
            return
        parts.append("[")
        for j, v in enumerate(seq):
            if j:
                parts.append(",")
            if indent:
                parts.append("\n" + " " * (indent * (level + 1)))
            _write_json(v, parts, indent, level + 1)
        if indent:
            parts.append("\n" + " " * (indent * level))
        parts.append("]")
    else:
        raise TypeError("cannot serialize %r" % (obj,))


def _json_text(obj, indent=2) -> str:
    parts = []
    _write_json(obj, parts, indent, 0)
    return "".join(parts)


def _cell(v) -> str:
    v = _plain(v)
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, int):
        return str(int(v))
    if isinstance(v, float):
        return _fmt_float(float(v))
    return str(v)


def _csv_bytes(csv_spec) -> bytes:
    """Header line, then each block as yielded (at most bulk.ROW_BLOCK rows):
    row tuples cell by cell, an array by one %-format (-0.0 written as 0.0)."""
    header, blocks = csv_spec
    parts = [(",".join(header) + "\n").encode("ascii")] if header else []
    for block in blocks:
        if hasattr(block, "dtype"):  # a numpy array
            line = ",".join(["%.12f" if block.dtype.kind == "f" else "%d"] * block.shape[1])
            text = ((line + "\n") * len(block)) % tuple((block + 0).ravel().tolist())
        else:
            text = "".join(",".join(_cell(v) for v in row) + "\n" for row in block)
        parts.append(text.encode("ascii"))
    return b"".join(parts) or b"\n"


def _pgm_bytes(raster: tile.Raster, system: str) -> bytes:
    import numpy as np
    occ = raster.occupancy
    bbox_txt = " ".join(_fmt_float(v) for pair in raster.bbox for v in pair)
    grid = occ[None, :] if occ.ndim == 1 else occ.T[::-1]  # rows top-to-bottom
    img = np.where(grid, 0, 255).astype(np.uint8)
    header = "P5\n# bbox %s\n# system %s\n%d %d\n255\n" % (bbox_txt, system, *img.shape[::-1])
    return header.encode("ascii") + img.tobytes()


def _dot_automaton(ns: NumberSystem, aut: carry.CarryAutomaton) -> str:
    lines = ["digraph carry {", "  rankdir=LR;"]
    states = aut.carry_set.states
    for i, s in enumerate(states):
        shape = " shape=doublecircle" if i == 0 else ""
        lines.append('  %d [label="%s"%s];' % (i, algebra.format_element(s), shape))
    for i in range(len(states)):
        for t, succ in enumerate(aut.next[i]):
            lines.append(
                '  %d -> %d [label="%s"];'
                % (i, succ, algebra.format_element(ns.digits[t]))
            )
    lines.append("}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------- artifacts


class _Artifact(NamedTuple):
    payload: dict | None
    exit_code: int = 0
    note: str | None = None  # human line for nonzero exits
    csv: tuple | None = None  # (header tuple or None, blocks: row lists or arrays)
    raster: tile.Raster | None = None
    dot: str | None = None


def _render(fmt: str, art: _Artifact) -> bytes:
    """The artifact in one of the formats its subcommand declares."""
    if fmt == "json":
        return (_json_text(art.payload) + "\n").encode("ascii")
    if fmt == "csv":
        return _csv_bytes(art.csv)
    if fmt == "pgm":
        return _pgm_bytes(art.raster, art.payload["system"])
    return art.dot.encode("ascii")


# ----------------------------------------------------------------- parsing


def _number_system(args) -> NumberSystem:
    return NumberSystem.parse(args.poly, args.digits)


def _parse_int_list(text: str) -> list:
    try:
        return [int(tok) for tok in str(text).split(",")]
    except ValueError:
        raise UsageError("expected comma-separated integers, got %r" % text) from None


def _nonnegative_int(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError("expected a nonnegative integer, got %r" % text)
    return int(text)


def _parse_slice(text: str):
    toks = str(text).split(",")
    if len(toks) != 2:
        raise UsageError("--slice takes 'nu,mu' (mu may be 'inf')")
    try:
        nu = int(toks[0])
        mu = math.inf if toks[1].strip() == "inf" else int(toks[1])
    except ValueError:
        raise UsageError("--slice takes integers 'nu,mu', got %r" % text) from None
    if nu < 0 or mu < nu:
        raise UsageError("digit window needs 0 <= nu <= mu")
    return nu, mu


def _parse_phase(args):
    """Exactly one of --alpha (scalar) / --form (trace linear form)."""
    if (args.alpha is None) == (args.form is None):
        raise UsageError("pass exactly one of --alpha or --form")
    if args.alpha is not None:
        return float(args.alpha)
    from .analysis import LinearForm
    return LinearForm.parse(args.form)


# the --fn values of weyl and fourier-decay, Thue-Morse on the digit sum and
# Rudin-Shapiro on the adjacent nonzero digits: the digit statistic each
# twists by, and the analysis function of the one constant it fills in a
# fourier-decay report (of the system and the phase)
_FNS = {"sod": (numeration.digit_sum, "digit_norm_sum"),
        "rs": (numeration.pair_count, "rs_bound_slope")}


# ------------------------------------------------------------- subcommands


def _cmd_expand(args) -> _Artifact:
    ns = _number_system(args)
    if args.slice is not None and args.element is None:
        raise UsageError("--slice needs --element")
    # every flag is checked before an element is expanded: a cycle exits 1
    window = None if args.slice is None else _parse_slice(args.slice)
    # N_lambda is a complete residue system mod q^lambda: Q^lambda distinct elements
    count = None if args.enumerate is None else check_power(
        ns.Q, args.enumerate, "table of %s elements", effective_cap(ENUM_CAP))
    if args.box is not None:
        elements = (2 * args.box + 1) ** ns.degree
        if elements > effective_cap(FNS_BOX_CAP):
            raise CapExceeded("box of %d elements exceeds cap %d"
                              % (elements, effective_cap(FNS_BOX_CAP)))
    payload = {"system": ns.encode()}
    acted = False
    if args.element is not None:
        acted = True
        x = algebra.parse_element(args.element, ns.degree)
        payload["element"] = list(x)
        try:
            exp = numeration.expand(ns, x)
        except CycleDetected as exc:
            payload["error"] = "no finite expansion"
            payload["cycle"] = [list(s) for s in exc.cycle]
            return _Artifact(payload, exit_code=1, note="no finite expansion; cycle witness emitted")
        digits = exp.digit_indices
        payload["digits"] = list(digits)
        payload["sum_of_digits"] = list(numeration.digit_sum(ns).read(digits)[1])
        if ns.Q == 2:
            payload["adjacent_pairs"] = numeration.pair_count(ns).read(digits)[1][0]
        if window is not None:
            # digits past the expansion are the zero digit, so the window is cut to it
            nu, mu = window
            val = numeration.evaluate(ns, numeration.Expansion(
                digits[nu:] if mu == math.inf else digits[nu:mu]))
            payload["slice"] = {
                "nu": nu,
                "mu": "inf" if mu == math.inf else mu,
                "value": list(val),
            }
    if args.box is not None:
        acted = True
        expanded = 0
        cycles = 0
        bad = 0
        for x in itertools.product(range(-args.box, args.box + 1), repeat=ns.degree):
            try:
                exp = numeration.expand(ns, x)
            except CycleDetected:
                cycles += 1  # no finite expansion; nothing to round-trip
                continue
            expanded += 1
            if numeration.evaluate(ns, exp) != x:
                bad += 1
        payload["box"] = {
            "radius": args.box,
            "elements": elements,
            "expanded": expanded,
            "cycles": cycles,
            "roundtrip_failures": bad,
        }
    if count is not None:
        acted = True
        payload["enumeration"] = {"lambda": args.enumerate, "count": count, "distinct": count}
    if not acted:
        raise UsageError("expand needs --element, --box, or --enumerate")
    return _Artifact(payload)


def _cmd_check_fns(args) -> _Artifact:
    ns = _number_system(args)
    verdict = numeration.is_fns(ns)
    cycle = verdict.witness_cycle
    payload = {
        "system": ns.encode(),
        "is_fns": verdict.is_fns,
        "witness_cycle": None if cycle is None else [list(s) for s in cycle],
        "candidates_examined": verdict.candidates_examined,
    }
    return _Artifact(payload)


def _cmd_carry(args) -> _Artifact:
    from . import carry
    ns = _number_system(args)
    if args.format == "dot":
        aut = carry.build_automaton(ns)
        return _Artifact(None, dot=_dot_automaton(ns, aut))
    report = carry.carry_constant(ns)
    payload = {
        "states": report.automaton_size,
        "spectral_radius": report.spectral_radius,
        "eta2": report.eta2,
        "iterations": report.iterations,
    }
    return _Artifact(payload)


def _cmd_census(args) -> _Artifact:
    from . import carry
    ns = _number_system(args)
    rows = []
    for rho in _parse_int_list(args.rho):
        count = carry.carry_census(ns, args.mu, args.nu, rho)
        rows.append({"rho": rho, "count": int(count)})
    payload = {"system": ns.encode(), "mu": args.mu, "nu": args.nu, "rows": rows}
    csv = (("rho", "count"), [[(r["rho"], r["count"]) for r in rows]])
    return _Artifact(payload, csv=csv)


def _cmd_cns_carry(args) -> _Artifact:
    from . import carry
    if (args.m is None) == (args.poly is None):
        raise UsageError("cns-carry takes exactly one of --m or --poly")
    if args.m is not None:
        members = [(mv, carry.gaussian_family(mv)) for mv in _parse_int_list(args.m)]
    else:
        members = [(None, MinimalPolynomial.parse(args.poly))]
    rows = []
    for mv, poly in members:
        collapsed = carry.cns_collapsed(poly)
        row = {
            "m": mv,
            "poly": str(poly),
            "alphas": list(collapsed.alphas),
            "betas": list(collapsed.betas),
            "lambda": collapsed.lam,
            "eta_bound": collapsed.eta_bound,
        }
        if args.subset_graph:
            graph = carry.cns_subset_graph(poly)
            row["subset_states"] = len(graph.states)
            row["subset_dominant"] = graph.dominant_eigenvalue()
        rows.append(row)
    return _Artifact({"rows": rows})


def _cmd_tile(args) -> _Artifact:
    from . import tile
    if args.cover_samples < 1:
        raise UsageError("--cover-samples takes a positive count")
    ns = _number_system(args)
    # every usage and sample check comes before the streamed pass
    if args.format == "pgm" and ns.degree > 2:
        raise UsageError("PGM output needs a 1- or 2-dimensional raster")
    check_samples(args.cover_samples, ns.degree, "cover samples")
    boxdim = [] if args.boxdim is None else _parse_int_list(args.boxdim)
    if boxdim:
        tile.check_boxdim(boxdim)
    # the box dimension is always fitted in coordinate space
    rasters = tile.tile_rasters(
        ns, args.depth, [(args.space, args.resolution)] + [("coordinate", r) for r in boxdim]
    )
    raster = rasters[args.space, args.resolution]
    area = tile.measure_area(ns, raster)
    payload = {
        "system": ns.encode(),
        "depth": args.depth,
        "space": args.space,
        "resolution": args.resolution,
        "bbox": [[lo, hi] for lo, hi in raster.bbox],
        "occupied_cells": int(raster.occupancy.sum()),
        "area": area.area,
        "area_method": area.method,
        "cover_fraction": tile.cover_fraction(
            raster, samples=args.cover_samples, seed=args.seed
        ),
        "boundary_cells": tile.boundary_cell_count(raster),
    }
    if args.space == "coordinate" and args.resolution >= 256:
        radii = tile.tile_radii(ns, raster)
        payload["r_plus"] = radii.r_plus_bound
        payload["r_minus"] = radii.r_minus_estimate
        payload["per_embedding_radii"] = list(radii.per_embedding)
    if args.boxdim is not None:
        report = tile.boundary_boxdim([rasters["coordinate", r] for r in boxdim])
        payload["boxdim"] = {
            "dimension": report.dimension,
            "residual": report.residual,
            "resolutions": list(report.resolutions),
            "counts": [int(c) for c in report.counts],
        }
    csv = (None, tile.cloud_chunks(ns, args.depth, args.space))
    return _Artifact(payload, csv=csv, raster=raster)


def _cmd_weyl(args) -> _Artifact:
    from . import analysis
    ns = _number_system(args)
    lams = _parse_int_list(args.lam)
    if args.identity_alphas is not None:
        if args.format != "json":
            raise UsageError("the identity check has no CSV form")
        if args.fn != "sod":
            raise UsageError("the factorization identity applies to fn=sod only")
        if args.alpha is not None or args.form is not None:
            raise UsageError("--identity-alphas draws its own coefficients")
        if args.filter != "all":
            raise UsageError("the factorization identity sums over all of N_lambda")
        if args.identity_alphas < 1:
            raise UsageError("--identity-alphas takes a positive count")
        if min(lams) < 0:
            raise UsageError("expansion length must be nonnegative")
        if max(lams) < 1:
            raise UsageError("the identity check needs a lambda of at least 1")
        check_samples(args.identity_alphas, 1, "identity alphas")
        alphas = [m / 2**algebra.SAMPLE_BITS
                  for m in algebra.dyadic_samples(args.seed, args.identity_alphas)]
        worst = 0.0
        worst_scaled = 0.0
        rows = analysis.weyl_sum(ns, numeration.digit_sum(ns), alphas, args.h,
                                 list(range(1, max(lams) + 1)))
        for a, row in zip(itertools.cycle(alphas), rows):
            ref = analysis.sod_factorization_reference(ns, a, args.h, row.lam)
            err = abs(complex(row.re_sum, row.im_sum) - ref)
            worst = max(worst, err)
            worst_scaled = max(worst_scaled, err / float(ns.Q) ** row.lam)
        payload = {
            "system": ns.encode(),
            "identity": {
                "alphas": args.identity_alphas,
                "lam_max": max(lams),
                "h": args.h,
                "max_abs_error": worst,
                "max_scaled_error": worst_scaled,
            },
        }
        return _Artifact(payload)
    phase = _parse_phase(args)
    payload = {"system": ns.encode(), "fn": args.fn}
    if isinstance(phase, analysis.LinearForm):
        payload["form"] = {
            "values": [float(v) for v in phase.values],
            "rational_tags": [r is not None for r in phase.rationals],
        }
        payload["equidist_condition"] = analysis.equidist_condition(ns, phase)
    else:
        payload["alpha"] = phase
    payload["h"] = args.h
    payload["filter"] = args.filter
    statistic = _FNS[args.fn][0](ns)
    rows = analysis.weyl_sum(ns, statistic, [phase], args.h, lams, args.filter)
    header = ("lambda", "h", "filter", "count", "re_sum", "im_sum", "normalized")  # WeylRow's
    payload["rows"] = [dict(zip(header, r)) for r in rows]
    return _Artifact(payload, csv=(header, [rows]))


def _cmd_fourier_decay(args) -> _Artifact:
    from . import analysis
    ns = _number_system(args)
    phase = _parse_phase(args)
    statistic, constant = _FNS[args.fn]
    report = analysis.fourier_decay(ns, statistic(ns), phase, args.lam_max, args.t_samples,
                                    args.seed)._asdict()
    rows = report.pop("rows")
    header = ("lambda", "samples", "max_logq", "gamma_emp")  # FourierDecayRow's
    payload = {"system": ns.encode(), "fn": args.fn, **report, "digit_norm_sum": None,
               "rs_bound_slope": None, "rows": [dict(zip(header, r)) for r in rows]}
    payload[constant] = getattr(analysis, constant)(ns, phase)
    return _Artifact(payload, csv=(header, [rows]))


def _cmd_primes(args) -> _Artifact:
    from . import bulk
    ns = _number_system(args)
    blocks = bulk.prime_rows(ns, args.lam)
    payload = {"system": ns.encode(), "lambda": args.lam, "count": sum(map(len, blocks))}
    return _Artifact(payload, csv=(None, blocks))


def _cmd_distortion(args) -> _Artifact:
    poly = MinimalPolynomial.parse(args.poly)
    report = algebra.distortion(poly)
    payload = {
        "poly": str(poly),
        "theta_max": report.theta_max,
        "theta_min": report.theta_min,
        "embedding_moduli": [float(v) for v in poly.embeddings().moduli],
    }
    return _Artifact(payload)


# ------------------------------------------------------------ parser setup


def _add_system_flags(p, required=True):
    p.add_argument("--poly", required=required, help="base polynomial c0,c1,...,cd")
    p.add_argument("--digits", required=required, help="digit set b;b;... (each b is d coordinates)")


def _conf_expand(p):
    _add_system_flags(p)
    p.add_argument("--element", help="element to expand, d comma-separated coordinates")
    p.add_argument("--slice", help="nu,mu digit window of --element (mu may be 'inf')")
    p.add_argument("--box", type=_nonnegative_int, help="round-trip every element with coordinates in [-B,B]")
    p.add_argument("--enumerate", type=int, help="count the elements of N_lambda, all distinct: Q^lambda")


def _conf_check_fns(p):
    _add_system_flags(p)


def _conf_carry(p):
    _add_system_flags(p)


def _conf_census(p):
    _add_system_flags(p)
    p.add_argument("--mu", type=int, required=True, help="digit window length")
    p.add_argument("--nu", type=int, required=True, help="positions checked for change")
    p.add_argument("--rho", required=True, help="comma-separated perturbation depths")


def _conf_cns_carry(p):
    p.add_argument("--m", help="comma-separated members m of the Gaussian CNS family")
    p.add_argument("--poly", help="explicit CNS base polynomial c0,c1,...,cd")
    p.add_argument("--subset-graph", action="store_true",
                   help="also build the subset transducer and its dominant eigenvalue")


def _conf_tile(p):
    _add_system_flags(p)
    p.add_argument("--depth", type=int, required=True, help="IFS iteration depth")
    p.add_argument("--resolution", type=int, default=512, help="raster cells per axis")
    p.add_argument("--space", choices=SPACE_TAGS, default="coordinate")
    p.add_argument("--boxdim", help="comma-separated resolutions for the boundary box-dimension fit")
    p.add_argument("--cover-samples", type=int, default=10**4,
                   help="random points for the translation-cover estimate")


def _conf_weyl(p):
    _add_system_flags(p)
    p.add_argument("--fn", choices=tuple(_FNS), required=True)
    p.add_argument("--alpha", type=float, help="scalar coefficient")
    p.add_argument("--form", help="linear form t0,...,t{d-1}; p/q and integers are rational-tagged")
    p.add_argument("--h", type=int, default=1, help="integer harmonic")
    p.add_argument("--lambda", dest="lam", required=True, help="comma-separated digit lengths")
    p.add_argument("--filter", choices=("all", "primes"), default="all")
    p.add_argument("--identity-alphas", type=int,
                   help="check S_all against the digit-factorization identity for N seeded alphas")


def _conf_fourier_decay(p):
    _add_system_flags(p)
    p.add_argument("--fn", choices=tuple(_FNS), required=True)
    p.add_argument("--alpha", type=float, help="scalar coefficient")
    p.add_argument("--form", help="linear form t0,...,t{d-1}")
    p.add_argument("--lam-max", type=int, required=True, help="largest digit length")
    p.add_argument("--t-samples", type=int, default=1000, help="random t per digit length")


def _conf_primes(p):
    _add_system_flags(p)
    p.add_argument("--lambda", dest="lam", type=int, required=True)


def _conf_distortion(p):
    p.add_argument("--poly", required=True, help="base polynomial c0,c1,...,cd")


# name, help, formats (the first is the default), flags, handler
_SUBCOMMANDS = (
    ("expand", "digit expansions, round trips, and N_lambda counts", ("json",), _conf_expand, _cmd_expand),
    ("check-fns", "decide the finiteness property", ("json",), _conf_check_fns, _cmd_check_fns),
    ("carry", "carry automaton and carry constant eta2", ("json", "dot"), _conf_carry, _cmd_carry),
    ("census", "count of carry-affected digit windows (automaton DP)", ("json", "csv"), _conf_census, _cmd_census),
    ("cns-carry", "collapsed/subset carry bounds for CNS polynomials", ("json",), _conf_cns_carry, _cmd_cns_carry),
    ("tile", "fundamental tile geometry: raster, area, radii, box dimension", ("json", "csv", "pgm"), _conf_tile, _cmd_tile),
    ("weyl", "exponential sums of digit functions over N_lambda", ("json", "csv"), _conf_weyl, _cmd_weyl),
    ("fourier-decay", "empirical sup_t decay of twisted tile sums", ("json", "csv"), _conf_fourier_decay, _cmd_fourier_decay),
    ("primes", "count prime elements of N_lambda", ("json", "csv"), _conf_primes, _cmd_primes),
    ("distortion", "embedding moduli and distortion exponents", ("json",), _conf_distortion, _cmd_distortion),
)


def _build_parser(name=None):
    """The parser, and the subparser of each subcommand it configures: only
    `name`'s when that names a subcommand, else all of them, so that the
    top-level help and usage errors list every one."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                        help="accepted; every computation runs on one thread, so results"
                             " never depend on it")
    parent.add_argument("--seed", type=_nonnegative_int, default=0, help="seed for all randomness")
    parent.add_argument("--out", help="artifact path (default stdout)")
    parent.add_argument("--config", help="JSON file of flag values; command-line flags win")
    parser = argparse.ArgumentParser(prog="radixion", allow_abbrev=False,
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar="command")
    specs = {}
    chosen = [spec for spec in _SUBCOMMANDS if spec[0] == name] or _SUBCOMMANDS
    for command, help_text, formats, configure, handler in chosen:
        p = sub.add_parser(command, help=help_text, parents=[parent], allow_abbrev=False)
        p.add_argument("--format", choices=formats, default=formats[0])
        configure(p)
        p.set_defaults(handler=handler, subcommand=command)
        specs[command] = p
    return parser, specs


def _merge_config(argv, specs):
    """Fill flags from --config JSON; explicit command-line flags win."""
    path = None
    for i, tok in enumerate(argv):
        if tok == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
        elif tok.startswith("--config="):
            path = tok.split("=", 1)[1]
    if path is None or not argv or argv[0] not in specs:
        return argv
    spec = specs[argv[0]]
    import json
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:
        raise UsageError("cannot read config %s: %s" % (path, exc)) from None
    if not isinstance(cfg, dict):
        raise UsageError("config must be a JSON object of flag values")
    extra = []
    for key, value in cfg.items():
        flag = "--" + str(key).replace("_", "-")
        if flag not in spec._option_string_actions:
            raise UsageError("unknown config key %r for %s" % (key, argv[0]))
        if any(tok == flag or tok.startswith(flag + "=") for tok in argv):
            continue
        if isinstance(value, bool):
            if value:
                extra.append(flag)
        elif isinstance(value, list):
            extra.extend([flag, ",".join(str(v) for v in value)])
        else:
            extra.extend([flag, str(value)])
    return list(argv) + extra


def _join_flag_values(argv, specs):
    """Rewrite "--flag value" as "--flag=value" so values may start with '-'."""
    if not argv or argv[0] not in specs:
        return argv
    actions = specs[argv[0]]._option_string_actions
    out = [argv[0]]
    i = 1
    while i < len(argv):
        tok = argv[i]
        action = actions.get(tok)
        if action is not None and action.nargs is None and i + 1 < len(argv):
            out.append(tok + "=" + argv[i + 1])
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def _manifest(args, elapsed: float, digest: str) -> dict:
    flags = {}
    for key in sorted(vars(args)):
        if key in ("handler", "subcommand", "config"):
            continue
        value = getattr(args, key)
        if value is None:
            continue
        flags[key] = value
    return {
        "tool": "radixion",
        "version": __version__,
        "subcommand": args.subcommand,
        "flags": flags,
        "seed": args.seed,
        "wall_time_s": elapsed,
        "result_digest": "sha256:" + digest,
    }


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    start = time.monotonic()
    try:
        parser, specs = _build_parser(argv[0] if argv else None)
        argv = _join_flag_values(_merge_config(argv, specs), specs)
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
        if args.out and not os.path.isdir(os.path.dirname(os.path.abspath(args.out))):
            raise UsageError("no directory to write %s into" % args.out)
        if args.out and os.path.isdir(args.out):
            raise UsageError("--out %s is a directory" % args.out)
        if args.threads < 1:
            raise UsageError("--threads must be at least 1, got %d" % args.threads)
        with warnings.catch_warnings(record=True) as caught:
            try:
                artifact = args.handler(args)
            finally:  # one line per warning, without the source location
                for warning in caught:
                    print("warning: %s" % warning.message, file=sys.stderr)
        data = _render(args.format, artifact)
    except RadixionError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return exc.exit_code
    digest = sha256(data).hexdigest()
    manifest = _manifest(args, time.monotonic() - start, digest)
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(data)
        with open(args.out + ".manifest.json", "w", encoding="utf-8") as fh:
            fh.write(_json_text(manifest) + "\n")
    else:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
        print("manifest: %s" % _json_text(manifest, indent=0), file=sys.stderr)
    if artifact.exit_code:
        print("error: %s" % (artifact.note or "domain error"), file=sys.stderr)
    return artifact.exit_code


if __name__ == "__main__":
    sys.exit(main())
