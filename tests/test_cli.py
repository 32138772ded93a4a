"""Command-line surface: exit codes, artifact formats, config, manifests."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import radixion
from radixion import analysis, cli, numeration, tile

KNUTH = ("--poly", "2,2,1", "--digits", "0,0;1,0")
NEGABINARY = ("--poly", "2,1", "--digits", "0;1")
ONE_PLUS_I = ("--poly", "2,-2,1", "--digits", "0,0;1,0")
FIVE_A = ("--poly", "5,4,1", "--digits", "0,0;1,0;2,0;3,0;4,0")


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
    for bad in (("--slice", "a,b"), ("--slice", "3,1"), ("--box", "-1")):
        assert run(capsysbinary, "expand", *ONE_PLUS_I, "--element=-1,1", *bad)[0] == 2
    assert run(capsysbinary, "tile", *KNUTH, "--depth", "10", "--resolution", "64",
               "--boxdim", "32,32,64")[0] == 2  # two distinct resolutions
    assert run(capsysbinary, "weyl", *NEGABINARY, "--fn", "sod", "--identity-alphas", "2",
               "--lambda", "3", "--filter", "primes")[0] == 2  # the identity sums all of N_lambda
    for count in ("-1", "0"):  # 0: an identity checked at no alpha, a cover of no samples
        assert run(capsysbinary, "weyl", *NEGABINARY, "--fn", "sod", "--identity-alphas", count,
                   "--lambda", "3")[0] == 2
        assert run(capsysbinary, "tile", *KNUTH, "--depth", "4", "--cover-samples", count)[0] == 2


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


def test_caps_exit_three(capsysbinary, monkeypatch):
    assert run(capsysbinary, "expand", *KNUTH, "--enumerate", "30")[0] == 3
    code, _, err = run(capsysbinary, "fourier-decay", *KNUTH, "--fn", "rs", "--alpha",
                       "0.5", "--lam-max", "120", "--t-samples", "4")
    assert code == 3 and b"lam_max 120" in err
    monkeypatch.setenv("RADIXION_CAP", "10")
    assert run(capsysbinary, "expand", *KNUTH, "--enumerate", "5")[0] == 3


def test_box_cap_exits_three_before_expanding(capsysbinary, monkeypatch):
    def no_expansion(*args):
        raise AssertionError("an element was expanded")

    monkeypatch.setattr(numeration, "expand", no_expansion)
    code, _, err = run(capsysbinary, "expand", *KNUTH, "--box", "2000")
    assert code == 3
    assert b"box of 16008001 elements exceeds cap" in err


def test_prime_sieve_cap_exits_three(capsysbinary):
    # digits near 1000: norms on N_14 reach about 2e10, a sieve past the
    # 2^24 * 16 bytes the default cap allows
    code, _, err = run(capsysbinary, "primes", "--poly", "2,2,1", "--digits", "0,0;1001,0",
                       "--lambda", "14")
    assert code == 3
    assert b"prime sieve of" in err and b"bytes for lambda 14" in err


def test_tile_cap_exits_three_before_streaming(capsysbinary, monkeypatch):
    def no_chunks(*args):
        raise AssertionError("a chunk was generated")

    monkeypatch.setattr(tile, "cloud_chunks", no_chunks)
    monkeypatch.setenv("RADIXION_CAP", "1000")  # the cap stays in points
    code, _, err = run(capsysbinary, "tile", *KNUTH, "--depth", "10")
    assert code == 3
    assert b"cloud of 1024 points exceeds cap 1000" in err


def test_capped_fns_decision_keeps_tile_exit_zero(capsysbinary, monkeypatch):
    monkeypatch.setenv("RADIXION_CAP", "8")  # 8 points; Knuth's carry closure holds 15 states
    code, payload, _ = run_json(
        capsysbinary, "tile", *KNUTH, "--depth", "3", "--resolution", "64"
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
    assert abs(payload["eta2"] - 0.238186456672) < 1e-12
    assert b"0.238186456672" in out


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
    header, pixels = out.split(b"255\n", 1)
    lines = header.decode().splitlines()
    assert lines[0] == "P5"
    assert lines[1].startswith("# bbox ")
    assert lines[2] == "# system 2,1|0;1"
    assert lines[3] == "64 1"
    assert pixels == b"\x00" * 64  # all cells occupied at this depth


# sha256 of the whole `tile --depth 6 --format csv` artifact, one row per
# point in first-digit-major order, as the one-array route wrote it
TILE_CSV_SHA256 = {
    KNUTH: "cc4c7646fadf8e6def559ce77cf7546ad23e6b5ac44c12ca54ebc97a89d659d9",
    FIVE_A: "339a3b2891123860ca02b36db4916c02b00e0d675e8608cfb2d1b1ed4652f2e4",
}


@pytest.mark.parametrize("block", [tile.RASTER_BLOCK, 100])
@pytest.mark.parametrize("system", list(TILE_CSV_SHA256))
def test_tile_csv_golden(capsysbinary, monkeypatch, system, block):
    monkeypatch.setattr(tile, "RASTER_BLOCK", block)  # 100: many streamed chunks
    code, out, _ = run(capsysbinary, "tile", *system, "--depth", "6", "--format", "csv")
    assert code == 0
    assert hashlib.sha256(out).hexdigest() == TILE_CSV_SHA256[system]


def test_primes_csv_rows(capsysbinary):
    code, out, _ = run(capsysbinary, "primes", *KNUTH, "--lambda", "3", "--format", "csv")
    assert code == 0
    rows = out.decode().splitlines()
    assert rows == ["0,1", "-1,-2", "-2,-1"]


def test_csv_blocks_render_like_cells(monkeypatch):
    floats = np.array([[-0.0, 0.0], [1e-13, -1e-13], [np.nan, np.inf],
                       [-np.inf, 123.4567890123456], [-2.5, 7.0]])
    ints = np.array([[0, -1], [2**40, -(2**40)], [7, 3]])
    rows = [("rho", 2), (0.5, -0.0)]
    for step in (cli.CSV_ROWS, 2):
        monkeypatch.setattr(cli, "CSV_ROWS", step)
        expected = "h1,h2\n" + "".join(
            ",".join(cli._cell(v) for v in row) + "\n"
            for row in [*floats.tolist(), *ints.tolist(), *rows]
        )
        got = cli._csv_bytes((("h1", "h2"), [floats, ints[:0], ints, rows]))
        assert got == expected.encode("ascii")
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
    assert manifest["granularity"] == 64
    assert "wall_time_s" in manifest
    assert manifest["flags"]["lam"] == "2,4"


def test_weyl_artifact_does_not_depend_on_granularity(capsysbinary):
    payloads = []
    for granularity in ("1", "64"):
        code, payload, _ = run_json(capsysbinary, "weyl", *KNUTH, "--fn", "sod", "--alpha",
                                    "0.6180339887", "--lambda", "4,8,11", "--filter", "primes",
                                    "--granularity", granularity)
        assert code == 0 and payload.pop("granularity") == int(granularity)
        payloads.append(payload)
    assert payloads[0] == payloads[1]


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
