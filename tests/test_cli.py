"""End-to-end CLI checks through the console entry point."""

import csv
import hashlib
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nlsobolev import cli
from nlsobolev.evaluator import FunctionalParams, lambda_pair, lambda_polar

DEMO_CONFIGS = Path(__file__).resolve().parent.parent / "demos" / "configs"


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "nlsobolev.cli", *args],
                          capture_output=True, text=True)


def write_config(tmp_path, text, name="run.conf"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


SWEEP_CONF = """
# affine closed-form configuration
kernel.shape = indicator
kernel.normalize = true
function.kind = affine
function.gradient = 1.0
function.offset = 0.0
domain.lo = 0
domain.hi = 1
p = 2.0
d = 1
delta_list = 0.4, 0.2, 0.1
grid_n = 2048
scheme = pair
"""


def test_sweep_matches_closed_form(tmp_path):
    conf = write_config(tmp_path, SWEEP_CONF)
    out = str(tmp_path / "sweep")
    res = run_cli("sweep", "--config", conf, "--out", out)
    assert res.returncode == 0, res.stderr
    with open(out + ".csv") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0].keys()) == ["delta", "value", "tail_bound", "energy", "ratio"]
    for row in rows:
        delta = float(row["delta"])
        assert float(row["ratio"]) == pytest.approx((1 - delta) ** 2, rel=1e-2)
    meta = json.loads((tmp_path / "sweep.meta.json").read_text())
    assert meta["subcommand"] == "sweep"
    assert "wall_time_s" in meta


def test_sweep_byte_identical_reruns(tmp_path):
    conf = write_config(tmp_path, SWEEP_CONF)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert run_cli("sweep", "--config", conf, "--out", out1).returncode == 0
    assert run_cli("sweep", "--config", conf, "--out", out2).returncode == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_pathology_exact_zero(tmp_path):
    conf = write_config(tmp_path, "delta = 0.25\ngrid_n = 512\n")
    out = str(tmp_path / "path")
    res = run_cli("pathology", "--config", conf, "--out", out)
    assert res.returncode == 0
    assert "value=0" in res.stdout
    with open(out + ".csv") as fh:
        row = list(csv.DictReader(fh))[0]
    assert float(row["value"]) == 0.0
    assert row["energy"] == "inf-flag"


def test_validate_kernel_band_fails(tmp_path):
    conf = write_config(tmp_path, """
kernel.shape = band
kernel.lo = 1.0
kernel.hi = 2.0
kernel.normalize = true
p = 2.0
d = 1
""")
    res = run_cli("validate-kernel", "--config", conf,
                  "--out", str(tmp_path / "v"))
    assert res.returncode == 1
    assert "monotonicity" in res.stdout


def test_validate_kernel_indicator_passes(tmp_path):
    conf = write_config(tmp_path,
                        "kernel.shape = indicator\nkernel.normalize = true\n")
    res = run_cli("validate-kernel", "--config", conf,
                  "--out", str(tmp_path / "v"))
    assert res.returncode == 0
    assert "PASS" in res.stdout


def test_validate_kernel_band_without_upper_edge_is_the_indicator(tmp_path, capsys):
    # band(1, inf) is the indicator's phi, so it passes with the indicator's report
    for name, lines in (("ind", "kernel.shape = indicator\n"),
                        ("band", "kernel.shape = band\nkernel.lo = 1\nkernel.hi = inf\n")):
        conf = write_config(tmp_path, lines + "kernel.normalize = true\np = 2\n", name + ".conf")
        assert cli.main(["validate-kernel", "--config", conf, "--out", str(tmp_path / name)]) == 0
        assert "PASS" in capsys.readouterr().out
    assert (tmp_path / "band.csv").read_bytes() == (tmp_path / "ind.csv").read_bytes()


def test_missing_config_rejected(tmp_path):
    res = run_cli("sweep", "--config", str(tmp_path / "nope.conf"),
                  "--out", str(tmp_path / "v"))
    assert res.returncode == 2


def test_resolution_violation_names_required_grid(tmp_path):
    conf = write_config(tmp_path, SWEEP_CONF.replace("grid_n = 2048", "grid_n = 64"))
    res = run_cli("sweep", "--config", conf, "--out", str(tmp_path / "v"))
    assert res.returncode == 2
    assert "grid_n >=" in res.stderr


def test_polar_on_bounded_rejected(tmp_path):
    conf = write_config(tmp_path, """
kernel.shape = indicator
kernel.normalize = true
function.kind = sine
domain.lo = 0
domain.hi = 1
delta = 0.2
grid_n = 256
scheme = polar
""")
    res = run_cli("eval", "--config", conf, "--out", str(tmp_path / "v"))
    assert res.returncode == 2
    assert "whole-space" in res.stderr


def test_eval_single_value(tmp_path):
    conf = write_config(tmp_path, """
kernel.shape = indicator
kernel.normalize = true
function.kind = affine
function.gradient = 1.0
domain.lo = 0
domain.hi = 1
delta = 0.1
grid_n = 2048
""")
    out = str(tmp_path / "e")
    res = run_cli("eval", "--config", conf, "--out", out)
    assert res.returncode == 0
    with open(out + ".csv") as fh:
        row = list(csv.DictReader(fh))[0]
    assert float(row["value"]) == pytest.approx(0.81, rel=1e-2)


def test_step_divergence_subcommand(tmp_path):
    conf = write_config(tmp_path, "p = 2.0\ndelta = 0.1\nn_list = 512, 1024, 2048\n")
    out = str(tmp_path / "g")
    res = run_cli("step-divergence", "--config", conf, "--out", out)
    assert res.returncode == 0
    assert "diverging=true" in res.stdout
    with open(out + ".csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["n"] for r in rows] == ["512", "1024", "2048"]


@pytest.mark.parametrize("epsilon, status", [("1e154", 2), ("1e150", 0)])
def test_kappa_epsilon_whose_proximity_overflows_exits_2(tmp_path, epsilon, status):
    # grid_n 64, p = 2: epsilon^2 / cell volume overflows from 1.68e153 on.
    # 1e154 used to print numpy overflow warnings and exit 0 or 2 on an
    # errno tuple, after the restarts had clipped every move to radius 0
    conf = write_config(tmp_path, KAPPA_CONF.replace("grid_n = 512", "grid_n = 64")
                        .replace("delta = 0.1", "delta = 0.2")
                        .replace("kappa.restarts = 2", "kappa.restarts = 3")
                        .replace("kappa.iterations = 300", "kappa.iterations = 50")
                        + f"kappa.epsilon = {epsilon}\n")
    res = run_cli("kappa", "--config", conf, "--out", str(tmp_path / "k"))
    assert res.returncode == status, res.stderr
    assert "Warning" not in res.stderr
    if status:
        assert res.stderr.startswith("error: value out of range: kappa.epsilon = 1e+154 ")


def test_kappa_subcommand_and_seed_reproducibility(tmp_path):
    conf = write_config(tmp_path, """
kernel.shape = indicator
kernel.normalize = true
p = 2.0
d = 1
delta = 0.1
grid_n = 1024
kappa.iterations = 200
kappa.restarts = 2
""")
    out1, out2 = str(tmp_path / "k1"), str(tmp_path / "k2")
    r1 = run_cli("kappa", "--config", conf, "--out", out1, "--seed", "42")
    r2 = run_cli("kappa", "--config", conf, "--out", out2, "--seed", "42")
    assert r1.returncode == 0 and r2.returncode == 0
    assert (tmp_path / "k1.csv").read_bytes() == (tmp_path / "k2.csv").read_bytes()
    assert "kappa_hat=" in r1.stdout
    meta = json.loads((tmp_path / "k1.meta.json").read_text())
    assert meta["kappa_hat"] <= meta["baseline"] + 1e-12
    # how the search went: moves tried and taken, and the running total's drift
    assert 0 < meta["moves_accepted"] <= meta["moves_evaluated"] <= 2 * 200 * 2
    rows = (tmp_path / "k1.csv").read_text().split()
    assert meta["running_drift"] == (abs(float(rows[-1].split(",")[1]) - meta["kappa_hat"])
                                     / meta["kappa_hat"])


def test_cross_check_subcommand(tmp_path):
    # tent function via a CSV lattice file
    m = 16
    span = 3.0
    x = np.arange(-span * m, span * m + 1) / m
    vals = np.maximum(0.0, 1.0 - np.abs(x))
    lattice = tmp_path / "tent.csv"
    np.savetxt(lattice, vals.reshape(1, -1), delimiter=",")
    conf = write_config(tmp_path, f"""
kernel.shape = indicator
kernel.normalize = true
function.kind = grid
function.grid_file = {lattice}
function.grid_format = csv
function.grid_spacing = {1 / m}
function.grid_origin = {-span}
domain.flavor = whole-space
domain.padding = 0.5
p = 2.0
delta = 0.2
grid_n = 1024
polar.h_min = 0.001
polar.h_max = 100
polar.h_steps = 1200
""")
    out = str(tmp_path / "x")
    res = run_cli("cross-check", "--config", conf, "--out", out)
    assert res.returncode == 0, res.stderr + res.stdout
    assert "PASS" in res.stdout
    with open(out + ".csv") as fh:
        rows = list(csv.DictReader(fh))
    assert float(rows[0]["rel_gap"]) < 0.05
    # meta.json: the combined certificate over the larger value, one per CSV row
    meta = json.loads((tmp_path / "x.meta.json").read_text())
    ref = max(float(rows[0]["pair_value"]), float(rows[0]["polar_value"]))
    assert meta["tail_over_value"] == [float(rows[0]["combined_tail"]) / ref]
    assert meta["threads"] == 1          # the polar scheme runs serially too


def test_grid_function_from_csv_lattice(tmp_path):
    lattice = tmp_path / "vals.csv"
    x = np.linspace(0, 1, 257)
    np.savetxt(lattice, np.sin(2 * np.pi * x).reshape(1, -1), delimiter=",")
    conf = write_config(tmp_path, f"""
kernel.shape = indicator
kernel.normalize = true
function.kind = grid
function.grid_file = {lattice}
function.grid_format = csv
function.grid_spacing = {1 / 256}
function.grid_origin = 0
delta = 0.1
grid_n = 1024
""")
    res = run_cli("eval", "--config", conf, "--out", str(tmp_path / "g"))
    assert res.returncode == 0, res.stderr


TENT_CONF = """
kernel.shape = indicator
kernel.normalize = true
function.kind = grid
function.grid_file = {lattice}
function.grid_spacing = 0.0625
function.grid_origin = -1
domain.flavor = whole-space
p = 2.0
d = 1
delta = 0.2
grid_n = 256
"""


def test_whole_space_padding_defaults_to_one_for_every_kind(tmp_path):
    # a whole-space tent grid (33 nodes on [-1, 1], half-width 0.5) without
    # domain.padding used to get padding 0 and tail_bound=inf; every kind now
    # reads the key through one rule, default 1.0
    lattice = tmp_path / "tent.csv"
    x = np.linspace(-1.0, 1.0, 33)
    np.savetxt(lattice, np.maximum(0.0, 1.0 - np.abs(x) / 0.5).reshape(1, -1), delimiter=",")
    lines = []
    for extra in ("", "domain.padding = 1\n"):
        conf = write_config(tmp_path, TENT_CONF.format(lattice=lattice) + extra)
        res = run_cli("eval", "--config", conf, "--out", str(tmp_path / "e"))
        assert res.returncode == 0, res.stderr
        lines.append(res.stdout)
    assert lines[0] == lines[1]
    assert math.isfinite(float(lines[0].split("tail_bound=")[1]))
    for kind in ("grid", "affine", "sine", "step", "cube-profile"):
        cfg = cli.parse_config(write_config(tmp_path, TENT_CONF.format(lattice=lattice)))
        cfg["function.kind"] = kind
        assert cli.build_function(cfg, 1).domain.padding == 1.0, kind


def test_non_finite_function_rejected(tmp_path):
    conf = write_config(tmp_path, """
kernel.shape = indicator
kernel.normalize = true
function.kind = affine
function.gradient = nan
delta = 0.1
grid_n = 256
""")
    res = run_cli("eval", "--config", conf, "--out", str(tmp_path / "e"))
    assert res.returncode == 2, res.stdout
    assert res.stderr.startswith("error:")
    assert "value=" not in res.stdout


def test_missing_grid_file_is_config_error(tmp_path):
    conf = write_config(tmp_path, f"""
kernel.shape = indicator
kernel.normalize = true
function.kind = grid
function.grid_file = {tmp_path / "absent.csv"}
function.grid_spacing = 0.01
delta = 0.1
grid_n = 256
""")
    res = run_cli("eval", "--config", conf, "--out", str(tmp_path / "e"))
    assert res.returncode == 2
    assert res.stderr.startswith("error:")
    assert "Traceback" not in res.stderr


def test_cli_seed_zero_overrides_config_seed(tmp_path):
    base = """
kernel.shape = indicator
kernel.normalize = true
delta = 0.1
grid_n = 256
kappa.iterations = 100
kappa.restarts = 2
"""
    seeded = write_config(tmp_path, base + "seed = 7\n", "seeded.conf")
    plain = write_config(tmp_path, base, "plain.conf")
    runs = {"cli0": ("--config", seeded, "--seed", "0"),
            "cfg7": ("--config", seeded),
            "none": ("--config", plain)}
    for name, args in runs.items():
        res = run_cli("kappa", *args, "--out", str(tmp_path / name))
        assert res.returncode == 0, res.stderr
    seeds = {name: json.loads((tmp_path / f"{name}.meta.json").read_text())["seed"]
             for name in runs}
    assert seeds == {"cli0": 0, "cfg7": 7, "none": 0}
    assert (tmp_path / "cli0.csv").read_bytes() == (tmp_path / "none.csv").read_bytes()
    assert (tmp_path / "cli0.csv").read_bytes() != (tmp_path / "cfg7.csv").read_bytes()


STEP_CROSS = """
kernel.shape = power-cutoff
kernel.exponent = 3.0
kernel.cutoff = 1.0
kernel.normalize = true
function.kind = step
domain.flavor = whole-space
domain.padding = 0.5
delta = 0.2
grid_n = 256
polar.h_steps = 64
cross.budget = 1.0
"""


def test_cross_check_fails_on_infinite_certificate(tmp_path):
    # the growth bound cannot cover a jump, so both schemes' tails are infinite
    conf = write_config(tmp_path, STEP_CROSS)
    out = str(tmp_path / "x")
    res = run_cli("cross-check", "--config", conf, "--out", out)
    assert res.returncode == 1, res.stderr
    assert "FAIL" in res.stdout
    with open(out + ".csv") as fh:
        assert list(csv.DictReader(fh))[0]["combined_tail"] == "inf-flag"


def _refuse_token(token):
    raise ValueError(f"{token} is not JSON")


@pytest.mark.parametrize("sub, text, path, value", [
    ("validate-kernel", "kernel.shape = power-cutoff\nkernel.cutoff = inf\n",
     ("kernel", "cutoff"), "inf"),
    ("cross-check", STEP_CROSS, ("tail_over_value",), ["inf"]),
], ids=["cutoff", "tail_over_value"])
def test_meta_json_is_strict_json(tmp_path, capsys, sub, text, path, value):
    # a non-finite float goes to meta.json as the string "inf", "-inf" or "nan",
    # never as the Infinity or NaN that strict JSON readers refuse
    out = str(tmp_path / "m")
    assert cli.main([sub, "--config", write_config(tmp_path, text), "--out", out]) == 1
    meta = json.loads((tmp_path / "m.meta.json").read_text(), parse_constant=_refuse_token)
    for key in path:
        meta = meta[key]
    assert meta == value


AFFINE_EVAL = """
kernel.shape = indicator
kernel.normalize = true
function.kind = affine
delta = 0.1
"""


@pytest.mark.parametrize("case", ["float64-grid-d2", "csv-grid-d1", "grid_n-1e400",
                                  "grid_n-nan", "missing-out-dir"])
def test_boundary_errors_exit_2(tmp_path, case):
    # a grid whose ndim is not d, a non-finite integer key, an unwritable --out
    x = np.linspace(0.0, 1.0, 32)
    field = np.outer(np.sin(np.pi * x), np.sin(np.pi * x))
    field.tofile(tmp_path / "field.bin")
    np.savetxt(tmp_path / "field.csv", field, delimiter=",")
    grid = "kernel.shape = indicator\nkernel.normalize = true\nfunction.kind = grid\n" \
           "function.grid_spacing = 0.03125\ndelta = 0.5\n"
    text = {
        "float64-grid-d2": grid + f"function.grid_file = {tmp_path / 'field.bin'}\n"
                                  "function.grid_format = float64\nd = 2\ngrid_n = 512\n",
        "csv-grid-d1": grid + f"function.grid_file = {tmp_path / 'field.csv'}\n"
                              "d = 1\ngrid_n = 16\n",
        "grid_n-1e400": AFFINE_EVAL + "grid_n = 1e400\n",
        "grid_n-nan": AFFINE_EVAL + "grid_n = nan\n",
        "missing-out-dir": AFFINE_EVAL + "grid_n = 256\n",
    }[case]
    conf = write_config(tmp_path, text)
    out = tmp_path / "absent" / "e" if case == "missing-out-dir" else tmp_path / "e"
    res = run_cli("eval", "--config", conf, "--out", str(out))
    assert res.returncode == 2, res.stdout
    assert res.stderr.startswith("error:")
    assert "Traceback" not in res.stderr


KAPPA_CONF = """
kernel.shape = indicator
kernel.normalize = true
p = 2.0
d = 1
delta = 0.1
grid_n = 512
kappa.iterations = 300
kappa.restarts = 2
"""


# a whole-space sine, which both schemes evaluate
CROSS_SINE = """
kernel.shape = envelope
kernel.normalize = true
function.kind = sine
domain.flavor = whole-space
domain.padding = 0.5
delta = 0.1
grid_n = 256
polar.h_steps = 32
"""


@pytest.mark.parametrize("case", ["eval-delta-nan", "eval-delta-inf", "sweep-delta-nan",
                                  "step-divergence-n_list-1e400", "kappa-epsilon-nan",
                                  "eval-threshold-nan", "sweep-grid_n-0",
                                  "pathology-grid_n-0", "kappa-grid_n-0",
                                  "step-divergence-n_list-0", "kappa-grid_n-negative",
                                  "eval-p-nan", "kappa-p-nan", "kappa-overflowing-kernel",
                                  "eval-polar-overflowing-kernel",
                                  "pathology-delta_list-empty",
                                  "cross-check-delta_list-empty",
                                  "eval-cube-profile-2d-box-at-d1", "eval-sine-1d-box-at-d2",
                                  "eval-grid-flavor-typo", "eval-polar-bounded",
                                  "cross-check-bounded",
                                  "validate-kernel-seed-abc-under-cli-seed",
                                  "eval-step-jump-nan", "eval-sine-frequency-inf",
                                  "eval-sine-domain.hi-nan", "eval-padding-inf",
                                  "cross-check-grid_origin-nan", "eval-delta-1e308",
                                  "kappa-epsilon-1e308", "eval-polar-p-1e308",
                                  "sweep-domain.hi-1e308", "cross-check-budget-nan",
                                  "cross-check-budget-negative", "eval-polar-sine-delta-1e308",
                                  "eval-grid_n-1e308", "eval-grid_n-1e17",
                                  "eval-grid-too-coarse"])
def test_non_finite_delta_and_n_list_exit_2(tmp_path, case):
    # each used to hang, blame the wrong input, end in a traceback, or exit 0:
    # a NaN epsilon disables the search, a NaN indicator threshold gives
    # value 0, grid_n = 0 divides by zero, an overflowing kernel gives
    # kappa_hat=inf or a polar value=inf, an empty delta_list passes cross-check,
    # a box of the wrong dimension is integrated with a kernel normalized for
    # d, a grid's flavor typo runs as whole-space; the polar scheme has no
    # bounded-domain form.  A NaN step jump printed a value, a non-finite
    # sine frequency or bound, a NaN grid origin and an overflowing value
    # (Python's float ** raises) ended as internal errors, a NaN or negative
    # budget gave a FAIL verdict.  A NaN shifted value of u counted as 0 in
    # the polar sum, and a grid_n whose cells numpy cannot allocate (sizes no
    # machine holds, refused at once) ended as an internal error.  An eval
    # on a grid coarser than the resolution rule exited 0 with a value at
    # 1 % of the truth, where the same sweep exits 2
    lattice = tmp_path / "tent.csv"
    x = np.linspace(-1.0, 1.0, 33)
    np.savetxt(lattice, np.maximum(0.0, 1.0 - np.abs(x)).reshape(1, -1), delimiter=",")
    np.savetxt(tmp_path / "bump.csv", np.maximum(0.0, 1.0 - x[:, None] ** 2 - x[None, :] ** 2),
               delimiter=",")
    sine = "kernel.shape = indicator\nfunction.kind = sine\ndelta = 0.1\ngrid_n = 256\n"
    sub, text, message = {
        "eval-delta-nan": ("eval",
                           AFFINE_EVAL.replace("delta = 0.1", "delta = nan") + "grid_n = 256\n",
                           "delta must be finite and positive"),
        "eval-delta-inf": ("eval",
                           AFFINE_EVAL.replace("delta = 0.1", "delta = inf") + "grid_n = 256\n",
                           "delta must be finite and positive"),
        "sweep-delta-nan": ("sweep", SWEEP_CONF.replace("0.4, 0.2, 0.1", "0.1, nan"),
                            "delta must be finite and positive"),
        "step-divergence-n_list-1e400": ("step-divergence",
                                         "p = 2\ndelta = 0.1\nn_list = 512, 1e400\n",
                                         "'n_list': expected an integer"),
        "kappa-epsilon-nan": ("kappa", KAPPA_CONF + "kappa.epsilon = nan\n",
                              "epsilon must be finite and nonnegative"),
        "eval-threshold-nan": ("eval", "kernel.shape = indicator\nkernel.threshold = nan\n"
                                       "function.kind = affine\ndelta = 0.1\ngrid_n = 256\n",
                               "indicator threshold must be positive"),
        "sweep-grid_n-0": ("sweep", SWEEP_CONF.replace("grid_n = 2048", "grid_n = 0"),
                           "grid_n must be at least 16"),
        "pathology-grid_n-0": ("pathology", "delta = 0.25\ngrid_n = 0\n",
                               "grid_n must be at least 16"),
        "kappa-grid_n-0": ("kappa", KAPPA_CONF.replace("grid_n = 512", "grid_n = 0"),
                           "grid_n must be at least 16"),
        "step-divergence-n_list-0": ("step-divergence",
                                     "p = 2\ndelta = 0.1\nn_list = 0, 1024\n",
                                     "grid_n must be at least 16"),
        "kappa-grid_n-negative": ("kappa", KAPPA_CONF.replace("grid_n = 512", "grid_n = -4"),
                                  "grid_n must be at least 16"),
        "eval-p-nan": ("eval", "kernel.shape = indicator\nfunction.kind = affine\n"
                               "p = nan\ndelta = 0.1\ngrid_n = 256\n",
                       "p must be >= 1"),
        "kappa-p-nan": ("kappa", KAPPA_CONF.replace("p = 2.0", "p = nan"),
                        "calibration integral is only supported for p > 1"),
        "kappa-overflowing-kernel": ("kappa", "kernel.shape = power-cutoff\n"
                                              "kernel.exponent = 400\nkernel.cutoff = inf\n"
                                              "delta = 0.1\ngrid_n = 512\n",
                                     "non-finite pair sum"),
        "eval-polar-overflowing-kernel": ("eval", "kernel.shape = power-cutoff\n"
                                                  "kernel.exponent = 400\n"
                                                  "kernel.cutoff = inf\nfunction.kind = sine\n"
                                                  "domain.flavor = whole-space\n"
                                                  "domain.padding = 0.5\ndelta = 0.1\n"
                                                  "grid_n = 160\nscheme = polar\n"
                                                  "polar.h_steps = 32\n",
                                          "non-finite polar sum"),
        "pathology-delta_list-empty": ("pathology", "delta_list =\ngrid_n = 512\n",
                                       "'delta_list': empty list"),
        "cross-check-delta_list-empty": ("cross-check", CROSS_SINE + "delta_list =\n",
                                         "'delta_list': empty list"),
        "eval-cube-profile-2d-box-at-d1": ("eval", "kernel.shape = indicator\n"
                                                   "function.kind = cube-profile\n"
                                                   "domain.lo = 0, 0\ndomain.hi = 1, 1\n"
                                                   "d = 1\ndelta = 0.1\ngrid_n = 256\n",
                                           "key 'domain.lo' has 2 entries, but d = 1"),
        "eval-sine-1d-box-at-d2": ("eval", "kernel.shape = indicator\nfunction.kind = sine\n"
                                           "domain.lo = 0\ndomain.hi = 1\nd = 2\n"
                                           "delta = 0.25\ngrid_n = 64\n",
                                   "key 'domain.lo' has 1 entries, but d = 2"),
        "eval-grid-flavor-typo": ("eval", "kernel.shape = indicator\nfunction.kind = grid\n"
                                          f"function.grid_file = {lattice}\n"
                                          "function.grid_spacing = 0.0625\n"
                                          "function.grid_origin = -1\n"
                                          "domain.flavor = wholespace\n"
                                          "delta = 0.2\ngrid_n = 256\n",
                                  "unknown domain.flavor 'wholespace'"),
        "eval-polar-bounded": ("eval", AFFINE_EVAL + "grid_n = 256\nscheme = polar\n",
                               "polar scheme expects a whole-space domain"),
        "cross-check-bounded": ("cross-check", AFFINE_EVAL + "grid_n = 256\n",
                                "polar scheme expects a whole-space domain"),
        "validate-kernel-seed-abc-under-cli-seed": ("validate-kernel",
                                                    KERNEL_CONF + "seed = abc\n",
                                                    "key 'seed': not a number"),
        "eval-step-jump-nan": ("eval", "kernel.shape = indicator\nkernel.normalize = true\n"
                                       "function.kind = step\nfunction.jumps = 0.25, nan\n"
                                       "delta = 0.2\ngrid_n = 64\n",
                               "function.jumps must be finite"),
        "eval-sine-frequency-inf": ("eval", sine + "function.frequency = inf\n",
                                    "function.frequency must be finite and positive"),
        "eval-sine-domain.hi-nan": ("eval", sine + "domain.hi = nan\n",
                                    "domain.hi must be finite"),
        "eval-padding-inf": ("eval", CROSS_SINE.replace("padding = 0.5", "padding = inf"),
                             "domain.padding must be finite and nonnegative"),
        "cross-check-grid_origin-nan": ("cross-check",
                                        "kernel.shape = indicator\nkernel.normalize = true\n"
                                        "function.kind = grid\n"
                                        f"function.grid_file = {tmp_path / 'bump.csv'}\n"
                                        "function.grid_spacing = 0.0625\n"
                                        "function.grid_origin = nan, -1\n"
                                        "domain.flavor = whole-space\nd = 2\n"
                                        "delta = 0.5\ngrid_n = 32\npolar.h_steps = 16\n",
                                        "function.grid_origin must be finite"),
        "eval-delta-1e308": ("eval", AFFINE_EVAL.replace("delta = 0.1", "delta = 1e308")
                             + "grid_n = 256\n", "error: value out of range"),
        "kappa-epsilon-1e308": ("kappa", KAPPA_CONF + "kappa.epsilon = 1e308\n",
                                "error: value out of range"),
        "eval-polar-p-1e308": ("eval", sine + "domain.flavor = whole-space\np = 1e308\n"
                                     "scheme = polar\npolar.h_steps = 32\n",
                               "error: value out of range"),
        "sweep-domain.hi-1e308": ("sweep", SWEEP_CONF.replace("domain.hi = 1", "domain.hi = 1e308"),
                                  "delta_min/8=0.0125\n"),      # no "need grid_n >= inf"
        "cross-check-budget-nan": ("cross-check", CROSS_SINE + "cross.budget = nan\n",
                                   "key 'cross.budget' must be finite and nonnegative"),
        "cross-check-budget-negative": ("cross-check", CROSS_SINE + "cross.budget = -5\n",
                                        "key 'cross.budget' must be finite and nonnegative"),
        "eval-polar-sine-delta-1e308": ("eval", "kernel.shape = indicator\n"
                                                "kernel.normalize = true\nfunction.kind = sine\n"
                                                "domain.flavor = whole-space\n"
                                                "domain.padding = 1e300\np = 2\n"
                                                "delta = 1e308\ngrid_n = 256\nscheme = polar\n",
                                        "u is not finite at a shifted point"),
        "eval-grid_n-1e308": ("eval", AFFINE_EVAL + "grid_n = 1e308\n",
                              "grid_n is too large: its cells cannot be allocated"),
        "eval-grid_n-1e17": ("eval", AFFINE_EVAL + "grid_n = 1e17\n",
                             "grid_n is too large: its cells cannot be allocated"),
        "eval-grid-too-coarse": ("eval", AFFINE_EVAL.replace("delta = 0.1", "delta = 0.001")
                                 + "grid_n = 64\n", "need grid_n >= 8000"),
    }[case]
    conf = write_config(tmp_path, text)
    seed = ["--seed", "3"] if case.endswith("under-cli-seed") else []
    res = run_cli(sub, "--config", conf, "--out", str(tmp_path / "e"), *seed)
    assert res.returncode == 2, res.stdout
    assert res.stderr.startswith("error:")
    assert message in res.stderr
    assert "Traceback" not in res.stderr and "Warning" not in res.stderr
    assert not list(tmp_path.glob("e.*"))      # no CSV, no meta.json


def test_cross_check_tail_is_the_sum_of_both_certificates(tmp_path):
    conf = write_config(tmp_path, CROSS_SINE)
    out = str(tmp_path / "x")
    res = run_cli("cross-check", "--config", conf, "--out", out)
    assert res.returncode in (0, 1), res.stderr
    with open(out + ".csv") as fh:
        tail = float(list(csv.DictReader(fh))[0]["combined_tail"])
    cfg = cli.parse_config(conf)
    k, f = cli.build_kernel(cfg, 1, 2.0), cli.build_function(cfg, 1)
    params = FunctionalParams(p=2.0, delta=0.1, grid_n=256, polar_h_steps=32)
    assert tail == lambda_pair(f, k, params).tail_bound + lambda_polar(f, k, params).tail_bound


PATHOLOGY_CONF = "delta = 0.25\ngrid_n = 512\n"
# a bounded grid function; the test writes {tmp}/tent.csv
GRID_EVAL = ("kernel.shape = indicator\nfunction.kind = grid\n"
             "function.grid_file = {tmp}/tent.csv\nfunction.grid_spacing = 0.5\n"
             "delta = 0.1\ngrid_n = 256\n")
STEP_CONF = "p = 2\ndelta = 0.1\nn_list = 512, 1024\n"
KERNEL_CONF = "kernel.shape = indicator\nkernel.normalize = true\np = 2\n"


@pytest.mark.parametrize("sub, text, key", [
    ("pathology", PATHOLOGY_CONF + "p = 3\n", "p"),
    ("pathology", PATHOLOGY_CONF + "kernel.shape = indicator\n", "kernel.shape"),
    ("pathology", PATHOLOGY_CONF + "diagonal_policy = exclude-and-bound\n",
     "diagonal_policy"),
    ("step-divergence", STEP_CONF + "kernel.shape = band\n", "kernel.shape"),
    ("step-divergence", STEP_CONF + "grid_n = 64\n", "grid_n"),
    ("kappa", KAPPA_CONF + "function.kind = sine\n", "function.kind"),
    ("validate-kernel", KERNEL_CONF + "delta_list = 0.1\n", "delta_list"),
    ("sweep", SWEEP_CONF + "delta = 0.1\n", "delta"),
    # keys that no subcommand reads any more
    ("kappa", KAPPA_CONF + "kappa.step_init = nan\n", "kappa.step_init"),
    ("kappa", KAPPA_CONF + "kappa.step_shrink = nan\n", "kappa.step_shrink"),
    ("kappa", KAPPA_CONF + "kappa.patience = 5\n", "kappa.patience"),
    ("cross-check", CROSS_SINE + "diagonal_policy = bogus\n", "diagonal_policy"),
    ("eval", AFFINE_EVAL + "grid_n = 256\ndiagonal_policy = exclude-cell\n",
     "diagonal_policy"),
    ("eval", AFFINE_EVAL + "grid_n = 256\npolar.allow_bounded = true\n",
     "polar.allow_bounded"),
    ("sweep", SWEEP_CONF + "polar.allow_bounded = true\n", "polar.allow_bounded"),
    ("cross-check", CROSS_SINE + "polar.allow_bounded = true\n", "polar.allow_bounded"),
    # keys of a kernel shape, function kind or domain flavor the config did
    # not choose
    ("validate-kernel", "kernel.shape = band\nkernel.threshold = 0.5\n",
     "kernel.threshold"),
    ("eval", AFFINE_EVAL + "grid_n = 256\nfunction.frequency = 3\n", "function.frequency"),
    ("eval", AFFINE_EVAL + "grid_n = 256\nfunction.jumps = 0.5\n", "function.jumps"),
    ("eval", GRID_EVAL + "domain.lo = 0\n", "domain.lo"),
    ("sweep", SWEEP_CONF + "domain.padding = 0.5\n", "domain.padding"),
    ("eval", GRID_EVAL + "domain.padding = 0.5\n", "domain.padding"),
    # delta_list is read in place of delta, never beside it
    ("cross-check", CROSS_SINE + "delta_list = 0.2\n", "delta"),
    ("pathology", PATHOLOGY_CONF + "delta_list = 0.2\n", "delta"),
], ids=["pathology-p", "pathology-kernel.shape", "pathology-diagonal_policy",
        "step-divergence-kernel.shape", "step-divergence-grid_n", "kappa-function.kind",
        "validate-kernel-delta_list", "sweep-delta", "kappa-step_init-nan",
        "kappa-step_shrink-nan", "kappa-patience", "cross-check-diagonal_policy-bogus",
        "eval-diagonal_policy", "eval-allow_bounded", "sweep-allow_bounded",
        "cross-check-allow_bounded", "band-threshold", "affine-frequency", "affine-jumps",
        "grid-domain.lo", "bounded-padding", "bounded-grid-padding",
        "cross-check-delta-beside-delta_list", "pathology-delta-beside-delta_list"])
def test_unread_key_exits_2(tmp_path, sub, text, key):
    # a key the run does not read would be dropped unseen: pathology always
    # runs the band kernel at p = 2, kappa always estimates the cube profile,
    # the band kernel has no threshold, a grid's box is its lattice
    (tmp_path / "tent.csv").write_text("0,1,0\n")
    conf = write_config(tmp_path, text.replace("{tmp}", str(tmp_path)))
    res = run_cli(sub, "--config", conf, "--out", str(tmp_path / "e"))
    assert res.returncode == 2, res.stdout
    assert res.stderr.startswith("error:")
    assert repr(key) in res.stderr
    assert res.stdout == ""
    assert not list(tmp_path.glob("e.*"))      # no CSV, no meta.json


# one valid config per subcommand
VALID_CONFIGS = {"validate-kernel": KERNEL_CONF, "eval": AFFINE_EVAL + "grid_n = 256\n",
                 "sweep": SWEEP_CONF, "pathology": PATHOLOGY_CONF, "step-divergence": STEP_CONF,
                 "kappa": KAPPA_CONF, "cross-check": CROSS_SINE}


def test_unknown_key_rejected(tmp_path, capsys):
    # every runner refuses a key it does not read, naming it and its line,
    # and a key set twice, naming both lines, before it writes anything; a
    # new runner fails here until it does too
    assert set(VALID_CONFIGS) == set(cli._RUNNERS)
    for sub, text in VALID_CONFIGS.items():
        line = text.count("\n") + 1
        first = next(i for i, t in enumerate(text.split("\n"), 1) if "=" in t)
        key = text.split("\n")[first - 1].partition("=")[0].strip()
        for extra, message in [("bogus.key = 1", f"key 'bogus.key' is not read by {sub}"),
                               (f"{key} = 1", f"key {key!r} is already set on line {first}")]:
            conf = write_config(tmp_path, text + extra + "\n")
            assert cli.main([sub, "--config", conf, "--out", str(tmp_path / "e")]) == 2, sub
            out, err = capsys.readouterr()
            assert out == ""
            assert f"line {line}: {message}" in err
            assert not list(tmp_path.glob("e.*")), sub


def test_pair_runs_refuse_polar_keys(tmp_path, capsys):
    # only the polar scheme reads polar.*: under the pair scheme they would be
    # dropped unseen, so a pair eval or sweep refuses them
    polar = "polar.h_steps = 12345\npolar.angle_steps = 7\n"
    for sub, text in [("sweep", SWEEP_CONF), ("eval", AFFINE_EVAL + "grid_n = 256\n"),
                      ("eval", AFFINE_EVAL + "grid_n = 256\nscheme = pair\n")]:
        conf, line = write_config(tmp_path, text + polar), text.count("\n") + 1
        assert cli.main([sub, "--config", conf, "--out", str(tmp_path / "e")]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"line {line}: key 'polar.h_steps' is not read by {sub} with this config" in err
        assert not list(tmp_path.glob("e.*"))
    # the polar scheme reads them; an unknown scheme still exits 2
    sweep = CROSS_SINE.replace("delta = 0.1", "delta_list = 0.2, 0.1")
    for sub, text, status in [("eval", CROSS_SINE + "scheme = polar\n", 0),
                              ("sweep", sweep + "scheme = polar\n", 0),
                              ("eval", CROSS_SINE + "scheme = bogus\n", 2),
                              ("eval", AFFINE_EVAL + "grid_n = 256\nscheme = bogus\n", 2)]:
        conf = write_config(tmp_path, text)
        assert cli.main([sub, "--config", conf, "--out", str(tmp_path / "e")]) == status


def test_cross_check_refuses_bounded_domain_before_evaluating(tmp_path, monkeypatch, capsys):
    # a bounded domain is refused before the pair traversal starts
    def traversal(*args):
        raise RuntimeError("pair traversal ran")

    monkeypatch.setattr(cli, "_lambda_pair_deltas", traversal)
    conf = write_config(tmp_path, AFFINE_EVAL + "grid_n = 256\n")
    assert cli.main(["cross-check", "--config", conf, "--out", str(tmp_path / "e")]) == 2
    assert "polar scheme expects a whole-space domain" in capsys.readouterr().err


def test_import_path_has_no_scipy():
    code = ("import sys, nlsobolev.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def test_sweep_process_loads_no_scipy(tmp_path):
    # neither an affine sweep nor the energy of a sine with many periods,
    # meta.json included, imports scipy or writes to stderr
    sine = ("kernel.shape = indicator\nkernel.normalize = true\nfunction.kind = sine\n"
            "function.frequency = 37.3\np = 1.5\ndelta = 0.1\ngrid_n = 256\n")
    for sub, text in [("sweep", SWEEP_CONF), ("eval", sine)]:
        conf, out = write_config(tmp_path, text, sub + ".conf"), str(tmp_path / sub)
        code = ("import sys; from nlsobolev import cli; "
                f"assert cli.main([{sub!r}, '--config', {conf!r}, '--out', {out!r}]) == 0; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert res.stderr == ""
        assert res.stdout.splitlines()[-1] == "[]"
        meta = json.loads((tmp_path / f"{sub}.meta.json").read_text())
        assert sorted(meta["versions"]) == ["nlsobolev", "numpy"]


def test_library_source_has_no_scipy_import():
    for path in Path(cli.__file__).resolve().parent.rglob("*.py"):
        for line in path.read_text().splitlines():
            assert not re.match(r"\s*(import|from)\s+scipy\b", line), (path.name, line)


@pytest.mark.parametrize("kind", ["affine", "step"])
def test_eval_writes_the_row_of_a_one_delta_sweep(tmp_path, kind):
    # eval and sweep share one row rule; a step's infinite energy gives ratio inf-flag
    base = f"kernel.shape = indicator\nkernel.normalize = true\nfunction.kind = {kind}\n" \
           "grid_n = 256\n"
    ev = write_config(tmp_path, base + "delta = 0.1\n", "eval.conf")
    sw = write_config(tmp_path, base + "delta_list = 0.1\n", "sweep.conf")
    assert run_cli("eval", "--config", ev, "--out", str(tmp_path / "e")).returncode == 0
    assert run_cli("sweep", "--config", sw, "--out", str(tmp_path / "s")).returncode == 0
    row = (tmp_path / "e.csv").read_bytes()
    assert row == (tmp_path / "s.csv").read_bytes()
    assert row.rstrip().endswith(b"inf-flag") == (kind == "step")


_KERNEL_LINES = {
    "indicator": "kernel.shape = indicator\nkernel.threshold = 0.7\n",
    "band": "kernel.shape = band\nkernel.lo = 1\nkernel.hi = 2\n",
    "envelope": "kernel.shape = envelope\nkernel.a = 1\nkernel.b = 1\n",
}


@pytest.mark.parametrize("shape", list(_KERNEL_LINES))
@pytest.mark.parametrize("dim", [1, 2])
def test_sweep_and_cross_check_rows_are_eval_rows(tmp_path, shape, dim):
    # one pair traversal serves every delta of a sweep and of a cross-check;
    # each row must still be, byte for byte, what eval writes at that delta
    x = np.linspace(-1.0, 1.0, 17)
    if dim == 1:
        vals, deltas, n = np.maximum(0.0, 1.0 - np.abs(x)).reshape(1, -1), "0.4, 0.2, 0.1", 256
    else:
        r2 = x[:, None] ** 2 + x[None, :] ** 2
        vals, deltas, n = np.maximum(0.0, 1.0 - r2) ** 2, "0.8, 0.5", 48
    np.savetxt(tmp_path / "u.csv", vals, delimiter=",")
    base = (_KERNEL_LINES[shape] + "kernel.normalize = true\nfunction.kind = grid\n"
            f"function.grid_file = {tmp_path / 'u.csv'}\nfunction.grid_spacing = 0.125\n"
            f"function.grid_origin = {', '.join(['-1'] * dim)}\n"
            f"domain.flavor = whole-space\ndomain.padding = 0.5\nd = {dim}\n"
            f"grid_n = {n}\n")

    def run(sub, extra):
        out = str(tmp_path / sub)
        status = cli.main([sub, "--config", write_config(tmp_path, base + extra, sub + ".conf"),
                           "--out", out])
        assert status in (0, 1) if sub == "cross-check" else status == 0
        return (tmp_path / f"{sub}.csv").read_text().splitlines()[1:]

    sweep = run("sweep", f"delta_list = {deltas}\n")
    cross = run("cross-check", f"delta_list = {deltas}\npolar.h_steps = 16\n"
                "polar.angle_steps = 8\n")
    assert len(sweep) == len(cross) == len(deltas.split(","))
    for delta, sweep_row, cross_row in zip(deltas.split(","), sweep, cross):
        [eval_row] = run("eval", f"delta = {delta}\n")
        assert sweep_row == eval_row
        assert cross_row.split(",")[1] == eval_row.split(",")[1]     # pair_value, value


def test_internal_error_exits_3(tmp_path, monkeypatch, capsys):
    def broken(cfg, args):
        raise RuntimeError("runner bug")

    monkeypatch.setitem(cli._RUNNERS, "eval", broken)
    conf = write_config(tmp_path, AFFINE_EVAL + "grid_n = 256\n")
    assert cli.main(["eval", "--config", conf, "--out", str(tmp_path / "e")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error: RuntimeError('runner bug')")
    assert "Traceback" in err


def test_memory_error_exits_2(tmp_path, monkeypatch, capsys):
    # an array too large to allocate is the config's doing, not a bug
    def too_large(cfg, args):
        raise MemoryError("Unable to allocate 800. TiB")

    monkeypatch.setitem(cli._RUNNERS, "eval", too_large)
    conf = write_config(tmp_path, AFFINE_EVAL + "grid_n = 256\n")
    assert cli.main(["eval", "--config", conf, "--out", str(tmp_path / "e")]) == 2
    assert capsys.readouterr().err == "error: out of memory: Unable to allocate 800. TiB\n"
    assert not list(tmp_path.glob("e.*"))


@pytest.mark.parametrize("name, sub, status, header", [
    ("affine_sweep", "sweep", 0, "delta,value,tail_bound,energy,ratio"),
    ("pathology", "pathology", 0, "delta,value,tail_bound,energy,ratio"),
    ("kappa", "kappa", 0, "iteration,objective,proximity"),
    ("validate_band", "validate-kernel", 1, "check,ok,detail"),
])
def test_demo_configs(tmp_path, name, sub, status, header):
    # the README's command for each demo config
    res = run_cli(sub, "--config", str(DEMO_CONFIGS / f"{name}.conf"),
                  "--out", str(tmp_path / name))
    assert res.returncode == status, res.stderr
    assert (tmp_path / f"{name}.csv").read_text().split("\n")[0] == header
    meta = json.loads((tmp_path / f"{name}.meta.json").read_text())
    keys = list(meta)
    assert keys[:4] == ["config", "subcommand", "threads", "seed"]
    assert keys[-3:] == ["peak_rss_mb", "versions", "wall_time_s"]
    assert meta["subcommand"] == sub
    assert 1.0 < meta["peak_rss_mb"] < 1024.0


# SHA-256 of each demo config's CSV, recorded with Python 3.11 and numpy 2.4
# on x86-64: a change that keeps these bytes keeps every value and certificate
_DEMO_CSV_SHA256 = {
    "affine_sweep": ("sweep", 0,
                     "cde3f14a5134fdcc4a52bcc31dd90d11acdcb773fd06ade6d77dee349e242804"),
    "kappa": ("kappa", 0, "7c41f45745ed530ec1d416d3891c8b45dff580a1eedfbe4415183413e33faad9"),
    "pathology": ("pathology", 0,
                  "05cdaf79264bee4e8ccda541ad2d1673462d4fc5923479f995bcade8dc30596c"),
    "validate_band": ("validate-kernel", 1,
                      "83ebc1465541739f97a09109db3eef411762fd610abaf100e35c5085cffd977b"),
}


def test_demo_config_csv_bytes(tmp_path, capsys):
    digests = {}
    for name, (sub, status, _) in _DEMO_CSV_SHA256.items():
        out = tmp_path / name
        assert cli.main([sub, "--config", str(DEMO_CONFIGS / f"{name}.conf"),
                         "--out", str(out)]) == status, capsys.readouterr().err
        digests[name] = hashlib.sha256((tmp_path / f"{name}.csv").read_bytes()).hexdigest()
    assert digests == {name: want for name, (_, _, want) in _DEMO_CSV_SHA256.items()}


def test_tabulated_knot_too_near_0_names_its_key(tmp_path):
    # t^-p of the knot overflows in the calibration integral: a validation
    # error that names the key and the knot, not Python's errno tuple
    conf = write_config(tmp_path, "kernel.shape = tabulated\nkernel.knots = 5e-324, 1, 2\n"
                                  "kernel.values = 0, 0.5, 1\nkernel.normalize = true\n"
                                  "function.kind = affine\ndelta = 0.1\ngrid_n = 256\n")
    res = run_cli("eval", "--config", conf, "--out", str(tmp_path / "e"))
    assert res.returncode == 2
    assert res.stderr.startswith("error: kernel.knots: the knot 5e-324 is too near 0")
    assert "Numerical result out of range" not in res.stderr


_FUZZ_KERNEL = "kernel.shape = indicator\nkernel.c = 1\nkernel.threshold = 1\n" \
               "kernel.normalize = true\np = 2\nd = 1\nseed = 1\n"
_FUZZ_AFFINE = "function.kind = affine\nfunction.gradient = 1\nfunction.offset = 0.5\n" \
               "domain.lo = 0\ndomain.hi = 1\ndelta = 0.2\ngrid_n = 64\n"
_FUZZ_POLAR = "domain.flavor = whole-space\ndomain.padding = 0.5\npolar.h_min = 0.001\n" \
              "polar.h_max = 100\npolar.h_steps = 16\npolar.angle_steps = 4\n"
# valid configs that set every numeric key somewhere: one per subcommand,
# one eval per function kind and one per kernel shape
FUZZ_BASES = {
    "validate-kernel": ("validate-kernel", _FUZZ_KERNEL),
    "eval-affine": ("eval", _FUZZ_KERNEL + _FUZZ_AFFINE),
    "eval-cube-profile": ("eval", _FUZZ_KERNEL.replace("d = 1", "d = 2")
                          + "function.kind = cube-profile\ndomain.lo = 0, 0\n"
                            "domain.hi = 1, 1\ndelta = 0.5\ngrid_n = 16\n"),
    "eval-sine": ("eval", _FUZZ_KERNEL + _FUZZ_POLAR
                  + "function.kind = sine\nfunction.frequency = 2\nfunction.amplitude = 0.5\n"
                    "domain.lo = 0\ndomain.hi = 1\ndelta = 0.2\ngrid_n = 80\nscheme = polar\n"),
    "eval-step": ("eval", _FUZZ_KERNEL + "function.kind = step\nfunction.jumps = 0.25, 0.5\n"
                          "function.levels = 0, 1, 0\ndomain.lo = 0\ndomain.hi = 1\n"
                          "delta = 0.2\ngrid_n = 64\n"),
    "eval-grid": ("eval", _FUZZ_KERNEL.replace("d = 1", "d = 2") + _FUZZ_POLAR
                  + "function.kind = grid\nfunction.grid_file = {tmp}/bump.csv\n"
                    "function.grid_spacing = 0.25\nfunction.grid_origin = -1, -1\n"
                    "delta = 0.5\ngrid_n = 48\nscheme = polar\n"),
    "eval-band": ("eval", "kernel.shape = band\nkernel.lo = 1\nkernel.hi = 2\n" + _FUZZ_AFFINE),
    "eval-envelope": ("eval", "kernel.shape = envelope\nkernel.a = 1\nkernel.b = 1\n"
                      + _FUZZ_AFFINE),
    "eval-power-cutoff": ("eval", "kernel.shape = power-cutoff\nkernel.exponent = 3\n"
                                  "kernel.cutoff = 1\n" + _FUZZ_AFFINE),
    "eval-tabulated": ("eval", "kernel.shape = tabulated\nkernel.knots = 0, 1, 2\n"
                               "kernel.values = 0, 0.5, 1\n" + _FUZZ_AFFINE),
    "sweep": ("sweep", _FUZZ_KERNEL + _FUZZ_AFFINE.replace("delta = 0.2", "delta_list = 0.4, 0.2")),
    "pathology": ("pathology", "delta_list = 0.75, 0.49\ngrid_n = 64\n"),
    "step-divergence": ("step-divergence", "p = 2\ndelta = 0.5\nn_list = 64, 128\n"),
    "kappa": ("kappa", _FUZZ_KERNEL + "delta = 0.2\ngrid_n = 64\nkappa.epsilon = 0.05\n"
                                      "kappa.iterations = 20\nkappa.restarts = 2\n"),
    "cross-check": ("cross-check", _FUZZ_KERNEL + _FUZZ_POLAR
                    + "function.kind = sine\ndomain.lo = 0\ndomain.hi = 1\n"
                      "delta_list = 0.4, 0.2\ngrid_n = 64\ncross.budget = 0.5\n"),
}
# keys whose values are counts: 1e308 there is an allocation size, which
# is not a parameter this check is about
_COUNT_KEYS = {"grid_n", "n_list", "polar.h_steps", "polar.angle_steps", "kappa.iterations",
               "kappa.restarts", "d", "seed"}


def _fuzz_cases(text):
    """(key, config) with one numeric entry of one line replaced, for each bad value."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        key, _, value = (part.strip() for part in line.partition("="))
        entries = value.split(", ")
        try:
            [float(e) for e in entries]
        except ValueError:
            continue
        for j in range(len(entries)):
            for bad in ("nan", "inf", "-inf", "1e308", "-1", "5e-324"):
                if bad == "1e308" and key in _COUNT_KEYS:
                    continue
                new = ", ".join(bad if m == j else e for m, e in enumerate(entries))
                yield f"{key}[{j}]={bad}", "\n".join(
                    lines[:i] + [f"{key} = {new}"] + lines[i + 1:]) + "\n"


def test_config_fuzz_never_exits_3_and_nan_exits_2(tmp_path, capsys):
    # every numeric entry of valid configs, replaced in turn by nan, +-inf
    # and 1e308: a malformed or out-of-range value is a parameter error
    # (exit 2), never an internal error, and a NaN never yields a verdict
    x = np.linspace(-1.0, 1.0, 9)
    np.savetxt(tmp_path / "bump.csv", np.maximum(0.0, 1.0 - x[:, None] ** 2 - x[None, :] ** 2),
               delimiter=",")
    wrong, n_cases = [], 0
    for name, (sub, text) in FUZZ_BASES.items():
        text = text.replace("{tmp}", str(tmp_path))
        conf = write_config(tmp_path, text)
        assert cli.main([sub, "--config", conf, "--out", str(tmp_path / "e")]) in (0, 1), name
        for case, bad_text in _fuzz_cases(text):
            n_cases += 1
            conf = write_config(tmp_path, bad_text)
            status = cli.main([sub, "--config", conf, "--out", str(tmp_path / "e")])
            err = capsys.readouterr().err
            if status == 3 or ("=nan" in case and status != 2):
                wrong.append((name, case, status, err.splitlines()[:1]))
    assert n_cases > 300
    assert wrong == []
