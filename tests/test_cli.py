"""End-to-end CLI checks through the console entry point."""

import csv
import json
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


def test_unknown_key_rejected(tmp_path):
    conf = write_config(tmp_path, "kernel.shape = indicator\nbogus.key = 1\n")
    res = run_cli("validate-kernel", "--config", conf, "--out", str(tmp_path / "v"))
    assert res.returncode == 2
    assert "bogus.key" in res.stderr


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


def test_import_path_has_no_scipy():
    code = ("import sys, nlsobolev.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


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


def test_cross_check_fails_on_infinite_certificate(tmp_path):
    # the growth bound cannot cover a jump, so both schemes' tails are infinite
    conf = write_config(tmp_path, """
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
""")
    out = str(tmp_path / "x")
    res = run_cli("cross-check", "--config", conf, "--out", out)
    assert res.returncode == 1, res.stderr
    assert "FAIL" in res.stdout
    with open(out + ".csv") as fh:
        assert list(csv.DictReader(fh))[0]["combined_tail"] == "inf-flag"


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
                                  "cross-check-bounded"])
def test_non_finite_delta_and_n_list_exit_2(tmp_path, case):
    # each used to hang, blame the wrong input, end in a traceback, or exit 0:
    # a NaN epsilon disables the search, a NaN indicator threshold gives
    # value 0, grid_n = 0 divides by zero, an overflowing kernel gives
    # kappa_hat=inf or a polar value=inf, an empty delta_list passes cross-check,
    # a box of the wrong dimension is integrated with a kernel normalized for
    # d, a grid's flavor typo runs as whole-space; the polar scheme has no
    # bounded-domain form
    lattice = tmp_path / "tent.csv"
    np.savetxt(lattice, np.maximum(0.0, 1.0 - np.abs(np.linspace(-1.0, 1.0, 33)))
               .reshape(1, -1), delimiter=",")
    sub, text, message = {
        "eval-delta-nan": ("eval", AFFINE_EVAL + "delta = nan\ngrid_n = 256\n",
                           "delta must be finite and positive"),
        "eval-delta-inf": ("eval", AFFINE_EVAL + "delta = inf\ngrid_n = 256\n",
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
        "kappa-grid_n-0": ("kappa", KAPPA_CONF + "grid_n = 0\n",
                           "grid_n must be at least 16"),
        "step-divergence-n_list-0": ("step-divergence",
                                     "p = 2\ndelta = 0.1\nn_list = 0, 1024\n",
                                     "grid_n must be at least 16"),
        "kappa-grid_n-negative": ("kappa", KAPPA_CONF + "grid_n = -4\n",
                                  "grid_n must be at least 16"),
        "eval-p-nan": ("eval", "kernel.shape = indicator\nfunction.kind = affine\n"
                               "p = nan\ndelta = 0.1\ngrid_n = 256\n",
                       "p must be >= 1"),
        "kappa-p-nan": ("kappa", KAPPA_CONF + "p = nan\n",
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
                                                  "grid_n = 128\nscheme = polar\n"
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
    }[case]
    conf = write_config(tmp_path, text)
    res = run_cli(sub, "--config", conf, "--out", str(tmp_path / "e"))
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
], ids=["pathology-p", "pathology-kernel.shape", "pathology-diagonal_policy",
        "step-divergence-kernel.shape", "step-divergence-grid_n", "kappa-function.kind",
        "validate-kernel-delta_list", "sweep-delta", "kappa-step_init-nan",
        "kappa-step_shrink-nan", "kappa-patience", "cross-check-diagonal_policy-bogus",
        "eval-diagonal_policy", "eval-allow_bounded", "sweep-allow_bounded",
        "cross-check-allow_bounded", "band-threshold", "affine-frequency", "affine-jumps",
        "grid-domain.lo", "bounded-padding", "bounded-grid-padding"])
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


class _RecordingConfig(dict):
    """A config that records every key looked up with `in`, get or []."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read = set()

    def __contains__(self, key):
        self.read.add(key)
        return super().__contains__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


@pytest.mark.parametrize("name, choice, flavor", [
    *[("kernel.shape", shape, None) for shape in cli._SHAPE_KEYS],
    *[("function.kind", kind, flavor) for kind in cli._KIND_KEYS
      for flavor in ("bounded", "whole-space")]])
def test_key_tables_match_the_builders(tmp_path, name, choice, flavor):
    # main refuses the keys of an unchosen shape, kind or flavor by these
    # tables, so each builder must read exactly the chosen entries
    # (domain.padding only on whole-space), whether or not the config sets them
    (tmp_path / "u.csv").write_text("0,1,0\n")
    cfg = _RecordingConfig({name: choice, "kernel.knots": "0.5, 1", "kernel.values": "0, 1",
                            "function.grid_file": str(tmp_path / "u.csv"),
                            "function.grid_spacing": "0.5"})
    if name == "kernel.shape":
        cli.build_kernel(cfg, 1, 2.0)
        expected = {name, "kernel.c", "kernel.normalize", *cli._SHAPE_KEYS[choice]}
    else:
        cfg["domain.flavor"] = flavor
        cli.build_function(cfg, 1)
        expected = {name, "domain.flavor", *cli._KIND_KEYS[choice],
                    *cli._FLAVOR_KEYS[flavor]}
    assert cfg.read == expected


def test_sweep_process_loads_no_scipy(tmp_path):
    # a whole affine sweep, meta.json included, never imports scipy
    conf = write_config(tmp_path, SWEEP_CONF)
    code = ("import sys; from nlsobolev import cli; "
            f"assert cli.main(['sweep', '--config', {conf!r}, '--out', "
            f"{str(tmp_path / 's')!r}]) == 0; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "[]"
    assert "scipy" not in json.loads((tmp_path / "s.meta.json").read_text())["versions"]


def test_sine_eval_records_scipy_version(tmp_path):
    import scipy
    conf = write_config(tmp_path, "kernel.shape = indicator\nkernel.normalize = true\n"
                                  "function.kind = sine\ndelta = 0.1\ngrid_n = 256\n")
    assert run_cli("eval", "--config", conf, "--out", str(tmp_path / "e")).returncode == 0
    meta = json.loads((tmp_path / "e.meta.json").read_text())
    assert meta["versions"]["scipy"] == scipy.__version__


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


def test_internal_error_exits_3(tmp_path, monkeypatch, capsys):
    def broken(cfg, args):
        raise RuntimeError("runner bug")

    monkeypatch.setitem(cli._RUNNERS, "eval", broken)
    conf = write_config(tmp_path, AFFINE_EVAL + "grid_n = 256\n")
    assert cli.main(["eval", "--config", conf, "--out", str(tmp_path / "e")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error: RuntimeError('runner bug')")
    assert "Traceback" in err


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
    assert keys[-2:] == ["versions", "wall_time_s"]
    assert meta["subcommand"] == sub
