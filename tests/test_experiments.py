"""Sweep, pathology, and refinement-growth experiment checks."""

import csv
import json
import math

import numpy as np
import pytest
from scipy import integrate

import nlsobolev as nl
from nlsobolev.errors import ParameterError, ResolutionError
from nlsobolev.experiments import INF_TOKEN, _csv_cell, format_cell


def _affine_setup():
    k = nl.normalize(nl.indicator_kernel(), 1, 2.0)
    f = nl.affine_function([1.0], 0.0, nl.bounded_box([0.0], [1.0]))
    return f, k


# ----------------------------------------------------------------------
# delta sweep
# ----------------------------------------------------------------------

def test_sweep_affine_matches_closed_form():
    f, k = _affine_setup()
    rep = nl.delta_sweep(f, k, 2.0, [0.4, 0.2, 0.1], grid_n=2048)
    for row in rep.rows:
        assert row.ratio == pytest.approx((1 - row.delta) ** 2, rel=1e-2)
        assert row.energy == 1.0
    assert rep.empirical_bound_ratio <= 1.0


def test_sweep_affine_error_shrinks_under_grid_doubling():
    f, k = _affine_setup()
    errs = []
    for n in (512, 1024, 2048):
        rep = nl.delta_sweep(f, k, 2.0, [0.2], grid_n=n)
        errs.append(abs(rep.rows[0].ratio - 0.64))
    assert errs[2] < errs[0]


def test_sweep_requires_resolution():
    f, k = _affine_setup()
    with pytest.raises(ResolutionError) as err:
        nl.delta_sweep(f, k, 2.0, [0.1, 0.05], grid_n=64)
    assert "grid_n >=" in str(err.value)


def test_sweep_rejects_non_decreasing_deltas():
    f, k = _affine_setup()
    with pytest.raises(ParameterError):
        nl.delta_sweep(f, k, 2.0, [0.1, 0.2], grid_n=1024)


def test_sweep_constant_function_has_no_ratios():
    k = nl.normalize(nl.indicator_kernel(), 1, 2.0)
    f = nl.affine_function([0.0], 1.0, nl.bounded_box([0.0], [1.0]))
    rep = nl.delta_sweep(f, k, 2.0, [0.4, 0.2], grid_n=512)
    assert all(r.value == 0.0 for r in rep.rows)
    assert all(r.ratio is None for r in rep.rows)
    assert rep.empirical_bound_ratio is None


def test_sweep_bound_ratio_stable_under_doubling():
    k = nl.normalize(nl.indicator_kernel(), 1, 2.0)
    f = nl.sine_function(1.0, 1.0, nl.bounded_box([0.0], [1.0]))
    b1 = nl.delta_sweep(f, k, 2.0, [0.4, 0.2, 0.1], grid_n=1024).empirical_bound_ratio
    b2 = nl.delta_sweep(f, k, 2.0, [0.4, 0.2, 0.1], grid_n=2048).empirical_bound_ratio
    assert abs(b2 - b1) <= 0.1 * b1


def test_sweep_2d_profile_tracks_continuum_oracle():
    """Independent continuum oracle for the diagonal profile on the unit square.

    Substituting z = x - y reduces the double integral to
    int_{[-1,1]^2} (1-|z1|)(1-|z2|) 1(|z.e| > delta) / |z|^4 with
    e = (1,1)/sqrt(2); the indicator keeps the integrand away from the
    origin so ordinary adaptive quadrature applies.
    """
    delta = 0.1
    c = 2.0 / math.pi
    inv_sqrt2 = 1.0 / math.sqrt(2.0)

    def inner(z1):
        def g(z2):
            if abs((z1 + z2) * inv_sqrt2) <= delta:
                return 0.0
            return (1 - abs(z1)) * (1 - abs(z2)) / (z1 * z1 + z2 * z2) ** 2
        v, _ = integrate.quad(g, -1, 1, limit=400, points=[0.0, -z1])
        return v

    zs = np.linspace(-1, 1, 801)
    oracle = c * delta ** 2 * integrate.simpson([inner(z) for z in zs], dx=2 / 800)

    U2 = nl.cube_profile(2)
    k2 = nl.normalize(nl.indicator_kernel(), 2, 2.0)
    rep = nl.delta_sweep(U2, k2, 2.0, [delta], grid_n=96)
    # the threshold surface aligns with the lag lattice diagonal, which
    # quantizes the included set; +/- 6 percent absorbs that oscillation
    assert rep.rows[0].value == pytest.approx(oracle, rel=0.06)


def test_sweep_2d_ratio_trend_toward_one():
    U2 = nl.cube_profile(2)
    k2 = nl.normalize(nl.indicator_kernel(), 2, 2.0)
    rep = nl.delta_sweep(U2, k2, 2.0, [0.4, 0.2, 0.1], grid_n=96)
    r = [row.ratio for row in rep.rows]
    assert r[0] < r[1] < r[2] < 1.0


def test_sweep_p1_exploration_marked():
    k = nl.indicator_kernel()
    f = nl.affine_function([1.0], 0.0, nl.bounded_box([0.0], [1.0]))
    rep = nl.delta_sweep(f, k, 1.0, [0.4, 0.2], grid_n=512)
    assert rep.metadata["certified"] is False
    assert "exploration" in rep.metadata["note"]


def test_sweep_certified_only_when_every_tail_is_finite():
    # across the jump the envelope kernel's growth constant leaves no finite
    # diagonal certificate, so the run is not certified although p > 1
    k = nl.normalize(nl.envelope_kernel(1, 1, 2.0), 1, 2.0)
    rep = nl.delta_sweep(nl.unit_step(), k, 2.0, [0.2, 0.1], grid_n=1024)
    assert all(math.isinf(row.tail_bound) for row in rep.rows)
    assert rep.metadata["certified"] is False
    f = nl.affine_function([1.0], 0.0, nl.bounded_box([0.0], [1.0]))
    rep = nl.delta_sweep(f, k, 2.0, [0.2, 0.1], grid_n=1024)
    assert all(math.isfinite(row.tail_bound) for row in rep.rows)
    assert rep.metadata["certified"] is True


def test_sweep_forwards_settings_to_each_delta():
    # every row is the scheme's value at FunctionalParams(p, delta, grid_n, **settings)
    f = nl.windowed_sine(frequency=1.0, amplitude=1.0, padding=1.0)
    k = nl.normalize(nl.envelope_kernel(1.0, 1.0, 2.0), 1, 2.0)
    settings = {"polar_h_min": 1e-3, "polar_h_max": 50.0, "polar_h_steps": 65,
                "polar_angle_steps": 8}
    for scheme, run in (("pair", nl.lambda_pair), ("polar", nl.lambda_polar)):
        rep = nl.delta_sweep(f, k, 2.0, [0.4, 0.2], grid_n=256, scheme=scheme, **settings)
        for row in rep.rows:
            res = run(f, k, nl.FunctionalParams(p=2.0, delta=row.delta, grid_n=256,
                                                **settings))
            assert (row.value, row.tail_bound) == (res.value, res.tail_bound)


# ----------------------------------------------------------------------
# band pathology
# ----------------------------------------------------------------------

def test_band_pathology_exact_zero_below_half():
    rep = nl.band_pathology([0.49, 0.25, 0.1], grid_n=1024)
    for row in rep.rows:
        assert row.value == 0.0          # bitwise zero, not merely small
        assert row.ratio is None
        assert math.isinf(row.energy)


def test_band_pathology_positive_above_half():
    rep = nl.band_pathology([0.75], grid_n=1024)
    assert rep.rows[0].value > 0.0


def test_band_pathology_is_a_sweep_of_the_step():
    # a pair sweep, deltas deduplicated largest first, with its own metadata
    rep = nl.band_pathology([0.1, 0.75, 0.1], grid_n=512)
    sweep = nl.delta_sweep(nl.unit_step(-1.0, 2.0), nl.normalize(nl.band_kernel(1, 2), 1, 2.0),
                           2.0, [0.75, 0.1], grid_n=512)
    assert rep.rows == sweep.rows
    assert list(rep.metadata) == ["experiment", "kernel", "function", "p", "grid_n",
                                  "scheme", "note"]
    assert rep.metadata["experiment"] == "band_pathology"
    with pytest.raises(ParameterError, match="empty delta list"):
        nl.band_pathology([], grid_n=512)


def test_band_pathology_each_summand_zero():
    # stronger than the aggregate: no pair contributes at all
    from nlsobolev.evaluator import sample_midpoints
    f = nl.unit_step(-1.0, 2.0)
    k = nl.normalize(nl.band_kernel(1, 2), 1, 2.0)
    u, (h,) = sample_midpoints(f, 512)
    delta = 0.25
    diffs = np.abs(u[None, :] - u[:, None]) / delta
    assert np.all(np.asarray(nl.eval_kernel(k, diffs)) == 0.0)


# ----------------------------------------------------------------------
# step divergence
# ----------------------------------------------------------------------

def test_step_divergence_p2():
    rep = nl.step_divergence(2.0, 0.1, [512, 1024, 2048, 4096])
    vals = [r.value for r in rep.rows]
    assert all(a < b for a, b in zip(vals, vals[1:]))   # strictly increasing
    assert 1.7 <= rep.final_ratio <= 2.1
    assert rep.divergence_flag


def test_step_divergence_p1_no_blowup():
    # no power-law blow-up at p = 1: doubling ratios sit near 1.  (The
    # continuum integral still diverges logarithmically across the jump,
    # so values creep upward; only the h^(1-p) rate is gone.)
    rep = nl.step_divergence(1.0, 0.1, [512, 1024, 2048, 4096])
    assert 0.9 <= rep.final_ratio <= 1.2
    ratios = [r.ratio for r in rep.rows[1:]]
    assert all(a > b for a, b in zip(ratios, ratios[1:]))   # trending to 1
    assert rep.metadata["certified"] is False


def test_step_divergence_constant_zero():
    # same machinery with a flat function: all values vanish at any n
    from nlsobolev.evaluator import FunctionalParams, lambda_pair
    k = nl.normalize(nl.indicator_kernel(), 1, 2.0)
    f = nl.affine_function([0.0], 1.0, nl.bounded_box([-1.0], [2.0]))
    for n in (512, 1024):
        params = FunctionalParams(p=2.0, delta=0.1, grid_n=n)
        assert lambda_pair(f, k, params).value == 0.0


def test_step_divergence_validation():
    with pytest.raises(ParameterError):
        nl.step_divergence(2.0, 1.5, [1024, 2048])
    with pytest.raises(ParameterError):
        nl.step_divergence(2.0, 0.1, [2048, 1024])


# ----------------------------------------------------------------------
# artifacts
# ----------------------------------------------------------------------

def test_sweep_csv_format(tmp_path):
    f, k = _affine_setup()
    rep = nl.delta_sweep(f, k, 2.0, [0.4, 0.2], grid_n=512)
    path = tmp_path / "sweep.csv"
    nl.write_sweep_csv(rep, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "delta,value,tail_bound,energy,ratio"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert float(first[0]) == 0.4
    # 17 significant digits round-trip exactly
    assert float(first[1]) == rep.rows[0].value


def test_csv_inf_flag_token(tmp_path):
    rep = nl.band_pathology([0.25], grid_n=512)
    path = tmp_path / "pathology.csv"
    nl.write_sweep_csv(rep, path)
    row = path.read_text().strip().split("\n")[1].split(",")
    assert row[3] == INF_TOKEN      # infinite energy
    assert row[4] == INF_TOKEN      # undefined ratio


def test_csv_repeated_cells_write_the_bytes_of_the_per_cell_form(tmp_path):
    # a cell that is the previous row's object reuses its string; equal cells
    # that are other objects (0.0 and -0.0 above all) are formatted afresh
    zero, nzero, inf, nan, x = 0.0, -0.0, math.inf, math.nan, 1.0 / 3.0
    y = np.float64(2.5)
    rows = [(0, zero, x, "a"), (1, zero, x, "a"), (2, nzero, x, "b"), (3, nzero, y, "b"),
            (4, -0.0, y, "b"), (5, 0.0, inf, None), (6, zero, inf, None), (7, nan, nan, "c"),
            (8, nan, -inf, "c"), [9, float("nan"), -inf, "c"], (10, x + 0.0, 1 / 3, "c"),
            (11, 7)]
    path = tmp_path / "cells.csv"
    nl.write_csv(path, ["i", "a", "b", "s"], rows)
    want = tmp_path / "want.csv"
    with open(want, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["i", "a", "b", "s"])
        for row in rows:
            w.writerow([c if isinstance(c, str) else format_cell(c) for c in row])
    assert path.read_bytes() == want.read_bytes()
    assert b"\n2,-0,0.33333333333333331,b\r\n" in path.read_bytes()


def test_csv_streamed_lines_write_the_bytes_of_csv_writer(tmp_path):
    # rows of numbers are joined directly and rows with a string go through
    # csv.writer: the bytes are those of csv.writer on every cell
    zero, nzero = 0.0, -0.0
    other_zero, other_nzero = float("0"), float("-0")      # equal, but other objects
    rows = [("a,b", 1.5, 2), ('say "x"', None, math.inf), ("two\nlines", -math.inf, math.nan),
            ("", 0.0, -0.0), ("",), (zero, nzero, 3), (zero, nzero, 3),
            (other_zero, other_nzero, 3),
            (10 ** 17, 12345678901234567, -(10 ** 18)), (np.float64(0.1), np.int64(2 ** 62), 7),
            (np.float64(0.1), None, "tail"), (1.0, math.inf, math.nan), (), ("x", zero, "y")]
    header = ["s", "a", "b"]
    path = tmp_path / "mixed.csv"
    nl.write_csv(path, header, (row for row in rows))     # a one-shot generator
    want = tmp_path / "want.csv"
    with open(want, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([_csv_cell(c) for c in row] for row in rows)
    assert path.read_bytes() == want.read_bytes()
    text = path.read_bytes()
    assert b'"a,b",1.5,2\r\n"say ""x""",inf-flag,inf-flag\r\n"two\nlines"' in text
    assert b'\r\n""\r\n0,-0,3\r\n0,-0,3\r\n0,-0,3\r\n1e+17,12345678901234568,-1e+18\r\n' in text


def test_growth_csv(tmp_path):
    rep = nl.step_divergence(2.0, 0.1, [512, 1024])
    path = tmp_path / "growth.csv"
    nl.write_growth_csv(rep, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "n,value,ratio"
    assert lines[1].split(",")[2] == INF_TOKEN   # first row has no predecessor


def test_meta_json(tmp_path):
    f, k = _affine_setup()
    rep = nl.delta_sweep(f, k, 2.0, [0.4], grid_n=512)
    path = tmp_path / "run.meta.json"
    nl.write_meta(rep.metadata, path)
    meta = json.loads(path.read_text())
    assert meta["experiment"] == "delta_sweep"
    assert meta["kernel"]["shape"] == "indicator"
    assert "numpy" in meta["versions"]
