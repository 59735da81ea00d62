"""Domain/test-function evaluation and reference energy checks."""

import math
import re

import numpy as np
import pytest

import nlsobolev as nl
from nlsobolev.errors import DomainError, ParameterError


def test_affine_eval():
    f = nl.affine_function([1.0], 0.0, nl.bounded_box([0.0], [1.0]))
    assert nl.eval_u(f, 0.3) == pytest.approx(0.3, abs=0)


def test_cube_profile_eval_2d():
    f = nl.cube_profile(2)
    assert nl.eval_u(f, [0.5, 0.5]) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)


def test_cube_profile_unit_gradient():
    # |grad U| = 1, checked by centered differences at interior sample points
    for d in (1, 2):
        f = nl.cube_profile(d)
        rng = np.random.default_rng(5)
        pts = rng.uniform(0.2, 0.8, size=(20, d))
        h = 1e-6
        g2 = np.zeros(20)
        for ax in range(d):
            e = np.zeros(d)
            e[ax] = h
            up = nl.eval_u(f, pts + e)
            dn = nl.eval_u(f, pts - e)
            g2 += ((np.atleast_1d(up) - np.atleast_1d(dn)) / (2 * h)) ** 2
        assert np.allclose(np.sqrt(g2), 1.0, atol=1e-7)


def test_step_eval():
    f = nl.unit_step(-1.0, 2.0)
    assert nl.eval_u(f, 0.5) == 1.0
    assert nl.eval_u(f, 1.5) == 0.0
    assert nl.eval_u(f, -0.5) == 0.0


def test_eval_outside_bounded_domain_raises():
    f = nl.affine_function([1.0], 0.0, nl.bounded_box([0.0], [1.0]))
    with pytest.raises(DomainError):
        nl.eval_u(f, 1.5)


def test_grid_eval_exact_at_nodes_and_interpolates():
    vals = np.array([0.0, 1.0, 0.5, 2.0])
    f = nl.grid_function(vals, [0.0], 0.5)
    x_nodes = np.array([0.0, 0.5, 1.0, 1.5])
    assert np.array_equal(nl.eval_u(f, x_nodes), vals)
    assert nl.eval_u(f, 0.25) == pytest.approx(0.5)


def test_grid_eval_2d_bilinear():
    vals = np.array([[0.0, 1.0], [2.0, 3.0]])
    f = nl.grid_function(vals, [0.0, 0.0], 1.0)
    assert nl.eval_u(f, [0.0, 1.0]) == 1.0
    assert nl.eval_u(f, [0.5, 0.5]) == pytest.approx(1.5)
    # its energy at p = 2 is exact: on each cell a component of the gradient
    # is linear, from a0 to a1, and int_0^1 of its square is (a0^2 + a0 a1 + a1^2)/3
    h = 0.25
    vals = np.random.default_rng(8).standard_normal((9, 7))
    exact = 0.0
    for d in (np.diff(vals, axis=0) / h, np.diff(vals, axis=1).T / h):
        a0, a1 = d[:, :-1], d[:, 1:]
        exact += h * h * np.sum(a0 * a0 + a0 * a1 + a1 * a1) / 3
    f = nl.grid_function(vals, [0.0, 0.0], h)
    assert nl.sobolev_energy(f, 2.0) == pytest.approx(exact, rel=1e-13)


def test_grid_function_refuses_an_unknown_flavor():
    # any flavor but "bounded" used to mean whole-space
    with pytest.raises(ParameterError, match="wholespace"):
        nl.grid_function([0.0, 1.0, 0.0], [0.0], 0.5, flavor="wholespace")


def test_tent_is_exact_and_vanishes_outside_support():
    tent = nl.tent_function(half_width=1.0, height=1.0, padding=2.0, nodes_per_unit=8)
    xs = np.array([-3.0, -2.0, -1.0, -0.5, 0.0, 0.25, 1.0, 2.5])
    expect = np.maximum(0.0, 1.0 - np.abs(xs))
    assert np.allclose(nl.eval_u(tent, xs), expect, atol=1e-15)
    # whole-space: evaluation beyond the window extends by the (zero) edge value
    assert nl.eval_u(tent, 100.0) == 0.0
    # |u'| = 1 on (-1, 1) and 0 elsewhere, so the energy is 2 for every p
    for p in (1.5, 2.0, 3.0):
        assert nl.sobolev_energy(tent, p) == 2.0


# ----------------------------------------------------------------------
# energy
# ----------------------------------------------------------------------

def test_energy_affine_exact():
    rng = np.random.default_rng(6)
    for _ in range(10):
        a = rng.uniform(-3, 3, size=2)
        lo = rng.uniform(-2, 0, size=2)
        hi = lo + rng.uniform(0.5, 2, size=2)
        p = float(rng.uniform(1.0, 4.0))
        f = nl.affine_function(a, 0.7, nl.bounded_box(lo, hi))
        vol = float(np.prod(hi - lo))
        assert nl.sobolev_energy(f, p) == pytest.approx(np.linalg.norm(a) ** p * vol, rel=1e-14)


def test_energy_affine_past_the_square_of_the_largest_double():
    # |a|^2 overflows past |a| ~ 1.3e154, |a|^p * vol need not
    box = nl.bounded_box([0.0], [1.0])
    for a in (1e200, -1e200):
        energy = nl.sobolev_energy(nl.affine_function([a], 0.0, box), 1.5)
        assert energy == pytest.approx(1e300, rel=1e-15)
    big = nl.affine_function([3e200, 4e200], 0.0, nl.bounded_box([0.0, 0.0], [1.0, 1.0]))
    assert nl.sobolev_energy(big, 1.0) == pytest.approx(5e200, rel=1e-15)
    assert nl.sobolev_energy(big, 2.0) == math.inf         # 2.5e401 does overflow


def test_energy_cube_profile_is_volume():
    for d in (1, 2):
        for p in (1.5, 2.0, 3.0):
            assert nl.sobolev_energy(nl.cube_profile(d), p) == 1.0


def test_energy_sine_closed_form():
    # int_0^1 (2 pi cos 2 pi x)^2 dx = 2 pi^2
    f = nl.sine_function(1.0, 1.0, nl.bounded_box([0.0], [1.0]))
    assert nl.sobolev_energy(f, 2.0) == pytest.approx(2 * math.pi ** 2, rel=1e-14)
    # whole periods: the mean of |cos|^p is Gamma((p+1)/2) / (sqrt(pi) Gamma(p/2 + 1))
    for freq in (1.0, 3.0, 7.0):
        f = nl.sine_function(freq, 0.7, nl.bounded_box([0.0], [1.0]))
        for p in (1.5, 2.0, 3.0):
            mean = math.gamma((p + 1) / 2) / (math.sqrt(math.pi) * math.gamma(p / 2 + 1))
            exact = abs(2 * math.pi * freq * 0.7) ** p * mean
            assert nl.sobolev_energy(f, p) == pytest.approx(exact, rel=1e-14)


def test_energy_sine_vs_riemann_oracle():
    # independent oracle: plain midpoint Riemann sum at high resolution,
    # on [0, 1] and on random intervals at non-integer frequencies
    rng = np.random.default_rng(9)
    cases = [(2.0, 0.0, 1.0)] + [(freq, lo, lo + width) for freq, lo, width in
                                 zip(rng.uniform(0.3, 5.0, 4), rng.uniform(-2.0, 1.0, 4),
                                     rng.uniform(0.1, 2.0, 4))]
    for freq, lo, hi in cases:
        f = nl.sine_function(freq, 0.7, nl.bounded_box([lo], [hi]))
        x = lo + (hi - lo) * (np.arange(200001) + 0.5) / 200001
        grad = 0.7 * 2 * np.pi * freq * np.cos(2 * np.pi * freq * x)
        for p in (1.5, 3.0):
            oracle = float(np.mean(np.abs(grad) ** p)) * (hi - lo)
            assert nl.sobolev_energy(f, p) == pytest.approx(oracle, rel=1e-7)


def test_energy_step_is_infinite():
    assert math.isinf(nl.sobolev_energy(nl.unit_step(), 2.0))


def test_energy_grid_second_order_convergence():
    # Richardson ratio of errors under mesh doubling ~ 4 for a smooth field
    exact = 2 * math.pi ** 2
    errs = []
    for n in (64, 128, 256):
        x = np.linspace(0.0, 1.0, n + 1)
        f = nl.grid_function(np.sin(2 * np.pi * x), [0.0], 1.0 / n)
        errs.append(abs(nl.sobolev_energy(f, 2.0) - exact))
    assert 3.0 < errs[0] / errs[1] < 5.0
    assert 3.0 < errs[1] / errs[2] < 5.0


# ----------------------------------------------------------------------
# dilation
# ----------------------------------------------------------------------

def test_dilate_pointwise_identity_all_kinds():
    rng = np.random.default_rng(7)
    dom = nl.bounded_box([0.0], [1.0])
    tent = nl.tent_function(nodes_per_unit=8)
    fs = [
        nl.affine_function([1.3], 0.4, dom),
        nl.sine_function(2.0, 0.8, dom),
        nl.cube_profile(1),
        nl.unit_step(-1.0, 2.0),
        tent,
    ]
    for f in fs:
        for lam in (2.0, 0.5, 3.0):
            g = nl.dilate(f, lam)
            lo, hi = f.domain.window_lo[0], f.domain.window_hi[0]
            x = rng.uniform(lo, hi, size=40)
            want = lam * np.asarray(nl.eval_u(f, x))
            got = np.asarray(nl.eval_u(g, lam * x))
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def test_dilate_scales_energy():
    # energy(lam . u(./lam), lam S) = lam^d |grad u|^p |S| for affine u
    f = nl.affine_function([2.0], 0.0, nl.bounded_box([0.0], [1.0]))
    g = nl.dilate(f, 2.0)
    assert nl.sobolev_energy(g, 2.0) == pytest.approx(2.0 * nl.sobolev_energy(f, 2.0), rel=1e-14)


# ----------------------------------------------------------------------
# construction errors
# ----------------------------------------------------------------------

def test_domain_validation():
    with pytest.raises(ParameterError):
        nl.bounded_box([0.0], [0.0])
    with pytest.raises(ParameterError):
        nl.Domain(3, (0,) * 3, (1,) * 3)
    with pytest.raises(ParameterError, match="no padding"):
        nl.Domain(1, (0.0,), (1.0,), "bounded", 0.5)


def test_step_needs_matching_levels():
    with pytest.raises(ParameterError):
        nl.step_function([0.0], [1.0], nl.bounded_box([-1.0], [1.0]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_constructors_refuse_non_finite_parameters(bad):
    # each refusal names the parameter; a NaN used to pass checks such as
    # jumps[i] >= jumps[i + 1] and reach the evaluators
    box = nl.bounded_box([0.0], [1.0])
    cases = {
        "domain.lo": lambda: nl.Domain(1, (bad,), (1.0,)),
        "domain.hi": lambda: nl.Domain(1, (0.0,), (bad,)),
        "domain.padding": lambda: nl.whole_space([0.0], [1.0], bad),
        "function.gradient": lambda: nl.affine_function([1.0, bad], 0.0,
                                                        nl.bounded_box([0, 0], [1, 1])),
        "function.offset": lambda: nl.affine_function([1.0], bad, box),
        "function.frequency": lambda: nl.sine_function(bad, 1.0, box),
        "function.amplitude": lambda: nl.sine_function(1.0, bad, box),
        "function.jumps": lambda: nl.step_function([0.25, bad], [0.0, 1.0, 0.0], box),
        "function.levels": lambda: nl.step_function([0.5], [0.0, bad], box),
        "function.grid_spacing": lambda: nl.grid_function([0.0, 1.0, 0.0], [0.0], bad),
        "function.grid_origin": lambda: nl.grid_function(np.zeros((3, 3)), [bad, -1.0], 0.5),
        "dilation factor": lambda: nl.dilate(nl.cube_profile(1), bad),
    }
    for name, build in cases.items():
        with pytest.raises(ParameterError, match=re.escape(name)):
            build()


def test_discrete_lp_norm():
    v = np.array([1.0, -1.0, 2.0])
    assert nl.discrete_lp_norm(v, 0.5, 2.0) == pytest.approx(math.sqrt(3.0), rel=1e-14)
