"""Kernel construction, evaluation, calibration, and validation checks."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import gamma as euler_gamma, gammaln

import nlsobolev as nl
from nlsobolev.errors import (DomainError, KernelValidationError,
                              NormalizationError, ParameterError)


# ----------------------------------------------------------------------
# evaluation
# ----------------------------------------------------------------------

def test_indicator_values():
    k = nl.indicator_kernel(c=1.0)
    assert nl.eval_kernel(k, 0.5) == 0.0
    assert nl.eval_kernel(k, 2.0) == 1.0
    assert nl.eval_kernel(k, 0.0) == 0.0
    # literal open-interval indicator: zero at the threshold itself
    assert nl.eval_kernel(k, 1.0) == 0.0
    assert nl.eval_kernel(k, np.nextafter(1.0, 2.0)) == 1.0


def test_band_values():
    k = nl.band_kernel(1.0, 2.0, c=3.0)
    assert nl.eval_kernel(k, 1.5) == 3.0
    assert nl.eval_kernel(k, 1.0) == 0.0
    assert nl.eval_kernel(k, 2.0) == 0.0
    assert nl.eval_kernel(k, 2.5) == 0.0


def test_envelope_value_hand_computed():
    # a * t^(p+1) below the crossover: 0.5^3 = 0.125
    k = nl.envelope_kernel(a=1.0, b=1.0, p=2.0)
    assert nl.eval_kernel(k, 0.5) == pytest.approx(0.125, rel=1e-15)
    assert nl.eval_kernel(k, 1.0) == 1.0   # plateau value at the crossover
    assert nl.eval_kernel(k, 7.3) == 1.0


def test_power_cutoff_values():
    k = nl.power_cutoff_kernel(exponent=3.0, cutoff=2.0, c=1.0)
    assert nl.eval_kernel(k, 1.0) == 1.0
    assert nl.eval_kernel(k, 2.0) == 8.0
    assert nl.eval_kernel(k, 5.0) == 8.0


def test_tabulated_jump_takes_right_limit():
    k = nl.tabulated_kernel([0.0, 1.0, 1.0, 2.0], [0.0, 0.5, 1.0, 1.0])
    assert nl.eval_kernel(k, np.nextafter(1.0, 0.0)) == pytest.approx(0.5, rel=1e-9)
    assert nl.eval_kernel(k, 1.0) == 1.0
    assert nl.eval_kernel(k, 5.0) == 1.0   # constant right extension
    assert nl.eval_kernel(k, 0.5) == 0.25


def test_eval_kernel_rejects_negative():
    with pytest.raises(DomainError):
        nl.eval_kernel(nl.indicator_kernel(), -0.1)


def test_phi_zero_at_origin_all_shapes():
    ks = [nl.indicator_kernel(), nl.band_kernel(), nl.envelope_kernel(1, 1, 2),
          nl.power_cutoff_kernel(3.0, 1.0), nl.tabulated_kernel([0, 1, 2], [0, 0, 1])]
    for k in ks:
        assert nl.eval_kernel(k, 0.0) == 0.0


# ----------------------------------------------------------------------
# rescaling
# ----------------------------------------------------------------------

def test_scaled_eval_identity_at_delta_one():
    k = nl.band_kernel()
    t = np.linspace(0, 3, 50)
    assert np.array_equal(nl.scaled_kernel_eval(k, 2.0, 1.0, t), nl.eval_kernel(k, t))


def test_scaled_eval_hand_computed():
    k = nl.indicator_kernel(c=1.0)
    # delta^p * phi(t/delta) = 0.25 * phi(2) = 0.25
    assert nl.scaled_kernel_eval(k, 2.0, 0.5, 1.0) == pytest.approx(0.25, rel=1e-15)
    assert nl.scaled_kernel_eval(k, 2.0, 0.5, 0.0) == 0.0


def test_scaled_eval_definitional_identity_randomized():
    rng = np.random.default_rng(1)
    shapes = [nl.indicator_kernel(c=0.7), nl.band_kernel(0.8, 2.5, c=2.0),
              nl.envelope_kernel(0.5, 2.0, 2.0),
              nl.tabulated_kernel([0, 0.5, 1.5], [0, 0, 2.0])]
    for _ in range(50):
        k = shapes[rng.integers(len(shapes))]
        p = float(rng.uniform(1.1, 4))
        delta = float(rng.uniform(0.05, 3))
        t = rng.uniform(0, 5, size=20)
        lhs = nl.scaled_kernel_eval(k, p, delta, t)
        rhs = delta ** p * np.asarray(nl.eval_kernel(k, t / delta))
        assert np.array_equal(lhs, rhs)


def test_scaled_eval_rejects_bad_delta():
    with pytest.raises(ParameterError):
        nl.scaled_kernel_eval(nl.indicator_kernel(), 2.0, 0.0, 1.0)


# ----------------------------------------------------------------------
# angular moment
# ----------------------------------------------------------------------

def test_gamma_d1_exactly_two():
    for p in (1.1, 2.0, 3.7, 10.0):
        assert nl.gamma_dp(1, p) == 2.0


def test_gamma_d2_p2_is_pi():
    assert nl.gamma_dp(2, 2.0) == pytest.approx(math.pi, abs=1e-10)


def test_gamma_d2_matches_beta_closed_form():
    # independent oracle: int_0^{2pi} |cos|^p = 2 sqrt(pi) Gamma((p+1)/2) / Gamma(p/2+1)
    for p in (1.5, 2.0, 2.7, 3.0, 5.25):
        closed = 2.0 * math.sqrt(math.pi) * euler_gamma((p + 1) / 2) / euler_gamma(p / 2 + 1)
        assert nl.gamma_dp(2, p) == pytest.approx(closed, rel=1e-10)


def test_gamma_d2_large_p_past_gamma_overflow():
    # Gamma((p+1)/2) alone overflows a double here; the ratio stays finite
    for p in (341.0, 400.0, 1000.0):
        closed = 2.0 * math.sqrt(math.pi) * math.exp(gammaln((p + 1) / 2) - gammaln(p / 2 + 1))
        assert nl.gamma_dp(2, p) == pytest.approx(closed, rel=1e-10)


def test_gamma_rejects_unsupported_dimension():
    with pytest.raises(ParameterError):
        nl.gamma_dp(3, 2.0)


# ----------------------------------------------------------------------
# calibration integral
# ----------------------------------------------------------------------

def test_normalization_indicator_closed_form():
    # int_1^inf t^-3 dt = 1/2
    assert nl.normalization_integral(nl.indicator_kernel(), 2.0) == pytest.approx(0.5, rel=1e-14)


def test_normalization_band_closed_form():
    # c * (1 - 1/8) / 2 with c = 1
    assert nl.normalization_integral(nl.band_kernel(1, 2), 2.0) == pytest.approx(3 / 8, rel=1e-14)


def test_normalization_envelope_closed_form():
    # 1 + 1/2 for a = b = 1, p = 2
    assert nl.normalization_integral(nl.envelope_kernel(1, 1, 2.0), 2.0) == pytest.approx(1.5, rel=1e-14)


def test_normalization_zero_kernel():
    assert nl.normalization_integral(nl.indicator_kernel(c=0.0), 2.0) == 0.0


def test_normalization_linear_in_scale():
    rng = np.random.default_rng(2)
    for _ in range(10):
        c = float(rng.uniform(0.1, 5))
        p = float(rng.uniform(1.5, 3.0))
        base = nl.normalization_integral(nl.band_kernel(0.9, 2.2, c=1.0), p)
        scaled = nl.normalization_integral(nl.band_kernel(0.9, 2.2, c=c), p)
        assert scaled == pytest.approx(c * base, rel=1e-12)


def _piecewise_oracle(knots, values, c, p):
    """Independent closed-form integral of a piecewise-linear kernel.

    Per segment with phi = alpha + beta t:
      int (alpha + beta t) t^-(p+1) dt
        = alpha (s^-p - e^-p)/p + beta (s^(1-p) - e^(1-p))/(p-1),
    plus the constant tail v_last * t_last^-p / p.
    """
    total = 0.0
    for (s, v0), (e, v1) in zip(zip(knots, values), zip(knots[1:], values[1:])):
        if e == s or (v0 == 0.0 and v1 == 0.0):
            continue
        beta = (v1 - v0) / (e - s)
        alpha = v0 - beta * s
        total += alpha * (s ** -p - e ** -p) / p
        total += beta * (s ** (1 - p) - e ** (1 - p)) / (p - 1)
    total += values[-1] * knots[-1] ** -p / p
    return c * total


def test_normalization_tabulated_vs_independent_oracle():
    knots = [0.0, 0.4, 0.9, 1.5, 2.0]
    values = [0.0, 0.0, 1.2, 0.7, 0.7]
    for p in (1.5, 2.0, 3.2):
        k = nl.tabulated_kernel(knots, values, c=1.3)
        got = nl.normalization_integral(k, p)
        want = _piecewise_oracle(knots, values, 1.3, p)
        assert got == pytest.approx(want, rel=1e-9)


def test_normalization_divergent_cases():
    with pytest.raises(KernelValidationError):
        # ramp straight out of 0: phi ~ t near the origin
        nl.normalization_integral(nl.tabulated_kernel([0.0, 1.0], [0.0, 1.0]), 2.0)
    with pytest.raises(KernelValidationError):
        nl.normalization_integral(nl.power_cutoff_kernel(3.0, math.inf), 2.0)
    with pytest.raises(KernelValidationError):
        # envelope whose rise is too slow for this p
        nl.normalization_integral(nl.envelope_kernel(1, 1, p=1.2), 3.0)
    with pytest.raises(ParameterError):
        nl.normalization_integral(nl.indicator_kernel(), 1.0)


# ----------------------------------------------------------------------
# normalization
# ----------------------------------------------------------------------

def test_normalize_indicator_scale_closed_form():
    k = nl.normalize(nl.indicator_kernel(), d=1, p=2.0)
    assert k.scale_c == pytest.approx(1.0, abs=1e-12)


def test_normalize_band_scale_closed_form():
    # gamma * c * 3/8 = 1 with gamma = 2  ->  c = 4/3
    k = nl.normalize(nl.band_kernel(1, 2), d=1, p=2.0)
    assert k.scale_c == pytest.approx(4 / 3, rel=1e-13)


def test_normalize_idempotent():
    for build in (lambda: nl.indicator_kernel(c=3.0),
                  lambda: nl.envelope_kernel(0.5, 1.5, 2.0, c=0.2),
                  lambda: nl.tabulated_kernel([0, 0.5, 1, 1, 3], [0, 0, 0.3, 1, 1])):
        k1 = nl.normalize(build(), d=1, p=2.0)
        k2 = nl.normalize(k1, d=1, p=2.0)
        assert abs(k2.scale_c - k1.scale_c) <= 1e-12 * abs(k1.scale_c)


def test_normalize_gives_unit_condition_value():
    for d in (1, 2):
        k = nl.normalize(nl.band_kernel(0.7, 1.9, c=5.0), d=d, p=2.5)
        val = nl.gamma_dp(d, 2.5) * nl.normalization_integral(k, 2.5)
        assert val == pytest.approx(1.0, abs=1e-12)


def test_normalize_zero_kernel_raises():
    with pytest.raises(NormalizationError):
        nl.normalize(nl.indicator_kernel(c=0.0), d=1, p=2.0)


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------

def test_validate_normalized_indicator_all_pass():
    k = nl.normalize(nl.indicator_kernel(), d=1, p=2.0)
    rep = nl.validate(k, p=2.0, d=1)
    assert rep.all_ok
    assert rep.normalization_value == pytest.approx(1.0, abs=1e-10)
    assert rep.growth_ratio == 0.0


def test_validate_band_fails_monotonicity():
    k = nl.normalize(nl.band_kernel(1, 2), d=1, p=2.0)
    rep = nl.validate(k, p=2.0, d=1)
    assert not rep.cond_monotone_ok
    assert rep.cond_growth_ok and rep.cond_bounded_ok
    assert "monotonicity" in rep.failures()


_HALVES = st.integers(0, 8).map(lambda i: i / 2)   # dyadic: the kernel's sums are exact


@st.composite
def _any_kernel(draw):
    c = draw(st.sampled_from([0.0, 0.5, 1.0, 2.5]))
    shape = draw(st.sampled_from(["indicator", "band", "envelope", "power-cutoff",
                                  "tabulated"]))
    if shape == "indicator":
        return nl.indicator_kernel(c, draw(st.floats(0.05, 5.0)))
    if shape == "band":
        lo = draw(st.floats(0.05, 4.0))
        width = draw(st.one_of(st.floats(0.01, 3.0), st.just(math.inf)))  # inf: no upper edge
        return nl.band_kernel(lo, lo + width, c)
    if shape == "envelope":
        return nl.envelope_kernel(draw(_HALVES), draw(_HALVES), draw(st.floats(1.1, 4.0)), c)
    if shape == "power-cutoff":
        return nl.power_cutoff_kernel(draw(st.floats(0.1, 5.0)),
                                      draw(st.one_of(st.floats(0.1, 5.0), st.just(math.inf))),
                                      c)
    knots = sorted(t / 4 for t in draw(st.lists(st.integers(1, 16), min_size=1, max_size=6)))
    assume(all(knots.count(t) <= 2 for t in knots))
    return nl.tabulated_kernel(knots, draw(st.lists(_HALVES, min_size=len(knots),
                                                    max_size=len(knots))), c)


def _sampled_monotone(k) -> bool:
    """phi non-decreasing on a dense grid plus both sides of every finite edge a shape has."""
    edges = [e for e in (k.lo, k.hi, k.cutoff, 1.0, *k.knots) if math.isfinite(e)]
    top = 2.0 * max(edges) + 1.0
    t = np.concatenate([np.linspace(0.0, top, 4001), np.geomspace(1e-9, top, 500),
                        *([np.nextafter(e, -np.inf), e, np.nextafter(e, np.inf)]
                          for e in edges)])
    phi = np.asarray(nl.eval_kernel(k, np.unique(np.clip(t, 0.0, None))))
    return bool(np.all(np.diff(phi) >= 0.0))


@settings(max_examples=400, deadline=None)
@given(k=_any_kernel())
def test_monotone_is_decided_by_the_shape(k):
    assert k.monotone == _sampled_monotone(k)
    assert nl.validate(k, 2.0).cond_monotone_ok == k.monotone


@pytest.mark.parametrize("make", [
    lambda: nl.indicator_kernel(c=math.nan),
    lambda: nl.band_kernel(c=math.inf),
    lambda: nl.envelope_kernel(math.nan, 1.0, 2.0),
    lambda: nl.envelope_kernel(1.0, math.nan, 2.0),
    lambda: nl.power_cutoff_kernel(math.nan),
    lambda: nl.power_cutoff_kernel(3.0, math.nan),
    lambda: nl.tabulated_kernel([0.5, 1.0], [math.nan, 1.0]),
    lambda: nl.tabulated_kernel([0.5, math.nan], [0.0, 1.0]),
    lambda: nl.tabulated_kernel([math.nan], [1.0]),
], ids=["scale", "scale-inf", "envelope-a", "envelope-b", "exponent", "cutoff", "tabulated-value",
        "tabulated-knot", "tabulated-first-knot"])
def test_nan_kernel_parameter_refused(make):
    # a NaN (or an infinite scale, as inf * 0) makes phi NaN, which no
    # monotonicity or growth verdict describes
    with pytest.raises(ParameterError):
        make()


def test_validate_unbounded_power_fails_boundedness():
    k = nl.power_cutoff_kernel(exponent=3.0, cutoff=math.inf)
    rep = nl.validate(k, p=2.0, d=1)
    assert not rep.cond_bounded_ok


def test_validate_slow_rise_fails_growth():
    # t^2 near 0 against p = 3 (needs t^4)
    k = nl.power_cutoff_kernel(exponent=2.0, cutoff=1.0)
    rep = nl.validate(k, p=3.0, d=1)
    assert not rep.cond_growth_ok
    assert math.isinf(rep.growth_ratio)


def test_growth_constant_dominates_samples():
    rng = np.random.default_rng(3)
    kernels = [nl.indicator_kernel(c=2.0, threshold=0.6), nl.band_kernel(0.4, 1.5),
               nl.envelope_kernel(1.2, 0.8, 2.0),
               nl.tabulated_kernel([0, 0.3, 0.8, 1.2], [0, 0, 1.0, 0.2])]
    t = np.concatenate([rng.uniform(1e-6, 1.0, 400), np.geomspace(1e-8, 1.0, 200)])
    for k in kernels:
        for p in (1.5, 2.0, 3.0):
            a = nl.growth_constant(k, p)
            phi = np.asarray(nl.eval_kernel(k, t))
            assert np.all(phi <= a * t ** (p + 1.0) + 1e-12)


def test_envelope_dominates_its_kernel():
    rng = np.random.default_rng(4)
    kernels = [nl.indicator_kernel(c=1.4), nl.band_kernel(0.9, 1.7, c=0.6),
               nl.tabulated_kernel([0, 0.5, 1, 2], [0, 0, 1.5, 0.3])]
    t = np.concatenate([np.linspace(0, 4, 500), rng.uniform(0, 4, 200)])
    for k in kernels:
        env = nl.envelope_for(k, 2.0)
        pk = np.asarray(nl.eval_kernel(k, t))
        pe = np.asarray(nl.eval_kernel(env, t))
        assert np.all(pk <= pe + 1e-12)
        assert nl.validate(env, 2.0).cond_monotone_ok or env.env_a > env.env_b


def test_bound_constant_named_shapes():
    assert nl.bound_constant(nl.indicator_kernel(c=2.5)) == 2.5
    assert nl.bound_constant(nl.envelope_kernel(0.5, 2.0, 2.0, c=2.0)) == 4.0
    assert math.isinf(nl.bound_constant(nl.power_cutoff_kernel(2.0, math.inf)))
