"""Evaluator checks: brute-force oracles, identities, and cross-scheme accord."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import nlsobolev as nl
from nlsobolev.errors import ContractError, ParameterError
from nlsobolev import evaluator, functions
from nlsobolev.evaluator import pair_sum_on_samples, sample_midpoints
from nlsobolev.gamma_limit import _PairObjective


# ----------------------------------------------------------------------
# brute-force double-loop oracle (independent of the lag-grouped code path)
# ----------------------------------------------------------------------

def _brute_pair_1d(u, h, k, p, delta):
    n = len(u)
    total = 0.0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            t = abs(u[i] - u[j]) / delta
            total += delta ** p * nl.eval_kernel(k, t) / (abs(i - j) * h) ** (p + 1) * h * h
    return total


def _brute_pair_2d(u, hx, hy, k, p, delta):
    n0, n1 = u.shape
    total = 0.0
    for i in range(n0):
        for j in range(n1):
            for a in range(n0):
                for b in range(n1):
                    if i == a and j == b:
                        continue
                    r = math.hypot((i - a) * hx, (j - b) * hy)
                    t = abs(u[i, j] - u[a, b]) / delta
                    total += (delta ** p * nl.eval_kernel(k, t)
                              / r ** (p + 2) * (hx * hy) ** 2)
    return total


def test_pair_sum_matches_brute_force_1d():
    rng = np.random.default_rng(10)
    u = rng.uniform(-1, 1, size=40)
    for k in (nl.indicator_kernel(), nl.envelope_kernel(0.8, 1.1, 2.0)):
        for p, delta in ((2.0, 0.3), (1.5, 0.7)):
            got = pair_sum_on_samples(u, (0.1,), k, p, delta)
            want = _brute_pair_1d(u, 0.1, k, p, delta)
            assert got == pytest.approx(want, rel=1e-12)


def test_pair_sum_matches_brute_force_2d():
    rng = np.random.default_rng(11)
    u = rng.uniform(-1, 1, size=(7, 7))
    k = nl.envelope_kernel(1.0, 1.0, 2.0)
    got = pair_sum_on_samples(u, (0.2, 0.2), k, 2.0, 0.4)
    want = _brute_pair_2d(u, 0.2, 0.2, k, 2.0, 0.4)
    assert got == pytest.approx(want, rel=1e-12)


def test_pair_sum_matches_brute_force_2d_rectangle():
    rng = np.random.default_rng(16)
    u = rng.uniform(-1, 1, size=(5, 9))
    k = nl.indicator_kernel()
    got = pair_sum_on_samples(u, (0.25, 0.125), k, 2.0, 0.3)
    want = _brute_pair_2d(u, 0.25, 0.125, k, 2.0, 0.3)
    assert got == pytest.approx(want, rel=1e-12)


def test_pair_threads_bitwise_equal():
    rng = np.random.default_rng(12)
    u = rng.uniform(-1, 1, size=2000)
    k = nl.indicator_kernel()
    vals = {pair_sum_on_samples(u, (0.01,), k, 2.0, 0.2, threads=t) for t in (1, 2, 4, 8)}
    assert len(vals) == 1


# ----------------------------------------------------------------------
# exact counts for the 0/1 kernels against the division form
# ----------------------------------------------------------------------

def _division_form(fn, *args):
    """fn(*args) with _count_cuts disabled: every kernel sums shape(|du|/delta)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evaluator, "_count_cuts", lambda k, delta: None)
        return fn(*args)


def _with_block(fn, *args, block):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evaluator, "_BLOCK", block)
        return fn(*args)


def _move_gains(u, spacings, k, p, delta, step):
    """Kappa-move gains of the first, middle and last cell, by +step and -2 step."""
    obj = _PairObjective(k, p, delta, spacings, u.shape)   # built inside _division_form
    gains = []
    for flat in (0, u.size // 2, u.size - 1):
        where = (flat,) if u.ndim == 1 else divmod(flat, u.shape[1])
        gains += [obj.move_delta(u, where, u[where], u[where] + s * step) for s in (1, -2)]
    return gains


_ZERO_ONE_KERNELS = st.sampled_from([
    nl.indicator_kernel(), nl.indicator_kernel(threshold=0.5),
    nl.indicator_kernel(threshold=3.0), nl.band_kernel(1.0, 2.0),
    nl.band_kernel(0.5, 3.0), nl.band_kernel(1.0, math.inf),
])
# lattice steps q and delta = q * r: |du| / delta often lands exactly on an edge
# (dyadic q), or within an ulp of it (q = 0.1, 1/3)
_LATTICE = st.tuples(st.sampled_from([0.25, 0.1, 1.0 / 3.0, 3.0]),
                     st.sampled_from([1.0, 0.5, 2.0, 1.0 / 3.0, 0.1]))


@settings(max_examples=60, deadline=None)
@given(k=_ZERO_ONE_KERNELS, lattice=_LATTICE,
       ints=st.lists(st.integers(-6, 6), min_size=2, max_size=80))
def test_count_path_bitwise_equals_division_form_1d(k, lattice, ints):
    q, r = lattice
    u = np.array(ints) * q
    args = (u, (0.01,), k, 2.0, q * r)
    assert pair_sum_on_samples(*args) == _division_form(pair_sum_on_samples, *args)
    assert _move_gains(*args, q) == _division_form(_move_gains, *args, q)


@settings(max_examples=40, deadline=None)
@given(k=_ZERO_ONE_KERNELS, lattice=_LATTICE,
       shape=st.tuples(st.integers(2, 12), st.integers(2, 12)),
       block=st.sampled_from([1, 40, 1000]), seed=st.integers(0, 2 ** 16))
def test_count_path_bitwise_equals_division_form_2d(k, lattice, shape, block, seed):
    # small _BLOCK values split each my into many row and column blocks
    q, r = lattice
    u = np.random.default_rng(seed).integers(-4, 5, size=shape) * q
    args = (u, (0.1, 0.05), k, 2.5, q * r)
    want = _division_form(pair_sum_on_samples, *args)
    assert _with_block(pair_sum_on_samples, *args, block=block) == want
    assert _move_gains(*args, q) == _division_form(_move_gains, *args, q)


@pytest.mark.parametrize("k", [nl.indicator_kernel(), nl.band_kernel(1.0, 2.0)])
def test_count_path_bitwise_equals_division_form_2d_default_block(k):
    # 48^3 |du| values at my = 0: several blocks per my at the default _BLOCK
    u = np.random.default_rng(17).integers(-4, 5, size=(48, 48)) * 0.1
    args = (u, (1 / 48, 1 / 48), k, 2.0, 0.2)
    assert 48 ** 3 > evaluator._BLOCK
    assert pair_sum_on_samples(*args) == _division_form(pair_sum_on_samples, *args)


@pytest.mark.parametrize("k", [nl.indicator_kernel(), nl.indicator_kernel(threshold=2.0),
                               nl.band_kernel(1.0, 2.0), nl.band_kernel(0.5, math.inf)])
@pytest.mark.parametrize("dim", [1, 2])
def test_count_path_bitwise_equals_division_form_polar(k, dim):
    if dim == 1:
        # lattice levels: at delta = 0.5 the jumps give |du| / delta = 1, 1.5, 2, 3
        f = nl.step_function([-0.5, 0.0, 0.5, 0.75], [0.0, 0.5, 1.5, 0.75, 0.0],
                             nl.whole_space([-1.0], [1.0], padding=1.0))
        params = nl.FunctionalParams(p=2.0, delta=0.5, grid_n=256, polar_h_steps=128)
    else:
        x = np.linspace(-1.0, 1.0, 17)
        r2 = x[:, None] ** 2 + x[None, :] ** 2
        f = nl.grid_function(np.where(r2 < 1.0, np.round(4 * (1.0 - r2)) / 4, 0.0),
                             [-1.0, -1.0], 0.125, flavor="whole-space", padding=1.0)
        params = nl.FunctionalParams(p=2.0, delta=0.25, grid_n=24, polar_h_steps=64,
                                     polar_angle_steps=8)
    got = nl.lambda_polar(f, k, params).value
    assert got > 0.0
    assert got == _division_form(nl.lambda_polar, f, k, params).value


# ----------------------------------------------------------------------
# one pair core: the kappa moves read the pair sum's weights and terms
# ----------------------------------------------------------------------

@pytest.mark.parametrize("shape", [(56, 56), (32, 48)])
def test_move_weights_bitwise_equal_pair_weights_2d(shape):
    n0, n1 = shape
    spac = (1.0 / n0, 1.0 / n1)
    k = nl.band_kernel(1.0, 2.0)
    # the weight the pair sum applies to each lag: lag sums forced to 1, per-lag terms captured
    applied = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evaluator, "_lag_sums_2d", lambda *a: np.ones((n1, 2 * n0 - 1)))
        mp.setattr(evaluator, "_chunked_sum", lambda terms, chunk: applied.append(terms) or 0.0)
        pair_sum_on_samples(np.zeros(shape), spac, k, 2.0, 1.0)
    lags = [(mx, 0) for mx in range(1, n0)]
    lags += [(mx, my) for my in range(1, n1) for mx in range(1 - n0, n0)]
    assert len(applied[0]) == len(lags)
    # the weight a move applies: with the band (1, 2) at delta = 1, moving v[i, j]
    # from 0 to 0.5 next to v[a, b] = 2 changes only that pair's term, by exactly 1
    obj = _PairObjective(k, 2.0, 1.0, spac, shape)
    v = np.zeros(shape)
    for (mx, my), w in zip(lags, applied[0]):
        i = 0 if mx >= 0 else n0 - 1
        v[i + mx, my] = 2.0
        assert obj.move_delta(v, (i, 0), 0.0, 0.5) == w, (mx, my)
        v[i + mx, my] = 0.0


@pytest.mark.parametrize("shape", [(512,), (24, 24)])
@pytest.mark.parametrize("k", [nl.indicator_kernel(), nl.envelope_kernel(0.8, 1.1, 2.0)])
def test_move_running_total_tracks_full(shape, k):
    rng = np.random.default_rng(22)
    v = rng.uniform(0.0, 1.0, shape)
    obj = _PairObjective(k, 2.0, 0.1, tuple(1.0 / n for n in shape), shape)
    total = obj.full(v)
    for _ in range(200):
        flat = int(rng.integers(v.size))
        where = (flat,) if v.ndim == 1 else divmod(flat, shape[1])
        new = v[where] + rng.normal(0.0, 0.1)
        total += obj.move_delta(v, where, v[where], new)
        v[where] = new
    assert total == pytest.approx(obj.full(v), rel=1e-13)


_EDGES = st.floats(min_value=5e-324, max_value=1e300, allow_nan=False,
                   allow_infinity=False, allow_subnormal=True)
_DELTAS = st.floats(min_value=5e-324, max_value=1.7e308, allow_nan=False,
                    allow_infinity=False, allow_subnormal=True)


def _is_cut(a, pred):
    """a is the smallest double >= 0 where the monotone pred holds."""
    return pred(a) and (a == 0.0 or not pred(math.nextafter(a, 0.0)))


def _normal(*xs):
    return all(2.3e-308 < x < 1e307 for x in xs)


@settings(max_examples=400, deadline=None)
@given(threshold=_EDGES, delta=_DELTAS)
def test_count_cuts_indicator_defining_property(threshold, delta):
    cuts = evaluator._count_cuts(nl.indicator_kernel(threshold=threshold), delta)
    if _normal(threshold, delta, threshold * delta):
        assert cuts is not None
    if cuts is not None:
        lo, hi = cuts
        assert hi is None
        assert _is_cut(lo, lambda a: a / delta > threshold)


@settings(max_examples=400, deadline=None)
@given(lo_edge=_EDGES, width=st.floats(1.0 + 2 ** -52, 1e6), delta=_DELTAS,
       open_top=st.booleans())
def test_count_cuts_band_defining_property(lo_edge, width, delta, open_top):
    hi_edge = math.inf if open_top else lo_edge * width
    assume(hi_edge > lo_edge)
    cuts = evaluator._count_cuts(nl.band_kernel(lo_edge, hi_edge), delta)
    if _normal(lo_edge, hi_edge, delta, lo_edge * delta, hi_edge * delta):
        assert cuts is not None
    if cuts is not None:
        lo, hi = cuts
        assert _is_cut(lo, lambda a: a / delta > lo_edge)
        assert _is_cut(hi, lambda a: a / delta >= hi_edge)


def test_count_cuts_terminate_on_non_finite_edges_and_deltas():
    # the cut search ends for every edge and delta; a missing cut means the division form
    for delta in (math.nan, math.inf, -1.0, 0.0):
        assert evaluator._count_cuts(nl.indicator_kernel(), delta) is None
    assert evaluator._count_cuts(nl.indicator_kernel(threshold=math.inf), 0.5) is None
    assert evaluator._count_cuts(nl.band_kernel(1.0, math.inf), 2.0)[1] == math.inf
    lo, hi = evaluator._count_cuts(nl.band_kernel(1.0, math.inf), 0.5)
    assert hi / 0.5 == math.inf and math.nextafter(hi, 0.0) / 0.5 < math.inf
    assert evaluator._count_cuts(nl.envelope_kernel(0.8, 1.1, 2.0), 0.5) is None


# ----------------------------------------------------------------------
# lambda_pair behavior
# ----------------------------------------------------------------------

def test_constant_function_gives_zero():
    dom = nl.bounded_box([0.0], [1.0])
    f = nl.affine_function([0.0], 3.0, dom)
    params = nl.FunctionalParams(p=2.0, delta=0.1, grid_n=64)
    assert nl.lambda_pair(f, nl.indicator_kernel(), params).value == 0.0


def test_affine_closed_form_medium_grid():
    # Lambda_delta(x -> x, (0,1)) = (1 - delta)^2 for the normalized indicator
    k = nl.normalize(nl.indicator_kernel(), 1, 2.0)
    f = nl.affine_function([1.0], 0.0, nl.bounded_box([0.0], [1.0]))
    for delta in (0.4, 0.2, 0.1):
        res = nl.lambda_pair(f, k, nl.FunctionalParams(p=2.0, delta=delta, grid_n=2048))
        assert res.value == pytest.approx((1 - delta) ** 2, rel=5e-3)


def test_band_kernel_step_exact_zero():
    k = nl.normalize(nl.band_kernel(1, 2), 1, 2.0)
    f = nl.unit_step(-1.0, 2.0)
    params = nl.FunctionalParams(p=2.0, delta=0.25, grid_n=512)
    assert nl.lambda_pair(f, k, params).value == 0.0


def test_nonnegative_on_noise():
    rng = np.random.default_rng(13)
    f = nl.grid_function(rng.standard_normal(129), [0.0], 1 / 128)
    res = nl.lambda_pair(f, nl.indicator_kernel(),
                         nl.FunctionalParams(p=2.0, delta=0.2, grid_n=128))
    assert res.value >= 0.0


def test_kernel_monotonicity_transfer():
    # phi <= phi_tilde pointwise forces the same order for the functionals
    rng = np.random.default_rng(14)
    f = nl.grid_function(np.cumsum(rng.uniform(-0.05, 0.08, size=65)), [0.0], 1 / 64)
    params = nl.FunctionalParams(p=2.0, delta=0.15, grid_n=64)
    for k in (nl.indicator_kernel(c=0.8), nl.band_kernel(0.9, 1.8, c=0.5)):
        env = nl.envelope_for(k, 2.0)
        v_k = nl.lambda_pair(f, k, params).value
        v_env = nl.lambda_pair(f, env, params).value
        assert v_k <= v_env + 1e-15


def test_diagonal_certificate_for_lipschitz():
    # the skipped same-cell mass has a finite certificate for Lipschitz data
    k = nl.normalize(nl.envelope_kernel(1, 1, 2.0), 1, 2.0)
    f = nl.affine_function([1.0], 0.0, nl.bounded_box([0.0], [1.0]))
    res = nl.lambda_pair(f, k, nl.FunctionalParams(p=2.0, delta=0.1, grid_n=256))
    assert 0.0 < res.tail_bound < math.inf
    res2 = nl.lambda_pair(f, k, nl.FunctionalParams(p=2.0, delta=0.1, grid_n=512))
    assert res2.tail_bound < res.tail_bound  # finer grid certifies less skipped mass


def test_diagonal_certificate_infinite_for_step():
    k = nl.normalize(nl.envelope_kernel(1, 1, 2.0), 1, 2.0)
    res = nl.lambda_pair(nl.unit_step(), k,
                         nl.FunctionalParams(p=2.0, delta=0.1, grid_n=256))
    assert math.isinf(res.tail_bound)


def test_mesh_cauchy_for_lipschitz():
    k = nl.normalize(nl.indicator_kernel(), 1, 2.0)
    f = nl.sine_function(1.0, 1.0, nl.bounded_box([0.0], [1.0]))
    vals = [nl.lambda_pair(f, k, nl.FunctionalParams(p=2.0, delta=0.2, grid_n=n)).value
            for n in (256, 512, 1024, 2048)]
    gaps = [abs(a - b) for a, b in zip(vals, vals[1:])]
    assert gaps[-1] < gaps[0]
    assert abs(vals[-1] / vals[-2] - 1.0) < 5e-3


# ----------------------------------------------------------------------
# identities
# ----------------------------------------------------------------------

def test_scaling_check_randomized():
    rng = np.random.default_rng(15)
    dom = nl.bounded_box([0.0], [1.0])
    for _ in range(10):
        kind = rng.integers(3)
        if kind == 0:
            f = nl.affine_function([float(rng.uniform(-2, 2))], 0.0, dom)
        elif kind == 1:
            f = nl.sine_function(float(rng.uniform(0.5, 3)), 1.0, dom)
        else:
            f = nl.grid_function(rng.standard_normal(65), [0.0], 1 / 64)
        k = (nl.indicator_kernel(), nl.band_kernel(), nl.envelope_kernel(1, 1, 2.0))[rng.integers(3)]
        params = nl.FunctionalParams(p=float(rng.uniform(1.2, 3)),
                                     delta=float(rng.uniform(0.05, 0.5)), grid_n=128)
        assert nl.scaling_check(f, k, params) <= 1e-12


def test_dilation_check_identity():
    k = nl.normalize(nl.indicator_kernel(), 1, 2.0)
    dom = nl.bounded_box([0.0], [1.0])
    for f in (nl.affine_function([1.0], 0.0, dom),
              nl.sine_function(1.0, 1.0, dom)):
        params = nl.FunctionalParams(p=2.0, delta=0.1, grid_n=256)
        assert nl.dilation_check(f, k, params, 1.0) == 0.0
        assert nl.dilation_check(f, k, params, 2.0) <= 1e-12


def test_dilation_check_rejects_fractional_grid():
    f = nl.affine_function([1.0], 0.0, nl.bounded_box([0.0], [1.0]))
    params = nl.FunctionalParams(p=2.0, delta=0.1, grid_n=256)
    with pytest.raises(ParameterError):
        nl.dilation_check(f, nl.indicator_kernel(), params, 2.0 / 3.0)


# ----------------------------------------------------------------------
# polar scheme
# ----------------------------------------------------------------------

def test_polar_rejects_bounded():
    f = nl.sine_function(1.0, 1.0, nl.bounded_box([0.0], [1.0]))
    params = nl.FunctionalParams(p=2.0, delta=0.1, grid_n=64)
    with pytest.raises(ContractError):
        nl.lambda_polar(f, nl.indicator_kernel(), params)


def test_polar_constant_zero():
    tent = nl.tent_function(nodes_per_unit=8)
    zeros = nl.grid_function(np.zeros_like(tent.grid_values), tent.grid_origin,
                             tent.grid_spacing, flavor="whole-space", padding=1.0)
    params = nl.FunctionalParams(p=2.0, delta=0.1, grid_n=64)
    assert nl.lambda_polar(zeros, nl.indicator_kernel(), params).value == 0.0


def test_polar_matches_pair_on_tent():
    tent = nl.tent_function(half_width=1.0, height=1.0, padding=2.0, nodes_per_unit=64)
    k = nl.normalize(nl.indicator_kernel(), 1, 2.0)
    params = nl.FunctionalParams(p=2.0, delta=0.1, grid_n=4096,
                                 polar_h_min=1e-3, polar_h_max=100.0,
                                 polar_h_steps=1600)
    pr = nl.lambda_pair(tent, k, params)
    po = nl.lambda_polar(tent, k, params)
    allowed = pr.tail_bound + po.tail_bound + 0.02 * max(pr.value, po.value)
    assert abs(pr.value - po.value) <= allowed


def _product_pointwise(f, c0, c1):
    """u on the tensor product of c0 and c1, through eval_u on materialized points."""
    pts = np.stack(np.broadcast_arrays(c0[:, None], c1[None, :]), axis=-1)
    return nl.eval_u(f, pts).reshape(pts.shape[:-1])


@pytest.mark.parametrize("dim", [1, 2])
def test_polar_pool_width_bitwise_equal(monkeypatch, dim):
    # every pool width, and in 2-D the point-wise reference for the tensor
    # grid, give the same bits
    if dim == 1:
        f = nl.tent_function(half_width=1.0, height=1.0, padding=2.0, nodes_per_unit=16)
        params = nl.FunctionalParams(p=2.0, delta=0.1, grid_n=512, polar_h_steps=256)
    else:
        x = np.linspace(-1.0, 1.0, 17)
        r2 = x[:, None] ** 2 + x[None, :] ** 2
        f = nl.grid_function(np.where(r2 < 1.0, (1.0 - r2) ** 2, 0.0), [-1.0, -1.0],
                             0.125, flavor="whole-space", padding=1.0)
        params = nl.FunctionalParams(p=2.0, delta=0.25, grid_n=24, polar_h_steps=128,
                                     polar_angle_steps=8)
    for k in (nl.indicator_kernel(), nl.envelope_kernel(0.8, 1.1, 2.0)):
        k = nl.normalize(k, dim, 2.0)
        vals = set()
        with monkeypatch.context() as mp:
            for width in (1, 2, 4):
                mp.setattr(evaluator, "POLAR_THREADS", width)
                vals.add(nl.lambda_polar(f, k, params).value)
            mp.setattr(evaluator, "_values_on_product", _product_pointwise)
            vals.add(nl.lambda_polar(f, k, params).value)
        assert len(vals) == 1, k.shape


def _bilinear_reference(f, pts):
    """The 2-D lattice interpolant point by point, with 2-D corner indexing."""
    vals, h = f.grid_values, f.grid_spacing
    p = pts.reshape(-1, 2)
    idx, frac = [], []
    for ax in range(2):
        t = np.clip((p[:, ax] - f.grid_origin[ax]) / h, 0.0, vals.shape[ax] - 1.0)
        i0 = np.minimum(t.astype(int), vals.shape[ax] - 2)
        idx.append(i0)
        frac.append(t - i0)
    (i, j), (s, t) = idx, frac
    v = (vals[i, j] * (1 - s) * (1 - t) + vals[i + 1, j] * s * (1 - t)
         + vals[i, j + 1] * (1 - s) * t + vals[i + 1, j + 1] * s * t)
    return v.reshape(pts.shape[:-1])


def _axis_coords(draw, lo, hi, shape):
    """Coordinates on one axis: off the lattice on both sides, on its first and
    last nodes, and in between."""
    pick = st.one_of(st.sampled_from([lo, hi, lo - 0.3, hi + 0.7, lo - 1e-9, hi + 1e-9]),
                     st.floats(lo - 2.0, hi + 2.0))
    return np.array(draw(st.lists(pick, min_size=math.prod(shape),
                                  max_size=math.prod(shape)))).reshape(shape)


@st.composite
def _lattice_and_coords(draw):
    m0, m1 = draw(st.integers(2, 9)), draw(st.integers(2, 9))
    spacing = draw(st.sampled_from([0.125, 0.1, 1.0 / 3.0, 2.0]))
    origin = (draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0)))
    values = np.array(draw(st.lists(st.floats(-5.0, 5.0), min_size=m0 * m1,
                                    max_size=m0 * m1))).reshape(m0, m1)
    n0, n1, rest = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(1, 4))
    c0 = _axis_coords(draw, origin[0], origin[0] + spacing * (m0 - 1), (n0, rest))
    c1 = _axis_coords(draw, origin[1], origin[1] + spacing * (m1 - 1), (n1, rest))
    return values, origin, spacing, c0, c1


@settings(max_examples=150, deadline=None)
@given(case=_lattice_and_coords())
def test_tensor_grid_values_bitwise_equal_pointwise(case):
    values, origin, spacing, c0, c1 = case
    f = nl.grid_function(values, origin, spacing, flavor="whole-space", padding=1.0)
    got = functions._values_on_product(f, c0, c1)
    assert got.shape == c0.shape[:1] + c1.shape
    pts = np.stack(np.broadcast_arrays(c0[:, None], c1[None, :]), axis=-1)
    assert got.tobytes() == _product_pointwise(f, c0, c1).tobytes()
    assert got.tobytes() == _bilinear_reference(f, pts).tobytes()


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["affine", "cube-profile", "sine", "grid"]),
       n=st.integers(16, 40), lo=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
       size=st.tuples(st.floats(0.1, 3.0), st.floats(0.1, 3.0)), seed=st.integers(0, 2 ** 16))
def test_sample_midpoints_2d_bitwise_equal_pointwise(kind, n, lo, size, seed):
    rng = np.random.default_rng(seed)
    hi = tuple(a + b for a, b in zip(lo, size))
    dom = nl.bounded_box(lo, hi)
    if kind == "affine":
        f = nl.affine_function(rng.uniform(-3.0, 3.0, 2), float(rng.uniform(-1.0, 1.0)), dom)
    elif kind == "cube-profile":
        f = nl.cube_profile(2, dom)
    elif kind == "sine":
        f = nl.sine_function(float(rng.uniform(0.2, 3.0)), float(rng.uniform(-2.0, 2.0)), dom)
    else:
        m0, m1 = rng.integers(2, 12, size=2)
        f = nl.grid_function(rng.uniform(-1.0, 1.0, (m0, m1)), lo,
                             max(size[0] / (m0 - 1), size[1] / (m1 - 1)))
    u, spac = sample_midpoints(f, n)
    axes = [a + (np.arange(n) + 0.5) * h for a, h in zip(f.domain.window_lo, spac)]
    assert u.tobytes() == _product_pointwise(f, *axes).tobytes()


def test_polar_hands_the_bench_an_eval_u_array_2d(monkeypatch):
    # bench/probe.py records the array each polar chunk passes to
    # _polar_eval_shifted and times functions.eval_u on it; that array is
    # (n, nh, d) in 1-D as in 2-D, so the seam is pinned in both dimensions.
    # Its wrapper takes three arguments, as the one patched in here does
    x = np.linspace(-1.0, 1.0, 9)
    tent = np.maximum(0.0, 1.0 - np.abs(x))
    bump = np.maximum(0.0, 1.0 - x[:, None] ** 2 - x[None, :] ** 2)
    seen = []
    shifted = evaluator._polar_eval_shifted
    monkeypatch.setattr(evaluator, "_polar_eval_shifted",
                        lambda f_, pts, box: seen.append(pts) or shifted(f_, pts, box))
    params = nl.FunctionalParams(p=2.0, delta=0.25, grid_n=16, polar_h_steps=16,
                                 polar_angle_steps=4)
    for values, n_chunks in ((tent, 2), (bump, 4)):
        d = values.ndim
        f = nl.grid_function(values, [-1.0] * d, 0.25, flavor="whole-space", padding=0.5)
        seen.clear()
        nl.lambda_polar(f, nl.indicator_kernel(), params)
        assert len(seen) == n_chunks
        for pts in seen:
            assert isinstance(pts, np.ndarray) and pts.ndim == 3 and pts.shape[-1] == d
            vals = functions.eval_u(f, pts)
            assert vals.shape == (pts.size // d,) and np.all(np.isfinite(vals))
    # in 1-D the chunk's points are the evaluated points
    pts = np.linspace(-1.5, 1.5, 16 * 5).reshape(16, 5, 1)
    whole = nl.grid_function(tent, [-1.0], 0.25, flavor="whole-space", padding=0.5)
    assert shifted(whole, pts, None).tobytes() == functions.eval_u(whole, pts).tobytes()


def test_polar_matches_pair_2d_smooth():
    # 2-D cross-check on a compactly supported bump (grid kind)
    n_nodes = 65
    x = np.linspace(-1.0, 1.0, n_nodes)
    X, Y = np.meshgrid(x, x, indexing="ij")
    r2 = X ** 2 + Y ** 2
    vals = np.where(r2 < 1.0, (1.0 - r2) ** 2, 0.0)
    f = nl.grid_function(vals, [-1.0, -1.0], 2.0 / (n_nodes - 1),
                         flavor="whole-space", padding=1.0)
    k = nl.normalize(nl.indicator_kernel(), 2, 2.0)
    params = nl.FunctionalParams(p=2.0, delta=0.25, grid_n=48,
                                 polar_h_min=1e-2, polar_h_max=64.0,
                                 polar_h_steps=400, polar_angle_steps=96)
    pr = nl.lambda_pair(f, k, params)
    po = nl.lambda_polar(f, k, params)
    assert po.value == pytest.approx(pr.value, rel=0.08)


def test_polar_sweep_windowed_sine_approaches_energy():
    # compactly supported sine bump: polar values drift toward its energy
    f = nl.windowed_sine(frequency=1.0, amplitude=1.0, padding=1.0,
                         nodes_per_unit=256)
    k = nl.normalize(nl.indicator_kernel(), 1, 2.0)
    energy = nl.sobolev_energy(f, 2.0)
    ratios = []
    for delta in (0.2, 0.1, 0.05):
        params = nl.FunctionalParams(p=2.0, delta=delta, grid_n=2048,
                                     polar_h_min=1e-3, polar_h_max=100.0,
                                     polar_h_steps=1200)
        ratios.append(nl.lambda_polar(f, k, params).value / energy)
    # compact support on the whole space: no boundary deficit, so the
    # ratio sits within a fraction of a percent already at delta = 0.2
    assert all(abs(r - 1.0) < 0.02 for r in ratios)
    assert abs(ratios[-1] - 1.0) < 0.01


def test_polar_tail_decreases_with_h_max():
    tent = nl.tent_function(nodes_per_unit=16)
    k = nl.normalize(nl.indicator_kernel(), 1, 2.0)
    tails = []
    for hmax in (20.0, 200.0):
        params = nl.FunctionalParams(p=2.0, delta=0.1, grid_n=256, polar_h_max=hmax)
        tails.append(nl.lambda_polar(tent, k, params).tail_bound)
    assert tails[1] < tails[0]


# ----------------------------------------------------------------------
# parameter validation
# ----------------------------------------------------------------------

def test_params_validation():
    with pytest.raises(ParameterError):
        nl.FunctionalParams(p=0.5, delta=0.1)
    with pytest.raises(ParameterError):
        nl.FunctionalParams(p=2.0, delta=-1.0)
    with pytest.raises(ParameterError):
        nl.FunctionalParams(p=2.0, delta=0.1, grid_n=8)


@pytest.mark.parametrize("delta", [math.nan, math.inf])
def test_non_finite_delta_rejected(delta):
    k = nl.indicator_kernel()
    f = nl.affine_function([1.0], 0.0, nl.bounded_box([0.0], [1.0]))
    calls = [
        lambda: nl.FunctionalParams(p=2.0, delta=delta),
        lambda: nl.KappaProblem(kernel=k, delta=delta, grid_n=64),
        lambda: pair_sum_on_samples(np.zeros(8), (0.1,), k, 2.0, delta),
        lambda: nl.delta_sweep(f, k, 2.0, [0.2, delta], grid_n=64),
        lambda: nl.scaled_kernel_eval(k, 2.0, delta, 0.5),
    ]
    for call in calls:
        with pytest.raises(ParameterError, match="delta must be finite and positive"):
            call()


def test_sample_midpoints_layout():
    f = nl.affine_function([1.0], 0.0, nl.bounded_box([0.0], [1.0]))
    u, (h,) = sample_midpoints(f, 16)
    assert u.shape == (16,)
    assert h == pytest.approx(1 / 16)
    assert u[0] == pytest.approx(h / 2)


def test_non_finite_samples_rejected():
    k = nl.normalize(nl.indicator_kernel(), 1, 2.0)
    with pytest.raises(ParameterError):
        nl.grid_function([0.0, 0.5, np.nan, 0.2], [0.0], 0.25)
    nan_affine = nl.affine_function([np.nan], 0.0, nl.bounded_box([0.0], [1.0]))
    with pytest.raises(ParameterError):
        sample_midpoints(nan_affine, 64)
    params = nl.FunctionalParams(p=2.0, delta=0.2, grid_n=64, polar_h_steps=16)
    with pytest.raises(ParameterError):
        nl.lambda_pair(nan_affine, k, params)
    inf_sine = nl.sine_function(1.0, np.inf, nl.whole_space([0.0], [1.0]))
    with pytest.raises(ParameterError):
        nl.lambda_polar(inf_sine, k, params)
    prob = nl.KappaProblem(kernel=k, delta=0.2, grid_n=64,
                           iterations=10, restarts=1, profile=nan_affine)
    with pytest.raises(ParameterError):
        nl.kappa_estimate(prob)
