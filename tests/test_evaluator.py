"""Evaluator checks: brute-force oracles, identities, and cross-scheme accord."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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


# monotone with ties (counted by bisection under a 0/1 kernel), and one ulp
# away from monotone (always the lag traversal)
_RISING = np.repeat(np.linspace(-1.0, 1.0, 20) ** 3, 2)
_ONE_ULP_OFF = _RISING.copy()
_ONE_ULP_OFF[11] = np.nextafter(_ONE_ULP_OFF[10], -np.inf)


def test_pair_sum_matches_brute_force_1d():
    rng = np.random.default_rng(10)
    for u in (rng.uniform(-1, 1, size=40), _RISING, _RISING[::-1], _ONE_ULP_OFF):
        for k in (nl.indicator_kernel(), nl.band_kernel(0.5, 2.0),
                  nl.envelope_kernel(0.8, 1.1, 2.0)):
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
    # the weight the pair sum applies to each lag: lag sums forced to 1 (one table
    # s[j, my, mx + n0 - 1] per delta j), per-lag terms captured
    applied = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evaluator, "_lag_sums_2d",
                   lambda u, terms: np.ones((len(terms), n1, 2 * n0 - 1)))
        mp.setattr(evaluator, "_chunked_sum", lambda terms, chunk: applied.append(terms) or 0.0)
        pair_sum_on_samples(np.zeros(shape), spac, k, 2.0, 1.0)
    lags = [(mx, 0) for mx in range(1, n0)]
    lags += [(mx, my) for my in range(1, n1) for mx in range(1 - n0, n0)]
    assert len(applied) == 1                  # the weights of the one delta, and no more
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


# ----------------------------------------------------------------------
# one pair traversal per grid: a delta list has the bits of one call per delta
# ----------------------------------------------------------------------

# every kernel shape; the 0/1 ones count against cuts unless the division form is forced
_ALL_KERNELS = st.sampled_from([
    nl.indicator_kernel(threshold=0.5), nl.band_kernel(1.0, 2.0), nl.band_kernel(0.5, math.inf),
    nl.envelope_kernel(0.8, 1.1, 2.0), nl.power_cutoff_kernel(3.0, 1.5),
    nl.tabulated_kernel([0.0, 0.5, 1.0, 2.0], [0.0, 0.2, 1.0, 0.0]),
])
_DELTA_FACTORS = st.lists(st.sampled_from([1.0, 0.5, 2.0, 1.0 / 3.0, 0.1, 3.0]),
                          min_size=1, max_size=5)     # any order, duplicates included


def _lattice_samples(dim, q, seed):
    """Integer multiples of q on a random 1-D or 2-D grid (dim 2 may be non-square)."""
    rng = np.random.default_rng(seed)
    shape = (int(rng.integers(2, 60)),) if dim == 1 else tuple(int(n) for n in
                                                               rng.integers(2, 10, size=2))
    return rng.integers(-6, 7, size=shape) * q


@settings(max_examples=80, deadline=None)
@given(k=_ALL_KERNELS, lattice=_LATTICE, factors=_DELTA_FACTORS, dim=st.sampled_from([1, 2]),
       block=st.sampled_from([1, 40, 1000]), division=st.booleans(), seed=st.integers(0, 2 ** 16))
def test_delta_list_bitwise_equals_one_call_per_delta(k, lattice, factors, dim, block,
                                                      division, seed):
    q, _ = lattice
    u = _lattice_samples(dim, q, seed)
    spac = (0.01,) if dim == 1 else (0.1, 0.05)
    deltas = [q * f for f in factors]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evaluator, "_BLOCK", block)
        if division:
            mp.setattr(evaluator, "_count_cuts", lambda k, delta: None)
        many = pair_sum_on_samples(u, spac, k, 2.5, deltas)
        one = [pair_sum_on_samples(u, spac, k, 2.5, d) for d in deltas]
    assert isinstance(many, list) and all(isinstance(v, float) for v in one)
    assert many == one


def test_delta_list_refuses_before_the_traversal_and_on_any_overflow():
    u = np.linspace(0.0, 2.0, 64)
    spac = (1.0 / 64,)
    k = nl.power_cutoff_kernel(400.0, math.inf)     # (|du|/delta)^400 overflows at delta = 0.2
    assert math.isfinite(pair_sum_on_samples(u, spac, k, 2.0, 0.5))
    for deltas in ([0.5, 0.2], [0.2, 0.5], [0.5, 0.5, 0.2]):
        with pytest.raises(ParameterError, match="non-finite pair sum"):
            pair_sum_on_samples(u, spac, k, 2.0, deltas)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evaluator, "_pair_raw_1d", lambda *a: pytest.fail("traversal started"))
        for deltas, message in (([0.5, math.nan], "delta must be finite"),
                                ([0.5, -1.0], "delta must be finite"), ([], "empty")):
            with pytest.raises(ParameterError, match=message):
                pair_sum_on_samples(u, spac, k, 2.0, deltas)


# ----------------------------------------------------------------------
# monotone 1-D samples: lag counts by bisection, the traversal's integers
# ----------------------------------------------------------------------

def _lag_counts_both_ways(u, terms):
    with np.errstate(invalid="ignore"):      # inf - inf, as inside pair_sum_on_samples
        return evaluator._monotone_lag_counts(u, terms), evaluator._lag_sums_1d(u, terms)


@settings(max_examples=150, deadline=None)
@given(k=_ZERO_ONE_KERNELS, lattice=_LATTICE, factors=_DELTA_FACTORS,
       direction=st.sampled_from([1.0, -1.0, 0.0]), on_cuts=st.booleans(),
       start=st.sampled_from([0.0, 0.7, -3.1, 1e6]),
       steps=st.lists(st.integers(0, 4), min_size=1, max_size=300))
def test_monotone_lag_counts_bitwise_equal_the_traversal(k, lattice, factors, direction,
                                                         on_cuts, start, steps):
    # rising, falling and constant samples with runs of ties; the steps are
    # lattice multiples of q (so |du| / delta lands on the edges) or the
    # cuts themselves and the doubles just below them
    q, _ = lattice
    terms = [evaluator._KernelTerms(k, q * f) for f in factors]
    if on_cuts:
        cuts = [c for t in terms for c in t.cuts if c is not None]
        levels = [0.0] + cuts + [math.nextafter(c, 0.0) for c in cuts]
        rises = [levels[s % len(levels)] for s in steps]
    else:
        rises = [s * q for s in steps]
    u = start + direction * np.cumsum([0.0] + rises)
    got, want = _lag_counts_both_ways(u, terms)
    assert got is not None and got.shape == want.shape
    assert np.array_equal(got, want)
    deltas = [t.delta for t in terms]
    counted = pair_sum_on_samples(u, (0.01,), k, 2.0, deltas)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evaluator, "_monotone_lag_counts", lambda u, terms: None)
        assert pair_sum_on_samples(u, (0.01,), k, 2.0, deltas) == counted


@pytest.mark.parametrize("k", [nl.indicator_kernel(), nl.band_kernel(1.0, 2.0)])
def test_monotone_lag_counts_with_infinite_ends(k):
    # inf - inf is NaN and fails every cut; the bisection counts as the traversal
    for u in ([-np.inf, -np.inf, 0.0, 0.5, 1.5, np.inf], [0.0, 1.0, np.inf, np.inf],
              [np.inf, 3.0, 1.0, 1.0, -1e308, -np.inf]):
        terms = [evaluator._KernelTerms(k, d) for d in (0.5, 1.0)]
        got, want = _lag_counts_both_ways(np.array(u), terms)
        assert got is not None and np.array_equal(got, want)


def test_inputs_off_the_monotone_path_take_the_traversal():
    # one ulp from monotone, a kernel that is not 0/1, a NaN and a float32
    # copy: no bisection (the brute-force test checks the values of the first two)
    ind, env = nl.indicator_kernel(), nl.envelope_kernel(0.8, 1.1, 2.0)
    with_nan = _RISING.copy()
    with_nan[7] = np.nan
    for u, k in ((_ONE_ULP_OFF, ind), (_ONE_ULP_OFF[::-1], ind), (_RISING, env),
                 (with_nan, ind), (_RISING.astype(np.float32), ind)):
        terms = [evaluator._KernelTerms(k, d) for d in (0.3, 0.1)]
        assert evaluator._monotone_lag_counts(u, terms) is None
    # |du| > 0.5 on one pair at each of the lags 1, 2, 3; a NaN |du| never counts
    u = np.array([0.0, 1.0, np.nan, 2.0])
    assert pair_sum_on_samples(u, (1.0,), ind, 2.0, 0.5) == pytest.approx(
        0.5 ** 2 * 2.0 * (1 + 1 / 2 ** 3 + 1 / 3 ** 3), rel=1e-15)
    # float32 steps just below the cut at delta = 0.7 count only at lag 2; the
    # cut rounds down to the step in float32, where the step would count
    cut = evaluator._KernelTerms(ind, 0.7).cuts[0]
    step = np.float32(cut)
    assert float(step) < cut
    u = np.array([0.0, step, 2 * step], dtype=np.float32)
    assert pair_sum_on_samples(u, (1.0,), ind, 2.0, 0.7) == pytest.approx(
        0.7 ** 2 * 2.0 / 2 ** 3, rel=1e-15)


def _gather_move(obj, v, where, old, new):
    """A kappa move by the gather formula: w[|i - c|] picked per cell, then summed."""
    w = evaluator._lag_weights(v.shape, obj.spacings, obj.p)
    idx = np.ix_(*[np.arange(n) for n in v.shape])
    wrow = w[tuple(np.abs(ix - c) for ix, c in zip(idx, where))]
    diff = obj.terms.values(np.abs(v - new)) - obj.terms.values(np.abs(v - old))
    return obj.factor * float(np.sum(wrow * diff))


@settings(max_examples=60, deadline=None)
@given(k=_ALL_KERNELS, lattice=_LATTICE, dim=st.sampled_from([1, 2]), division=st.booleans(),
       seed=st.integers(0, 2 ** 16))
def test_move_delta_bitwise_equals_gather_reference(k, lattice, dim, division, seed):
    q, r = lattice
    v = _lattice_samples(dim, q, seed).astype(float)
    spac = (0.01,) if dim == 1 else (0.1, 0.05)
    with pytest.MonkeyPatch.context() as mp:
        if division:
            mp.setattr(evaluator, "_count_cuts", lambda k, delta: None)
        obj = _PairObjective(k, 2.5, q * r, spac, v.shape)
    # every corner and edge of the grid, and one inner cell, for the reflected table's ends
    ends = [sorted({0, n // 2, n - 1}) for n in v.shape]
    cells = [(i,) for i in ends[0]] if dim == 1 else [(i, j) for i in ends[0] for j in ends[1]]
    for where in cells:
        for step in (q, -2.0 * q, q / 3.0):
            old, new = v[where], v[where] + step
            assert obj.move_delta(v, where, old, new) == _gather_move(obj, v, where, old, new)
            v[where] = new              # later moves see a changed v and reused buffers


# sample values that sit on a kernel's cut edges or far from every cut
_EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 2.2e-310, 1e305, -1e305]


def _near(x, ulps):
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


@settings(max_examples=150, deadline=None)
@given(k=_ZERO_ONE_KERNELS, lattice=_LATTICE, dim=st.sampled_from([1, 2]),
       extremes=st.booleans(), seed=st.integers(0, 2 ** 16),
       moves=st.lists(st.tuples(st.integers(0, 2 ** 16), st.integers(0, 6),
                                st.integers(-8, 8), st.booleans()), min_size=1, max_size=30))
@example(k=nl.indicator_kernel(), lattice=(0.25, 1.0), dim=1, extremes=True, seed=3,
         moves=[(i, 2, u, True) for i in range(6) for u in (-3, 0, 3)])
def test_windowed_move_bitwise_equals_dense(k, lattice, dim, extremes, seed, moves):
    # lattice samples with ties and |du| on the cut edges, optionally with
    # signed zeros, subnormals and +-1e305; each new value is a lattice step,
    # a cut edge or a few ulps from one (a centre whose distance from the lower
    # cut is a few ulps from 0), or a jump past a whole cut width.  Accepted
    # moves keep the sorted copy in step with v
    q, r = lattice
    v = _lattice_samples(dim, q, seed).astype(float)
    flat_v = v.reshape(-1)
    if extremes:
        flat_v[:len(_EXTREMES)] = _EXTREMES[:flat_v.size]
    spac = (0.01,) if dim == 1 else (0.1, 0.05)
    obj = _PairObjective(k, 2.5, q * r, spac, v.shape)
    lo, hi = obj.cuts
    edges = [lo, -lo] if hi is None else [lo, -lo, hi, -hi]
    obj.start(v)
    for cell, kind, ulps, accept in moves:
        flat = cell % v.size
        old = v.item(flat)
        new = (old + ulps * q, _near(old + edges[ulps % len(edges)], ulps),
               _near(lo, ulps), _near(-lo, ulps), edges[ulps % len(edges)],
               old + 3.0 * ulps * (hi or lo), _EXTREMES[ulps % len(_EXTREMES)])[kind]
        if new == old:
            continue
        where = (flat,) if dim == 1 else divmod(flat, v.shape[1])
        assert obj.gain(v, flat, old, new).hex() == obj.move_delta(v, where, old, new).hex()
        for x in (old, new):        # the runs are the cells the kernel counts against x
            a, b, c, d = obj._edges(x)
            counted = obj.terms.values(np.abs(flat_v - x)).astype(bool)
            assert sorted(obj.order[a:b].tolist() + obj.order[c:d].tolist()) == \
                np.flatnonzero(counted).tolist()
        if accept:
            obj.accept(v, flat, new)
            assert v.item(flat) == new
            assert obj.vals == flat_v[obj.order].tolist() == sorted(flat_v.tolist())


def test_windowed_moves_need_finite_weights():
    # a weight past the largest double makes an unchanged cell of the dense
    # product 0 * inf = nan, which no zero scratch cell holds: such moves stay dense
    k = nl.indicator_kernel()
    assert _PairObjective(k, 2.0, 0.5, (0.1,), (8,)).cuts is not None
    with np.errstate(over="ignore"):
        obj = _PairObjective(k, 2.0, 0.5, (1e-200,), (8,))
    assert obj.cuts is None and not np.isfinite(obj.wr).all()
    v = np.arange(8.0)
    obj.start(v)
    assert math.isnan(obj.gain(v, 3, 3.0, 0.0))
    assert math.isnan(obj.move_delta(v, (3,), 3.0, 0.0))


_EDGES = st.floats(min_value=5e-324, max_value=1e300, allow_nan=False,
                   allow_infinity=False, allow_subnormal=True)
_DELTAS = st.floats(min_value=5e-324, max_value=1.7e308, allow_nan=False,
                    allow_infinity=False, allow_subnormal=True)


def _is_cut(a, pred):
    """a is the smallest double >= 0 where the monotone pred holds."""
    return pred(a) and (a == 0.0 or not pred(math.nextafter(a, 0.0)))


@settings(max_examples=400, deadline=None)
@given(threshold=_EDGES, delta=_DELTAS)
def test_count_cuts_indicator_defining_property(threshold, delta):
    # the cut exists for every finite positive edge and delta, subnormal ones too
    lo, hi = evaluator._count_cuts(nl.indicator_kernel(threshold=threshold), delta)
    assert hi is None
    assert _is_cut(lo, lambda a: a / delta > threshold)


@settings(max_examples=400, deadline=None)
@given(lo_edge=_EDGES, width=st.floats(1.0 + 2 ** -52, 1e6), delta=_DELTAS,
       open_top=st.booleans())
def test_count_cuts_band_defining_property(lo_edge, width, delta, open_top):
    hi_edge = math.inf if open_top else lo_edge * width
    assume(hi_edge > lo_edge)
    lo, hi = evaluator._count_cuts(nl.band_kernel(lo_edge, hi_edge), delta)
    assert _is_cut(lo, lambda a: a / delta > lo_edge)
    if open_top:            # no upper edge, as for the indicator
        assert hi is None
    else:
        assert _is_cut(hi, lambda a: a / delta >= hi_edge)


@pytest.mark.parametrize("threshold, delta", [(2.9522927e-317, 17.05),
                                              (7.869994642e-314, 2.58e81)])
def test_count_cuts_on_subnormal_edges_count_as_the_division_form(threshold, delta):
    # a subnormal edge at a large delta: the cut lies far from edge*delta
    k = nl.indicator_kernel(threshold=threshold)
    lo, hi = evaluator._count_cuts(k, delta)
    assert hi is None and _is_cut(lo, lambda a: a / delta > threshold)
    below = math.nextafter(lo, 0.0)
    u = np.array([0.0, lo, below, 2.0 * lo, -lo, 0.0])   # |du| at, below and past the cut
    for samples, spac in ((u, (0.1,)), (u.reshape(2, 3), (0.1, 0.2))):
        got = pair_sum_on_samples(samples, spac, k, 2.0, delta)
        assert got > 0.0
        assert got == _division_form(pair_sum_on_samples, samples, spac, k, 2.0, delta)


def test_count_cuts_terminate_on_non_finite_edges_and_deltas():
    # None only for a delta that is not finite and positive, an edge no
    # double passes, or a kernel that is not 0/1: those use the division form
    for delta in (math.nan, math.inf, -1.0, 0.0):
        assert evaluator._count_cuts(nl.indicator_kernel(), delta) is None
    assert evaluator._count_cuts(nl.indicator_kernel(threshold=math.inf), 0.5) is None
    for delta in (2.0, 0.5):    # hi = inf is no upper edge: the indicator's cuts
        cuts = evaluator._count_cuts(nl.band_kernel(1.0, math.inf), delta)
        assert cuts == (math.nextafter(delta, math.inf), None)
        assert cuts == evaluator._count_cuts(nl.indicator_kernel(), delta)
    assert evaluator._count_cuts(nl.envelope_kernel(0.8, 1.1, 2.0), 0.5) is None


@pytest.mark.parametrize("lo", [0.7, 1.0, 1.5])
def test_band_without_upper_edge_is_the_indicator(lo):
    # band(lo, inf) is the indicator's phi: every sum, move and verdict has the
    # indicator's bits, also where |du| / delta overflows to inf, in either form
    band, ind = nl.band_kernel(lo, math.inf), nl.indicator_kernel(threshold=lo)
    assert nl.eval_kernel(band, math.inf) == nl.eval_kernel(ind, math.inf) == 1.0
    for d in (1, 2):
        assert nl.validate(band, 2.0, d) == nl.validate(ind, 2.0, d)
    u = np.array([0.0, 1e308, -1e308, 0.5])        # |du| = inf on one pair
    for samples, spac in ((u, (0.1,)), (u.reshape(2, 2), (0.1, 0.2))):
        for form in (pair_sum_on_samples, lambda *a: _division_form(pair_sum_on_samples, *a)):
            assert form(samples, spac, band, 2.0, 0.5) == form(samples, spac, ind, 2.0, 0.5)
    if lo == 1.0:
        assert pair_sum_on_samples(u, (0.1,), band, 2.0, 0.5) == 16.25

    # a whole-space tent so steep that |du| / delta passes the largest double
    band, ind = nl.normalize(band, 1, 2.0), nl.normalize(ind, 1, 2.0)
    tent = nl.tent_function(half_width=1.0, height=1e305, padding=2.0, nodes_per_unit=16)
    params = nl.FunctionalParams(p=2.0, delta=1e-5, grid_n=256, polar_h_min=1e-3,
                                 polar_h_max=1e4, polar_h_steps=64)
    for scheme in (nl.lambda_pair, nl.lambda_polar):
        got = scheme(tent, band, params)
        assert got == scheme(tent, ind, params) and got.value > 0.0
    v, spac = sample_midpoints(tent, params.grid_n)
    assert (_move_gains(v, spac, band, 2.0, params.delta, 1e305)
            == _move_gains(v, spac, ind, 2.0, params.delta, 1e305))


def test_division_form_move_past_the_largest_double_is_quiet():
    # under the envelope, a division-form kernel, |du| / delta passes the
    # largest double: the move gains stay finite and warn nothing (a
    # RuntimeWarning fails this suite), and equal the gather reference
    tent = nl.tent_function(half_width=1.0, height=1e305, padding=2.0, nodes_per_unit=16)
    v, spac = sample_midpoints(tent, 256)
    obj = _PairObjective(nl.envelope_kernel(0.8, 1.1, 2.0), 2.0, 1e-5, spac, v.shape)
    assert obj.terms.cuts is None
    for where in ((0,), (128,), (255,)):
        for step in (1e305, -2e305):
            old, new = v[where], v[where] + step
            gain = obj.move_delta(v, where, old, new)
            assert math.isfinite(gain) and gain != 0.0
            assert gain == _gather_move(obj, v, where, old, new)


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


_ENVELOPE_1D = nl.normalize(nl.envelope_kernel(1, 1, 2.0), 1, 2.0)
_BUMP_AXIS = np.linspace(-1.0, 1.0, 17)
_BUMP_R2 = _BUMP_AXIS[:, None] ** 2 + _BUMP_AXIS[None, :] ** 2
_BUMP_FIELD = nl.grid_function(np.where(_BUMP_R2 < 1.0, (1.0 - _BUMP_R2) ** 2, 0.0),
                               [-1.0, -1.0], 0.125, flavor="whole-space", padding=0.5)


@pytest.mark.parametrize("f, k, delta, n, value, tail", [
    (nl.sine_function(3.0, 1.0, nl.bounded_box([0.0], [1.0])), _ENVELOPE_1D, 0.1, 256,
     135.9087327009072, 87.2051531633),
    (_BUMP_FIELD, nl.normalize(nl.envelope_kernel(1, 1, 2.0), 2, 2.0), 0.5, 48,
     3.3289510734533287, 26.7931819310),
])
def test_pair_diagonal_certificate_reads_the_kinds_lipschitz(f, k, delta, n, value, tail):
    # midpoint chord slopes read below the kind's constant (18.845 against
    # 18.850 for the sine); the certificate takes the constant itself, and
    # the value keeps its bits
    res = nl.lambda_pair(f, k, nl.FunctionalParams(p=2.0, delta=delta, grid_n=n))
    _, spac = sample_midpoints(f, n)
    want = (evaluator._window_bound(f, k, 2.0, delta)
            + evaluator._diagonal_bound(k, 2.0, delta, f.lipschitz, f.domain.window_volume,
                                        spac))
    assert res.tail_bound.hex() == want.hex()
    assert res.tail_bound == pytest.approx(tail, rel=1e-11)
    assert res.value.hex() == value.hex()


def test_polar_certificate_infinite_across_a_jump():
    # the continuum integral diverges across the jump (the value climbs
    # with grid_n), so no finite head term exists
    f = nl.step_function([0.0, 1.0], [0.0, 1.0, 0.0], nl.whole_space([0.0], [1.0], padding=1.0))
    res = nl.lambda_polar(f, _ENVELOPE_1D, nl.FunctionalParams(p=2.0, delta=0.1, grid_n=256,
                                                                polar_h_steps=64))
    assert math.isinf(res.tail_bound)
    assert res.value.hex() == (12.485129199754667).hex()


def test_each_call_reads_the_lipschitz_constant_once(monkeypatch):
    reads = []
    lipschitz = functions.TestFunction.lipschitz
    monkeypatch.setattr(functions.TestFunction, "lipschitz",
                        property(lambda self: reads.append(1) or lipschitz.fget(self)))
    f = nl.windowed_sine(frequency=1.0, amplitude=1.0, padding=1.0)
    params = nl.FunctionalParams(p=2.0, delta=0.2, grid_n=64, polar_h_steps=16)
    for k in (_ENVELOPE_1D, nl.normalize(nl.indicator_kernel(), 1, 2.0)):
        for scheme in (nl.lambda_pair, nl.lambda_polar):
            reads.clear()
            scheme(f, k, params)
            assert len(reads) == 1
    reads.clear()
    rows = nl.delta_sweep(f, _ENVELOPE_1D, 2.0, [0.4, 0.2], grid_n=256).rows
    assert len(reads) == 1 and all(0.0 < r.tail_bound < math.inf for r in rows)


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


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
def test_dilation_check_refuses_a_non_finite_factor(lam):
    # a NaN used to reach round() and raise a bare ValueError
    f = nl.affine_function([1.0], 0.0, nl.bounded_box([0.0], [1.0]))
    params = nl.FunctionalParams(p=2.0, delta=0.1, grid_n=256)
    with pytest.raises(ParameterError, match="dilation factor must be finite and positive"):
        nl.dilation_check(f, nl.indicator_kernel(), params, lam)


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


def _shifted_pointwise(f, pts):
    """u at every point of a polar group, through eval_u on materialized points."""
    if pts.shape[-1] == 1:
        return nl.eval_u(f, pts[..., 0]).reshape(pts.shape[:2])
    return _product_pointwise(f, pts[..., 0], pts[..., 1])


@pytest.mark.parametrize("dim", [1, 2])
def test_polar_zero_off_box_bitwise_equal_pointwise(monkeypatch, dim):
    # u evaluated point by point at every shifted point, on and off the
    # support box, equals what the seam returns and gives lambda_polar the
    # same bits.  Under a 0/1 kernel the seam gets each group's rectangle,
    # returns an array of its shape, and u is exactly 0 off it; every other
    # kernel passes rect = None and gets the whole group.  No run builds a
    # zero-filled group
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
    assert f.support_box is not None
    shifted = evaluator._polar_eval_shifted
    sizes = []                  # per group: (rect is None, returned cells, group cells)

    def pointwise(f_, pts, rect):
        want = _shifted_pointwise(f_, pts)
        got = shifted(f_, pts, rect)
        on = want if rect is None else want[rect]
        assert got.shape == on.shape
        assert np.array_equal(got, on)
        if rect is not None:
            off = want.copy()
            off[rect] = 0.0
            assert np.all(off == 0.0)        # +0 and -0 compare equal
        sizes.append((rect is None, got.size, want.size))
        return on

    zeros = []
    np_zeros = np.zeros

    def recorded_zeros(shape, *args, **kwargs):
        zeros.append(shape)
        return np_zeros(shape, *args, **kwargs)

    for k in (nl.indicator_kernel(), nl.envelope_kernel(0.8, 1.1, 2.0)):
        k = nl.normalize(k, dim, 2.0)
        zeros.clear()
        with monkeypatch.context() as mp:
            mp.setattr(np, "zeros", recorded_zeros)
            got = nl.lambda_polar(f, k, params).value
        assert zeros == [], k.shape
        sizes.clear()
        with monkeypatch.context() as mp:
            mp.setattr(evaluator, "_polar_eval_shifted", pointwise)
            assert nl.lambda_polar(f, k, params).value == got, k.shape
        if k.shape == "indicator":
            assert not any(whole for whole, _, _ in sizes)
            assert any(0 < r < g for _, r, g in sizes) and any(r == 0 for _, r, _ in sizes)
        else:
            assert sizes and all(whole for whole, _, _ in sizes)


def _polar_dense(f, k, params):
    """lambda_polar's value with u evaluated at every shifted point.

    Each 64-step chunk of h takes u at all its points through eval_u, then
    |du|, the kernel terms per h and one dot with the h weights; the chunks
    combine by the pairwise tree.
    """
    dom, delta = f.domain, params.delta
    u0, spac = sample_midpoints(f, params.grid_n)
    ds = math.log(params.polar_h_max / params.polar_h_min) / params.polar_h_steps
    h = np.exp(math.log(params.polar_h_min) + (np.arange(params.polar_h_steps) + 0.5) * ds)
    x = np.stack(evaluator._cell_axes(dom, params.grid_n)[0], axis=-1)
    if dom.dim == 1:
        sigmas, ang_w = [np.array([-1.0]), np.array([1.0])], 1.0
    else:
        n_th = params.polar_angle_steps
        theta = (np.arange(n_th) + 0.5) * (2.0 * math.pi / n_th)
        sigmas = [np.array([math.cos(t), math.sin(t)]) for t in theta]
        ang_w = 2.0 * math.pi / n_th
    terms = evaluator._KernelTerms(k, delta)
    parts = []
    for sigma in sigmas:
        for a in range(0, h.size, 64):
            b = min(a + 64, h.size)
            pts = x[:, None, :] + (delta * h[a:b])[None, :, None] * sigma
            diff = np.abs(_shifted_pointwise(f, pts).reshape(-1, b - a)
                          - u0.ravel()[:, None])
            parts.append(float(np.dot(terms.sum(diff, axis=0), h[a:b] ** (-params.p))))
    return k.scale_c * float(np.prod(spac)) * ang_w * ds * evaluator._tree_sum(parts)


_ALL_SHAPES = st.sampled_from([
    nl.indicator_kernel(threshold=0.7), nl.band_kernel(0.5, 1.5),
    nl.envelope_kernel(0.8, 1.1, 2.0), nl.power_cutoff_kernel(3.0, 1.0),
    nl.tabulated_kernel([0.0, 0.5, 1.0, 2.0], [0.0, 0.1, 0.7, 1.0])])


@st.composite
def _zero_boundary_lattice(draw, dim=None):
    """A whole-space grid function; its boundary nodes are 0 unless `control`."""
    dim = dim or draw(st.sampled_from([1, 2]))
    shape = tuple(draw(st.integers(3, 9)) for _ in range(dim))
    spacing = draw(st.sampled_from([0.125, 0.1, 0.25, 1.0 / 3.0]))
    origin = [draw(st.floats(-2.0, 2.0)) for _ in range(dim)]
    values = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=math.prod(shape),
                                    max_size=math.prod(shape)))).reshape(shape)
    inner = np.zeros(shape, dtype=bool)
    inner[(slice(1, -1),) * dim] = True
    values = np.where(inner, values, 0.0)
    control = draw(st.booleans())
    if control:      # one nonzero boundary node: no support box
        edge = np.flatnonzero(~inner.ravel())
        values.flat[edge[draw(st.integers(0, edge.size - 1))]] = draw(
            st.sampled_from([-1.0, 0.5, 1.5]))
    padding = draw(st.sampled_from([0.25, 0.5, 1.0]))
    f = nl.grid_function(values, origin, spacing, flavor="whole-space", padding=padding)
    return f, control


@settings(max_examples=60, deadline=None)
@given(case=_zero_boundary_lattice(), k=_ALL_SHAPES, delta=st.floats(0.05, 1.0),
       h_min=st.sampled_from([1e-3, 1e-2, 0.1]), h_max=st.sampled_from([2.0, 20.0, 200.0]),
       h_steps=st.integers(8, 90), angles=st.integers(4, 6), n=st.integers(16, 24))
def test_polar_support_box_bitwise_equal_dense(case, k, delta, h_min, h_max, h_steps,
                                               angles, n):
    # groups of 16 h-steps straddle the box edges at moderate delta*h and miss
    # the box entirely at large delta*h; chunks and groups end short of 64 and 16
    f, control = case
    lo = f.grid_origin
    assert f.support_box == (None if control else tuple(
        (o, o + f.grid_spacing * (m - 1)) for o, m in zip(lo, f.grid_values.shape)))
    params = nl.FunctionalParams(p=2.0, delta=delta, grid_n=n, polar_h_min=h_min,
                                 polar_h_max=h_max, polar_h_steps=h_steps,
                                 polar_angle_steps=angles)
    got = nl.lambda_polar(f, k, params).value
    with np.errstate(over="ignore"):
        assert got == _polar_dense(f, k, params)


def _polar_without_quiet_steps(f, k, params):
    """lambda_polar with no quiet h-step, so none is skipped, and the number
    of groups that reach _polar_eval_shifted."""
    shifted, groups = evaluator._polar_eval_shifted, []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evaluator, "_quiet_h_steps", lambda *args: 0)
        mp.setattr(evaluator, "_polar_eval_shifted",
                   lambda f_, pts, rect: groups.append(pts.shape[1]) or shifted(f_, pts, rect))
        return nl.lambda_polar(f, k, params), len(groups)


@st.composite
def _polar_field(draw):
    """A whole-space lattice (zero boundary or not) or a whole-space sine, 1-D or 2-D."""
    if draw(st.booleans()):
        return draw(_zero_boundary_lattice())[0]
    dim = draw(st.sampled_from([1, 2]))
    return nl.sine_function(draw(st.sampled_from([0.5, 1.0, 3.0])),
                            draw(st.sampled_from([-2.0, 0.25, 1.0])),
                            nl.whole_space([0.0] * dim, [1.0] * dim,
                                           padding=draw(st.sampled_from([0.25, 1.0]))))


@settings(max_examples=80, deadline=None)
@given(f=_polar_field(), k=_ZERO_ONE_KERNELS, delta=st.sampled_from([0.05, 0.25, 0.5, 1.0, 3.0]),
       h_min=st.sampled_from([1e-4, 1e-2, 0.1]), h_max=st.sampled_from([2.0, 20.0, 200.0]),
       h_steps=st.integers(8, 140), angles=st.integers(4, 6), n=st.integers(16, 24))
# a lattice that varies along axis 1 only: its constant reads that axis
@example(f=nl.grid_function(np.tile(np.arange(5.0), (4, 1)), [0.0, 0.0], 0.25,
                            flavor="whole-space", padding=0.5),
         k=nl.indicator_kernel(), delta=0.25, h_min=1e-2, h_max=20.0, h_steps=40, angles=4, n=16)
def test_polar_quiet_h_steps_keep_the_bits(f, k, delta, h_min, h_max, h_steps, angles, n):
    # the leading h-steps whose |du| the Lipschitz bound keeps below the
    # lower cut count 0 unevaluated; value and certificate keep every bit
    params = nl.FunctionalParams(p=2.0, delta=delta, grid_n=n, polar_h_min=h_min,
                                 polar_h_max=h_max, polar_h_steps=h_steps,
                                 polar_angle_steps=angles)
    got = nl.lambda_polar(f, k, params)
    want, _ = _polar_without_quiet_steps(f, k, params)
    assert got.value.hex() == want.value.hex()
    assert got.tail_bound.hex() == want.tail_bound.hex()


def test_polar_skips_quiet_h_steps_on_a_bump_field(monkeypatch):
    f = _BUMP_FIELD
    params = nl.FunctionalParams(p=2.0, delta=0.25, grid_n=24, polar_h_steps=100,
                                 polar_angle_steps=8)
    k = nl.normalize(nl.indicator_kernel(), 2, 2.0)
    want, all_groups = _polar_without_quiet_steps(f, k, params)
    steps = []
    shifted = evaluator._polar_eval_shifted
    monkeypatch.setattr(evaluator, "_polar_eval_shifted",
                        lambda f_, pts, rect: steps.append(pts.shape[1]) or shifted(f_, pts, rect))
    got = nl.lambda_polar(f, k, params)
    assert got.value.hex() == want.value.hex() and got.value > 0.0
    assert 0 < len(steps) < all_groups
    assert sum(steps) < 8 * 100                   # h-steps evaluated, over 8 angles
    # every other kernel evaluates every h-step
    steps.clear()
    nl.lambda_polar(f, nl.envelope_kernel(0.8, 1.1, 2.0), params)
    assert sum(steps) == 8 * 100


def test_polar_quiet_h_steps_leave_room_for_rounding():
    # far from the origin fl(x + delta*h) - x exceeds delta*h by rounding:
    # with the lower cut 3e-14 above delta*h at h-step 20, L*delta*h alone
    # would call that step quiet while every cell counts there
    f = nl.affine_function([1.0], 0.0, nl.whole_space([1000.0], [1001.0], padding=0.5))
    params = nl.FunctionalParams(p=2.0, delta=0.5, grid_n=64, polar_h_min=1e-3,
                                 polar_h_max=10.0, polar_h_steps=40)
    h = math.exp(math.log(1e-3) + 20.5 * math.log(1e4) / 40)
    k = nl.indicator_kernel(threshold=(0.5 * h + 3e-14) / 0.5)
    got = nl.lambda_polar(f, k, params)
    want, _ = _polar_without_quiet_steps(f, k, params)
    assert got.value.hex() == want.value.hex()


@settings(max_examples=150, deadline=None)
@given(data=st.data(), dim=st.sampled_from([1, 2]), rest=st.integers(1, 4))
def test_values_in_rect_equal_interpolant_on_full_product(data, dim, rest):
    # coordinates on the box edges, a hair and far beyond every side, and inside
    f, _ = data.draw(_zero_boundary_lattice(dim).filter(lambda c: not c[1]))
    box = f.support_box
    coords = [_axis_coords(data.draw, lo, hi, (data.draw(st.integers(1, 6)), rest))
              for lo, hi in box]
    rect = functions._reach(f, box, coords)
    got = functions._values_on_axes(f, [c[r] for c, r in zip(coords, rect)])
    if dim == 1:
        want = functions._interp_grid(f, coords)
    else:
        want = functions._interp_grid(f, (coords[0][:, None], coords[1][None, :]))
    assert got.shape == want[rect].shape
    assert np.array_equal(got, want[rect])
    off = want.copy()
    off[rect] = 0.0
    assert np.all(off == 0.0)                # +0 and -0 compare equal


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
    got = functions._values_on_axes(f, (c0, c1))
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
    # bench/probe.py records the array each polar group passes to
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
    with pytest.raises(ParameterError, match="grid values must be finite"):
        nl.grid_function([0.0, 0.5, np.nan, 0.2], [0.0], 0.25)
    # the constructors refuse NaN and infinite parameters themselves
    with pytest.raises(ParameterError, match="function.gradient must be finite"):
        nl.affine_function([np.nan], 0.0, nl.bounded_box([0.0], [1.0]))
    with pytest.raises(ParameterError, match="function.amplitude must be finite"):
        nl.sine_function(1.0, np.inf, nl.whole_space([0.0], [1.0]))
    # finite parameters whose samples overflow (x > 1.8) reach the sample check
    huge = nl.affine_function([1e308], 0.0, nl.bounded_box([0.0], [4.0]))
    huge_space = nl.affine_function([1e308], 0.0, nl.whole_space([0.0], [4.0]))
    params = nl.FunctionalParams(p=2.0, delta=0.2, grid_n=64, polar_h_steps=16)
    prob = nl.KappaProblem(kernel=k, delta=0.2, grid_n=256,
                           iterations=10, restarts=1, profile=huge)
    for run in (lambda: sample_midpoints(huge, 64), lambda: nl.lambda_pair(huge, k, params),
                lambda: nl.lambda_polar(huge_space, k, params),
                lambda: nl.kappa_estimate(prob)):
        with pytest.raises(ParameterError, match="function samples must be finite"), \
                np.errstate(over="ignore"):
            run()
