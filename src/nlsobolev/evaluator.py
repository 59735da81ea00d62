"""Two independent evaluators for the non-local functional

    Lambda_delta(u, Omega)
        = delta^p * int_Omega int_Omega phi(|u(x)-u(y)| / delta) / |x-y|^(p+d)

computed either as a midpoint-rule double sum over cell pairs (``pair``
scheme), or through the equivalent whole-space representation obtained
by substituting y = x + delta*h*sigma and rescaling (``polar`` scheme):

    int dx int_0^inf dh int_{S^(d-1)} phi(|u(x + delta h sigma) - u(x)| / delta) / h^(p+1).

The pair scheme skips the same-cell diagonal terms, where the integrand
is 0/0-adjacent; for Lipschitz u the growth condition phi(t) <= a t^(p+1)
bounds the skipped continuum mass by (a L^(p+1) / delta) * |x-y|^(1-d)
near the diagonal, and that bound is reported as a certificate.  The
polar scheme integrates h on a geometric grid (the integrand decays like
h^-(p+1)) and certifies the omitted head and tail analytically.  L is
``TestFunction.lipschitz``, derived from the function's kind (inf for a
step); each call reads it once, and every certificate of the call and the
polar quiet h-steps take that one number.  In 2-D, for one (sigma, h),
the shifted cell centres are the tensor product of the two shifted axes,
so u is evaluated on that product
(``functions._values_on_axes``): a grid function does its index work
per axis, with the same bits as point by point.
``_polar_eval_shifted(f, pts, rect)`` returns u from the (n, nh, d) array
of a group's real shifted points, which the bench records.  Under a 0/1
kernel, a grid function that is 0 off its lattice
(``TestFunction.support_box``) is evaluated and counted only on the
rectangle of rows (and columns) whose shifted points reach the lattice,
plus the exact count of the cells whose shifted value is 0; every other
kernel, and every function without a box, is evaluated and summed on
every cell of the group, in order.  Under a 0/1 kernel the leading
h-steps whose |du| the Lipschitz bound L, with room for rounding, keeps
below the lower cut count 0 unevaluated
(``_quiet_h_steps``); each chunk's dot product reads the same counts, so
the value keeps its bits.
Either scheme refuses a non-finite sum (ParameterError) rather than
report it, and the polar scheme a non-finite shifted value of u.

Determinism: all reductions run serially over a fixed chunking of the
term index space, combined by a fixed-order pairwise tree.  One pair core
serves the pair sums, the polar scheme and the kappa moves of
``gamma_limit``: one lag-weight table (``_lag_weights``), one rule for
kernel terms on |du| (``_KernelTerms``) and, in 2-D, one blocked lag
traversal for every kernel.  For the 0/1 kernels c * 1_(lo, hi) every sum
is an exact integer count of |du| against the cuts that
``kernels._count_cuts`` precomputes from (lo, hi) and delta (no division)
for every finite edge, equal bit for bit to the division form; other
kernels sum shape(|du|/delta) in the traversal's fixed order.

One traversal of the cell pairs serves every delta on the same grid: each
lag's (1-D) or block's (2-D) |du| is computed once, and each delta's
kernel terms count it into that delta's own per-lag sums, which keep
their weights and reduction order.  So a delta sweep gets, for every
delta, the bits of a call with that delta alone.  A monotone 1-D sample
under 0/1 kernels needs no traversal: each cell counts one run of
partners, which a bisection on the same cut predicate finds, so the
per-lag counts are the traversal's integers (``_monotone_lag_counts``)
and the sums keep their bits.  Every pair sum ends in one contraction of
its per-lag sums with the lag weights.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ParameterError
from .functions import TestFunction, _reach, _values_on_axes, dilate
from .kernels import (Kernel, _count_cuts, _require_delta, _shape_values, bound_constant,
                      growth_constant)

__all__ = [
    "FunctionalParams",
    "EvalResult",
    "lambda_pair",
    "lambda_polar",
    "scaling_check",
    "dilation_check",
    "pair_sum_on_samples",
    "sample_midpoints",
]

_LAG_CHUNK = 128          # lags per reduction chunk
_BLOCK = 1 << 15          # |du| elements per 2-D counting block
_H_CHUNK = 64             # polar h-steps per reduction chunk
_H_GROUP = 16             # polar h-steps evaluated at once within a chunk
_SPHERE_SURFACE = {1: 2.0, 2: 2.0 * math.pi}   # |S^(d-1)| with counting measure at d=1


@dataclass(frozen=True)
class FunctionalParams:
    """Exponent, smoothing scale and quadrature settings.

    ``p = 1`` is accepted as an exploration mode: sums are computed the
    same way but no calibration or certificate guarantees attach to it.
    """

    p: float
    delta: float
    grid_n: int = 256
    polar_h_min: float = 1e-4
    polar_h_max: float = 200.0
    polar_h_steps: int = 600
    polar_angle_steps: int = 64
    threads: int = 1     # accepted and validated; results never depend on it

    def __post_init__(self):
        if not self.p >= 1:
            raise ParameterError("p must be >= 1 (p = 1 is exploration mode)")
        _require_delta(self.delta)
        _require_grid_n(self.grid_n)
        if not (0 < self.polar_h_min < self.polar_h_max):
            raise ParameterError("need 0 < polar_h_min < polar_h_max")
        if self.polar_h_steps < 8 or self.polar_angle_steps < 4:
            raise ParameterError("polar step counts too small")
        if self.threads < 1:
            raise ParameterError("threads must be >= 1")


def _require_grid_n(n: int):
    if not n >= 16:
        raise ParameterError("grid_n must be at least 16")


@dataclass(frozen=True)
class EvalResult:
    value: float
    tail_bound: float     # certified bound on the excluded mass; inf when none exists


# ----------------------------------------------------------------------
# grids and deterministic reduction
# ----------------------------------------------------------------------

def sample_midpoints(f: TestFunction, n: int):
    """Cell midpoints of the integration window, u sampled there.

    Returns (u, spacings): u is (n,) in 1-D or (n, n) in 2-D.  Raises
    ParameterError on a non-finite sample, which no certificate covers.
    """
    axes, spac = _cell_axes(f.domain, n)
    with np.errstate(over="ignore", invalid="ignore"):     # a non-finite sample is refused
        u = np.asarray(_values_on_axes(f, axes), dtype=float)
    if not np.all(np.isfinite(u)):
        raise ParameterError("function samples must be finite")
    return u, spac


def _cell_axes(dom, n: int):
    """Cell-centre coordinates along each axis of the window, and the spacings.

    The cells of a 2-D window are the tensor product of the two axes.  A
    grid_n whose axis numpy cannot allocate, or whose spacing underflows
    to 0, is a ParameterError.
    """
    spac = tuple((b - a) / n for a, b in zip(dom.window_lo, dom.window_hi))
    if not all(h > 0.0 for h in spac):
        raise ParameterError(f"the window {list(dom.window_lo)} to {list(dom.window_hi)} "
                             f"is too narrow for grid_n = {n}: a cell spacing is 0")
    try:
        centres = np.arange(n) + 0.5
    except (ValueError, MemoryError) as exc:    # past numpy's size limit, or the memory's
        raise ParameterError(f"grid_n is too large: its cells cannot be allocated ({exc})"
                             ) from exc
    return [a + centres * h for a, h in zip(dom.window_lo, spac)], spac


def _tree_sum(parts: list[float]) -> float:
    """Fixed-order pairwise reduction; deterministic for a given chunking."""
    vals = list(parts)
    if not vals:
        return 0.0
    while len(vals) > 1:
        nxt = []
        for i in range(0, len(vals) - 1, 2):
            nxt.append(vals[i] + vals[i + 1])
        if len(vals) % 2:
            nxt.append(vals[-1])
        vals = nxt
    return vals[0]


def _chunked_sum(terms: np.ndarray, chunk: int) -> float:
    """np.sum inside fixed chunks of the per-lag terms, _tree_sum across."""
    return _tree_sum([float(np.sum(terms[a:a + chunk]))
                      for a in range(0, terms.size, chunk)])


# ----------------------------------------------------------------------
# kernel terms on |du|: exact counts for the 0/1 kernels
# ----------------------------------------------------------------------

class _KernelTerms:
    """shape(a / delta) on arrays a of |du| values: the one rule every sum uses.

    The 0/1 kernels count a in [lo, hi), the cuts of ``_count_cuts``, which
    exist for every finite edge; every other kernel takes the division form,
    written once in ``values``.  Both forms give the same bits.
    """

    def __init__(self, k: Kernel, delta: float):
        self.k, self.delta = k, delta
        self.cuts = _count_cuts(k, delta)

    def _inside(self, a: np.ndarray, out=None) -> np.ndarray:
        lo, hi = self.cuts
        out = np.greater_equal(a, lo, out=out)
        if hi is not None:
            out &= a < hi
        return out

    def values(self, a: np.ndarray) -> np.ndarray:
        """Per-element shape values, as floats."""
        if self.cuts is not None:
            return self._inside(a).astype(float)
        # an inf quotient: a non-finite sum is refused, a non-finite move never taken
        with np.errstate(over="ignore", invalid="ignore"):
            return _shape_values(self.k, a / self.delta)

    def sum(self, a: np.ndarray, axis=None, mask=None):
        """Sum of the shape values over ``axis``; ``mask`` is a bool scratch buffer."""
        if self.cuts is None:
            return np.sum(self.values(a), axis=axis)
        return np.count_nonzero(self._inside(a, mask), axis=axis)

    def difference(self, a: np.ndarray, b: np.ndarray, out: np.ndarray, masks) -> np.ndarray:
        """shape(a / delta) - shape(b / delta) per element, written to ``out``.

        ``masks`` are two bool scratch buffers shaped like a.  A 0/1 kernel
        subtracts its masks as floats: 1 - 0, 0 - 1 or 0, the bits of the
        difference of the values.
        """
        if self.cuts is None:
            return np.subtract(self.values(a), self.values(b), out=out)
        return np.subtract(self._inside(a, masks[0]), self._inside(b, masks[1]), out=out,
                           dtype=float)


# ----------------------------------------------------------------------
# pair scheme
# ----------------------------------------------------------------------

def _lag_weights(shape, spacings, p: float) -> np.ndarray:
    """Pair weight 2 |dx|^-(p+d) cell^2 of every lag, indexed by absolute lag.

    w[m] in 1-D and w[|mx|, my] in 2-D, with 0 at the zero lag.  The
    pair sums and the kappa moves read this one table.
    """
    if len(shape) == 1:
        (n,), (h,) = shape, spacings
        w = np.zeros(n)
        # a weight past the largest double is inf (or 0 * inf = nan): every
        # sum that reads it is then non-finite, and refused
        with np.errstate(over="ignore", invalid="ignore"):
            w[1:] = 2.0 * (np.arange(1, n) * h) ** (-(p + 1.0)) * (h * h)
        return w
    (n0, n1), (hx, hy) = shape, spacings
    cell2 = (hx * hy) ** 2
    return np.array([[2.0 * math.hypot(mx * hx, my * hy) ** (-(p + 2.0)) * cell2
                      if mx or my else 0.0 for my in range(n1)] for mx in range(n0)])


def _lag_sums_1d(u: np.ndarray, terms: list[_KernelTerms]) -> np.ndarray:
    """sums[j, m - 1]: sum of shape(|du|/delta) under terms[j] over the pairs at lag m.

    One traversal of the lags: each lag's |du| is computed once and counted
    by every delta's terms.
    """
    n = u.size
    sums = np.empty((len(terms), n - 1))
    buf = np.empty(n - 1)
    mask = np.empty(n - 1, dtype=bool)
    for m in range(1, n):
        d = np.subtract(u[m:], u[: n - m], out=buf[: n - m])
        np.abs(d, out=d)
        for t, s in zip(terms, sums):
            s[m - 1] = t.sum(d, mask=mask[: n - m])
    return sums


def _monotone_lag_counts(u: np.ndarray, terms: list[_KernelTerms]):
    """The lag sums of ``_lag_sums_1d`` for a monotone u under 0/1 kernels, or None.

    For a nondecreasing v and a fixed i, fl(v[j] - v[i]) is nondecreasing in
    j, so the j that a kernel counts against its cuts [lo, hi) are one run
    first(lo) <= j < first(hi), where first(c) is the first j with
    fl(v[j] - v[i]) >= c.  One bisection over every i at once finds each
    first(c) on that predicate, and two bincounts of j - i and a cumsum give
    every lag's count: the traversal's integers, so its bits.  A
    nonincreasing u is negated, which keeps every |du|.  An infinite end
    keeps the predicate monotone in j: inf - inf is NaN, which fails every
    cut, and those j come first for v[i] = -inf and last for v[i] = inf.
    None when a kernel is not 0/1 or u is not a monotone float64 array (a
    NaN never is).
    """
    if u.dtype != np.float64 or any(t.cuts is None for t in terms):
        return None
    if np.all(u[1:] >= u[:-1]):
        v = u
    elif np.all(u[1:] <= u[:-1]):
        v = -u
    else:
        return None
    n = v.size
    i = np.arange(n)
    steps = [1 << b for b in reversed(range((n - 1).bit_length()))]

    def first(cut):
        """First j in (i, n] with fl(v[j] - v[i]) >= cut, per i (n when none)."""
        last = i.copy()                        # last j known below the cut: j = i
        for step in steps:
            j = last + step
            below = j < n
            below &= ~(v[np.minimum(j, n - 1)] - v >= cut)
            np.copyto(last, j, where=below)
        return last + 1

    sums = np.empty((len(terms), n - 1))
    for t, s in zip(terms, sums):
        lo, hi = t.cuts
        upto = n if hi is None else first(hi)
        starts = np.bincount(first(lo) - i, minlength=n + 1)     # by lag j - i
        ends = np.bincount(upto - i, minlength=n + 1)
        s[:] = np.cumsum(starts - ends)[1:n]
    return sums


def _pair_raw_1d(u: np.ndarray, h: float, terms: list[_KernelTerms], p: float) -> list[float]:
    """Per kernel terms (one per delta): the sum over ordered cell pairs of
    shape(|du|/delta) * |dx|^-(p+1) * h^2.

    Pairs are grouped by lag, and the per-lag sums come from
    ``_monotone_lag_counts`` where it applies, otherwise from the traversal
    ``_lag_sums_1d``; one contraction with the lag weights follows.  The
    symmetric factor 2 makes the result equal to the full double sum.  The
    kernel scale and delta^p are applied by the caller.
    """
    sums = _monotone_lag_counts(u, terms)
    if sums is None:
        sums = _lag_sums_1d(u, terms)
    w = _lag_weights((u.size,), (h,), p)[1:]
    return [_chunked_sum(w * s, _LAG_CHUNK) for s in sums]


def _lag_sums_2d(u: np.ndarray, terms: list[_KernelTerms]) -> np.ndarray:
    """s[j, my, mx + n0 - 1]: sum of shape(|du|/delta) under terms[j] over the
    pairs at lag (mx, my).

    A pair at lag (mx, my) is u[i', j + my] - u[i, j] with mx = i' - i.
    One pass per my takes a block of row pairs (i', i) at once, at most
    _BLOCK elements, and computes its |du| once; for each terms[j] it sums
    along the row, and np.bincount files the row sums under mx.  At my = 0
    only mx > 0 is used, so a block of rows i' < r0 + rows takes only the
    columns i < r0 + rows; the lags it still fills keep their contributions
    in the same order, hence the same sums.
    """
    n0, n1 = u.shape
    s = np.zeros((len(terms), n1, 2 * n0 - 1))
    lag_index = np.arange(n0)[:, None] - np.arange(n0)[None, :] + (n0 - 1)
    buf = np.empty(max(_BLOCK, n1))
    mask = np.empty(buf.size, dtype=bool)
    for my in range(n1):
        ln = n1 - my
        cols = min(n0, max(1, _BLOCK // ln))
        rows = max(1, _BLOCK // (cols * ln))
        for r0 in range(0, n0, rows):
            c_end = min(n0, r0 + rows) if my == 0 else n0
            for c0 in range(0, c_end, cols):
                c1 = min(c0 + cols, c_end)
                a, b = u[r0:r0 + rows, None, my:], u[None, c0:c1, :ln]
                shape = (a.shape[0], b.shape[1], ln)
                size = shape[0] * shape[1] * ln
                d = np.subtract(a, b, out=buf[:size].reshape(shape))
                np.abs(d, out=d)
                lags = lag_index[r0:r0 + rows, c0:c1].ravel()
                for t, sj in zip(terms, s):
                    row = t.sum(d, axis=2, mask=mask[:size].reshape(shape))
                    sj[my] += np.bincount(lags, weights=row.ravel(), minlength=2 * n0 - 1)
    return s


def _pair_raw_2d(u: np.ndarray, spac, terms: list[_KernelTerms], p: float) -> list[float]:
    """Per kernel terms: lag sums times weights, in the order mx > 0 at my = 0,
    then my >= 1 by mx."""
    n0 = u.shape[0]
    w = _lag_weights(u.shape, spac, p)[np.abs(np.arange(1 - n0, n0))].T
    return [_chunked_sum(np.concatenate([t[0, n0:], t[1:].ravel()]), 4 * _LAG_CHUNK)
            for t in w * _lag_sums_2d(u, terms)]     # t[my, mx + n0 - 1]


def pair_sum_on_samples(u: np.ndarray, spacings, k: Kernel, p: float, delta,
                        threads: int = 1):
    """Midpoint pair quadrature on pre-sampled values (same-cell terms skipped).

    ``delta`` is one smoothing scale, which returns one value, or a
    sequence of them, which returns one value per delta, in order.  One
    traversal of the cell pairs serves the whole sequence, and each value
    has the bits of a call with its delta alone.  A monotone 1-D u
    under a 0/1 kernel has its per-lag counts found by bisection instead,
    the same integers in O(n log n), so the same bits.  The sum is serial;
    ``threads`` is validated for callers that pass it.  Every delta is
    checked before the traversal starts, and a ParameterError is raised
    when any sum is not finite.
    """
    if threads < 1:
        raise ParameterError("threads must be >= 1")
    single = np.ndim(delta) == 0
    deltas = [delta] if single else list(delta)
    if not deltas:
        raise ParameterError("empty delta list")
    for d in deltas:
        _require_delta(d)
    terms = [_KernelTerms(k, d) for d in deltas]
    with np.errstate(over="ignore", invalid="ignore"):   # a non-finite sum is refused below
        if u.ndim == 1:
            raw = _pair_raw_1d(u, spacings[0], terms, p)
        else:
            raw = _pair_raw_2d(u, spacings, terms, p)
    values = [k.scale_c * d ** p * r for d, r in zip(deltas, raw)]
    if not all(math.isfinite(v) for v in values):
        raise ParameterError("non-finite pair sum (kernel values overflow?)")
    return values[0] if single else values


def _diagonal_bound(k: Kernel, p: float, delta: float, lip: float,
                    window_vol: float, spacings) -> float:
    """Certified continuum mass of the skipped same-cell regions; lip is L."""
    a = growth_constant(k, p)
    if a == 0.0 or lip == 0.0:
        return 0.0
    if not math.isfinite(a):
        return math.inf
    d = len(spacings)
    r_cell = spacings[0] if d == 1 else math.hypot(*spacings)
    if lip * r_cell > delta:
        return math.inf   # growth bound only covers |du| <= delta
    if d == 1:
        near = window_vol * spacings[0]            # sum of cell^2 areas
    else:
        near = window_vol * 2.0 * math.pi * r_cell
    return (a * lip ** (p + 1.0) / delta) * near


def _window_bound(f: TestFunction, k: Kernel, p: float, delta: float) -> float:
    """Certified mass of pairs reaching outside the integration window."""
    dom = f.domain
    if dom.flavor == "bounded":
        return 0.0
    pad = dom.padding
    b = bound_constant(k)
    if pad <= 0.0 or not math.isfinite(b):
        return math.inf
    s = _SPHERE_SURFACE[dom.dim]
    return 2.0 * dom.volume * delta ** p * b * s * pad ** (-p) / p


def lambda_pair(f: TestFunction, k: Kernel, params: FunctionalParams) -> EvalResult:
    """Midpoint-rule double sum over cell pairs of the integration window.

    tail_bound certifies the skipped same-cell mass (from the kernel's
    growth constant and L = ``f.lipschitz``; 0 when that constant is 0)
    plus, for whole-space domains, the pairs reaching beyond the padded
    window.  It is inf when no finite certificate exists (e.g. a step
    function, whose L is inf, under a kernel with a nonzero growth
    constant, where the continuum integral itself diverges).
    """
    return _lambda_pair_deltas(f, k, [params])[0]


def _lambda_pair_deltas(f: TestFunction, k: Kernel,
                        params: list[FunctionalParams]) -> list[EvalResult]:
    """lambda_pair at each of ``params``, which differ only in delta.

    u is sampled once, one pair traversal serves every delta, and
    L = ``f.lipschitz`` is read once; each delta adds its own window and
    diagonal certificates.  The results have the bits of one call each.
    """
    p = params[0].p
    u, spac = sample_midpoints(f, params[0].grid_n)
    values = pair_sum_on_samples(u, spac, k, p, [q.delta for q in params])
    lip = f.lipschitz
    return [EvalResult(value=value,
                       tail_bound=_window_bound(f, k, p, q.delta)
                       + _diagonal_bound(k, p, q.delta, lip, f.domain.window_volume, spac))
            for q, value in zip(params, values)]


# ----------------------------------------------------------------------
# polar scheme
# ----------------------------------------------------------------------

def _polar_eval_shifted(f: TestFunction, pts: np.ndarray, rect) -> np.ndarray:
    """u on ``rect`` of one polar group's shifted points: _H_GROUP h-steps or fewer.

    pts is (n, nh, d): pts[:, k, ax] is the shifted axis-ax coordinate of
    every cell centre for h-step k, each row a real shifted point, so pts
    is a (..., d) array of points that ``eval_u`` accepts (bench/probe.py
    records it and times ``eval_u`` on it).  The group's point set is the
    tensor product of the axes, and u is evaluated on it by
    ``functions._values_on_axes``: (n, nh) in 1-D, and (n, n, nh) in 2-D
    with out[i, j, k] = u(pts[i, k, 0], pts[j, k, 1]).  rect is None, which
    evaluates every cell, or, for a 0/1 kernel, the rows (and columns) whose
    shifted coordinate reaches ``f.support_box`` (``functions._reach``); then
    only those are evaluated, and the result is out[rect].  Off rect, u is 0.
    """
    coords = [pts[..., ax] for ax in range(pts.shape[-1])]
    if rect is not None:
        coords = [c[r] for c, r in zip(coords, rect)]
    return _values_on_axes(f, coords)


def _quiet_h_steps(dom, lip: float, terms: _KernelTerms, u0: np.ndarray, delta: float,
                   h_grid: np.ndarray) -> int:
    """How many leading polar h-steps count no |du| at all: 0 unless 0/1.

    With L = lip (the caller's ``TestFunction.lipschitz``), eps = 2^-53,
    the reach delta * h and X the largest window coordinate plus the
    reach, a shifted point fl(x + fl(fl(delta h) sigma)) lies within
    reach (1 + 6 eps) + 2 eps X of its cell centre x, so
    |u(shifted) - u(x)| is at most L times that.  The evaluated u is off
    by a few eps (max|u0| + L X): the value at the point,
    its lattice coordinate or sine argument, and its affine product.  The
    subtraction adds eps |du|.  The bound below takes 1e-9 for each of these
    eps terms, so while it is under the lower cut, so is every computed |du|,
    and the h-step counts 0 on every kernel c * 1_(lo, hi).  It grows with h,
    so the quiet h-steps are a prefix of the grid.
    """
    if terms.cuts is None:
        return 0
    lo = terms.cuts[0]
    with np.errstate(over="ignore", invalid="ignore"):    # inf or nan: not quiet
        reach = delta * h_grid
        far = max(abs(c) for c in dom.window_lo + dom.window_hi) + reach
        bound = lip * reach * (1 + 1e-9) + 1e-9 * (lo + float(np.max(np.abs(u0))) + lip * far)
    return int(np.count_nonzero(bound < lo))


def _require_whole_space(dom):
    """The polar scheme's contract: it has no bounded-domain form."""
    if dom.flavor != "whole-space":
        raise ContractError("polar scheme expects a whole-space domain; "
                            "use the pair scheme on a bounded one")


def lambda_polar(f: TestFunction, k: Kernel, params: FunctionalParams) -> EvalResult:
    """Whole-space representation: x-grid times geometric h-grid times angles.

    Defined for whole-space domains only: the representation is a
    statement about functions on all of R^d (f should vanish off its
    support box).  Lambda_delta(u, Omega) on a bounded Omega counts only
    pairs in Omega x Omega, which the pair scheme computes; a bounded
    domain here is a contract error.
    """
    dom = f.domain
    _require_whole_space(dom)

    p, delta = params.p, params.delta
    u0, spac = sample_midpoints(f, params.grid_n)
    cell_vol = float(np.prod(spac))

    # geometric (log-midpoint) grid in h
    ds = math.log(params.polar_h_max / params.polar_h_min) / params.polar_h_steps
    s_mid = math.log(params.polar_h_min) + (np.arange(params.polar_h_steps) + 0.5) * ds
    h_grid = np.exp(s_mid)
    h_weights = h_grid ** (-p)   # one h_j factor absorbed by dh = h ds

    x = np.stack(_cell_axes(dom, params.grid_n)[0], axis=-1)   # cell centres per axis, (n, d)
    if dom.dim == 1:
        sigmas = [np.array([-1.0]), np.array([1.0])]
        ang_w = 1.0                      # counting measure on {-1, +1}
    else:
        n_th = params.polar_angle_steps
        theta = (np.arange(n_th) + 0.5) * (2.0 * math.pi / n_th)
        sigmas = [np.array([math.cos(t), math.sin(t)]) for t in theta]
        ang_w = 2.0 * math.pi / n_th

    terms = _KernelTerms(k, delta)
    # a 0/1 kernel counts only the cells of a group's rectangle; off it the
    # shifted value is 0, so |du| = |u0| and those cells add
    # count(|u0|) - count(|u0[rect]|).  Every other kernel sums every cell.
    box = f.support_box if terms.cuts is not None else None
    if box is not None:
        abs_u0 = np.abs(u0)
        count_all = terms.sum(abs_u0)
    buf = np.empty(u0.size * _H_GROUP)              # |du| of one group
    mask = np.empty(buf.size, dtype=bool)
    lip = f.lipschitz
    skip = _quiet_h_steps(dom, lip, terms, u0, delta, h_grid)

    def group_sums(pts):
        """Kernel sums per h-step of one group; pts holds its (n, nh, d) points."""
        nh = pts.shape[1]
        rect = None if box is None else _reach(f, box, [pts[..., ax] for ax in range(dom.dim)])
        shifted = _polar_eval_shifted(f, pts, rect)
        if not np.isfinite(shifted).all():
            raise ParameterError("u is not finite at a shifted point x + delta*h*sigma")
        u = u0 if rect is None else u0[rect]
        diff = np.subtract(shifted, u[..., None],
                           out=buf[:u.size * nh].reshape(u.shape + (nh,)))
        np.abs(diff, out=diff)
        per_h = terms.sum(diff.reshape(-1, nh), axis=0,
                          mask=mask[:diff.size].reshape(-1, nh))
        return per_h if rect is None else per_h + (count_all - terms.sum(abs_u0[rect]))

    parts = []
    # an overflow is refused below and a NaN shifted value in group_sums, not warned
    with np.errstate(over="ignore", invalid="ignore"):
        for sigma in sigmas:
            for a in range(0, h_grid.size, _H_CHUNK):
                b = min(a + _H_CHUNK, h_grid.size)
                # the quiet h-steps count 0 and are not evaluated; the chunk's
                # dot product reads the same counts
                start = min(max(a, skip), b)
                per_h = np.empty(b - a, dtype=np.intp if terms.cuts is not None else float)
                per_h[:start - a] = 0
                # the chunk's points, one group after another: one allocation
                # per chunk, where one per group was handed back to the OS
                # and faulted in again every group
                block = np.empty(x.size * (b - start))
                for g in range(start, b, _H_GROUP):
                    e = min(g + _H_GROUP, b)
                    # (n, nh, d): each axis shifted on its own; in 2-D the
                    # group's points are the tensor product of the two axes
                    pts = block[x.size * (g - start):x.size * (e - start)].reshape(
                        x.shape[0], e - g, -1)
                    np.add(x[:, None, :], (delta * h_grid[g:e])[None, :, None] * sigma,
                           out=pts)
                    per_h[g - a:e - a] = group_sums(pts)
                parts.append(float(np.dot(per_h, h_weights[a:b])))
    raw = _tree_sum(parts)
    value = k.scale_c * cell_vol * ang_w * ds * raw
    if not math.isfinite(value):
        raise ParameterError("non-finite polar sum (kernel values overflow?)")

    # certificates: h-tail, h-head, and the x region beyond the window
    b_sup = bound_constant(k)
    surf = _SPHERE_SURFACE[dom.dim]
    win_vol = dom.window_volume
    tail = b_sup * win_vol * surf * params.polar_h_max ** (-p) / p
    a_growth = growth_constant(k, p)
    if a_growth > 0.0 and lip > 0.0:
        if math.isfinite(a_growth) and lip * params.polar_h_min <= 1.0:
            tail += a_growth * (lip ** (p + 1.0)) * params.polar_h_min * win_vol * surf
        else:
            tail = math.inf
    if dom.padding > 0 and math.isfinite(b_sup):
        tail += b_sup * dom.volume * surf * (delta / dom.padding) ** p / p
    else:
        tail = math.inf
    return EvalResult(value=value, tail_bound=tail)


# ----------------------------------------------------------------------
# identity checks
# ----------------------------------------------------------------------

def scaling_check(f: TestFunction, k: Kernel, params: FunctionalParams) -> float:
    """Relative gap between Lambda_delta(u) and delta^p * Lambda_1(u / delta).

    Both sides run on the identical pair grid, so the defining rescaling
    identity holds term-by-term up to floating-point rounding.
    """
    u, spac = sample_midpoints(f, params.grid_n)
    lhs = pair_sum_on_samples(u, spac, k, params.p, params.delta)
    rhs = params.delta ** params.p * pair_sum_on_samples(
        u / params.delta, spac, k, params.p, 1.0)
    return abs(lhs - rhs) / max(lhs, np.finfo(float).eps)


def dilation_check(f: TestFunction, k: Kernel, params: FunctionalParams,
                   lam: float) -> float:
    """Relative gap in the change-of-variables identity

        Lambda_delta(lam * u(. / lam), lam * S) = lam^d * Lambda_(delta/lam)(u, S)

    evaluated on matched grids (cells map one-to-one under the dilation).
    """
    if not 0.0 < lam < math.inf:
        raise ParameterError("dilation factor must be finite and positive")
    if abs(lam * params.grid_n - round(lam * params.grid_n)) > 1e-9:
        raise ParameterError("lam * grid_n must be integral for matched grids")
    d = f.domain.dim
    left = lambda_pair(dilate(f, lam), k, params).value
    small = dataclasses.replace(params, delta=params.delta / lam)
    right = lam ** d * lambda_pair(f, k, small).value
    return abs(left - right) / max(left, np.finfo(float).eps)
