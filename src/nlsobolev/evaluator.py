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
h^-(p+1)) and certifies the omitted head and tail analytically.  In 2-D,
for one (sigma, h), the shifted cell centres are the tensor product of the
two shifted axes, so u is evaluated on that product
(``functions._values_on_product``): a grid function does its index work
per axis, with the same bits as point by point.  Either scheme refuses a
non-finite sum (ParameterError) rather than report it.

Determinism: all reductions run over a fixed chunking of the term index
space, combined by a fixed-order pairwise tree.  Pair sums run serially;
polar chunks run on ``POLAR_THREADS`` threads, bit-identical at any width.
One pair core serves the pair sums, the polar scheme and the kappa moves
of ``gamma_limit``: one lag-weight table (``_lag_weights``), one rule for
kernel terms on |du| (``_KernelTerms``) and, in 2-D, one blocked lag
traversal for every kernel.  For the 0/1 kernels (indicator, band) every
sum is an exact integer count of |du| against cuts precomputed from the
kernel's edges and delta (no division), equal bit for bit to the division
form; other kernels sum shape(|du|/delta) in the traversal's fixed order.
"""

from __future__ import annotations

import dataclasses
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ParameterError
from .functions import TestFunction, _values_at, _values_on_product, dilate
from .kernels import Kernel, _require_delta, _shape_values, bound_constant, growth_constant

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
_CUT_STEPS = 8            # ulps _count_cuts walks from edge*delta before giving up
_DBL_MAX = sys.float_info.max
POLAR_THREADS = os.cpu_count() or 1   # polar pool width; the pair sums are serial
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
    scheme: str


# ----------------------------------------------------------------------
# grids and deterministic reduction
# ----------------------------------------------------------------------

def sample_midpoints(f: TestFunction, n: int):
    """Cell midpoints of the integration window, u sampled there.

    Returns (u, spacings): u is (n,) in 1-D or (n, n) in 2-D.  Raises
    ParameterError on a non-finite sample, which no certificate covers.
    """
    axes, spac = _cell_axes(f.domain, n)
    if f.domain.dim == 1:
        u = _values_at(f, axes[0])
    else:
        u = _values_on_product(f, axes[0], axes[1])
    u = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(u)):
        raise ParameterError("function samples must be finite")
    return u, spac


def _cell_axes(dom, n: int):
    """Cell-centre coordinates along each axis of the window, and the spacings.

    The cells of a 2-D window are the tensor product of the two axes.
    """
    spac = tuple((b - a) / n for a, b in zip(dom.window_lo, dom.window_hi))
    return [a + (np.arange(n) + 0.5) * h for a, h in zip(dom.window_lo, spac)], spac


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


def _run_chunks(worker, chunks, threads: int) -> list[float]:
    if threads <= 1 or len(chunks) <= 1:
        return [worker(ch) for ch in chunks]
    with ThreadPoolExecutor(max_workers=threads) as ex:
        return list(ex.map(worker, chunks))


def _chunked_sum(terms: np.ndarray, chunk: int) -> float:
    """np.sum inside fixed chunks of the per-lag terms, _tree_sum across."""
    return _tree_sum([float(np.sum(terms[a:a + chunk]))
                      for a in range(0, terms.size, chunk)])


# ----------------------------------------------------------------------
# kernel terms on |du|: exact counts for the 0/1 kernels
# ----------------------------------------------------------------------

def _cut(pred, guess: float):
    """Smallest double a >= 0 with pred(a), searched from ``guess``.

    pred must be monotone in a.  Returns None when the cut lies more
    than _CUT_STEPS ulps from the guess (or pred holds nowhere), so the
    caller falls back to the division form instead of searching on.
    """
    a = min(guess, _DBL_MAX)      # an infinite guess starts at the largest double
    if not a >= 0.0:
        return None
    if pred(a):
        for _ in range(_CUT_STEPS):
            below = math.nextafter(a, 0.0)
            if a == 0.0 or not pred(below):
                return a
            a = below
    else:
        for _ in range(_CUT_STEPS):
            a = math.nextafter(a, math.inf)
            if pred(a):
                return a
    return None


def _count_cuts(k: Kernel, delta: float):
    """Cuts (lo, hi) on |du| with shape(fl(|du| / delta)) == 1  <=>  lo <= |du| < hi.

    Defined for the 0/1 kernels; hi is None for the indicator, which has
    no upper edge (an overflowing |du| = inf still counts, as inf/delta
    exceeds the threshold).  Correctly rounded division is monotone in
    |du|, so each cut is the first double past an edge and lies within a
    few ulps of edge*delta.  None for any other kernel, a non-finite
    delta or a cut the search does not reach: those use the division form.
    """
    if k.shape not in ("indicator", "band") or not 0.0 < delta < math.inf:
        return None
    low = k.threshold if k.shape == "indicator" else k.lo
    lo = _cut(lambda a: a / delta > low, min(low, _DBL_MAX) * delta)
    if lo is None:
        return None
    if k.shape == "indicator":
        return lo, None
    hi = _cut(lambda a: a / delta >= k.hi, min(k.hi, _DBL_MAX) * delta)
    return None if hi is None else (lo, hi)


class _KernelTerms:
    """shape(a / delta) on arrays a of |du| values: the one rule every sum uses.

    The 0/1 kernels count a in [lo, hi), the cuts of ``_count_cuts``;
    every other kernel, and a 0/1 kernel whose cuts the search missed,
    takes the division form.  Both forms give the same bits.
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
        if self.cuts is None:
            return _shape_values(self.k, a / self.delta)
        return self._inside(a).astype(float)

    def sum(self, a: np.ndarray, axis=None, mask=None):
        """Sum of the shape values over ``axis``; ``mask`` is a bool scratch buffer."""
        if self.cuts is None:
            return np.sum(_shape_values(self.k, a / self.delta), axis=axis)
        return np.count_nonzero(self._inside(a, mask), axis=axis)


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
        w[1:] = 2.0 * (np.arange(1, n) * h) ** (-(p + 1.0)) * (h * h)
        return w
    (n0, n1), (hx, hy) = shape, spacings
    cell2 = (hx * hy) ** 2
    return np.array([[2.0 * math.hypot(mx * hx, my * hy) ** (-(p + 2.0)) * cell2
                      if mx or my else 0.0 for my in range(n1)] for mx in range(n0)])


def _pair_raw_1d(u: np.ndarray, h: float, terms: _KernelTerms, p: float) -> float:
    """Sum over ordered cell pairs of shape(|du|/delta) * |dx|^-(p+1) * h^2.

    Pairs are grouped by lag; the symmetric factor 2 makes the result
    equal to the full double sum.  The kernel scale and delta^p are
    applied by the caller.
    """
    n = u.size
    sums = np.empty(n - 1)
    buf = np.empty(n - 1)
    mask = np.empty(n - 1, dtype=bool)
    for m in range(1, n):
        d = np.subtract(u[m:], u[: n - m], out=buf[: n - m])
        np.abs(d, out=d)
        sums[m - 1] = terms.sum(d, mask=mask[: n - m])
    return _chunked_sum(_lag_weights((n,), (h,), p)[1:] * sums, _LAG_CHUNK)


def _lag_sums_2d(u: np.ndarray, terms: _KernelTerms) -> np.ndarray:
    """s[my, mx + n0 - 1]: sum of shape(|du|/delta) over the pairs at lag (mx, my).

    A pair at lag (mx, my) is u[i', j + my] - u[i, j] with mx = i' - i.
    One pass per my takes a block of row pairs (i', i) at once, at most
    _BLOCK elements, sums along the row, and np.bincount files the row
    sums under mx.  At my = 0 only mx > 0 is used, so a block of rows
    i' < r0 + rows takes only the columns i < r0 + rows; the lags it still
    fills keep their contributions in the same order, hence the same sums.
    """
    n0, n1 = u.shape
    s = np.zeros((n1, 2 * n0 - 1))
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
                row = terms.sum(d, axis=2, mask=mask[:size].reshape(shape))
                s[my] += np.bincount(lag_index[r0:r0 + rows, c0:c1].ravel(),
                                     weights=row.ravel(), minlength=2 * n0 - 1)
    return s


def _pair_raw_2d(u: np.ndarray, spac, terms: _KernelTerms, p: float) -> float:
    """Lag sums times weights, in the order mx > 0 at my = 0, then my >= 1 by mx."""
    n0 = u.shape[0]
    w = _lag_weights(u.shape, spac, p)[np.abs(np.arange(1 - n0, n0))].T
    t = w * _lag_sums_2d(u, terms)              # t[my, mx + n0 - 1]
    return _chunked_sum(np.concatenate([t[0, n0:], t[1:].ravel()]), 4 * _LAG_CHUNK)


def pair_sum_on_samples(u: np.ndarray, spacings, k: Kernel, p: float, delta: float,
                        threads: int = 1) -> float:
    """Midpoint pair quadrature on pre-sampled values (same-cell terms skipped).

    The sum is serial; ``threads`` is validated for callers that pass it.
    Raises ParameterError when the sum is not finite.
    """
    if threads < 1:
        raise ParameterError("threads must be >= 1")
    _require_delta(delta)
    terms = _KernelTerms(k, delta)
    with np.errstate(over="ignore"):     # an overflow is refused below, not warned
        if u.ndim == 1:
            raw = _pair_raw_1d(u, spacings[0], terms, p)
        else:
            raw = _pair_raw_2d(u, spacings, terms, p)
    value = k.scale_c * delta ** p * raw
    if not math.isfinite(value):
        raise ParameterError("non-finite pair sum (kernel values overflow?)")
    return value


def _sampled_lipschitz(u: np.ndarray, spacings) -> float:
    """Largest adjacent-sample gradient magnitude (a Lipschitz estimate)."""
    if u.ndim == 1:
        if u.size < 2:
            return 0.0
        return float(np.max(np.abs(np.diff(u)))) / spacings[0]
    gx = np.max(np.abs(np.diff(u, axis=0))) / spacings[0] if u.shape[0] > 1 else 0.0
    gy = np.max(np.abs(np.diff(u, axis=1))) / spacings[1] if u.shape[1] > 1 else 0.0
    return math.hypot(float(gx), float(gy))


def _diagonal_bound(k: Kernel, p: float, delta: float, lip: float,
                    window_vol: float, spacings) -> float:
    """Certified continuum mass of the skipped same-cell regions."""
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

    tail_bound certifies the skipped same-cell mass (for Lipschitz u,
    from the kernel's growth constant; 0 when that constant is 0) plus,
    for whole-space domains, the pairs reaching beyond the padded
    window.  It is inf when no finite certificate exists (e.g. a step
    function under a kernel with a nonzero growth constant, where the
    continuum integral itself diverges).
    """
    u, spac = sample_midpoints(f, params.grid_n)
    value = pair_sum_on_samples(u, spac, k, params.p, params.delta)
    tail = _window_bound(f, k, params.p, params.delta)
    tail += _diagonal_bound(k, params.p, params.delta, _sampled_lipschitz(u, spac),
                            f.domain.window_volume, spac)
    return EvalResult(value=value, tail_bound=tail, scheme="pair")


# ----------------------------------------------------------------------
# polar scheme
# ----------------------------------------------------------------------

def _polar_eval_shifted(f: TestFunction, pts: np.ndarray, _unused) -> np.ndarray:
    """u at one polar chunk's shifted points.

    pts is (n, nh, d): pts[:, k, ax] is the shifted axis-ax coordinate of
    every cell centre for h-step k, each row a real shifted point, so pts
    is a (..., d) array of points that ``eval_u`` accepts.  In 1-D the
    result is (n, nh).  In 2-D the chunk's point set is the tensor product
    of the two axes, and the result is (n, n, nh) with
    out[i, j, k] = u(pts[i, k, 0], pts[j, k, 1]).  The third argument is
    unused; it stays because ``bench/probe.py`` wraps this seam with three.
    """
    if f.domain.dim == 1:
        return _values_at(f, pts[..., 0])
    return _values_on_product(f, pts[..., 0], pts[..., 1])


def lambda_polar(f: TestFunction, k: Kernel, params: FunctionalParams) -> EvalResult:
    """Whole-space representation: x-grid times geometric h-grid times angles.

    Defined for whole-space domains only: the representation is a
    statement about functions on all of R^d (f should vanish off its
    support box).  Lambda_delta(u, Omega) on a bounded Omega counts only
    pairs in Omega x Omega, which the pair scheme computes; a bounded
    domain here is a contract error.
    """
    dom = f.domain
    if dom.flavor != "whole-space":
        raise ContractError("polar scheme expects a whole-space domain; "
                            "use the pair scheme on a bounded one")

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

    u_flat = u0.ravel()
    terms = _KernelTerms(k, delta)
    h_chunk = 64
    chunks = []
    for sig_idx in range(len(sigmas)):
        for a in range(0, h_grid.size, h_chunk):
            chunks.append((sig_idx, a, min(a + h_chunk, h_grid.size)))

    def worker(spec):
        sig_idx, a, b = spec
        # (n, nh, d): each axis shifted on its own; in 2-D the chunk's points
        # are the tensor product of the two axes, evaluated as such
        pts = x[:, None, :] + (delta * h_grid[a:b])[None, :, None] * sigmas[sig_idx]
        shifted = _polar_eval_shifted(f, pts, None).reshape(u_flat.size, -1)
        diff = shifted - u_flat[:, None]
        np.abs(diff, out=diff)
        # an overflow is refused below, not warned; errstate is per thread
        with np.errstate(over="ignore"):
            per_h = terms.sum(diff, axis=0)
            return float(np.dot(per_h, h_weights[a:b]))

    raw = _tree_sum(_run_chunks(worker, chunks, POLAR_THREADS))
    value = k.scale_c * cell_vol * ang_w * ds * raw
    if not math.isfinite(value):
        raise ParameterError("non-finite polar sum (kernel values overflow?)")

    # certificates: h-tail, h-head, and the x region beyond the window
    b_sup = bound_constant(k)
    surf = _SPHERE_SURFACE[dom.dim]
    win_vol = dom.window_volume
    tail = b_sup * win_vol * surf * params.polar_h_max ** (-p) / p
    a_growth = growth_constant(k, p)
    lip = _sampled_lipschitz(u0, spac)
    if a_growth > 0.0 and lip > 0.0:
        if math.isfinite(a_growth) and lip * params.polar_h_min <= 1.0:
            tail += a_growth * (lip ** (p + 1.0)) * params.polar_h_min * win_vol * surf
        else:
            tail = math.inf
    if dom.padding > 0 and math.isfinite(b_sup):
        tail += b_sup * dom.volume * surf * (delta / dom.padding) ** p / p
    else:
        tail = math.inf
    return EvalResult(value=value, tail_bound=tail, scheme="polar")


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
    if lam <= 0:
        raise ParameterError("dilation factor must be positive")
    if abs(lam * params.grid_n - round(lam * params.grid_n)) > 1e-9:
        raise ParameterError("lam * grid_n must be integral for matched grids")
    d = f.domain.dim
    left = lambda_pair(dilate(f, lam), k, params).value
    small = dataclasses.replace(params, delta=params.delta / lam)
    right = lam ** d * lambda_pair(f, k, small).value
    return abs(left - right) / max(left, np.finfo(float).eps)
