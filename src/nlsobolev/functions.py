"""Domains and scalar test functions, with gradients and p-Dirichlet energy.

Domains are axis-aligned boxes in dimension 1 or 2.  A ``bounded`` box
is integrated over as-is; the ``whole-space`` flavor is a support box of
a compactly supported function plus a padding margin, and integration
windows extend over box + padding.

Test function kinds:

  affine          a . x + b
  cube-profile    sum(x_j) / sqrt(d), the unit-gradient diagonal profile
  sine            amplitude * sin(2 pi frequency x_1)
  step            piecewise constant in 1-D (right-continuous at jumps)
  grid            node values on a uniform lattice, multilinear between

Steps are kept as first-class inputs even though they carry infinite
p-Dirichlet energy for p > 1; energy-relative reports treat them in
divergence mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError
from .kernels import gamma_dp

__all__ = [
    "Domain",
    "TestFunction",
    "bounded_box",
    "whole_space",
    "affine_function",
    "cube_profile",
    "sine_function",
    "step_function",
    "unit_step",
    "grid_function",
    "tent_function",
    "windowed_sine",
    "eval_u",
    "sobolev_energy",
    "dilate",
    "discrete_lp_norm",
]

_KINDS = ("affine", "cube-profile", "sine", "step", "grid")


def _require_finite(name: str, values) -> None:
    """Refuse a NaN or infinite entry of the parameter ``name``, naming it."""
    if not all(math.isfinite(v) for v in values):
        raise ParameterError(f"{name} must be finite")


@dataclass(frozen=True)
class Domain:
    dim: int
    lo: tuple
    hi: tuple
    flavor: str = "bounded"       # bounded | whole-space
    padding: float = 0.0

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ParameterError("only dimensions 1 and 2 are supported")
        if len(self.lo) != self.dim or len(self.hi) != self.dim:
            raise ParameterError("bounds must match the dimension")
        _require_finite("domain.lo", self.lo)
        _require_finite("domain.hi", self.hi)
        if any(a >= b for a, b in zip(self.lo, self.hi)):
            raise ParameterError("domain must have positive volume")
        if self.flavor not in ("bounded", "whole-space"):
            raise ParameterError(f"unknown domain.flavor {self.flavor!r}")
        if not 0.0 <= self.padding < math.inf:
            raise ParameterError("domain.padding must be finite and nonnegative")
        if self.flavor == "bounded" and self.padding != 0:
            raise ParameterError("a bounded domain has no padding")

    @property
    def window_lo(self) -> tuple:
        return tuple(a - self.padding for a in self.lo)

    @property
    def window_hi(self) -> tuple:
        return tuple(b + self.padding for b in self.hi)

    @property
    def volume(self) -> float:
        return float(np.prod([b - a for a, b in zip(self.lo, self.hi)]))

    @property
    def window_volume(self) -> float:
        return float(np.prod([b - a for a, b in zip(self.window_lo, self.window_hi)]))

    def describe(self) -> dict:
        return {"dim": self.dim, "lo": list(self.lo), "hi": list(self.hi),
                "flavor": self.flavor, "padding": self.padding}


def bounded_box(lo, hi) -> Domain:
    lo = tuple(float(a) for a in np.atleast_1d(lo))
    hi = tuple(float(b) for b in np.atleast_1d(hi))
    return Domain(len(lo), lo, hi, "bounded", 0.0)


def whole_space(support_lo, support_hi, padding: float = 1.0) -> Domain:
    """Support box of a compactly supported function, plus an integration margin."""
    lo = tuple(float(a) for a in np.atleast_1d(support_lo))
    hi = tuple(float(b) for b in np.atleast_1d(support_hi))
    return Domain(len(lo), lo, hi, "whole-space", float(padding))


@dataclass(frozen=True, eq=False)
class TestFunction:
    kind: str
    domain: Domain
    a: tuple = ()             # affine gradient
    b: float = 0.0            # affine offset
    frequency: float = 1.0    # sine
    amplitude: float = 1.0
    jumps: tuple = ()         # step
    levels: tuple = ()
    grid_values: np.ndarray | None = None
    grid_origin: tuple = ()
    grid_spacing: float = 0.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ParameterError(f"unknown test function kind {self.kind!r}")

    def describe(self) -> dict:
        d = {"kind": self.kind, "domain": self.domain.describe()}
        if self.kind == "affine":
            d["a"], d["b"] = list(self.a), self.b
        elif self.kind == "sine":
            d["frequency"], d["amplitude"] = self.frequency, self.amplitude
        elif self.kind == "step":
            d["jumps"], d["levels"] = list(self.jumps), list(self.levels)
        elif self.kind == "grid":
            d["grid_shape"] = list(self.grid_values.shape)
            d["grid_spacing"] = self.grid_spacing
        return d

    @property
    def lipschitz(self) -> float:
        """A Lipschitz constant of u on all of R^d, derived from the kind.

        affine |a|, cube profile 1, sine 2 pi f |A|, step inf; a grid the
        hypot of its largest per-axis node difference over the spacing, which
        bounds the gradient of the multilinear interpolant and of its clamped
        extension.  A constant past the largest double is inf.
        """
        if self.kind == "affine":
            return math.hypot(*self.a)
        if self.kind == "cube-profile":
            return 1.0
        if self.kind == "sine":
            return 2 * math.pi * self.frequency * abs(self.amplitude)
        if self.kind == "step":
            return math.inf
        v = self.grid_values
        with np.errstate(over="ignore"):
            steps = [float(np.max(np.abs(np.diff(v, axis=ax)))) for ax in range(v.ndim)]
        return math.hypot(*steps) / self.grid_spacing

    @property
    def support_box(self):
        """((lo, hi) per axis) of a box off which u is exactly 0, else None.

        A grid function whose boundary nodes are all 0 is 0 beyond its
        lattice, since the clamped extension repeats the edge values.  The
        box is the lattice, grid_origin to grid_origin + spacing*(shape - 1),
        not domain.lo/hi (which for tent_function and windowed_sine is the
        support proper).  None for every other kind and for a lattice with
        a nonzero boundary node.
        """
        if self.kind != "grid":
            return None
        v = self.grid_values
        edges = [v[[0, -1]]] if v.ndim == 1 else [v[[0, -1], :], v[:, [0, -1]]]
        if any(np.any(e != 0.0) for e in edges):
            return None
        return tuple((o, o + self.grid_spacing * (m - 1))
                     for o, m in zip(self.grid_origin, v.shape))


# ----------------------------------------------------------------------
# constructors
# ----------------------------------------------------------------------

def affine_function(a, b: float, domain: Domain) -> TestFunction:
    a = tuple(float(x) for x in np.atleast_1d(a))
    if len(a) != domain.dim:
        raise ParameterError("gradient vector must match the domain dimension")
    _require_finite("function.gradient", a)
    _require_finite("function.offset", [b])
    return TestFunction("affine", domain, a=a, b=float(b))


def cube_profile(dim: int = 1, domain: Domain | None = None) -> TestFunction:
    """Diagonal profile sum(x_j)/sqrt(d); |grad| = 1 everywhere.

    Defaults to the open unit cube.
    """
    if domain is None:
        domain = bounded_box([0.0] * dim, [1.0] * dim)
    return TestFunction("cube-profile", domain)


def sine_function(frequency: float, amplitude: float, domain: Domain) -> TestFunction:
    if not 0.0 < frequency < math.inf:
        raise ParameterError("function.frequency must be finite and positive")
    _require_finite("function.amplitude", [amplitude])
    return TestFunction("sine", domain, frequency=float(frequency), amplitude=float(amplitude))


def step_function(jumps, levels, domain: Domain) -> TestFunction:
    """1-D piecewise constant: levels[i] on (jumps[i-1], jumps[i])."""
    if domain.dim != 1:
        raise ParameterError("step functions are 1-D only")
    jumps = tuple(float(j) for j in jumps)
    levels = tuple(float(v) for v in levels)
    if len(levels) != len(jumps) + 1:
        raise ParameterError("need one more level than jump")
    _require_finite("function.jumps", jumps)
    _require_finite("function.levels", levels)
    if any(j1 >= j2 for j1, j2 in zip(jumps, jumps[1:])):
        raise ParameterError("jumps must be strictly increasing")
    return TestFunction("step", domain, jumps=jumps, levels=levels)


def unit_step(lo: float = -1.0, hi: float = 2.0) -> TestFunction:
    """The canonical indicator of (0, 1) on a surrounding interval."""
    return step_function([0.0, 1.0], [0.0, 1.0, 0.0], bounded_box([lo], [hi]))


def grid_function(values, origin, spacing: float, flavor: str = "bounded",
                  padding: float = 0.0) -> TestFunction:
    """Node values on a uniform lattice; evaluation interpolates multilinearly.

    The lattice extent defines the domain box.  With the whole-space
    flavor the function extends by its edge values outside the lattice
    (which should be 0 for a genuinely compactly supported function).
    """
    values = np.asarray(values, dtype=float)
    if values.ndim not in (1, 2):
        raise ParameterError("grid values must be 1-D or 2-D")
    if not np.all(np.isfinite(values)):
        raise ParameterError("grid values must be finite")
    if min(values.shape) < 2:
        raise ParameterError("need at least two nodes per axis")
    if not 0.0 < spacing < math.inf:
        raise ParameterError("function.grid_spacing must be finite and positive")
    origin = tuple(float(x) for x in np.atleast_1d(origin))
    if len(origin) != values.ndim:
        raise ParameterError("origin must match the lattice dimension")
    _require_finite("function.grid_origin", origin)
    hi = tuple(o + spacing * (nn - 1) for o, nn in zip(origin, values.shape))
    dom = Domain(values.ndim, origin, hi, flavor, float(padding))
    return TestFunction("grid", dom, grid_values=values, grid_origin=origin,
                        grid_spacing=float(spacing))


def tent_function(half_width: float = 1.0, height: float = 1.0,
                  padding: float = 2.0, nodes_per_unit: int = 64) -> TestFunction:
    """Compactly supported 1-D tent, exact as a piecewise-linear grid function.

    Lattice nodes are aligned with the kinks at -half_width, 0, +half_width,
    so the interpolant reproduces the tent exactly.  The padding margin is
    part of the lattice, carrying zeros.
    """
    m = int(nodes_per_unit)
    if m < 2:
        raise ParameterError("nodes_per_unit must be at least 2")
    for length in (half_width, padding):
        if abs(length * m - round(length * m)) > 1e-9:
            raise ParameterError("half_width and padding must be multiples of 1/nodes_per_unit")
    span = half_width + padding
    n_nodes = int(round(2 * span * m)) + 1
    x = -span + np.arange(n_nodes) / m
    vals = height * np.maximum(0.0, 1.0 - np.abs(x) / half_width)
    # support box is the tent's support, the padded margin carries zeros
    dom = Domain(1, (-half_width,), (half_width,), "whole-space", padding)
    return TestFunction("grid", dom, grid_values=vals, grid_origin=(-span,),
                        grid_spacing=1.0 / m)


def windowed_sine(frequency: float = 1.0, amplitude: float = 1.0,
                  padding: float = 1.0, nodes_per_unit: int = 256) -> TestFunction:
    """sin(2 pi f x) on (0, 1), smoothly windowed to compact support.

    Sampled onto a lattice (piecewise linear), with a cosine-taper window
    so the function and its derivative vanish at the support edges.
    """
    m = int(nodes_per_unit)
    if abs(padding * m - round(padding * m)) > 1e-9:
        raise ParameterError("padding must be a multiple of 1/nodes_per_unit")
    span_lo, span_hi = -padding, 1.0 + padding
    n_nodes = int(round((span_hi - span_lo) * m)) + 1
    x = span_lo + np.arange(n_nodes) / m
    window = np.clip(np.minimum(x / 0.25, (1.0 - x) / 0.25), 0.0, 1.0)
    window = 0.5 - 0.5 * np.cos(np.pi * window)
    vals = amplitude * np.sin(2 * np.pi * frequency * x) * window
    dom = Domain(1, (0.0,), (1.0,), "whole-space", padding)
    return TestFunction("grid", dom, grid_values=vals, grid_origin=(span_lo,),
                        grid_spacing=1.0 / m)


# ----------------------------------------------------------------------
# evaluation
# ----------------------------------------------------------------------

def _as_points(f: TestFunction, x) -> np.ndarray:
    pts = np.asarray(x, dtype=float)
    if f.domain.dim == 1:
        return pts.reshape(-1)
    if pts.ndim == 1:
        pts = pts.reshape(1, -1)
    return pts.reshape(-1, f.domain.dim)


def _interp_grid(f: TestFunction, coords) -> np.ndarray:
    """Lattice interpolant, clamped at the edges, at per-axis coordinates.

    ``coords`` holds one coordinate array per axis; in 2-D the two
    broadcast together and the result has their broadcast shape.  The
    index, clip and fraction of each axis are computed on that axis's own
    array, so a tensor grid costs its per-axis size there; the four
    corner values are then gathered from the flattened lattice.
    """
    vals = f.grid_values
    h = f.grid_spacing
    if vals.ndim == 1:
        nodes = f.grid_origin[0] + h * np.arange(vals.size)
        return np.interp(coords[0], nodes, vals)
    idx = []
    frac = []
    for ax, c in enumerate(coords):
        t = (c - f.grid_origin[ax]) / h
        t = np.clip(t, 0.0, vals.shape[ax] - 1.0)
        i0 = np.minimum(t.astype(int), vals.shape[ax] - 2)
        idx.append(i0)
        frac.append(t - i0)
    (i, j), (s, t) = idx, frac
    m = vals.shape[1]
    flat = vals.ravel()
    k = i * m + j          # corner (i, j); flat[m:], flat[1:], flat[m + 1:] give the others
    # corner * weight_s * weight_t per corner, summed corner by corner: the
    # order of (v00*(1-s)*(1-t) + v10*s*(1-t)) + v01*(1-s)*t + v11*s*t,
    # computed in place
    s1, t1 = 1 - s, 1 - t
    out = flat[k] * s1
    out *= t1
    for corner, ws, wt in ((flat[m:], s, t1), (flat[1:], s1, t), (flat[m + 1:], s, t)):
        term = corner[k]
        term *= ws
        term *= wt
        out += term
    return out


def _values_at(f: TestFunction, pts: np.ndarray) -> np.ndarray:
    """Raw evaluation without domain checks; pts is (m,) in 1-D or (..., 2)."""
    if f.kind == "affine":
        if f.domain.dim == 1:
            return f.a[0] * pts + f.b
        return pts @ np.asarray(f.a) + f.b
    if f.kind == "cube-profile":
        if f.domain.dim == 1:
            return pts.copy()
        return pts.sum(axis=-1) / math.sqrt(f.domain.dim)
    if f.kind == "sine":
        x1 = pts if f.domain.dim == 1 else pts[..., 0]
        return f.amplitude * np.sin(2 * np.pi * f.frequency * x1)
    if f.kind == "step":
        idx = np.searchsorted(np.asarray(f.jumps), pts, side="right")
        return np.asarray(f.levels)[idx]
    return _interp_grid(f, (pts,) if f.domain.dim == 1 else (pts[..., 0], pts[..., 1]))


def _values_on_axes(f: TestFunction, coords) -> np.ndarray:
    """u on the tensor product of per-axis coordinate arrays.

    coords holds one (n_ax, *rest) array per axis.  The result is
    (n0, *rest) in 1-D and (n0, n1, *rest) in 2-D, with
    out[i, j, ...] = u(coords[0][i, ...], coords[1][j, ...]): the same bits
    as ``_values_at`` on the materialized points.  The grid kind does its
    index work per axis; the other kinds broadcast into points.
    """
    if len(coords) == 1:
        return _values_at(f, coords[0])
    x0, x1 = coords[0][:, None], coords[1][None, :]
    if f.kind == "grid":
        return _interp_grid(f, (x0, x1))
    return _values_at(f, np.stack(np.broadcast_arrays(x0, x1), axis=-1))


def _reach(f: TestFunction, box, coords) -> tuple:
    """Per axis, the slice of rows of coords[ax] that reach the open box.

    coords holds one (n_ax, ...) coordinate array per axis, and box is
    ``f.support_box``.  A coordinate reaches the box when the interpolant
    reads a node off the lattice boundary there, tested in the
    interpolant's own arithmetic: np.interp returns the end values at and
    beyond the end nodes, and in 2-D ``_interp_grid`` clips its lattice
    coordinate to [0, shape - 1].  The slice runs from the first to the
    last row with a coordinate that reaches; it is empty when none does.
    """
    rect = []
    for ax, (c, (lo, hi)) in enumerate(zip(coords, box)):
        if f.grid_values.ndim == 1:
            inside = (c > lo) & (c < hi)
        else:
            t = (c - lo) / f.grid_spacing
            inside = (t > 0.0) & (t < f.grid_values.shape[ax] - 1.0)
        flat = inside.ravel()
        first = flat.argmax()
        if not flat[first]:
            rect.append(slice(0, 0))
            continue
        per_row = flat.size // c.shape[0]
        rect.append(slice(first // per_row, c.shape[0] - flat[::-1].argmax() // per_row))
    return tuple(rect)


def eval_u(f: TestFunction, x):
    """Value of u at x (vectorized).  Bounded domains reject outside points."""
    pts = _as_points(f, x)
    if f.domain.flavor == "bounded":
        lo, hi = f.domain.window_lo, f.domain.window_hi
        coords = pts.reshape(-1, f.domain.dim) if f.domain.dim == 2 else pts.reshape(-1, 1)
        eps = 1e-12
        for ax in range(f.domain.dim):
            if np.any(coords[:, ax] < lo[ax] - eps) or np.any(coords[:, ax] > hi[ax] + eps):
                raise DomainError("evaluation point outside the bounded domain")
    out = _values_at(f, pts)
    if np.isscalar(x) or np.asarray(x).ndim == 0:
        return float(out[0] if out.ndim else out)
    return out


# ----------------------------------------------------------------------
# energy
# ----------------------------------------------------------------------

def _transverse_volume(domain: Domain) -> float:
    if domain.dim == 1:
        return 1.0
    return domain.hi[1] - domain.lo[1]


def _incomplete_beta(x: float, y: float, a: float, b: float) -> float:
    """B(x; a, b) = int_0^x t^(a-1) (1-t)^(b-1) dt, given y = 1 - x.

    The continued fraction of B(x; a, b) / (x^a y^b / a), evaluated by the
    modified Lentz method; it converges quickly for x < (a+1)/(a+b+2),
    and callers take the complement beyond that.
    """
    tiny = 1e-300
    f, c, d = 1.0, 1.0, 0.0
    for i in range(1000):
        m = i // 2
        if i == 0:
            num = 1.0
        elif i % 2:
            num = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        else:
            num = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        d = 1.0 + num * d
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = 1.0 + num / c
        c = c if abs(c) > tiny else tiny
        f *= c * d
        if abs(1.0 - c * d) < 1e-16:
            return x ** a * y ** b / a * (f - 1.0)
    raise ArithmeticError(f"incomplete beta continued fraction did not converge "
                          f"(x={x}, a={a}, b={b})")


def _cos_power_integral(phi: float, p: float, quarter: float) -> float:
    """int_0^phi cos^p t dt for 0 <= phi <= pi/2; ``quarter`` is its value at pi/2.

    With s = sin^2 t it is B(sin^2 phi; 1/2, (p+1)/2) / 2, taken from the
    complement quarter - B(cos^2 phi; (p+1)/2, 1/2) / 2 past the
    continued fraction's switch point.
    """
    a, b = 0.5, (p + 1) / 2
    s2, c2 = math.sin(phi) ** 2, math.cos(phi) ** 2
    if s2 < (a + 1) / (a + b + 2):
        return 0.5 * _incomplete_beta(s2, c2, a, b)
    return quarter - 0.5 * _incomplete_beta(c2, s2, b, a)


def _abs_cos_power_integral(t: float, p: float, quarter: float) -> float:
    """int_0^(t pi/2) |cos|^p: a running count of quarter periods, t in quarters.

    Quarter q (t in [q, q+1)) is a copy of |cos| on [0, pi/2] for even q
    and of |sin| for odd q, each worth ``quarter``.
    """
    q = math.floor(t)
    frac = t - q
    if q % 2 == 0:
        part = _cos_power_integral(frac * math.pi / 2, p, quarter)
    else:
        part = quarter - _cos_power_integral((1 - frac) * math.pi / 2, p, quarter)
    return q * quarter + part


def _grid_energy(vals: np.ndarray, h: float, p: float) -> float:
    """int |grad u|^p of the multilinear interpolant of a lattice.

    In 1-D the interpolant is linear on each cell, so the sum is exact.
    In 2-D the bilinear gradient on a cell is (g0(t), g1(s)), each linear
    in the other coordinate, and one 8 x 8 Gauss-Legendre rule per cell
    integrates (g0^2 + g1^2)^(p/2).  The rule is exact for polynomials of
    degree 15 in each variable, so for p = 2, 4, ..., 14 the energy is
    exact up to rounding.  For other p its error comes from the cells
    where grad u vanishes, where |grad u|^p is not smooth.  Measured
    against a 64-node rule: a 33 x 33 sine bump errs by <= 5e-10 relative
    at p in [1.1, 3]; random 9 x 7 lattices by <= 2e-4 at p = 1.1,
    3e-5 at p = 1.5 and 6e-6 at p = 2.7 and 3.
    """
    if vals.ndim == 1:
        return float(h * np.sum(np.abs(np.diff(vals) / h) ** p))
    from numpy.polynomial.legendre import leggauss

    x, w = leggauss(8)
    t, w = (x + 1) / 2, w / 2            # nodes and weights on [0, 1]
    d0, d1 = np.diff(vals, axis=0) / h, np.diff(vals, axis=1) / h
    total = 0.0
    # node by node, so that memory stays a few lattice-sized arrays
    for tj, wj in zip(t, w):             # along axis 1
        g0 = d0[:, :-1] * (1 - tj) + d0[:, 1:] * tj
        for ti, wi in zip(t, w):         # along axis 0
            g1 = d1[:-1] * (1 - ti) + d1[1:] * ti
            total += wi * wj * np.sum((g0 * g0 + g1 * g1) ** (p / 2))
    return float(h * h * total)


def sobolev_energy(f: TestFunction, p: float) -> float:
    """int over the domain of |grad u|^p, for the u that ``eval_u`` evaluates.

    - affine, cube profile: exact.
    - sine: exact up to rounding.  Each whole quarter period of
      |A w cos(w x)|^p, w = 2 pi f, contributes |A w|^p gamma_dp(2, p) / (4 w);
      each partial end is an incomplete beta function, summed by its
      continued fraction.
    - grid: the energy of the multilinear interpolant; exact in 1-D, an
      8 x 8 Gauss-Legendre rule per cell in 2-D, exact at p = 2 (see
      ``_grid_energy`` for its error at other p).
    - step: +inf.
    """
    if not p > 0:
        raise ParameterError("p must be positive")
    dom = f.domain
    if f.kind == "affine":
        with np.errstate(over="ignore"):    # an |a|^p past the largest double gives inf
            return float(np.float64(math.hypot(*f.a)) ** p * dom.volume)
    if f.kind == "cube-profile":
        return dom.volume
    if f.kind == "sine":
        w = 2 * math.pi * f.frequency
        quarter = gamma_dp(2, p) / 4          # int_0^(pi/2) cos^p
        t_lo, t_hi = (4 * f.frequency * x for x in (dom.lo[0], dom.hi[0]))   # in quarters
        val = (_abs_cos_power_integral(t_hi, p, quarter)
               - _abs_cos_power_integral(t_lo, p, quarter))
        return float((abs(f.amplitude) * w) ** p * val / w * _transverse_volume(dom))
    if f.kind == "step":
        return math.inf
    return _grid_energy(f.grid_values, f.grid_spacing, p)


def discrete_lp_norm(values: np.ndarray, cell_volume: float, p: float) -> float:
    """(sum |v_i|^p * cell_volume)^(1/p) on a uniform lattice."""
    return float((np.sum(np.abs(values) ** p) * cell_volume) ** (1.0 / p))


# ----------------------------------------------------------------------
# dilation
# ----------------------------------------------------------------------

def dilate(f: TestFunction, lam: float) -> TestFunction:
    """The rescaled function lam * u(x / lam) on the dilated domain.

    Every supported kind is closed under this map (the cube profile is
    invariant up to the domain).
    """
    if not 0.0 < lam < math.inf:
        raise ParameterError("dilation factor must be finite and positive")
    dom = f.domain
    new_dom = Domain(dom.dim, tuple(lam * a for a in dom.lo), tuple(lam * b for b in dom.hi),
                     dom.flavor, lam * dom.padding)
    if f.kind == "affine":
        return TestFunction("affine", new_dom, a=f.a, b=lam * f.b)
    if f.kind == "cube-profile":
        return TestFunction("cube-profile", new_dom)
    if f.kind == "sine":
        return TestFunction("sine", new_dom, frequency=f.frequency / lam,
                            amplitude=lam * f.amplitude)
    if f.kind == "step":
        return TestFunction("step", new_dom, jumps=tuple(lam * j for j in f.jumps),
                            levels=tuple(lam * v for v in f.levels))
    return TestFunction("grid", new_dom, grid_values=lam * f.grid_values,
                        grid_origin=tuple(lam * o for o in f.grid_origin),
                        grid_spacing=lam * f.grid_spacing)
