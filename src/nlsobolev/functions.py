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
        if any(a >= b for a, b in zip(self.lo, self.hi)):
            raise ParameterError("domain must have positive volume")
        if self.flavor not in ("bounded", "whole-space"):
            raise ParameterError(f"unknown domain.flavor {self.flavor!r}")
        if self.padding < 0:
            raise ParameterError("padding must be nonnegative")
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


# ----------------------------------------------------------------------
# constructors
# ----------------------------------------------------------------------

def affine_function(a, b: float, domain: Domain) -> TestFunction:
    a = tuple(float(x) for x in np.atleast_1d(a))
    if len(a) != domain.dim:
        raise ParameterError("gradient vector must match the domain dimension")
    return TestFunction("affine", domain, a=a, b=float(b))


def cube_profile(dim: int = 1, domain: Domain | None = None) -> TestFunction:
    """Diagonal profile sum(x_j)/sqrt(d); |grad| = 1 everywhere.

    Defaults to the open unit cube.
    """
    if domain is None:
        domain = bounded_box([0.0] * dim, [1.0] * dim)
    return TestFunction("cube-profile", domain)


def sine_function(frequency: float, amplitude: float, domain: Domain) -> TestFunction:
    if frequency <= 0:
        raise ParameterError("frequency must be positive")
    return TestFunction("sine", domain, frequency=float(frequency), amplitude=float(amplitude))


def step_function(jumps, levels, domain: Domain) -> TestFunction:
    """1-D piecewise constant: levels[i] on (jumps[i-1], jumps[i])."""
    if domain.dim != 1:
        raise ParameterError("step functions are 1-D only")
    jumps = tuple(float(j) for j in jumps)
    levels = tuple(float(v) for v in levels)
    if len(levels) != len(jumps) + 1:
        raise ParameterError("need one more level than jump")
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
    if spacing <= 0:
        raise ParameterError("spacing must be positive")
    origin = tuple(float(x) for x in np.atleast_1d(origin))
    if len(origin) != values.ndim:
        raise ParameterError("origin must match the lattice dimension")
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
    return (flat[k] * (1 - s) * (1 - t) + flat[m:][k] * s * (1 - t)
            + flat[1:][k] * (1 - s) * t + flat[m + 1:][k] * s * t)


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


def _values_on_product(f: TestFunction, c0: np.ndarray, c1: np.ndarray) -> np.ndarray:
    """u of a 2-D function on the tensor product of two coordinate arrays.

    c0 is (n0, *rest) on axis 0 and c1 is (n1, *rest) on axis 1; the result
    is (n0, n1, *rest) with out[i, j, ...] = u(c0[i, ...], c1[j, ...]), the
    same bits as ``_values_at`` on the materialized points.  The grid kind
    does its index work per axis; the other kinds broadcast into points.
    """
    x0, x1 = c0[:, None], c1[None, :]
    if f.kind == "grid":
        return _interp_grid(f, (x0, x1))
    return _values_at(f, np.stack(np.broadcast_arrays(x0, x1), axis=-1))


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


def sobolev_energy(f: TestFunction, p: float) -> float:
    """int over the domain of |grad u|^p.

    Exact for affine and the cube profile; adaptive quadrature for sine;
    finite differences (central inside, one-sided at faces) plus
    trapezoid weights for grid functions; +inf for steps.
    """
    if not p > 0:
        raise ParameterError("p must be positive")
    dom = f.domain
    if f.kind == "affine":
        return float(np.linalg.norm(f.a) ** p * dom.volume)
    if f.kind == "cube-profile":
        return dom.volume
    if f.kind == "sine":
        from scipy.integrate import quad  # no closed form for arbitrary lo, hi

        w = 2 * np.pi * f.frequency
        amp = abs(f.amplitude) * w
        lo, hi = dom.lo[0], dom.hi[0]
        # quarter-period breakpoints keep the |cos|^p kinks visible to quad
        quarter = 0.25 / f.frequency
        k0, k1 = math.ceil(lo / quarter), math.floor(hi / quarter)
        pts = [k * quarter for k in range(k0, k1 + 1) if lo < k * quarter < hi]
        val, _ = quad(lambda x: abs(np.cos(w * x)) ** p, lo, hi,
                      points=pts[:40] or None, limit=300, epsabs=1e-12, epsrel=1e-12)
        return float(amp ** p * val * _transverse_volume(dom))
    if f.kind == "step":
        return math.inf
    # grid: gradient by finite differences on the lattice
    vals = f.grid_values
    h = f.grid_spacing
    if vals.ndim == 1:
        g = np.gradient(vals, h)
        integrand = np.abs(g) ** p
        return float(np.trapezoid(integrand, dx=h))
    gx, gy = np.gradient(vals, h)
    integrand = (gx * gx + gy * gy) ** (p / 2.0)
    return float(np.trapezoid(np.trapezoid(integrand, dx=h, axis=1), dx=h))


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
    if lam <= 0:
        raise ParameterError("dilation factor must be positive")
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
