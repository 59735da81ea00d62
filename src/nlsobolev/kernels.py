"""Kernel family for non-local p-energy functionals.

A kernel is a nonnegative function phi on [0, inf) with phi(0) = 0.  It
weights value differences inside the double integral

    Lambda(u, Omega) = int_Omega int_Omega phi(|u(x)-u(y)|) / |x-y|^(p+d)

and is admissible when it satisfies

    growth        phi(t) <= a * t^(p+1)  on [0, 1],
    boundedness   phi(t) <= b            on [0, inf),
    monotonicity  phi non-decreasing     (optional; needed only for the
                                          reverse Sobolev implication),

together with the calibration

    gamma(d, p) * int_0^inf phi(t) t^(-(p+1)) dt = 1,

where gamma(d, p) = int_{S^(d-1)} |sigma . e|^p dsigma.  The calibration
makes the small-delta limit of the rescaled functional equal the Sobolev
energy int |grad u|^p, with no extra constant.

Supported shapes: the 0/1 kernels c * 1_(lo, hi), which are ``indicator``
(hi = inf, a step up at the threshold lo) and ``band`` (with a finite hi,
the standard non-monotone counterexample); ``envelope`` (a * t^(p+1)
rising into a constant plateau, the canonical non-decreasing majorant),
``power-cutoff`` (pure power capped at a cutoff) and ``tabulated``
(piecewise linear between knots with a constant right extension).

Value conventions at jump points: the 0/1 kernels are literal indicators
of open intervals (value 0 at their endpoints; hi = inf is no upper edge,
so phi(inf) = c); the envelope takes its plateau value at the crossover;
tabulated kernels take the right limit at duplicated knots.  All of these
are measure-zero choices and never affect integrals.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, KernelValidationError, NormalizationError, ParameterError

__all__ = [
    "Kernel",
    "KernelValidationReport",
    "indicator_kernel",
    "band_kernel",
    "envelope_kernel",
    "power_cutoff_kernel",
    "tabulated_kernel",
    "envelope_for",
    "eval_kernel",
    "scaled_kernel_eval",
    "gamma_dp",
    "normalization_integral",
    "normalize",
    "validate",
    "growth_constant",
    "bound_constant",
]

_SHAPES = ("indicator", "band", "envelope", "power-cutoff", "tabulated")
_ZERO_ONE = ("indicator", "band")     # c * 1_(lo, hi); the indicator's hi is inf
_CUT_STEPS = 8            # ulps _count_cuts walks from edge*delta before giving up
_DBL_MAX = sys.float_info.max


@dataclass(frozen=True)
class Kernel:
    """Immutable kernel description: a dimensionless shape times a scale.

    The growth and bound constants depend on p and are computed on
    demand by ``growth_constant`` and ``bound_constant``; monotonicity
    follows from the shape alone (``monotone``).
    """

    shape: str
    scale_c: float = 1.0
    lo: float = 1.0                 # 0/1 support (lo, hi); hi = inf is no upper edge
    hi: float = math.inf
    env_a: float = 1.0              # envelope coefficients
    env_b: float = 1.0
    exponent: float = 3.0           # power of t in the rising part
    cutoff: float = math.inf        # power-cutoff plateau start
    knots: tuple = ()               # tabulated
    values: tuple = ()

    def __post_init__(self):
        if self.shape not in _SHAPES:
            raise ParameterError(f"unknown kernel shape {self.shape!r}")
        if not 0 <= self.scale_c < math.inf:    # NaN included
            raise ParameterError("kernel scale must be finite and nonnegative")

    @property
    def monotone(self) -> bool:
        """phi is non-decreasing on [0, inf); phi = 0 when the scale is 0.

        Power-cutoff always is, a 0/1 kernel is exactly when it has no
        upper edge (hi = inf; otherwise it drops back to 0 at hi), the
        envelope is when its rise ends below the plateau (a <= b), and a
        tabulated kernel is when its knot values are, since each value is
        attained or is a one-sided limit.
        """
        if self.scale_c == 0 or self.shape == "power-cutoff":
            return True
        if self.shape in _ZERO_ONE:
            return self.hi == math.inf
        if self.shape == "envelope":
            return self.env_a <= self.env_b
        return all(v0 <= v1 for v0, v1 in zip(self.values, self.values[1:]))

    def describe(self) -> dict:
        """Plain-dict summary for report metadata."""
        d = {"shape": self.shape, "scale_c": self.scale_c, "monotone": self.monotone}
        if self.shape == "indicator":
            d["threshold"] = self.lo
        elif self.shape == "band":
            d["lo"], d["hi"] = self.lo, self.hi
        elif self.shape == "envelope":
            d["a"], d["b"], d["exponent"] = self.env_a, self.env_b, self.exponent
        elif self.shape == "power-cutoff":
            d["exponent"], d["cutoff"] = self.exponent, self.cutoff
        else:
            d["knots"], d["values"] = list(self.knots), list(self.values)
        return d


# ----------------------------------------------------------------------
# constructors
# ----------------------------------------------------------------------

def indicator_kernel(c: float = 1.0, threshold: float = 1.0) -> Kernel:
    """c * 1_(threshold, inf): zero up to the threshold, constant above."""
    if not threshold > 0:
        raise ParameterError("indicator threshold must be positive")
    return Kernel("indicator", scale_c=c, lo=threshold, hi=math.inf)


def band_kernel(lo: float = 1.0, hi: float = 2.0, c: float = 1.0) -> Kernel:
    """c * 1_(lo, hi): not monotone unless hi = inf, the indicator's phi."""
    if not (0 < lo < hi):
        raise ParameterError("band requires 0 < lo < hi")
    return Kernel("band", scale_c=c, lo=lo, hi=hi)


def envelope_kernel(a: float, b: float, p: float, c: float = 1.0) -> Kernel:
    """a * t^(p+1) on [0, 1), constant b on [1, inf).

    This is the canonical non-decreasing majorant of any kernel with
    growth constant a and sup b (non-decreasing when a <= b).
    """
    if not (a >= 0 and b >= 0):
        raise ParameterError("envelope coefficients must be nonnegative")
    if not p > 0:
        raise ParameterError("envelope exponent requires p > 0")
    return Kernel("envelope", scale_c=c, env_a=a, env_b=b, exponent=p + 1.0)


def power_cutoff_kernel(exponent: float, cutoff: float = 1.0, c: float = 1.0) -> Kernel:
    """c * min(t, cutoff)^exponent; cutoff=inf gives the raw (unbounded) power."""
    if not exponent > 0:
        raise ParameterError("power exponent must be positive")
    if not cutoff > 0:
        raise ParameterError("cutoff must be positive (use inf for no cutoff)")
    return Kernel("power-cutoff", scale_c=c, exponent=exponent, cutoff=cutoff)


def tabulated_kernel(knots, values, c: float = 1.0) -> Kernel:
    """Piecewise-linear kernel with a constant right extension.

    Knots must be non-decreasing; a knot repeated twice encodes a jump,
    whose value is taken from the right.  A leading (0, 0) knot is
    implied when the first knot is positive; phi(0) = 0 is enforced.
    """
    knots = [float(t) for t in knots]
    values = [float(v) for v in values]
    if len(knots) != len(values) or len(knots) < 1:
        raise ParameterError("knots and values must be equal-length, non-empty")
    if not all(t1 <= t2 for t1, t2 in zip(knots, knots[1:])):
        raise ParameterError("knots must be non-decreasing")
    if any(knots.count(t) > 2 for t in knots):
        raise ParameterError("a knot may repeat at most twice (one jump)")
    if not all(v >= 0 for v in values):
        raise ParameterError("kernel values must be nonnegative")
    if not knots[0] >= 0:
        raise ParameterError("knots must be nonnegative")
    if knots[0] == 0.0:
        if values[0] != 0.0:
            raise ParameterError("phi(0) = 0 is required")
    else:
        knots = [0.0] + knots
        values = [0.0] + values
    return Kernel("tabulated", scale_c=c, knots=tuple(knots), values=tuple(values))


def envelope_for(k: Kernel, p: float) -> Kernel:
    """Non-decreasing majorant of ``k`` built from its own (a, b) constants."""
    a = growth_constant(k, p)
    b = bound_constant(k)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise KernelValidationError("kernel has no finite envelope (growth or bound fails)")
    return envelope_kernel(a, b, p, c=1.0)


# ----------------------------------------------------------------------
# evaluation
# ----------------------------------------------------------------------

def _require_delta(delta: float) -> None:
    """Refuse a delta that is not finite and positive (nan included)."""
    if not 0.0 < delta < math.inf:
        raise ParameterError("delta must be finite and positive")


def _tabulated_values(k: Kernel, t: np.ndarray) -> np.ndarray:
    kts = np.asarray(k.knots)
    vals = np.asarray(k.values)
    # side='right' lands inside the segment starting at the last duplicate,
    # which realises the right limit at a jump
    idx = np.searchsorted(kts, t, side="right")
    idx = np.clip(idx, 1, len(kts))
    out = np.empty_like(t)
    tail = idx == len(kts)
    out[tail] = vals[-1]
    body = ~tail
    i = idx[body]
    t0, t1 = kts[i - 1], kts[i]
    v0, v1 = vals[i - 1], vals[i]
    span = t1 - t0
    frac = np.where(span > 0, (t[body] - t0) / np.where(span > 0, span, 1.0), 0.0)
    out[body] = v0 + (v1 - v0) * frac
    return out


def _shape_values(k: Kernel, t: np.ndarray) -> np.ndarray:
    """Dimensionless shape value (without the scale factor)."""
    if k.shape in _ZERO_ONE:
        inside = t > k.lo
        return (inside if k.hi == math.inf else inside & (t < k.hi)).astype(float)
    if k.shape == "envelope":
        return np.where(t < 1.0, k.env_a * t ** k.exponent, k.env_b)
    if k.shape == "power-cutoff":
        return np.minimum(t, k.cutoff) ** k.exponent
    return _tabulated_values(k, t)


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

    Defined for the 0/1 kernels c * 1_(lo, hi); the cut hi is None when
    the kernel has no upper edge (hi = inf), so an overflowing |du| / delta
    = inf still counts.  Correctly rounded division is monotone in |du|,
    so each cut is the first double past an edge and lies within a few
    ulps of edge*delta.  None for any other kernel, a non-finite delta or
    a cut the search does not reach: those use the division form.
    """
    if k.shape not in _ZERO_ONE or not 0.0 < delta < math.inf:
        return None
    lo = _cut(lambda a: a / delta > k.lo, k.lo * delta)
    if lo is None:
        return None
    if k.hi == math.inf:
        return lo, None
    hi = _cut(lambda a: a / delta >= k.hi, k.hi * delta)
    return None if hi is None else (lo, hi)


def eval_kernel(k: Kernel, t):
    """phi(t) = scale * shape(t); vectorized over t.

    t must be nonnegative (value differences are absolute).
    """
    arr = np.asarray(t, dtype=float)
    if np.any(arr < 0):
        raise DomainError("kernel argument must be nonnegative")
    out = k.scale_c * _shape_values(k, arr)
    return float(out) if np.isscalar(t) or arr.ndim == 0 else out


def scaled_kernel_eval(k: Kernel, p: float, delta: float, t):
    """Rescaled kernel phi_delta(t) = delta^p * phi(t / delta)."""
    _require_delta(delta)
    if not p > 0:
        raise ParameterError("p must be positive")
    arr = np.asarray(t, dtype=float)
    out = delta ** p * np.asarray(eval_kernel(k, arr / delta))
    return float(out) if np.isscalar(t) or arr.ndim == 0 else out


# ----------------------------------------------------------------------
# structural constants
# ----------------------------------------------------------------------

def growth_constant(k: Kernel, p: float) -> float:
    """Exact sup of phi(t) / t^(p+1) over (0, 1]; inf when divergent.

    Finiteness of this constant is exactly the growth condition; it is
    also the constant entering every near-diagonal remainder bound.
    """
    c = k.scale_c
    if c == 0:
        return 0.0
    q = p + 1.0
    if k.shape in _ZERO_ONE:
        return 0.0 if k.lo >= 1.0 else c * k.lo ** (-q)
    if k.shape == "envelope":
        # shape = a t^e on [0,1): ratio a t^(e-q) is monotone in t
        e = k.exponent
        if e < q:
            return math.inf
        return c * k.env_a
    if k.shape == "power-cutoff":
        e, T = k.exponent, k.cutoff
        if e < q:
            return math.inf
        top = min(T, 1.0)
        return c * top ** (e - q)
    # tabulated: per-segment sup of (alpha + beta t) t^(-q) over (0, 1]
    return c * _tabulated_growth(k, q)


def _tabulated_growth(k: Kernel, q: float) -> float:
    kts = np.asarray(k.knots)
    vals = np.asarray(k.values)
    sup = 0.0
    for i in range(len(kts) - 1):
        t0, t1 = kts[i], min(kts[i + 1], 1.0)
        if t0 >= 1.0 or t1 <= t0:
            continue
        v0, v1 = vals[i], vals[i + 1]
        if kts[i + 1] > 1.0:  # evaluate the segment only up to t = 1
            v1 = v0 + (vals[i + 1] - v0) * (1.0 - t0) / (kts[i + 1] - t0)
        if t0 == 0.0:
            # linear ramp from the origin: ratio ~ beta t^(1-q) blows up
            if v1 > 0:
                return math.inf
            continue
        beta = (v1 - v0) / (t1 - t0)
        alpha = v0 - beta * t0
        cand = [(alpha + beta * t0) * t0 ** (-q), (alpha + beta * t1) * t1 ** (-q)]
        if alpha * beta < 0:
            ts = q * alpha / ((1.0 - q) * beta)  # stationary point of the ratio
            if t0 < ts < t1:
                cand.append((alpha + beta * ts) * ts ** (-q))
        sup = max(sup, max(cand))
    # constant tail inside (0,1] if the last knot is below 1
    if kts[-1] < 1.0 and vals[-1] > 0:
        sup = max(sup, vals[-1] * kts[-1] ** (-q))
    return sup


def bound_constant(k: Kernel) -> float:
    """Exact sup of phi over [0, inf)."""
    c = k.scale_c
    if k.shape in _ZERO_ONE:
        return c
    if k.shape == "envelope":
        return c * max(k.env_a, k.env_b)
    if k.shape == "power-cutoff":
        return math.inf if math.isinf(k.cutoff) else c * k.cutoff ** k.exponent
    return c * max(k.values)


# ----------------------------------------------------------------------
# calibration
# ----------------------------------------------------------------------

def gamma_dp(d: int, p: float) -> float:
    """Angular moment int_{S^(d-1)} |sigma . e|^p dsigma, e a fixed axis.

    d = 1: the 0-sphere is the two-point set {-1, +1} with counting
    measure, so the moment is exactly 2 for every p.
    d = 2: int_0^(2 pi) |cos|^p = 2 sqrt(pi) Gamma((p+1)/2) / Gamma(p/2 + 1),
    in closed form (exactly pi at p = 2).
    """
    if not p > 0:
        raise ParameterError("p must be positive")
    if d == 1:
        return 2.0
    if d == 2:
        try:
            return 2.0 * math.sqrt(math.pi) * math.gamma((p + 1) / 2) / math.gamma(p / 2 + 1)
        except OverflowError:  # Gamma alone overflows past p ~ 340, the ratio does not
            log_ratio = math.lgamma((p + 1) / 2) - math.lgamma(p / 2 + 1)
            return 2.0 * math.sqrt(math.pi) * math.exp(log_ratio)
    raise ParameterError(f"unsupported dimension d={d}")


def normalization_integral(k: Kernel, p: float) -> float:
    """I(k) = int_0^inf phi(t) t^(-(p+1)) dt, piecewise analytic where possible.

    Requires p > 1.  Raises KernelValidationError when the integral
    diverges (growth failure at 0 or an unbounded tail).
    """
    if not p > 1:
        raise ParameterError("calibration integral is only supported for p > 1")
    c = k.scale_c
    if c == 0:
        return 0.0
    if k.shape in _ZERO_ONE:      # hi = inf: inf ** -p is 0.0, the indicator's lo^-p / p
        return c * (k.lo ** (-p) - k.hi ** (-p)) / p
    if k.shape == "envelope":
        e = k.exponent
        if e <= p:
            raise KernelValidationError("envelope rise too slow near 0: integral diverges")
        return c * (k.env_a / (e - p) + k.env_b / p)
    if k.shape == "power-cutoff":
        e, T = k.exponent, k.cutoff
        if math.isinf(T):
            raise KernelValidationError("power without cutoff: integral diverges at infinity")
        if e <= p:
            raise KernelValidationError("power rise too slow near 0: integral diverges")
        return c * T ** (e - p) * (1.0 / (e - p) + 1.0 / p)
    return _tabulated_norm_integral(k, p)


def _tabulated_norm_integral(k: Kernel, p: float) -> float:
    """Closed form, segment by segment: where phi = alpha + beta t on [t0, t1],

        int_t0^t1 phi(t) t^(-(p+1)) dt
            = alpha (t0^-p - t1^-p) / p + beta (t0^(1-p) - t1^(1-p)) / (p - 1);

    the constant right extension adds v_last * t_last^-p / p.
    """
    kts, vals = k.knots, k.values
    # divergence test: any ramp out of t = 0 makes phi ~ beta t, whose
    # weighted integral near 0 behaves like t^(-p)
    i = next((j for j, v in enumerate(vals) if v > 0), None)
    if i is None:
        return 0.0  # identically zero
    if kts[i] == 0.0 or kts[i - 1] == 0.0:
        raise KernelValidationError("tabulated kernel positive near 0: integral diverges")
    body = 0.0
    # segments before the first positive value are zero, jump segments empty
    for t0, t1, v0, v1 in zip(kts[i - 1:], kts[i:], vals[i - 1:], vals[i:]):
        if t1 == t0:
            continue
        beta = (v1 - v0) / (t1 - t0)
        alpha = v0 - beta * t0
        body += (alpha * (t0 ** -p - t1 ** -p) / p
                 + beta * (t0 ** (1.0 - p) - t1 ** (1.0 - p)) / (p - 1.0))
    tail = vals[-1] * kts[-1] ** (-p) / p
    return k.scale_c * (body + tail)


def normalize(k: Kernel, d: int, p: float) -> Kernel:
    """Rescale so that gamma(d, p) * I(k) = 1.  Idempotent up to round-off."""
    integral = normalization_integral(k, p)
    if not math.isfinite(integral) or integral <= 0:
        raise NormalizationError("calibration integral is zero or divergent")
    factor = 1.0 / (gamma_dp(d, p) * integral)
    return dataclasses.replace(k, scale_c=k.scale_c * factor)


# ----------------------------------------------------------------------
# validation report
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class KernelValidationReport:
    cond_growth_ok: bool
    growth_ratio: float      # sup phi(t)/t^(p+1) on (0, 1]
    cond_bounded_ok: bool
    sup_value: float         # sup phi
    cond_monotone_ok: bool
    normalization_value: float  # gamma(d, p) * I(k); inf when divergent

    @property
    def cond_normalized_ok(self) -> bool:
        return abs(self.normalization_value - 1.0) <= 1e-10

    @property
    def all_ok(self) -> bool:
        return (self.cond_growth_ok and self.cond_bounded_ok
                and self.cond_monotone_ok and self.cond_normalized_ok)

    def failures(self) -> list[str]:
        out = []
        if not self.cond_growth_ok:
            out.append("growth")
        if not self.cond_bounded_ok:
            out.append("boundedness")
        if not self.cond_monotone_ok:
            out.append("monotonicity")
        if not self.cond_normalized_ok:
            out.append("normalization")
        return out


def validate(k: Kernel, p: float, d: int = 1) -> KernelValidationReport:
    """Check the structural conditions and record the calibration value.

    Never raises on a failing kernel: failures are carried in the report.
    """
    if not p > 1:
        raise ParameterError("validation is defined for p > 1")
    ratio = growth_constant(k, p)
    sup = bound_constant(k)
    try:
        norm_value = gamma_dp(d, p) * normalization_integral(k, p)
    except KernelValidationError:
        norm_value = math.inf

    return KernelValidationReport(
        cond_growth_ok=math.isfinite(ratio),
        growth_ratio=ratio,
        cond_bounded_ok=math.isfinite(sup),
        sup_value=sup,
        cond_monotone_ok=k.monotone,
        normalization_value=norm_value,
    )
