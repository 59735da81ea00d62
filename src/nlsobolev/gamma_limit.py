"""Pattern-search estimate of the small-delta limit constant kappa.

The limiting functional of Lambda_delta in the variational sense is
kappa * int |grad u|^p for a constant kappa in (0, 1] depending only on
p and the kernel.  kappa is the infimal limiting value of
Lambda_delta(v_delta, Q) over families converging in L^p(Q) to the
unit-gradient diagonal profile U on the unit cube Q.

A finite computation cannot take delta to 0, so ``kappa_estimate``
fixes a small delta and minimizes the discretized functional over
lattice perturbations of U inside an L^p proximity ball.  The returned
kappa_hat is an upper bound for the discretized infimum at that
(delta, grid) and is never presented as kappa itself.

The objective is nonsmooth (indicator-style kernels make it piecewise
constant in v), so the search is a projected pattern search: random
coordinate proposals with a shrinking step, clipped to the proximity
ball, with random restarts.  Single-coordinate moves admit O(n)
incremental objective updates, which is what makes thousands of
iterations affordable on top of an O(n^2) functional.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .evaluator import (FunctionalParams, _KernelTerms, _lag_weights, pair_sum_on_samples,
                        sample_midpoints)
from .experiments import _require_resolution, write_csv
from .functions import TestFunction, cube_profile, discrete_lp_norm
from .kernels import Kernel

__all__ = [
    "KappaProblem",
    "KappaReport",
    "kappa_estimate",
    "write_trace_csv",
]

_STEP_SHRINK = 0.5      # step factor after _PATIENCE consecutive rejections
_PATIENCE = 50


@dataclass(frozen=True)
class KappaProblem:
    """One kappa search: the functional (kernel, p, d, delta) on a grid_n
    lattice, the proximity ball, and the search budget.

    The step schedule is fixed: each restart starts at step delta, which
    shrinks by _STEP_SHRINK after _PATIENCE consecutive rejections, down
    to delta * 1e-4.
    """

    kernel: Kernel
    delta: float
    grid_n: int
    p: float = 2.0
    d: int = 1
    epsilon: float | None = None      # L^p proximity budget; default 0.1 * ||U||_p
    iterations: int = 2000            # single-coordinate proposals per restart
    restarts: int = 5                 # restart 0 starts exactly at U
    seed: int = 0
    threads: int = 1                  # validated only; results never depend on it
    profile: TestFunction | None = None   # override: e.g. an affine on a dilated box

    def __post_init__(self):
        # FunctionalParams checks p, delta, grid_n and threads
        FunctionalParams(self.p, self.delta, self.grid_n, threads=self.threads)
        if self.d not in (1, 2):
            raise ParameterError("d must be 1 or 2")
        if self.seed < 0:
            raise ParameterError("seed must be nonnegative")
        if self.iterations < 0 or self.restarts < 1:
            raise ParameterError("need iterations >= 0 and restarts >= 1")
        if self.epsilon is not None and not 0.0 <= self.epsilon < math.inf:
            raise ParameterError("epsilon must be finite and nonnegative")
        if self.epsilon == 0.0 and (self.iterations > 0 or self.restarts > 1):
            raise ParameterError("epsilon = 0 leaves no room for perturbations")


@dataclass
class KappaReport:
    kappa_hat: float
    baseline: float           # functional value at U on the same grid
    epsilon: float
    final_proximity: float
    seed: int
    trace: list = field(default_factory=list)   # (iteration, best objective, best proximity)
    best_values: np.ndarray | None = None
    metadata: dict = field(default_factory=dict)

    def summary(self) -> dict:
        return {
            "kappa_hat": self.kappa_hat,
            "baseline": self.baseline,
            "epsilon": self.epsilon,
            "final_proximity": self.final_proximity,
            "seed": self.seed,
            "iterations_recorded": len(self.trace),
            **self.metadata,
        }


class _PairObjective:
    """Lattice functional with O(n) single-coordinate updates.

    ``full`` is pair_sum_on_samples on the same array.  A move reads the
    pair sum's own lag-weight table and kernel terms, so the running
    total it tracks drifts from ``full`` only by rounding; the search
    re-anchors it by a full evaluation at the end.
    """

    def __init__(self, k: Kernel, p: float, delta: float, spacings, shape):
        self.k, self.p, self.delta = k, p, delta
        self.spacings = spacings
        self.factor = k.scale_c * delta ** p
        self.terms = _KernelTerms(k, delta)
        # the lag weights reflected per axis, wr[n - 1 + j] = w[|j|]: the weights
        # a move at c applies are the view wr[n - 1 - c : 2n - 1 - c]
        self.wr = _lag_weights(shape, spacings, p)[
            np.ix_(*[np.abs(np.arange(1 - n, n)) for n in shape])]
        self.dist = (np.empty(shape), np.empty(shape))         # |v - new|, |v - old|
        self.masks = (np.empty(shape, dtype=bool), np.empty(shape, dtype=bool))

    def full(self, v: np.ndarray) -> float:
        return pair_sum_on_samples(v, self.spacings, self.k, self.p, self.delta)

    def move_delta(self, v: np.ndarray, where, old: float, new: float) -> float:
        """Objective change when v[where] goes old -> new; ``where`` is an index tuple."""
        wrow = self.wr[tuple(slice(n - 1 - c, 2 * n - 1 - c) for n, c in zip(v.shape, where))]
        a, b = self.dist
        np.abs(np.subtract(v, new, out=a), out=a)
        np.abs(np.subtract(v, old, out=b), out=b)
        diff = self.terms.difference(a, b, a, self.masks)
        diff *= wrow
        return self.factor * float(diff.sum())


def kappa_estimate(prob: KappaProblem) -> KappaReport:
    """Projected pattern search for the discretized infimum near U.

    Deterministic for a fixed seed: reruns reproduce the trace
    bit-for-bit.  kappa_hat is the full re-evaluation of the best point
    found, and U itself is always a feasible starting point, so
    kappa_hat <= baseline up to round-off.
    """
    profile = prob.profile or cube_profile(prob.d)
    _require_resolution(profile, prob.grid_n, prob.delta)
    u_ref, spac = sample_midpoints(profile, prob.grid_n)
    cell_vol = float(np.prod(spac))
    norm_u = discrete_lp_norm(u_ref, cell_vol, prob.p)
    eps = prob.epsilon if prob.epsilon is not None else 0.1 * norm_u
    eps_pow = eps ** prob.p

    obj = _PairObjective(prob.kernel, prob.p, prob.delta, spac, u_ref.shape)
    rng = np.random.default_rng(prob.seed)
    baseline = obj.full(u_ref)

    best_v = u_ref.copy()
    best_obj = baseline
    best_prox = 0.0
    trace = [(0, best_obj, best_prox)]
    flat_n = u_ref.size
    it_global = 0

    for restart in range(prob.restarts):
        if restart == 0:
            v = u_ref.copy()
            s = baseline
            prox_pow = 0.0
        else:
            pert = rng.standard_normal(u_ref.shape)
            pnorm = discrete_lp_norm(pert, cell_vol, prob.p)
            if pnorm > 0:
                pert *= 0.5 * eps / pnorm
            v = u_ref + pert
            s = obj.full(v)
            prox_pow = float(np.sum(np.abs(v - u_ref) ** prob.p) * cell_vol)
        step = prob.delta
        fails = 0

        for _ in range(prob.iterations):
            it_global += 1
            flat = int(rng.integers(flat_n))
            where = (flat,) if v.ndim == 1 else divmod(flat, v.shape[1])
            old, ref = v[where], u_ref[where]
            sign = 1.0 if rng.random() < 0.5 else -1.0
            accepted = False
            for sgn in (sign, -sign):
                cand = old + sgn * step
                # clip the move so the proximity ball stays satisfied
                without = prox_pow - cell_vol * abs(old - ref) ** prob.p
                room = max(0.0, eps_pow - max(without, 0.0))
                radius = (room / cell_vol) ** (1.0 / prob.p) * (1.0 - 1e-12)
                cand = min(max(cand, ref - radius), ref + radius)
                if cand == old:
                    continue
                gain = obj.move_delta(v, where, old, cand)
                if s + gain < s:
                    v[where] = cand
                    s += gain
                    prox_pow = max(without, 0.0) + cell_vol * abs(cand - ref) ** prob.p
                    accepted = True
                    break
            if accepted:
                fails = 0
                if s < best_obj:
                    best_obj = s
                    best_v = v.copy()
                    best_prox = (max(prox_pow, 0.0)) ** (1.0 / prob.p)
            else:
                fails += 1
                if fails >= _PATIENCE:
                    step = max(step * _STEP_SHRINK, prob.delta * 1e-4)
                    fails = 0
            trace.append((it_global, best_obj, best_prox))

    kappa_hat = obj.full(best_v)
    final_prox = discrete_lp_norm(best_v - u_ref, cell_vol, prob.p)
    meta = {
        "kernel": prob.kernel.describe(),
        "profile": profile.describe(),
        "p": prob.p,
        "d": prob.d,
        "delta": prob.delta,
        "grid_n": prob.grid_n,
        "iterations": prob.iterations,
        "restarts": prob.restarts,
        "note": ("upper bound for the discretized infimum at this (delta, grid); "
                 "not kappa itself"),
    }
    return KappaReport(kappa_hat=kappa_hat, baseline=baseline, epsilon=eps,
                       final_proximity=final_prox, seed=prob.seed, trace=trace,
                       best_values=best_v, metadata=meta)


def write_trace_csv(report: KappaReport, path):
    write_csv(path, ["iteration", "objective", "proximity"], report.trace)

