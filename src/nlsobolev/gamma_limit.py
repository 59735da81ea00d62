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
iterations affordable on top of an O(n^2) functional.  Under a 0/1
kernel a move touches only the cells whose count changes: the search
keeps a sorted copy of v, where those cells are a few runs found by
bisection, and their weights are summed in a fresh zero array of v's
cells by the same reduction as the dense update, so the gains keep their
bits (``_PairObjective``).
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left, bisect_right
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
_OPENS = (True, False, True, False)     # which of a centre's four run edges open a run


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
    # seconds in the full evaluations and in the proposal loops: the run's
    # record, not a result, so reruns differ here alone
    stage_s: dict = field(default_factory=dict)

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


def _window_cuts(terms: _KernelTerms, wr: np.ndarray):
    """The cuts (lo, hi) that windowed moves count against, or None where moves stay dense.

    Dense are the kernels that are not 0/1, and a weight table with a
    weight that is not finite: there an unchanged cell of the dense
    product is 0 * inf = nan, not the 0.0 of a zero scratch cell.
    """
    if terms.cuts is None or not np.isfinite(wr).all():
        return None
    return terms.cuts


def _first_past(vals: list, x: float, t: float, strict: bool) -> int:
    """First index s of the sorted list ``vals`` with fl(vals[s] - x) > t
    (``strict``) or >= t, and len(vals) when there is none.

    fl(v - x) is nondecreasing in v, so the predicate flips once along
    vals.  A bisection at fl(x + t) lands within rounding of the flip, and
    steps over whole runs of equal values then reach it on the exact
    predicate: the steps are bounded by the distinct values in between.
    """
    n = len(vals)
    if strict:
        s = bisect_right(vals, x + t)
        while s < n and not vals[s] - x > t:
            s = bisect_right(vals, vals[s], s)
        while s and vals[s - 1] - x > t:
            s = bisect_left(vals, vals[s - 1], 0, s)
    else:
        s = bisect_left(vals, x + t)
        while s < n and not vals[s] - x >= t:
            s = bisect_right(vals, vals[s], s)
        while s and vals[s - 1] - x >= t:
            s = bisect_left(vals, vals[s - 1], 0, s)
    return s


class _PairObjective:
    """Lattice functional with O(n) single-coordinate updates.

    ``full`` is pair_sum_on_samples on the same array.  A move reads the
    pair sum's own lag-weight table and kernel terms, so the running
    total it tracks drifts from ``full`` only by rounding; the search
    re-anchors it by a full evaluation at the end.

    ``move_delta`` is the dense move: every cell's kernel term against the
    old and the new value.  Under a 0/1 kernel with cuts [lo, hi), ``gain``
    reads a sorted copy of v instead, made by ``start`` and kept sorted by
    ``accept``.  The cells that a centre x counts have fl(v_j - x) in
    (-hi, -lo] or [lo, hi), and fl(v_j - x) is nondecreasing in v_j, so
    they are two runs of the sorted order with four edges (``_edges``).
    Only the edges at finite cuts move with x: two for the indicator, whose
    outer edges are the ends of the sorted order, and four for the band
    (``_moving``).  A move old -> new changes a cell's term only between an
    edge for old and the same edge for new, so ``gain`` writes +-w[|j - c|]
    for those cells alone into a fresh zero array of v's cells in C order.
    That array holds the values of the dense ``diff * wrow``, and
    ``np.add.reduce`` adds them as ``.sum()`` adds the dense product, whose
    reduction over every axis runs over its C-ordered data, so every gain
    keeps its bits.
    """

    def __init__(self, k: Kernel, p: float, delta: float, spacings, shape):
        self.k, self.p, self.delta = k, p, delta
        self.spacings = spacings
        self.factor = k.scale_c * delta ** p
        self.terms = _KernelTerms(k, delta)
        self.full_s = 0.0       # seconds spent in ``full``
        # the lag weights reflected per axis, wr[n - 1 + j] = w[|j|]: the weights
        # a move at c applies are the view wr[n - 1 - c : 2n - 1 - c]
        self.wr = _lag_weights(shape, spacings, p)[
            np.ix_(*[np.abs(np.arange(1 - n, n)) for n in shape])]
        self.dist = (np.empty(shape), np.empty(shape))         # |v - new|, |v - old|
        self.masks = (np.empty(shape, dtype=bool), np.empty(shape, dtype=bool))
        self.cuts = _window_cuts(self.terms, self.wr)
        if self.cuts is not None:
            # a move at c weighs cell j by wflat[base(c) + offset[j]] = w[|j - c|]; a
            # row of the reflected table is 2 n1 - 1 long (in 1-D, offset[j] = j)
            cells = np.arange(math.prod(shape))
            self.offset = cells + cells // shape[-1] * (shape[-1] - 1)
            self.wflat = self.wr.reshape(-1)
            self.wneg = -self.wflat
            self.half = self.wflat.size // 2        # base(c) = half - offset[c]
            # the edges that move, with what crossing them does (_OPENS)
            self.opens = _OPENS if self.cuts[1] is not None else _OPENS[1:3]

    def full(self, v: np.ndarray) -> float:
        start = time.perf_counter()
        value = pair_sum_on_samples(v, self.spacings, self.k, self.p, self.delta)
        self.full_s += time.perf_counter() - start
        return value

    def move_delta(self, v: np.ndarray, where, old: float, new: float) -> float:
        """Objective change when v[where] goes old -> new; ``where`` is an index tuple."""
        wrow = self.wr[tuple(slice(n - 1 - c, 2 * n - 1 - c) for n, c in zip(v.shape, where))]
        a, b = self.dist
        np.abs(np.subtract(v, new, out=a), out=a)
        np.abs(np.subtract(v, old, out=b), out=b)
        diff = self.terms.difference(a, b, a, self.masks)
        diff *= wrow
        return self.factor * float(diff.sum())

    def start(self, v: np.ndarray):
        """Sort a copy of v, the state the windowed moves read: values and argsort."""
        if self.cuts is not None:
            self.order = np.argsort(v, axis=None)
            self.offs = self.order if v.ndim == 1 else self.offset[self.order]
            self.vals = v.reshape(-1)[self.order].tolist()
            self.centre = None          # the centre whose edges are cached

    def _edges(self, x: float):
        """Sorted positions (a, b, c, d) with sorted[a:b] and sorted[c:d] the
        cells counted against centre x: fl(v - x) in (-hi, -lo] and [lo, hi)."""
        edges = self._moving(x)
        return edges if len(edges) == 4 else (0, *edges, len(self.vals))

    def _moving(self, x: float):
        """The edges of ``_edges`` at finite cuts: (b, c) for the indicator,
        whose a and d are the ends of the sorted order, and (a, b, c, d)
        for the band."""
        vals, (lo, hi) = self.vals, self.cuts
        inner = _first_past(vals, x, -lo, True), _first_past(vals, x, lo, False)
        if hi is None:
            return inner
        return _first_past(vals, x, -hi, True), *inner, _first_past(vals, x, hi, False)

    def gain(self, v: np.ndarray, flat: int, old: float, new: float) -> float:
        """``move_delta`` of the move v.flat[flat]: old -> new, with the same bits.

        Under a 0/1 kernel it reads the sorted copy, which must hold v, and
        writes +-w[|j - c|] for the changed cells into a fresh zero array of
        v's cells in C order, which ``np.add.reduce`` adds.
        """
        if self.cuts is not None:
            if self.centre != old:      # both signs of a proposal share old's edges
                self.centre, self.centre_edges = old, self._moving(old)
            base = self.half - self.offset.item(flat)
            order, offs = self.order, self.offs
            diff, end = np.zeros(self.offset.size), 0      # v's cells in C order
            # a cell between an edge for old and the same edge for new changes its
            # term by +-1: + where the new count holds it and the old one does not.
            # The runs come in order, and two overlap only when the move passes a
            # whole cut width: the dense move then gives each cell its net term
            for k0, k1, opens in zip(self.centre_edges, self._moving(new), self.opens):
                if k1 < k0:
                    i, j, plus = k1, k0, opens
                elif k0 < k1:
                    i, j, plus = k0, k1, not opens
                else:
                    continue
                if i < end:
                    break
                w = (self.wflat if plus else self.wneg)[base:]     # w[offset[j]] = +-w[|j - c|]
                cells = order[i:j]          # in 1-D a cell's offset is its index
                diff[cells] = w[cells if offs is order else offs[i:j]]
                end = j
            else:
                return self.factor * float(np.add.reduce(diff))
        where = (flat,) if v.ndim == 1 else divmod(flat, v.shape[1])
        return self.move_delta(v, where, old, new)

    def accept(self, v: np.ndarray, flat: int, new: float):
        """Apply the move v.flat[flat] -> new, keeping the sorted copy sorted."""
        old = v.item(flat)
        v.flat[flat] = new
        if self.cuts is None:
            return
        vals, order, offs = self.vals, self.order, self.offs
        pos = bisect_left(vals, old)
        if order[pos] != flat:          # ties: find the cell among them
            end = bisect_right(vals, old, pos)
            pos += int(np.flatnonzero(order[pos:end] == flat)[0])
        del vals[pos]
        ins = bisect_left(vals, new)
        vals.insert(ins, new)
        for a in (order,) if offs is order else (order, offs):
            item = a[pos]
            if ins > pos:
                a[pos:ins] = a[pos + 1:ins + 1]
            else:
                a[ins + 1:pos + 1] = a[ins:pos]
            a[ins] = item
        self.centre = None


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
    # one cell's proximity term |v - u|^p reaches eps^p / cell_vol
    try:
        eps_pow = eps ** prob.p
    except OverflowError:
        eps_pow = math.inf
    if eps_pow / cell_vol == math.inf:
        raise ParameterError(
            f"value out of range: kappa.epsilon = {eps!r} lets one cell's proximity term "
            f"|v - u|^p reach epsilon^p / cell volume, which overflows "
            f"(p = {prob.p!r}, cell volume {cell_vol!r})")

    obj = _PairObjective(prob.kernel, prob.p, prob.delta, spac, u_ref.shape)
    rng = np.random.default_rng(prob.seed)
    baseline = obj.full(u_ref)

    best_v = u_ref.copy()
    best_obj = baseline
    best_prox = 0.0
    trace = [(0, best_obj, best_prox)]
    flat_n = u_ref.size
    it_global = evaluated = accepted_moves = 0
    moves_s = 0.0
    # the proposal loop's lookups, bound once; the RNG calls keep their order
    p, inv_p, iterations = prob.p, 1.0 / prob.p, prob.iterations
    integers, uniform, ref_at = rng.integers, rng.random, u_ref.item
    gain_of, accept, record = obj.gain, obj.accept, trace.append

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
            prox_pow = float(np.sum(np.abs(v - u_ref) ** p) * cell_vol)
        obj.start(v)
        step = prob.delta
        fails = 0
        value_at = v.item
        start = time.perf_counter()

        for _ in range(iterations):
            it_global += 1
            flat = int(integers(flat_n))
            old, ref = value_at(flat), ref_at(flat)
            sign = 1.0 if uniform() < 0.5 else -1.0
            accepted = False
            # clip the move so the proximity ball stays satisfied
            without = prox_pow - cell_vol * abs(old - ref) ** p
            room = max(0.0, eps_pow - max(without, 0.0))
            radius = (room / cell_vol) ** inv_p * (1.0 - 1e-12)
            for sgn in (sign, -sign):
                cand = min(max(old + sgn * step, ref - radius), ref + radius)
                if cand == old:
                    continue
                gain = gain_of(v, flat, old, cand)
                evaluated += 1
                if s + gain < s:
                    accept(v, flat, cand)
                    accepted_moves += 1
                    s += gain
                    prox_pow = max(without, 0.0) + cell_vol * abs(cand - ref) ** p
                    accepted = True
                    break
            if accepted:
                fails = 0
                if s < best_obj:
                    best_obj = s
                    best_v = v.copy()
                    best_prox = (max(prox_pow, 0.0)) ** inv_p
            else:
                fails += 1
                if fails >= _PATIENCE:
                    step = max(step * _STEP_SHRINK, prob.delta * 1e-4)
                    fails = 0
            record((it_global, best_obj, best_prox))
        moves_s += time.perf_counter() - start

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
        "moves_evaluated": evaluated,
        "moves_accepted": accepted_moves,
        # the incremental running total against its full re-evaluation
        "running_drift": (abs(best_obj - kappa_hat) / abs(kappa_hat) if kappa_hat
                          else 0.0 if best_obj == kappa_hat else math.inf),
        "note": ("upper bound for the discretized infimum at this (delta, grid); "
                 "not kappa itself"),
    }
    return KappaReport(kappa_hat=kappa_hat, baseline=baseline, epsilon=eps,
                       final_proximity=final_prox, seed=prob.seed, trace=trace,
                       best_values=best_v, metadata=meta,
                       stage_s={"full_eval": obj.full_s, "moves": moves_s})


def write_trace_csv(report: KappaReport, path):
    write_csv(path, ["iteration", "objective", "proximity"], report.trace)

