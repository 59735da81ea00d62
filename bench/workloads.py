"""The three benchmark workloads: seeded inputs, term counts and reference checks.

Each workload drives one `nlsobolev` subcommand on inputs generated here
from the benchmark seed; the program sees only the config and data files.
The reference checks use closed forms and the benchmark's own budgets,
never the program's own verdict, and are written in plain Python so they
share no code with the library being measured.

Why these three: each puts most of its time on a different module, so an
optimisation of one layer moves one workload and leaves another as the
predicted no-change control.

  sweep-1d  closed-form delta sweep; 1-D pair reduction and indicator kernel.
  cross-2d  pair vs polar on a 2-D field; 2-D lag loop, polar scheme and
            bilinear interpolation at shifted points.
  kappa-1d  kappa pattern search; many O(n) moves, a 10k-row trace CSV,
            and import/set-up as the largest share of the process.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
from dataclasses import dataclass, field

WORKLOADS = ("sweep-1d", "cross-2d", "kappa-1d")

# Sizes are fixed per workload so term counts (and hence terms_per_s) depend
# on the config alone.  They are sized for about 2-3 s per CLI process on a
# 2-core machine, where the pair, polar or search layer still outweighs the
# ~1 s of interpreter start and import.  With a set-up probe before every
# second op a 44 s run then holds 11-16 ops: enough for a median, but the tail
# rule (ten samples beyond) picks rank 1 to 6 of them, so at this size
# `wall_s.tail` is a low order statistic below the median, not a slow tail.
SWEEP_GRID_N = 8192
CROSS_GRID_N = 56
CROSS_LATTICE = 65                 # field nodes per axis on the unit square
CROSS_DELTAS = (0.5, 0.25)
CROSS_H_STEPS = 100
CROSS_ANGLES = 24
KAPPA_GRID_N = 2048
KAPPA_DELTA = 0.05
KAPPA_ITERATIONS = 2000
KAPPA_RESTARTS = 5

# The benchmark's own pass rule for cross-2d.  The pair scheme's midpoint
# error at grid_n = 56 reaches about 9 % on this field family (largest gap
# over 30 seeds); the budget leaves headroom above that and still fails any
# gross disagreement between the schemes.
CROSS_GAP_BUDGET = 0.15
# Drift allowed between the running kappa objective and its full re-evaluation.
KAPPA_DRIFT_BUDGET = 1e-9
# Midpoint-rule error of the 1-D pair sum is below 0.7 h/s for threshold
# distance s = delta/g (measured over s in [0.012, 0.45]); allow 2 h/s.
PAIR_ERR_FACTOR = 2.0


@dataclass
class Inputs:
    """Generated files plus the values the reference check needs."""
    workload: str
    seed: int
    subcommand: str
    config_path: str
    cli_seed: int | None = None    # --seed passed to the CLI (kappa only)
    terms: int = 0                 # quadrature terms per op, from the config
    ref: dict = field(default_factory=dict)


@dataclass
class Outcome:
    ok: bool
    ref_err: float
    reason: str = ""
    threads: int | None = None
    extra: dict = field(default_factory=dict)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _write_config(path: str, entries: list[tuple[str, object]]):
    with open(path, "w") as fh:
        for key, value in entries:
            fh.write(f"{key} = {value}\n")


def pair_terms_1d(n: int) -> int:
    return n * (n - 1) // 2


def pair_terms_2d(n: int) -> int:
    cells = n * n
    return cells * (cells - 1) // 2


def affine_ratio(delta: float, g: float) -> float:
    """Closed form of Lambda_delta / int |u'|^2 for u = g x on [0, 1], p = 2.

    With the normalized indicator kernel the pairs counted are those with
    |x - y| > s = delta / g, and the double integral gives (1 - s)^2.
    """
    return (1.0 - delta / g) ** 2


def make_inputs(workload: str, seed: int, workdir: str) -> Inputs:
    """Write the workload's config (and data) under workdir; same seed, same bytes."""
    os.makedirs(workdir, exist_ok=True)
    cfg = os.path.join(workdir, f"{workload}.conf")
    rng = _rng(workload, seed)
    if workload == "sweep-1d":
        g = rng.uniform(0.8, 2.0)
        s = [rng.uniform(0.3, 0.45)]
        for _ in range(3):
            s.append(s[-1] * rng.uniform(0.4, 0.6))
        deltas = [g * si for si in s]
        _write_config(cfg, [
            ("kernel.shape", "indicator"), ("kernel.normalize", "true"),
            ("function.kind", "affine"), ("function.gradient", repr(g)),
            ("function.offset", "0.0"), ("domain.lo", "0"), ("domain.hi", "1"),
            ("p", "2.0"), ("d", "1"),
            ("delta_list", ", ".join(repr(d) for d in deltas)),
            ("grid_n", SWEEP_GRID_N), ("scheme", "pair")])
        return Inputs(workload, seed, "sweep", cfg,
                      terms=len(deltas) * pair_terms_1d(SWEEP_GRID_N),
                      ref={"g": g, "deltas": deltas, "grid_n": SWEEP_GRID_N})
    if workload == "cross-2d":
        grid = os.path.join(workdir, "field.csv")
        write_bump_field(grid, rng)
        _write_config(cfg, [
            ("kernel.shape", "indicator"), ("kernel.normalize", "true"),
            ("function.kind", "grid"), ("function.grid_file", grid),
            ("function.grid_format", "csv"),
            ("function.grid_spacing", repr(1.0 / (CROSS_LATTICE - 1))),
            ("domain.flavor", "whole-space"), ("domain.padding", "0.5"),
            ("p", "2.0"), ("d", "2"),
            ("delta_list", ", ".join(repr(d) for d in CROSS_DELTAS)),
            ("grid_n", CROSS_GRID_N),
            ("polar.h_steps", CROSS_H_STEPS), ("polar.angle_steps", CROSS_ANGLES),
            # the CLI's own verdict is not trusted; keep it from failing the op
            ("cross.budget", "1.0")])
        per_delta = (pair_terms_2d(CROSS_GRID_N)
                     + CROSS_GRID_N ** 2 * CROSS_H_STEPS * CROSS_ANGLES)
        return Inputs(workload, seed, "cross-check", cfg,
                      terms=len(CROSS_DELTAS) * per_delta,
                      ref={"deltas": list(CROSS_DELTAS), "budget": CROSS_GAP_BUDGET})
    if workload == "kappa-1d":
        # no `seed` key: the CLI ignores --seed 0 when the config has one
        _write_config(cfg, [
            ("kernel.shape", "indicator"), ("kernel.normalize", "true"),
            ("p", "2.0"), ("d", "1"), ("delta", repr(KAPPA_DELTA)),
            ("grid_n", KAPPA_GRID_N), ("kappa.iterations", KAPPA_ITERATIONS),
            ("kappa.restarts", KAPPA_RESTARTS)])
        proposals = KAPPA_ITERATIONS * KAPPA_RESTARTS
        full_evals = KAPPA_RESTARTS + 1       # baseline, one per later restart, final
        return Inputs(workload, seed, "kappa", cfg, cli_seed=rng.randrange(1, 2 ** 31),
                      terms=proposals * KAPPA_GRID_N
                      + full_evals * pair_terms_1d(KAPPA_GRID_N),
                      ref={"proposals": proposals, "delta": KAPPA_DELTA,
                           "grid_n": KAPPA_GRID_N})
    raise ValueError(f"unknown workload {workload!r}")


def write_bump_field(path: str, rng: random.Random):
    """Four compactly supported bumps of alternating sign on the unit square.

    Each bump is a (1 - r^2/R^2)^2 cap inside the square, so the lattice
    edges carry zeros and the whole-space extension is exact.
    """
    m = CROSS_LATTICE
    xs = [i / (m - 1) for i in range(m)]
    bumps = []
    for i in range(4):
        r = rng.uniform(0.22, 0.35)
        cx, cy = rng.uniform(r, 1.0 - r), rng.uniform(r, 1.0 - r)
        bumps.append((cx, cy, r, rng.uniform(0.4, 0.8) * (-1) ** i))
    with open(path, "w") as fh:
        for x in xs:
            row = []
            for y in xs:
                v = 0.0
                for cx, cy, r, a in bumps:
                    q = 1.0 - ((x - cx) ** 2 + (y - cy) ** 2) / (r * r)
                    if q > 0.0:
                        v += a * q * q
                row.append(repr(v))
            fh.write(",".join(row) + "\n")


def op_argv(inp: Inputs, out_prefix: str) -> list[str]:
    """CLI arguments of one op, at the CLI's default --threads."""
    argv = [inp.subcommand, "--config", inp.config_path, "--out", out_prefix]
    if inp.cli_seed is not None:
        argv += ["--seed", str(inp.cli_seed)]
    return argv


# ----------------------------------------------------------------------
# reference checks
# ----------------------------------------------------------------------

def _read_csv(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _num(text: str) -> float:
    return math.inf if text == "inf-flag" else float(text)


def check(inp: Inputs, out_prefix: str) -> Outcome:
    """Check one op's CSV and meta.json against the workload's reference."""
    try:
        with open(out_prefix + ".meta.json") as fh:
            meta = json.load(fh)
        rows = _read_csv(out_prefix + ".csv")
    except (OSError, ValueError) as exc:
        return Outcome(False, math.inf, f"unreadable output: {exc}")
    threads = meta.get("threads")
    try:
        if inp.workload == "sweep-1d":
            out = _check_sweep(inp, rows)
        elif inp.workload == "cross-2d":
            out = _check_cross(inp, rows)
        else:
            out = _check_kappa(inp, rows, meta)
    except (KeyError, ValueError) as exc:
        out = Outcome(False, math.inf, f"malformed output: {exc}")
    out.threads = threads
    return out


def _check_sweep(inp: Inputs, rows: list[dict]) -> Outcome:
    g, deltas, n = inp.ref["g"], inp.ref["deltas"], inp.ref["grid_n"]
    if [float(r["delta"]) for r in rows] != deltas:
        return Outcome(False, math.inf, "sweep rows do not match the configured deltas")
    worst, reason = 0.0, ""
    for r, delta in zip(rows, deltas):
        want = affine_ratio(delta, g)
        # both the reported ratio and value / g^2 (energy computed here)
        err = max(abs(_num(r["ratio"]) - want), abs(_num(r["value"]) / g ** 2 - want)) / want
        limit = PAIR_ERR_FACTOR * (1.0 / n) / (delta / g)
        if not err <= limit:
            reason = f"delta={delta:.6g}: rel err {err:.3g} > {limit:.3g}"
        worst = max(worst, err) if math.isfinite(err) else math.inf
    return Outcome(not reason, worst, reason)


def _check_cross(inp: Inputs, rows: list[dict]) -> Outcome:
    deltas, budget = inp.ref["deltas"], inp.ref["budget"]
    if [float(r["delta"]) for r in rows] != deltas:
        return Outcome(False, math.inf, "cross-check rows do not match the configured deltas")
    worst = 0.0
    for r in rows:
        a, b = _num(r["pair_value"]), _num(r["polar_value"])
        if not (math.isfinite(a) and math.isfinite(b) and a > 0 and b > 0):
            return Outcome(False, math.inf, f"non-positive or non-finite value at "
                                            f"delta={r['delta']}")
        worst = max(worst, abs(a - b) / max(a, b))
    if worst > budget:
        return Outcome(False, worst, f"pair/polar gap {worst:.3g} > budget {budget}")
    return Outcome(True, worst)


def _check_kappa(inp: Inputs, rows: list[dict], meta: dict) -> Outcome:
    proposals, delta, n = inp.ref["proposals"], inp.ref["delta"], inp.ref["grid_n"]
    objective = [float(r["objective"]) for r in rows]
    if len(objective) != proposals + 1:
        return Outcome(False, math.inf, f"trace has {len(objective)} rows, "
                                        f"want {proposals + 1}")
    if any(b > a for a, b in zip(objective, objective[1:])):
        return Outcome(False, math.inf, "best objective increased along the trace")
    improvements = sum(b < a for a, b in zip(objective, objective[1:]))
    kappa_hat, baseline = float(meta["kappa_hat"]), float(meta["baseline"])
    drift = abs(objective[-1] - kappa_hat) / abs(kappa_hat)
    extra = {"improve_ratio": improvements / proposals}
    # independent reference: the profile u = x has the closed-form value (1 - delta)^2
    want = affine_ratio(delta, 1.0)
    base_err = abs(baseline - want) / want
    base_limit = PAIR_ERR_FACTOR * (1.0 / n) / delta
    # discrete L^2 norm of the midpoints of u = x on [0, 1]
    eps = 0.1 * math.sqrt(1.0 / 3.0 - 1.0 / (12.0 * n * n))
    if not drift <= KAPPA_DRIFT_BUDGET:
        return Outcome(False, drift, f"drift {drift:.3g} > {KAPPA_DRIFT_BUDGET}", extra=extra)
    if not base_err <= base_limit:
        return Outcome(False, drift, f"baseline off the closed form by {base_err:.3g}",
                       extra=extra)
    if not kappa_hat <= baseline * (1.0 + 1e-12):
        return Outcome(False, drift, "kappa_hat above the baseline", extra=extra)
    if not abs(float(meta["epsilon"]) - eps) <= 1e-12 * eps:
        return Outcome(False, drift, "proximity budget differs from 0.1 ||u||_2",
                       extra=extra)
    if not float(meta["final_proximity"]) <= eps * (1.0 + 1e-9):
        return Outcome(False, drift, "best point outside the proximity ball", extra=extra)
    return Outcome(True, drift, extra=extra)
