"""Batch front-end: run experiments from a flat key = value config file.

Subcommands map onto the library operations:

  validate-kernel   structural checks and calibration of the kernel
  eval              one functional evaluation (pair or polar scheme)
  sweep             delta sweep with reference energy and ratios
  pathology         band kernel against the unit step (exact zeros)
  step-divergence   grid-refinement growth table on the unit step
  kappa             pattern-search estimate of the limit constant
  cross-check       pair vs. polar agreement on one configuration

Every run writes <prefix>.csv and <prefix>.meta.json and prints a
one-line summary.  Exit codes: 0 success, 1 validation failure,
2 parameter/contract/config/I-O error (an overflowing value and an array
too large to allocate included), 3 internal error (a bug).

Config lines are `key = value` with dotted sections, e.g.::

    kernel.shape = indicator
    kernel.normalize = true
    function.kind = affine
    function.gradient = 1.0
    domain.lo = 0
    domain.hi = 1
    p = 2.0
    delta_list = 0.4, 0.2, 0.1, 0.05
    grid_n = 4096

Each key is set once; a repeated key is refused with both its lines.
A run accepts exactly the keys it reads: once its reads are done, and
before it evaluates or writes anything, each runner refuses the first key
it did not read, naming its line (``Config.refuse_unread``).  Identical
config and seed reproduce the CSV byte-for-byte (the meta file carries
wall time and may differ).
"""

from __future__ import annotations

import argparse
import math
import sys
import time
import traceback

import numpy as np

from . import __version__
from .errors import (ContractError, DomainError, KernelValidationError,
                     ParameterError, ResolutionError)
from . import experiments, functions, gamma_limit, kernels
from .evaluator import (FunctionalParams, _lambda_pair_deltas, _require_whole_space,
                        lambda_polar)

class ConfigError(ValueError):
    pass


class Config(dict):
    """A parsed config: a dict that records every key looked up with `in`,
    get or [], and the line each key came from.  The keys a run reads are
    the keys it accepts."""

    def __init__(self):
        super().__init__()
        self.lines, self.read = {}, set()      # key -> its line; keys looked up

    def __contains__(self, key):
        self.read.add(key)
        return super().__contains__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def refuse_unread(self, subcommand: str):
        """Refuse, naming it and its line, the first key no read looked up."""
        for key in self:
            if key not in self.read:
                raise ConfigError(f"line {self.lines[key]}: key {key!r} is not read "
                                  f"by {subcommand} with this config")


def parse_config(path: str) -> Config:
    cfg = Config()
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    for lineno, line in enumerate(lines, 1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if "=" not in text:
            raise ConfigError(f"line {lineno}: expected `key = value`, got {text!r}")
        key, _, value = text.partition("=")
        key = key.strip()
        if key in cfg.lines:
            raise ConfigError(f"line {lineno}: key {key!r} is already set on "
                              f"line {cfg.lines[key]}")
        cfg[key] = value.strip()
        cfg.lines[key] = lineno
    return cfg


def _get_float(cfg, key, default=None):
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    try:
        return float(cfg[key])
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: not a number: {cfg[key]!r}") from exc


def _as_int(key, v):
    if not math.isfinite(v) or v != int(v):
        raise ConfigError(f"key {key!r}: expected an integer")
    return int(v)


def _get_int(cfg, key, default=None):
    return _as_int(key, _get_float(cfg, key, default))


def _get_bool(cfg, key, default=False):
    if key not in cfg:
        return default
    v = cfg[key].lower()
    if v in ("true", "1", "yes"):
        return True
    if v in ("false", "0", "no"):
        return False
    raise ConfigError(f"key {key!r}: expected true/false")


def _get_list(cfg, key, default=None):
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    try:
        return [float(tok) for tok in cfg[key].replace(",", " ").split()]
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: not a number list") from exc


def build_kernel(cfg: dict, d: int, p: float) -> kernels.Kernel:
    shape = cfg.get("kernel.shape")
    if shape is None:
        raise ConfigError("missing required key 'kernel.shape'")
    c = _get_float(cfg, "kernel.c", 1.0)
    if shape == "indicator":
        k = kernels.indicator_kernel(c, _get_float(cfg, "kernel.threshold", 1.0))
    elif shape == "band":
        k = kernels.band_kernel(_get_float(cfg, "kernel.lo", 1.0),
                                _get_float(cfg, "kernel.hi", 2.0), c)
    elif shape == "envelope":
        k = kernels.envelope_kernel(_get_float(cfg, "kernel.a", 1.0),
                                    _get_float(cfg, "kernel.b", 1.0), p, c)
    elif shape == "power-cutoff":
        k = kernels.power_cutoff_kernel(_get_float(cfg, "kernel.exponent", p + 1.0),
                                        _get_float(cfg, "kernel.cutoff", 1.0), c)
    elif shape == "tabulated":
        k = kernels.tabulated_kernel(_get_list(cfg, "kernel.knots"),
                                     _get_list(cfg, "kernel.values"), c)
    else:
        raise ConfigError(f"unknown kernel.shape {shape!r}")
    if _get_bool(cfg, "kernel.normalize", False):
        k = kernels.normalize(k, d, p)
    return k


def _flavor(cfg: dict):
    """(domain.flavor, padding): a whole-space domain reads domain.padding,
    default 1.0, for every function kind; a bounded one has no padding."""
    flavor = cfg.get("domain.flavor", "bounded")       # Domain refuses an unknown one
    return flavor, _get_float(cfg, "domain.padding", 1.0) if flavor == "whole-space" else 0.0


def _build_domain(cfg: dict, d: int) -> functions.Domain:
    lo = _get_list(cfg, "domain.lo", [0.0] * d)
    hi = _get_list(cfg, "domain.hi", [1.0] * d)
    for key, bound in (("domain.lo", lo), ("domain.hi", hi)):
        if len(bound) != d:
            raise ConfigError(f"key {key!r} has {len(bound)} entries, but d = {d}")
    return functions.Domain(d, tuple(lo), tuple(hi), *_flavor(cfg))


def build_function(cfg: dict, d: int) -> functions.TestFunction:
    kind = cfg.get("function.kind")
    if kind is None:
        raise ConfigError("missing required key 'function.kind'")
    if kind == "grid":
        path = cfg.get("function.grid_file")
        if path is None:
            raise ConfigError("grid functions need 'function.grid_file'")
        fmt = cfg.get("function.grid_format", "csv")
        if fmt not in ("csv", "float64"):
            raise ConfigError(f"unknown function.grid_format {fmt!r}")
        try:
            if fmt == "csv":
                values = np.loadtxt(path, delimiter=",")
            else:
                values = np.fromfile(path, dtype=np.float64)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read grid file {path!r}: {exc}") from exc
        if values.ndim != d:
            raw = " (raw float64 grids are 1-D)" if fmt == "float64" else ""
            raise ConfigError(f"grid file {path!r} is {values.ndim}-D{raw}, but d = {d}")
        spacing = _get_float(cfg, "function.grid_spacing")
        origin = _get_list(cfg, "function.grid_origin", [0.0] * values.ndim)
        return functions.grid_function(values, origin, spacing, *_flavor(cfg))
    dom = _build_domain(cfg, d)
    if kind == "cube-profile":
        return functions.cube_profile(d, dom)
    if kind == "affine":
        return functions.affine_function(_get_list(cfg, "function.gradient", [1.0] * d),
                                         _get_float(cfg, "function.offset", 0.0), dom)
    if kind == "sine":
        return functions.sine_function(_get_float(cfg, "function.frequency", 1.0),
                                       _get_float(cfg, "function.amplitude", 1.0), dom)
    if kind == "step":
        return functions.step_function(_get_list(cfg, "function.jumps", [0.0, 1.0]),
                                       _get_list(cfg, "function.levels", [0.0, 1.0, 0.0]),
                                       dom)
    raise ConfigError(f"unknown function.kind {kind!r}")


def _kernel(cfg: dict):
    """(p, d, kernel) as the config sets them."""
    p = _get_float(cfg, "p", 2.0)
    d = _get_int(cfg, "d", 1)
    return p, d, build_kernel(cfg, d, p)


def _deltas(cfg: dict, default=None) -> list[float]:
    """``delta_list`` when the config sets one, else ``[delta]``; never empty."""
    if "delta_list" not in cfg:
        return [_get_float(cfg, "delta", default)]
    deltas = _get_list(cfg, "delta_list")
    if not deltas:
        raise ConfigError("key 'delta_list': empty list")
    return deltas


def _settings(cfg: dict, polar: bool) -> dict:
    """The FunctionalParams fields a config sets: grid_n, and polar.* if ``polar``."""
    out = {"grid_n": _get_int(cfg, "grid_n", 1024)}
    for key, get in (("polar.h_min", _get_float), ("polar.h_max", _get_float),
                     ("polar.h_steps", _get_int), ("polar.angle_steps", _get_int)):
        if polar and key in cfg:
            out[key.replace(".", "_")] = get(cfg, key)
    return out


# ----------------------------------------------------------------------
# subcommand runners: each reads its keys, refuses the config's unread
# ones, then writes its CSV and returns (meta keys, summary line, exit
# status); main records the run
# ----------------------------------------------------------------------

def _run_validate_kernel(cfg, args):
    p, d, k = _kernel(cfg)
    cfg.refuse_unread(args.subcommand)
    report = kernels.validate(k, p, d)
    rows = [
        ["growth", str(report.cond_growth_ok).lower(), report.growth_ratio],
        ["bounded", str(report.cond_bounded_ok).lower(), report.sup_value],
        ["monotone", str(report.cond_monotone_ok).lower(), math.nan],
        ["normalized", str(report.cond_normalized_ok).lower(), report.normalization_value],
    ]
    experiments.write_csv(args.out + ".csv", ["check", "ok", "detail"], rows)
    meta = {"kernel": k.describe()}
    if report.all_ok:
        return meta, (f"validate-kernel PASS normalization_value="
                      f"{report.normalization_value:.12g}"), 0
    return meta, f"validate-kernel FAIL ({', '.join(report.failures())})", 1


def _run_eval(cfg, args):
    p, d, k = _kernel(cfg)
    f = build_function(cfg, d)
    scheme = cfg.get("scheme", "pair")
    params = FunctionalParams(p=p, delta=_get_float(cfg, "delta"),
                              **_settings(cfg, scheme == "polar"))
    cfg.refuse_unread(args.subcommand)
    experiments._require_resolution(f, params.grid_n, params.delta)
    [row] = experiments._sweep_rows(f, k, [params], scheme, functions.sobolev_energy(f, p))
    experiments.write_sweep_csv(experiments.SweepReport([row]), args.out + ".csv")
    return ({"kernel": k.describe(), "function": f.describe(), "scheme": scheme},
            f"eval value={row.value:.17g} tail_bound={row.tail_bound:.3g}", 0)


def _run_sweep(cfg, args):
    p, d, k = _kernel(cfg)
    f = build_function(cfg, d)
    scheme = cfg.get("scheme", "pair")
    deltas, settings = _get_list(cfg, "delta_list"), _settings(cfg, scheme == "polar")
    cfg.refuse_unread(args.subcommand)
    report = experiments.delta_sweep(f, k, p, deltas, scheme=scheme, **settings)
    experiments.write_sweep_csv(report, args.out + ".csv")
    bound = report.empirical_bound_ratio
    last = report.rows[-1]
    return (report.metadata,
            f"sweep rows={len(report.rows)} last_delta={last.delta:g} "
            f"last_value={last.value:.12g} "
            f"bound_ratio={bound if bound is None else format(bound, '.6g')}", 0)


def _run_pathology(cfg, args):
    deltas, grid_n = _deltas(cfg, 0.25), _get_int(cfg, "grid_n", 1024)
    cfg.refuse_unread(args.subcommand)
    report = experiments.band_pathology(deltas, grid_n=grid_n)
    experiments.write_sweep_csv(report, args.out + ".csv")
    smallest = report.rows[-1]
    return (report.metadata,
            f"pathology delta={smallest.delta:g} value={smallest.value:.17g}", 0)


def _run_step_divergence(cfg, args):
    p = _get_float(cfg, "p", 2.0)
    delta = _get_float(cfg, "delta", 0.1)
    ns = [_as_int("n_list", n) for n in _get_list(cfg, "n_list", [1024, 2048, 4096, 8192])]
    cfg.refuse_unread(args.subcommand)
    report = experiments.step_divergence(p, delta, ns)
    experiments.write_growth_csv(report, args.out + ".csv")
    return (report.metadata,
            f"step-divergence final_ratio={report.final_ratio:.6g} "
            f"diverging={str(report.divergence_flag).lower()}", 0)


def _run_kappa(cfg, args):
    p, d, k = _kernel(cfg)
    prob = gamma_limit.KappaProblem(
        kernel=k, delta=_get_float(cfg, "delta", 0.05),
        grid_n=_get_int(cfg, "grid_n", 2048), p=p, d=d,
        epsilon=(_get_float(cfg, "kappa.epsilon") if "kappa.epsilon" in cfg else None),
        iterations=_get_int(cfg, "kappa.iterations", 2000),
        restarts=_get_int(cfg, "kappa.restarts", 5),
        seed=args.seed)
    cfg.refuse_unread(args.subcommand)
    report = gamma_limit.kappa_estimate(prob)
    start = time.perf_counter()
    gamma_limit.write_trace_csv(report, args.out + ".csv")
    stages = {**report.stage_s, "trace_write": time.perf_counter() - start}
    return ({**report.summary(), "stage_s": stages},
            f"kappa kappa_hat={report.kappa_hat:.12g} baseline={report.baseline:.12g} "
            f"proximity={report.final_proximity:.6g}", 0)


def _run_cross_check(cfg, args):
    p, d, k = _kernel(cfg)
    f = build_function(cfg, d)
    deltas = _deltas(cfg)
    budget = _get_float(cfg, "cross.budget", 0.02)
    if not 0.0 <= budget < math.inf:
        raise ConfigError("key 'cross.budget' must be finite and nonnegative")
    settings = _settings(cfg, True)
    cfg.refuse_unread(args.subcommand)
    _require_whole_space(f.domain)       # refused before any pair traversal
    params = [FunctionalParams(p=p, delta=delta, **settings) for delta in deltas]
    rows = []
    tail_over_value = []     # how much of the values the certificates cover
    worst = 0.0
    ok = True
    for q, pr in zip(params, _lambda_pair_deltas(f, k, params)):
        po = lambda_polar(f, k, q)
        ref = max(pr.value, po.value, np.finfo(float).eps)
        gap = abs(pr.value - po.value)
        tail = pr.tail_bound + po.tail_bound
        rows.append([q.delta, pr.value, po.value, tail, gap / ref])
        tail_over_value.append(tail / ref)
        worst = max(worst, gap / ref)
        # an infinite certificate would allow any gap, so it cannot pass
        ok = ok and math.isfinite(tail) and gap <= tail + budget * ref
    experiments.write_csv(args.out + ".csv",
                          ["delta", "pair_value", "polar_value", "combined_tail",
                           "rel_gap"], rows)
    return ({"kernel": k.describe(), "function": f.describe(), "budget": budget,
             "tail_over_value": tail_over_value},
            f"cross-check {'PASS' if ok else 'FAIL'} worst_rel_gap={worst:.6g}",
            0 if ok else 1)


_RUNNERS = {
    "validate-kernel": _run_validate_kernel,
    "eval": _run_eval,
    "sweep": _run_sweep,
    "pathology": _run_pathology,
    "step-divergence": _run_step_divergence,
    "kappa": _run_kappa,
    "cross-check": _run_cross_check,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nlsobolev",
        description="Non-local p-energy functionals: evaluation, sweeps, "
                    "pathologies, and limit-constant estimation.")
    parser.add_argument("subcommand", choices=_RUNNERS)
    parser.add_argument("--config", required=True, help="flat key = value config file")
    parser.add_argument("--out", default="run", help="output path prefix")
    parser.add_argument("--seed", type=int, default=None,
                        help="overrides the config's seed (default: config seed, else 0)")
    parser.add_argument("--version", action="version", version=__version__)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    try:
        cfg = parse_config(args.config)
        seed = _get_int(cfg, "seed", 0)      # read, and checked, under --seed too
        args.seed = seed if args.seed is None else args.seed
        meta, line, status = _RUNNERS[args.subcommand](cfg, args)
        # every run is serial, OpenBLAS included (threads: 1); runner keys
        # update these in place ("seed" for kappa), so the key order is fixed
        experiments.write_meta({"config": cfg, "subcommand": args.subcommand,
                                "threads": 1, "seed": args.seed, **meta,
                                "wall_time_s": time.perf_counter() - start},
                               args.out + ".meta.json")
    except (ConfigError, ParameterError, ResolutionError, ContractError,
            DomainError, KernelValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:         # Python's float ** raises where numpy gives inf
        print(f"error: value out of range: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:           # an array the config asks for is too large
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {exc!r}\n{traceback.format_exc()}", end="",
              file=sys.stderr)
        return 3
    print(line)
    return status


if __name__ == "__main__":
    sys.exit(main())
