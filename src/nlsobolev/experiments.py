"""Desk-scale convergence experiments for the non-local functional.

Three studies:

  delta_sweep      value vs. the smoothing scale, against the reference
                   energy int |grad u|^p; for admissible kernels the
                   ratio tends to 1 as delta shrinks, and stays below a
                   uniform constant for Lipschitz u.
  band_pathology   the band kernel against a unit step: every attained
                   difference quotient misses the band, so the value is
                   exactly zero for delta < 1/2 although the step is not
                   a Sobolev function.  Monotone kernels cannot do this.
  step_divergence  grid refinement at fixed delta on a unit step: the
                   near-jump pair sum scales like h^(1-p), so values
                   blow up with rate 2^(p-1) per doubling when p > 1 and
                   stay bounded when p = 1.

The resolution rule h <= delta_min / 8 keeps the kernel's transition
scale visible to the grid; sweeps refuse coarser grids.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from .errors import ParameterError, ResolutionError
from .evaluator import (FunctionalParams, _lambda_pair_deltas, _require_grid_n,
                        lambda_pair, lambda_polar)
from .functions import TestFunction, sobolev_energy, unit_step
from .kernels import Kernel, _require_delta, band_kernel, indicator_kernel, normalize

__all__ = [
    "SweepRow",
    "SweepReport",
    "GrowthRow",
    "GrowthReport",
    "delta_sweep",
    "band_pathology",
    "step_divergence",
    "write_sweep_csv",
    "write_growth_csv",
    "write_csv",
    "write_meta",
    "format_cell",
]

CSV_DIGITS = "%.17g"
INF_TOKEN = "inf-flag"


@dataclass(frozen=True)
class SweepRow:
    delta: float
    value: float
    tail_bound: float
    energy: float
    ratio: float | None       # value / energy, only when energy is finite and positive


@dataclass
class SweepReport:
    rows: list[SweepRow]
    metadata: dict = field(default_factory=dict)

    @property
    def empirical_bound_ratio(self) -> float | None:
        ratios = [r.ratio for r in self.rows if r.ratio is not None]
        return max(ratios) if ratios else None

    def values(self) -> list[float]:
        return [r.value for r in self.rows]


@dataclass(frozen=True)
class GrowthRow:
    n: int
    value: float
    ratio: float | None       # value relative to the previous (coarser) grid


@dataclass
class GrowthReport:
    rows: list[GrowthRow]
    metadata: dict = field(default_factory=dict)

    @property
    def final_ratio(self) -> float | None:
        return self.rows[-1].ratio if len(self.rows) > 1 else None

    @property
    def divergence_flag(self) -> bool:
        """Doubling growth beyond the midpoint discriminator 2^((p-1)/2)."""
        p = self.metadata.get("p", 2.0)
        fr = self.final_ratio
        return fr is not None and fr > 2.0 ** ((p - 1.0) / 2.0)


def _check_deltas(delta_list) -> list[float]:
    ds = [float(d) for d in delta_list]
    if not ds:
        raise ParameterError("empty delta list")
    for d in ds:
        _require_delta(d)
    if any(d1 <= d2 for d1, d2 in zip(ds, ds[1:])):
        raise ParameterError("delta list must be strictly decreasing")
    return ds


def _max_spacing(f: TestFunction, grid_n: int) -> float:
    dom = f.domain
    return max((b - a) / grid_n for a, b in zip(dom.window_lo, dom.window_hi))


def _require_resolution(f: TestFunction, grid_n: int, delta_min: float):
    _require_grid_n(grid_n)
    h = _max_spacing(f, grid_n)
    if h > delta_min / 8.0:
        width = max(b - a for a, b in zip(f.domain.window_lo, f.domain.window_hi))
        needed = 8.0 * width / delta_min
        raise ResolutionError(
            f"grid too coarse: h={h:.3g} > delta_min/8={delta_min / 8:.3g}"
            + (f"; need grid_n >= {math.ceil(needed)}" if math.isfinite(needed) else ""))


def _sweep_rows(f: TestFunction, k: Kernel, params: list[FunctionalParams], scheme: str,
                energy: float) -> list[SweepRow]:
    """One row per ``params``: Lambda_delta by ``scheme``, and its ratio to ``energy``.

    ``params`` differ only in delta.  The pair scheme serves every delta
    from one traversal; the polar scheme runs once per delta.  The ratio
    is None unless the energy is finite and positive.
    """
    if scheme == "pair":
        results = _lambda_pair_deltas(f, k, params)
    elif scheme == "polar":
        results = [lambda_polar(f, k, q) for q in params]
    else:
        raise ParameterError(f"unknown scheme {scheme!r}")
    has_ratio = math.isfinite(energy) and energy > 0
    return [SweepRow(q.delta, res.value, res.tail_bound, energy,
                     res.value / energy if has_ratio else None)
            for q, res in zip(params, results)]


def delta_sweep(f: TestFunction, k: Kernel, p: float, delta_list, grid_n: int = 1024,
                scheme: str = "pair", **settings) -> SweepReport:
    """One row per delta: value, certificate, reference energy, ratio.

    ``settings`` are further ``FunctionalParams`` fields, the same for
    every delta: the polar quadrature (``polar_h_min``, ``polar_h_max``,
    ``polar_h_steps``, ``polar_angle_steps``).  ``scheme = "polar"``
    needs a whole-space domain, as ``lambda_polar`` does.  Ratios are
    recorded descriptively whatever their size; acceptance thresholds
    live in the test suite, not here.
    """
    ds = _check_deltas(delta_list)
    _require_resolution(f, grid_n, min(ds))
    energy = sobolev_energy(f, p)
    rows = _sweep_rows(f, k, [FunctionalParams(p=p, delta=d, grid_n=grid_n, **settings)
                              for d in ds], scheme, energy)
    meta = {
        "experiment": "delta_sweep",
        "kernel": k.describe(),
        "function": f.describe(),
        "p": p,
        "grid_n": grid_n,
        "scheme": scheme,
        "certified": p > 1,
    }
    if p == 1:
        meta["note"] = "p = 1 exploration mode: values are not calibrated"
    return SweepReport(rows, meta)


def band_pathology(delta_list=(0.75, 0.49, 0.25, 0.1),
                   grid_n: int = 1024) -> SweepReport:
    """Unit step against the normalized band kernel on (-1, 2).

    The attained difference quotients are exactly 0 and 1/delta; for
    delta < 1/2 the band (1, 2) contains neither, so every summand is
    individually zero and the reported value is exact binary zero.  For
    delta in (1/2, 1) the value is strictly positive.  The deltas are
    deduplicated and taken largest first.
    """
    ds = sorted({float(d) for d in delta_list}, reverse=True)
    report = delta_sweep(unit_step(-1.0, 2.0), normalize(band_kernel(1.0, 2.0), d=1, p=2.0),
                         2.0, ds, grid_n=grid_n)
    del report.metadata["certified"]
    report.metadata.update(experiment="band_pathology",
                           note="step function: energy infinite, ratio undefined")
    return report


def step_divergence(p: float, delta: float, n_list) -> GrowthReport:
    """Grid-refinement growth table for the unit step at fixed delta.

    Uses the indicator kernel, normalized when p > 1; at p = 1 the raw
    scale c = 1 is kept (successive ratios are scale-free anyway).
    """
    if not (0 < delta < 1):
        raise ParameterError("delta must lie in (0, 1)")
    ns = [int(n) for n in n_list]
    if any(n1 >= n2 for n1, n2 in zip(ns, ns[1:])) or not ns:
        raise ParameterError("n list must be strictly increasing and non-empty")
    f = unit_step(-1.0, 2.0)
    _require_resolution(f, min(ns), delta)
    k = normalize(indicator_kernel(), d=1, p=p) if p > 1 else indicator_kernel()
    rows = []
    prev = None
    for n in ns:
        value = lambda_pair(f, k, FunctionalParams(p=p, delta=delta, grid_n=n)).value
        rows.append(GrowthRow(n, value, None if prev is None else value / prev))
        prev = value
    meta = {
        "experiment": "step_divergence",
        "kernel": k.describe(),
        "function": f.describe(),
        "p": p,
        "delta": delta,
        "certified": p > 1,
    }
    if p == 1:
        meta["note"] = "p = 1 exploration mode: values are not calibrated"
    return GrowthReport(rows, meta)


# ----------------------------------------------------------------------
# artifacts
# ----------------------------------------------------------------------

def format_cell(x) -> str:
    """One numeric CSV cell: 17 significant digits, non-finite or None as INF_TOKEN."""
    if x is None or not math.isfinite(x):
        return INF_TOKEN
    return CSV_DIGITS % x


def write_csv(path, header, rows):
    """The one CSV writer: strings go out as they are, numbers through format_cell."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([c if isinstance(c, str) else format_cell(c) for c in row]
                    for row in rows)


def write_sweep_csv(report: SweepReport, path):
    write_csv(path, [f.name for f in fields(SweepRow)], map(astuple, report.rows))


def write_growth_csv(report: GrowthReport, path):
    write_csv(path, [f.name for f in fields(GrowthRow)], map(astuple, report.rows))


def write_meta(metadata: dict, path):
    """Write the run record as JSON: its keys, then the library versions,
    then ``wall_time_s`` when the record has one.
    """
    from . import __version__
    meta = dict(metadata)
    wall = meta.pop("wall_time_s", None)
    meta["versions"] = {
        "nlsobolev": __version__,
        "numpy": np.__version__,
    }
    if wall is not None:
        meta["wall_time_s"] = wall
    with open(path, "w") as fh:
        json.dump(_strict_json(meta), fh, indent=2, allow_nan=False)
        fh.write("\n")


def _strict_json(obj):
    """obj with numpy scalars and arrays as Python values, and every
    non-finite float as the string "inf", "-inf" or "nan": strict JSON.

    json never hands a float (np.float64 included) to a ``default`` hook,
    so the non-finite ones are replaced before the dump.
    """
    if isinstance(obj, dict):
        return {key: _strict_json(v) for key, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict_json(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _strict_json(obj.tolist())
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return str(obj)
    return obj
