"""The bench's seams into the library, run in process.

`bench/probe.py layers` calls `pair_sum_on_samples` with a positional
thread count, builds `FunctionalParams(threads=...)`, swaps in its own
`evaluator._polar_eval_shifted(f, pts, rect)` to record the shifted points,
and reads configs through `cli.parse_config`, `build_kernel` and
`build_function`.  These checks fail when one of those seams moves.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from nlsobolev import evaluator

PROBE = Path(__file__).resolve().parent.parent / "bench" / "probe.py"


@pytest.fixture(scope="module")
def probe():
    spec = importlib.util.spec_from_file_location("bench_probe", PROBE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _layers(probe, tmp_path, text, monkeypatch):
    """probe.layers on a config, and the shapes of the points it handed to u."""
    conf = tmp_path / "run.conf"
    conf.write_text(text)
    shapes, shifted = [], evaluator._polar_eval_shifted

    def seen(f, pts, rect):
        shapes.append(pts.shape)
        return shifted(f, pts, rect)

    monkeypatch.setattr(evaluator, "_polar_eval_shifted", seen)
    return probe.layers(str(conf), 1), shapes


def test_probe_layers_on_a_2d_whole_space_grid(probe, tmp_path, monkeypatch):
    x = np.linspace(-1.0, 1.0, 9)
    np.savetxt(tmp_path / "bump.csv", np.maximum(0.0, 1.0 - x[:, None] ** 2 - x[None, :] ** 2),
               delimiter=",")
    text = ("kernel.shape = indicator\nkernel.normalize = true\np = 2\nd = 2\n"
            f"function.kind = grid\nfunction.grid_file = {tmp_path / 'bump.csv'}\n"
            "function.grid_spacing = 0.25\nfunction.grid_origin = -1, -1\n"
            "domain.flavor = whole-space\ndomain.padding = 0.5\ngrid_n = 16\n"
            "delta_list = 0.5, 0.25\npolar.h_steps = 16\npolar.angle_steps = 4\n")
    out, shapes = _layers(probe, tmp_path, text, monkeypatch)
    assert out.pop("threads") == 1
    assert sorted(out) == ["evaluator.thread_speedup.pair2d", "evaluator.thread_speedup.polar",
                           "functions.eval_ns_per_pt", "kernels.eval_ns_per_arg"]
    assert all(math.isfinite(v) and v > 0 for v in out.values())
    assert shapes and all(len(s) == 3 and s[0] == 16 and 1 <= s[1] <= evaluator._H_GROUP
                          and s[2] == 2 for s in shapes)


def test_probe_layers_on_a_1d_bounded_affine(probe, tmp_path, monkeypatch):
    text = ("kernel.shape = indicator\nkernel.normalize = true\np = 2\nd = 1\n"
            "function.kind = affine\nfunction.gradient = 1\ndomain.lo = 0\ndomain.hi = 1\n"
            "delta_list = 0.4, 0.2\ngrid_n = 64\n")
    out, shapes = _layers(probe, tmp_path, text, monkeypatch)
    assert out.pop("threads") == 1
    assert sorted(out) == ["evaluator.thread_speedup.pair1d", "kernels.eval_ns_per_arg"]
    assert all(math.isfinite(v) and v > 0 for v in out.values())
    assert shapes == []             # the polar scheme does not run on a bounded domain
