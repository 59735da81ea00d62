"""Self-tests of the benchmark: python3 -m pytest bench"""

import json
import os
import subprocess
import sys

import pytest

import measure
import run
import spans
import workloads


def test_closed_form_at_unit_slope():
    for delta in (0.4, 0.2, 0.1, 0.05):
        assert workloads.affine_ratio(delta, 1.0) == pytest.approx((1.0 - delta) ** 2,
                                                                   rel=1e-15)
    assert workloads.affine_ratio(0.5, 2.0) == pytest.approx(0.5625, rel=1e-15)


@pytest.mark.parametrize("n, rank", [(1, 1), (10, 1), (11, 1), (14, 4), (20, 10),
                                     (100, 90), (1000, 990)])
def test_tail_rank(n, rank):
    assert measure.tail_rank(n) == rank


def test_tail_picks_the_ranked_sample():
    values = list(range(30, 0, -1))       # 30 samples, unsorted
    value, rank, count = measure.tail(values)
    assert (value, rank, count) == (20, 20, 30)
    assert sum(v > value for v in values) == 10


def _files(workdir):
    out = {}
    for name in sorted(os.listdir(workdir)):
        with open(os.path.join(workdir, name), "rb") as fh:
            out[name] = fh.read()
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_bytes(workload, tmp_path):
    def generate(seed, name):
        inp = workloads.make_inputs(workload, seed, str(tmp_path / name))
        # the config names its data file by path; compare with the directory masked
        files = {k: v.replace(str(tmp_path / name).encode(), b"D")
                 for k, v in _files(tmp_path / name).items()}
        return files, inp.cli_seed, inp.terms, inp.ref

    assert generate(7, "a") == generate(7, "b")
    assert generate(7, "a") != generate(8, "c")


def test_kappa_config_has_no_seed_key(tmp_path):
    inp = workloads.make_inputs("kappa-1d", 3, str(tmp_path))
    with open(inp.config_path) as fh:
        keys = [line.split("=")[0].strip() for line in fh]
    assert "seed" not in keys
    assert inp.cli_seed >= 1


def _cross_csv(tmp_path, pair, polar):
    prefix = str(tmp_path / "op")
    with open(prefix + ".csv", "w") as fh:
        fh.write("delta,pair_value,polar_value,combined_tail,rel_gap\n")
        for d, a, b in zip(workloads.CROSS_DELTAS, pair, polar):
            fh.write(f"{d!r},{a!r},{b!r},inf-flag,0\n")
    with open(prefix + ".meta.json", "w") as fh:
        fh.write('{"threads": 2}\n')
    return prefix


def test_cross_check_uses_its_own_gap_budget(tmp_path):
    inp = workloads.make_inputs("cross-2d", 1, str(tmp_path / "in"))
    ok = workloads.check(inp, _cross_csv(tmp_path, [10.0, 20.0], [10.5, 19.5]))
    assert ok.ok and ok.ref_err == pytest.approx(0.5 / 10.5)
    # an infinite certificate would make the CLI print PASS; the budget still fails it
    bad = workloads.check(inp, _cross_csv(tmp_path, [10.0, 20.0], [10.0, 30.0]))
    assert not bad.ok and bad.ref_err == pytest.approx(1.0 / 3.0)


def test_self_times_sum_to_the_root():
    trace = {"spans": [
        {"id": 0, "parent": None, "name": "trace.op", "start": 0.0, "end": 10.0},
        {"id": 1, "parent": 0, "name": "a", "start": 1.0, "end": 6.0},
        {"id": 2, "parent": 1, "name": "b", "start": 2.0, "end": 3.0},
        {"id": 3, "parent": 0, "name": "c", "start": 7.0, "end": 9.0},
    ]}
    own = spans.self_times(trace["spans"])
    assert own == [3.0, 4.0, 1.0, 2.0]
    assert sum(own) == 10.0


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   numpy",
        "import time:        50 |         50 |       scipy._lib",
        "import time:        20 |         20 |       json",
        "import time:       200 |        270 |     scipy.integrate",
        "import time:        30 |        400 |   nlsobolev.kernels",
        "import time:        10 |        410 | nlsobolev",
    ])
    total, scipy_share = run.parse_importtime(text)
    assert total == pytest.approx(410e-6)
    assert scipy_share == pytest.approx(270e-6)     # outermost scipy import only


def test_wrong_reference_makes_fail_ratio_nonzero(capsys):
    sess = run.Session("sweep-1d", 11)
    try:
        sess.library_info()
        sess.inputs.ref["g"] *= 1.05                 # deliberately wrong reference
        result = run.timed_run(sess, 0.0)
    finally:
        sess.close()
    assert result["attempted"] == 1
    assert result["failed"] == 1 and result["correct"] is False
    assert "fail_ratio" in capsys.readouterr().out


def test_traced_op_wraps_the_callers_bindings(tmp_path):
    """kappa_estimate calls its own `from .evaluator import` copy of
    pair_sum_on_samples; the span must still appear under it."""
    cfg = tmp_path / "k.conf"
    cfg.write_text("kernel.shape = indicator\nkernel.normalize = true\np = 2.0\nd = 1\n"
                   "delta = 0.2\ngrid_n = 64\nkappa.iterations = 20\nkappa.restarts = 2\n")
    out = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=os.path.join(run.ROOT, "src"))
    subprocess.run([sys.executable, os.path.join(run.HERE, "trace_op.py"), str(out), "0",
                    "--", "kappa", "--config", str(cfg), "--out", str(tmp_path / "op"),
                    "--seed", "3"], env=env, check=True, capture_output=True, timeout=120)
    trace = json.loads(out.read_text())
    names = {s["name"] for s in trace["spans"]}
    assert {"cli.main", "cli.parse_config", "cli.build_kernel", "kernels.normalize",
            "gamma_limit.kappa_estimate", "gamma_limit.write_trace_csv",
            "experiments.write_meta"} <= names
    layers = spans.op_layers(trace)
    assert layers["gamma_limit.full_evals"] == 3          # baseline, restart 1, final
    assert layers["gamma_limit.proposals"] == 40
    assert layers["evaluator.pair_terms"] == 3 * 64 * 63 // 2
    root = trace["spans"][0]
    assert 0 < layers["_layers_s"] < root["end"] - root["start"]


def _traced_op(wall, start, layers, exit_):
    """A traced op as `accounting` sees it: its Proc and its op_layers."""
    proc = measure.Proc(wall, 0.0, 0.0, 0, False, spawn_wall=100.0)
    return proc, {"_t0_wall": 100.0 + start, "_end_wall": 100.0 + wall - exit_,
                  "_layers_s": layers}


def test_accounting_fails_time_outside_every_layer():
    # 0.05 s start + 2.00 s layers + 0.01 s tracer + 0.10 s exit
    covered = [_traced_op(2.16, 0.05, 2.00, 0.10)] * 3
    assert run.accounting(covered, 0.02, 0.0)
    # 0.3 s spent outside every layer is more than the overhead and its noise
    missed = covered + [_traced_op(2.46, 0.05, 2.00, 0.10)]
    assert not run.accounting(missed, 0.02, 0.1)
    assert run.accounting(missed, -0.25, 0.1)
