"""Pattern-search estimator of kappa."""

import sys

import numpy as np
import pytest

import nlsobolev as nl
from nlsobolev import gamma_limit
from nlsobolev.errors import ParameterError, ResolutionError


def _indicator():
    return nl.normalize(nl.indicator_kernel(), 1, 2.0)


def test_zero_iterations_returns_baseline():
    prob = nl.KappaProblem(kernel=_indicator(), delta=0.1, grid_n=1024,
                           iterations=0, restarts=1, seed=0)
    rep = nl.kappa_estimate(prob)
    assert rep.kappa_hat == rep.baseline
    # 1-D profile U(x) = x: closed form (1 - delta)^2
    assert rep.kappa_hat == pytest.approx(0.81, rel=1e-2)
    assert rep.final_proximity == 0.0


def test_invariants_and_bounds():
    prob = nl.KappaProblem(kernel=_indicator(), delta=0.05, grid_n=1024,
                           iterations=800, restarts=3, seed=11)
    rep = nl.kappa_estimate(prob)
    objs = [t[1] for t in rep.trace]
    assert all(a >= b for a, b in zip(objs, objs[1:]))       # best-so-far
    assert rep.kappa_hat <= rep.baseline + 1e-12
    assert 0.0 < rep.kappa_hat <= 1.0 + 1e-9
    assert rep.final_proximity <= rep.epsilon
    assert len(rep.trace) == 1 + 3 * 800


def test_deterministic_reruns_bit_identical():
    prob = nl.KappaProblem(kernel=_indicator(), delta=0.05, grid_n=512,
                           iterations=400, restarts=2, seed=5)
    r1 = nl.kappa_estimate(prob)
    r2 = nl.kappa_estimate(prob)
    assert r1.kappa_hat == r2.kappa_hat
    assert r1.trace == r2.trace
    assert np.array_equal(r1.best_values, r2.best_values)


def test_different_seeds_explore_differently():
    base = dict(kernel=_indicator(), delta=0.05, grid_n=512,
                iterations=400, restarts=2)
    r1 = nl.kappa_estimate(nl.KappaProblem(seed=1, **base))
    r2 = nl.kappa_estimate(nl.KappaProblem(seed=2, **base))
    assert r1.trace != r2.trace


def test_optimizer_actually_improves():
    # the indicator kernel rewards local plateaus, so improvements exist
    prob = nl.KappaProblem(kernel=_indicator(), delta=0.05, grid_n=1024,
                           iterations=2000, restarts=2, seed=3)
    rep = nl.kappa_estimate(prob)
    assert rep.kappa_hat < rep.baseline


def test_resolution_and_feasibility_errors():
    with pytest.raises(ResolutionError):
        nl.kappa_estimate(nl.KappaProblem(kernel=_indicator(), delta=0.05,
                                          grid_n=64))
    with pytest.raises(ParameterError):
        nl.KappaProblem(kernel=_indicator(), delta=0.05, grid_n=1024,
                        epsilon=0.0, iterations=10)


@pytest.mark.parametrize("p, d, grid_n", [(2.0, 1, 64), (1.5, 2, 24), (3.0, 1, 64)])
def test_epsilon_refused_where_a_proximity_term_overflows(p, d, grid_n):
    # one cell's |v - u|^p reaches epsilon^p / cell volume: just under the
    # largest double the search runs (warnings are errors here), just over
    # it the budget is refused with the key named
    k = nl.normalize(nl.indicator_kernel(), d, p)
    edge = (sys.float_info.max * grid_n ** -d) ** (1.0 / p)
    common = dict(kernel=k, delta=0.2 if d == 1 else 0.4, grid_n=grid_n, p=p, d=d,
                  iterations=50, restarts=3, seed=1)
    rep = nl.kappa_estimate(nl.KappaProblem(epsilon=edge * (1 - 1e-9), **common))
    assert rep.kappa_hat <= rep.baseline + 1e-12
    with pytest.raises(ParameterError, match="kappa.epsilon"):
        nl.kappa_estimate(nl.KappaProblem(epsilon=edge * (1 + 1e-9), **common))


@pytest.mark.parametrize("bad", [dict(p=0.5), dict(p=float("nan")), dict(grid_n=8),
                                 dict(threads=0)])
def test_kappa_problem_checks_as_functional_params(bad):
    # p, delta, grid_n and threads are refused with FunctionalParams' message
    args = dict(p=2.0, delta=0.05, grid_n=1024, threads=1) | bad
    with pytest.raises(ParameterError) as want:
        nl.FunctionalParams(**args)
    with pytest.raises(ParameterError) as got:
        nl.KappaProblem(kernel=_indicator(), **args)
    assert str(got.value) == str(want.value)


def test_dilation_scaling_of_the_infimum():
    """Affine-profile scaling: objectives on (lam Q, lam-dilated profile)
    at smoothing lam*delta match lam^d times the base objective at delta,
    up to optimizer noise."""
    k = _indicator()
    lam = 2.0
    base_profile = nl.cube_profile(1)
    big_profile = nl.dilate(base_profile, lam)
    common = dict(kernel=k, grid_n=1024, iterations=600, restarts=2, seed=9)
    small = nl.kappa_estimate(nl.KappaProblem(delta=0.05, **common))
    big = nl.kappa_estimate(nl.KappaProblem(delta=0.05 * lam, profile=big_profile,
                                            **common))
    assert big.kappa_hat == pytest.approx(lam * small.kappa_hat, rel=0.05)


def test_kappa_2d_runs():
    k2 = nl.normalize(nl.indicator_kernel(), 2, 2.0)
    prob = nl.KappaProblem(kernel=k2, delta=0.25, grid_n=32, p=2.0, d=2,
                           iterations=100, restarts=1, seed=0)
    rep = nl.kappa_estimate(prob)
    assert 0.0 < rep.kappa_hat <= rep.baseline + 1e-12


def _dense_moves(prob):
    """kappa_estimate(prob) with the windowed moves disabled: every move is dense."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gamma_limit, "_window_cuts", lambda terms, wr: None)
        return nl.kappa_estimate(prob)


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("case", [
    dict(kernel=_indicator(), delta=0.05, grid_n=512, iterations=600, restarts=3),
    dict(kernel=nl.normalize(nl.band_kernel(1.0, 2.0), 1, 1.5), p=1.5, delta=0.05,
         grid_n=512, iterations=600, restarts=3),
    dict(kernel=nl.normalize(nl.indicator_kernel(), 2, 2.0), d=2, delta=0.25, grid_n=32,
         iterations=300, restarts=2),
    dict(kernel=nl.band_kernel(0.5, 3.0), d=2, delta=0.25, grid_n=32, iterations=300,
         restarts=2),
])
def test_windowed_moves_keep_the_trace_bits(case, seed):
    prob = nl.KappaProblem(seed=seed, **case)
    got, want = nl.kappa_estimate(prob), _dense_moves(prob)
    assert got.kappa_hat.hex() == want.kappa_hat.hex()
    assert [(i, a.hex(), b.hex()) for i, a, b in got.trace] == \
        [(i, a.hex(), b.hex()) for i, a, b in want.trace]
    assert got.best_values.tobytes() == want.best_values.tobytes()
    assert got.metadata == want.metadata
    assert got.metadata["moves_accepted"] > 0


def test_search_record_counts_moves_and_drift():
    prob = nl.KappaProblem(kernel=_indicator(), delta=0.05, grid_n=512, iterations=400,
                           restarts=2, seed=5)
    rep = nl.kappa_estimate(prob)
    meta = rep.summary()
    improvements = sum(b[1] < a[1] for a, b in zip(rep.trace, rep.trace[1:]))
    assert improvements <= meta["moves_accepted"] <= meta["moves_evaluated"] <= 2 * 800
    assert meta["running_drift"] == abs(rep.trace[-1][1] - rep.kappa_hat) / rep.kappa_hat
    assert meta["running_drift"] <= 1e-9
    none = nl.kappa_estimate(nl.KappaProblem(kernel=_indicator(), delta=0.1, grid_n=512,
                                             iterations=0, restarts=1))
    assert (none.metadata["moves_evaluated"], none.metadata["moves_accepted"],
            none.metadata["running_drift"]) == (0, 0, 0.0)


def test_trace_csv(tmp_path):
    prob = nl.KappaProblem(kernel=_indicator(), delta=0.1, grid_n=512,
                           iterations=50, restarts=1, seed=0)
    rep = nl.kappa_estimate(prob)
    path = tmp_path / "trace.csv"
    nl.write_trace_csv(rep, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "iteration,objective,proximity"
    assert len(lines) == len(rep.trace) + 1
    rep.trace.append((51, np.inf, np.nan))     # non-finite cells as in every CSV
    nl.write_trace_csv(rep, path)
    assert path.read_text().strip().split("\n")[-1] == "51,inf-flag,inf-flag"


# ----------------------------------------------------------------------
# recovery family and lower-bound probes
# ----------------------------------------------------------------------

# The trivial recovery family g_delta = f is a delta_sweep of f: its values
# tend to the full energy of f, which witnesses kappa <= 1. The limsup proxy
# is the largest of the last three values.

def test_recovery_upper_bound_profile():
    rep = nl.delta_sweep(nl.cube_profile(1), _indicator(), 2.0,
                         [0.4, 0.2, 0.1, 0.05], grid_n=2048)
    vals = rep.values()
    assert all(a < b for a, b in zip(vals, vals[1:]))    # increasing toward 1
    assert max(vals[-3:]) <= 1.0
    assert max(vals[-3:]) == pytest.approx(0.9025, rel=1e-2)


def test_recovery_upper_bound_steeper_affine():
    # slope-2 affine: values approach |grad|^p |Omega| = 4
    f = nl.affine_function([2.0], 0.0, nl.bounded_box([0.0], [1.0]))
    rep = nl.delta_sweep(f, _indicator(), 2.0, [0.2, 0.1, 0.05, 0.025],
                         grid_n=2048)
    assert rep.rows[-1].value == pytest.approx(4.0 * (1 - 0.025 / 2) ** 2, rel=2e-2)
    assert max(rep.values()[-3:]) < 4.0


def test_recovery_constant_is_zero():
    f = nl.affine_function([0.0], 2.0, nl.bounded_box([0.0], [1.0]))
    rep = nl.delta_sweep(f, _indicator(), 2.0, [0.2, 0.1], grid_n=512)
    assert all(v == 0.0 for v in rep.values())

