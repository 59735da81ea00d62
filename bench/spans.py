"""Self times and per-layer metrics from the spans of one traced op."""

from __future__ import annotations

from collections import defaultdict

WRITERS = ("experiments.write_sweep_csv", "experiments.write_growth_csv",
           "experiments.write_meta", "gamma_limit.write_trace_csv")
EXPERIMENTS = ("experiments.delta_sweep", "experiments.band_pathology",
               "experiments.step_divergence")


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


def op_layers(trace: dict) -> dict:
    """Per-layer metrics of one traced op (layers the op never called read 0)."""
    spans = trace["spans"]
    own = self_times(spans)
    total = defaultdict(float)
    selft = defaultdict(float)
    for s, o in zip(spans, own):
        total[s["name"]] += s["end"] - s["start"]
        selft[s["name"]] += o
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)

    pair = {1: [0.0, 0], 2: [0.0, 0]}
    full_eval_s, full_evals = 0.0, 0
    for s in by_name["evaluator.pair_sum_on_samples"]:
        dur = s["end"] - s["start"]
        pair[s["attrs"]["ndim"]][0] += dur
        pair[s["attrs"]["ndim"]][1] += s["attrs"]["pairs"]
        parent = spans[s["parent"]]["name"] if s["parent"] is not None else ""
        if parent == "gamma_limit.kappa_estimate":
            full_eval_s += dur
            full_evals += 1
    polar_terms = sum(s["attrs"]["terms"] for s in by_name["evaluator.lambda_polar"])
    proposals = sum(s["attrs"]["proposals"] for s in by_name["gamma_limit.kappa_estimate"])
    search_self = selft["gamma_limit.kappa_estimate"]
    return {
        "cli.parse_s": total["cli.parse_config"],
        "cli.build_s": total["cli.build_kernel"] + total["cli.build_function"],
        "cli.write_s": sum(total[n] for n in WRITERS),
        "kernels.normalize_s": total["kernels.normalize"],
        "evaluator.sample_s": total["evaluator.sample_midpoints"],
        "functions.energy_s": total["functions.sobolev_energy"],
        "evaluator.pair1d_s": pair[1][0],
        "evaluator.pair1d_pairs_per_s": _rate(pair[1][1], pair[1][0]),
        "evaluator.pair2d_s": pair[2][0],
        "evaluator.pair2d_pairs_per_s": _rate(pair[2][1], pair[2][0]),
        "evaluator.polar_s": total["evaluator.lambda_polar"],
        "evaluator.polar_terms_per_s": _rate(polar_terms, total["evaluator.lambda_polar"]),
        "evaluator.polar_self_s": selft["evaluator.lambda_polar"],
        "experiments.self_s": sum(selft[n] for n in EXPERIMENTS),
        "gamma_limit.search_s": total["gamma_limit.kappa_estimate"],
        "gamma_limit.proposal_us": search_self / proposals * 1e6 if proposals else 0.0,
        "gamma_limit.full_eval_s": full_eval_s,
        "gamma_limit.full_evals": full_evals,
        "evaluator.pair_terms": pair[1][1] + pair[2][1],
        "evaluator.polar_terms": polar_terms,
        "gamma_limit.proposals": proposals,
        # bookkeeping for the accounting check, not per-layer metrics:
        # the layers' self times, without the root's (the tracer's own code)
        "_layers_s": sum(own) - sum(o for s, o in zip(spans, own) if s["parent"] is None),
        "_t0_wall": trace["t0_wall"],
        "_end_wall": trace["end_wall"],
    }
