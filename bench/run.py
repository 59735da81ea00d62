"""End-to-end benchmark of the `nlsobolev` CLI.

    python3 bench/run.py --workload {sweep-1d,cross-2d,kappa-1d} --seed N \
        --seconds S --trace {0,1}

All three workloads, timed and traced, from the root of a checkout:

    for w in sweep-1d cross-2d kappa-1d; do for t in 0 1; do
        python3 bench/run.py --workload $w --seed 1 --seconds 44 --trace $t; done; done

Run from the root of a checkout that holds `src/nlsobolev`.  Each op is one
fresh `python3 -m nlsobolev.cli` process at the CLI's default --threads, run
one at a time in a closed loop (one client, no think time) on inputs that
`workloads.py` generates from the seed.  Every op's output is checked against
the workload's reference.

--trace 0 measures the end-to-end metrics: set-up time (median of fresh
set-up processes, one run right before every second op), op wall time (median and
tail), terms per second, CPU seconds and peak RSS of the op process.
--trace 1 is a separate run that alternates untraced ops with ops under
`trace_op.py`, adds single-layer probes, reports the per-layer metrics and
the tracing overhead, and checks that the layers' self times account for
each traced op.  Both loops start a new op (or pair) only while a typical
one still fits in --seconds, so a run ends close to --seconds.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  Temporary files live
under `.bench_work/` in the checkout and are removed at exit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import sys
import time

import measure
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

IMPORTTIME_PROBES = 3
SETUP_EVERY = 2           # ops per set-up sample in the timed run
TRACE_MIN_PAIRS = 3
TRACE_MAX_PAIRS = 10
OP_TIMEOUT_S = 120.0

END_TO_END = (("setup_s", "s"), ("wall_s.p50", "s"), ("wall_s.tail", "s"),
              ("terms_per_s", "1/s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))
PER_LAYER = (
    ("cli.parse_s", "s"), ("cli.build_s", "s"), ("cli.write_s", "s"),
    ("setup.import_s", "s"), ("setup.import_scipy_s", "s"),
    ("kernels.normalize_s", "s"), ("kernels.eval_ns_per_arg", "ns"),
    ("evaluator.sample_s", "s"), ("functions.energy_s", "s"),
    ("evaluator.pair1d_s", "s"), ("evaluator.pair1d_pairs_per_s", "1/s"),
    ("evaluator.pair2d_s", "s"), ("evaluator.pair2d_pairs_per_s", "1/s"),
    ("evaluator.polar_s", "s"), ("evaluator.polar_terms_per_s", "1/s"),
    ("evaluator.polar_self_s", "s"), ("functions.eval_ns_per_pt", "ns"),
    ("evaluator.thread_speedup.pair1d", "x"), ("evaluator.thread_speedup.pair2d", "x"),
    ("evaluator.thread_speedup.polar", "x"),
    ("experiments.self_s", "s"),
    ("gamma_limit.search_s", "s"), ("gamma_limit.proposal_us", "us"),
    ("gamma_limit.full_eval_s", "s"), ("gamma_limit.full_evals", "count"),
    ("gamma_limit.improve_ratio", "ratio"),
    ("evaluator.pair_terms", "count"), ("evaluator.polar_terms", "count"),
    ("gamma_limit.proposals", "count"),
    ("trace.overhead_s", "s"), ("fail_ratio", "ratio"), ("ref_err", "rel"),
)


class BenchError(RuntimeError):
    """The benchmark cannot measure this checkout (no result is printed)."""


class Session:
    """One run's checkout paths, child environment and op bookkeeping."""

    def __init__(self, workload: str, seed: int):
        src = os.path.join(ROOT, "src")
        if not os.path.isfile(os.path.join(src, "nlsobolev", "cli.py")):
            raise BenchError(f"no nlsobolev sources under {src}")
        self.src = src
        self.env = dict(os.environ)
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        self.workdir = os.path.join(ROOT, ".bench_work", f"{workload}-{seed}-{os.getpid()}")
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(self.workdir)
        self.inputs = workloads.make_inputs(workload, seed, self.workdir)
        self.first_csv = None
        self.n_ops = 0

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def child(self, argv, tag: str) -> measure.Proc:
        return measure.run_child([sys.executable, *argv], self.env,
                                 self.path(tag + ".stdout"), self.path(tag + ".stderr"),
                                 OP_TIMEOUT_S)

    def library_info(self) -> dict:
        """Warm-up process: compiles bytecode and confirms which package is measured."""
        proc = self.child([os.path.join(HERE, "probe.py"), "info"], "info")
        if proc.exit_code != 0:
            raise BenchError("cannot import nlsobolev: " + _read(self.path("info.stderr")))
        info = json.loads(_read(self.path("info.stdout")))
        if not info["module"].startswith(self.src + os.sep):
            raise BenchError(f"imported {info['module']}, not the checkout's package")
        return info

    def setup_sample(self) -> float:
        proc = self.child([os.path.join(HERE, "probe.py"), "setup",
                           self.inputs.config_path], "setup")
        if proc.exit_code != 0:
            raise BenchError("set-up failed: " + _read(self.path("setup.stderr")))
        return proc.wall_s

    def op(self, traced: bool = False):
        """One CLI process; returns (proc, outcome, spans or None)."""
        i = self.n_ops
        self.n_ops += 1
        prefix = self.path(f"op{i}")
        cli_args = workloads.op_argv(self.inputs, prefix)
        trace_path = prefix + ".spans.json"
        if traced:
            argv = [os.path.join(HERE, "trace_op.py"), trace_path, str(i), "--", *cli_args]
        else:
            argv = ["-m", "nlsobolev.cli", *cli_args]
        proc = self.child(argv, f"op{i}")
        if proc.timed_out:
            outcome = workloads.Outcome(False, math.inf, "timed out")
        elif proc.exit_code != 0:
            outcome = workloads.Outcome(False, math.inf, f"exit status {proc.exit_code}: "
                                        + _read(prefix + ".stderr")[-300:])
        else:
            outcome = workloads.check(self.inputs, prefix)
            self._check_bytes(prefix + ".csv", outcome)
        trace = None
        if traced and os.path.exists(trace_path):
            with open(trace_path) as fh:
                trace = json.load(fh)
        for name in os.listdir(self.workdir):
            if name.startswith(f"op{i}."):
                os.remove(self.path(name))
        return proc, outcome, trace

    def _check_bytes(self, csv_path: str, outcome):
        """Same config and seed must reproduce the CSV byte for byte."""
        if not outcome.ok:
            return
        with open(csv_path, "rb") as fh:
            data = fh.read()
        if self.first_csv is None:
            self.first_csv = data
        elif data != self.first_csv:
            outcome.ok = False
            outcome.reason = "CSV differs from the first op's"

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.workdir))
        except OSError:
            pass


def _read(path: str) -> str:
    try:
        with open(path, errors="replace") as fh:
            return fh.read()
    except OSError:
        return ""


def _line(name: str, value, unit: str = "", note: str = ""):
    text = f"{value:.6g}" if isinstance(value, float) else str(value)
    print(f"  {name:<36} {text:>14} {unit:<6} {note}".rstrip())


def _summarize_ops(outcomes) -> tuple[int, float]:
    """Print failed ops and the threads ops used; return (failed, worst ref_err)."""
    failed = sum(not o.ok for o in outcomes)
    for n, o in enumerate(outcomes):
        if not o.ok:
            print(f"  op {n} FAILED: {o.reason}")
    threads = sorted({o.threads for o in outcomes if o.threads is not None})
    _line("threads used", ",".join(map(str, threads)) or "unknown", "",
          "per op, from meta.json")
    errs = [o.ref_err for o in outcomes if math.isfinite(o.ref_err)]
    # an op without usable output has no error to measure; 1.0 reads "all wrong"
    return failed, max(errs, default=1.0)


def _fits(start: float, seconds: float, durations) -> bool:
    """Whether one more step of the typical duration ends within the run."""
    typical = statistics.median(durations) if durations else 0.0
    return time.perf_counter() - start + typical <= seconds


def timed_run(sess: Session, seconds: float) -> dict:
    start = time.perf_counter()
    setup, procs, outcomes, steps = [], [], [], []
    while not procs or _fits(start, seconds, steps):
        t = time.perf_counter()
        # a set-up sample right before every second op: spread over the run so
        # host drift hits set-up and ops alike, while most of the run goes to ops
        if len(procs) % SETUP_EVERY == 0:
            setup.append(sess.setup_sample())
        proc, outcome, _ = sess.op()
        procs.append(proc)
        outcomes.append(outcome)
        steps.append(time.perf_counter() - t)
    walls = [p.wall_s for p in procs]
    p50 = statistics.median(walls)
    tail, rank, count = measure.tail(walls)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s.p50": p50,
        "wall_s.tail": tail,
        "terms_per_s": sess.inputs.terms / p50,
        "cpu_s": statistics.median([p.cpu_s for p in procs]),
        "peak_rss_mb": statistics.median([p.maxrss_mb for p in procs]),
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh processes, one before every {SETUP_EVERY} ops",
        "wall_s.p50": f"median of {count} ops",
        "wall_s.tail": f"rank {rank} of {count} ({count - rank} beyond)",
        "terms_per_s": f"{sess.inputs.terms} terms per op / wall_s.p50",
        "cpu_s": "median user+sys of the op process",
        "peak_rss_mb": "median ru_maxrss of the op process",
    }
    print("end-to-end metrics:")
    failed, ref_err = _summarize_ops(outcomes)
    for name, unit in END_TO_END:
        _line(name, metrics[name], unit, notes[name])
    _line("fail_ratio", failed / len(outcomes), "ratio", f"{failed} of {len(outcomes)} ops")
    _line("ref_err", ref_err, "rel", _ref_note(sess.inputs))
    print("  op wall_s in order: " + " ".join(f"{w:.3f}" for w in walls))
    print("  setup_s samples:    " + " ".join(f"{w:.3f}" for w in setup))
    return {"correct": failed == 0, "attempted": len(outcomes), "failed": failed,
            "metrics": {n: {"value": metrics[n], "unit": u} for n, u in END_TO_END}}


def _ref_note(inp) -> str:
    if inp.workload == "sweep-1d":
        return "max rel deviation from (1 - delta/g)^2"
    if inp.workload == "cross-2d":
        return f"max pair/polar gap (budget {workloads.CROSS_GAP_BUDGET})"
    return "rel drift of the running objective vs full kappa_hat"


def _importtime(sess: Session) -> tuple[float, float]:
    """(import nlsobolev, scipy share) in seconds, from `python -X importtime`."""
    totals, scipy_shares = [], []
    for _ in range(IMPORTTIME_PROBES):
        proc = sess.child(["-X", "importtime", "-c", "import nlsobolev"], "importtime")
        if proc.exit_code != 0:
            raise BenchError("import failed: " + _read(sess.path("importtime.stderr")))
        total, share = parse_importtime(_read(sess.path("importtime.stderr")))
        totals.append(total)
        scipy_shares.append(share)
    return statistics.median(totals), statistics.median(scipy_shares)


def parse_importtime(text: str) -> tuple[float, float]:
    """Cumulative time of `nlsobolev`, and of the outermost `scipy*` imports."""
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue                                  # header line
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((depth, name.strip(), int(cumulative) * 1e-6))
    total, share = 0.0, 0.0
    stack = []
    for depth, name, cum in reversed(entries):        # post-order -> pre-order
        while stack and stack[-1][0] >= depth:
            stack.pop()
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(s[1] for s in stack):
            share += cum
        if name == "nlsobolev":
            total = cum
        stack.append((depth, is_scipy))
    return total, share


def _layer_probe(sess: Session, threads: int) -> dict:
    out = sess.path("layers.json")
    proc = sess.child([os.path.join(HERE, "probe.py"), "layers", sess.inputs.config_path,
                       str(threads), out], "layers")
    if proc.exit_code != 0:
        raise BenchError("layer probe failed: " + _read(sess.path("layers.stderr")))
    with open(out) as fh:
        return json.load(fh)


def traced_run(sess: Session, seconds: float) -> dict:
    start = time.perf_counter()
    import_s, import_scipy_s = _importtime(sess)
    probes = None
    plain, traced, outcomes, steps = [], [], [], []
    while len(traced) < TRACE_MIN_PAIRS or (
            len(traced) < TRACE_MAX_PAIRS and _fits(start, seconds, steps)):
        t = time.perf_counter()
        # alternate which of the pair runs first, so drift cancels in the overhead
        for is_traced in ((False, True) if len(traced) % 2 == 0 else (True, False)):
            p, o, trace = sess.op(traced=is_traced)
            outcomes.append(o)
            if not is_traced:
                plain.append(p)
            elif trace is None:
                raise BenchError("traced op wrote no spans: " + o.reason)
            else:
                traced.append((p, spans.op_layers(trace)))
        steps.append(time.perf_counter() - t)
        if probes is None:
            # single-layer probes at the thread count the CLI ops actually used
            probes = _layer_probe(sess, outcomes[0].threads or os.cpu_count() or 1)

    print(f"per-layer metrics (median of {len(traced)} traced ops; "
          f"thread speed-up at 1 vs {probes['threads']} threads; 0 = layer not run):")
    failed, ref_err = _summarize_ops(outcomes)
    per_op = [layers for _, layers in traced]
    counts = [name for name, value in per_op[0].items() if isinstance(value, int)]
    repeated = all(m[name] == per_op[0][name] for m in per_op for name in counts)
    metrics = {name: per_op[0][name] if name in counts
               else statistics.median([m[name] for m in per_op]) for name in per_op[0]}
    metrics.update({
        "setup.import_s": import_s,
        "setup.import_scipy_s": import_scipy_s,
        "kernels.eval_ns_per_arg": probes["kernels.eval_ns_per_arg"],
        "functions.eval_ns_per_pt": probes.get("functions.eval_ns_per_pt", 0.0),
        "evaluator.thread_speedup.pair1d": probes.get("evaluator.thread_speedup.pair1d", 0.0),
        "evaluator.thread_speedup.pair2d": probes.get("evaluator.thread_speedup.pair2d", 0.0),
        "evaluator.thread_speedup.polar": probes.get("evaluator.thread_speedup.polar", 0.0),
        "gamma_limit.improve_ratio": statistics.median(
            [o.extra.get("improve_ratio", 0.0) for o in outcomes]),
        "trace.overhead_s": (statistics.median([p.wall_s for p, _ in traced])
                             - statistics.median([p.wall_s for p in plain])),
        "fail_ratio": failed / len(outcomes),
        "ref_err": ref_err,
    })
    for name, unit in PER_LAYER:
        _line(name, metrics[name], unit)
    _line("counts repeat in every traced op", str(repeated), "", ", ".join(counts))
    q1, _, q3 = statistics.quantiles([p.wall_s for p in plain], n=4)
    accounted = accounting(traced, metrics["trace.overhead_s"], q3 - q1)
    return {"correct": failed == 0 and repeated and accounted, "attempted": len(outcomes),
            "failed": failed,
            "metrics": {n: {"value": metrics[n], "unit": u} for n, u in PER_LAYER}}


def accounting(traced, overhead_s: float, noise_s: float) -> bool:
    """Check that the layers' self times account for each traced op.

    A traced op's wall time is interpreter start (spawn to the tracer's first
    statement), the layers' self times, the tracer's own code (the root
    span's self time) and interpreter exit (the tracer's last statement to
    reaping).  What is left after start, exit and the layers must stay within
    the measured tracing overhead; a slow step outside every layer fails it.
    The overhead is a difference of two medians of noisy op times, so it is
    known only to within `noise_s`, the untraced ops' interquartile range.
    """
    start = [m["_t0_wall"] - p.spawn_wall for p, m in traced]
    exit_ = [p.spawn_wall + p.wall_s - m["_end_wall"] for p, m in traced]
    rest = [p.wall_s - s - e - m["_layers_s"]
            for (p, m), s, e in zip(traced, start, exit_)]
    ok = all(abs(r) <= abs(overhead_s) + noise_s for r in rest)
    print("trace accounting (op wall = interpreter start + layer self times"
          " + tracer's own code + interpreter exit):")
    _line("interpreter start", statistics.median(start), "s")
    _line("layer self times", statistics.median([m["_layers_s"] for _, m in traced]), "s")
    _line("interpreter exit", statistics.median(exit_), "s")
    _line("outside every layer", max(rest, key=abs), "s",
          f"largest of {len(rest)} ops; within |trace.overhead_s| + {noise_s:.3g} s "
          f"untraced IQR: {ok}")
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        sess = Session(args.workload, args.seed)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        facts = measure.machine_facts(ROOT, sess.library_info())
        print(f"nlsobolev bench workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}")
        print("facts " + json.dumps(facts, sort_keys=True))
        steal_before = measure.cpu_steal()
        if args.trace:
            result = traced_run(sess, args.seconds)
        else:
            result = timed_run(sess, args.seconds)
        # a host busy elsewhere slows every op alike; this tells such runs apart
        steal = measure.steal_share(steal_before, measure.cpu_steal())
        _line("host steal during the run", "unknown" if steal is None else steal,
              "", "share of CPU time, from /proc/stat")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        sess.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
