"""Child-process probes of the library, each run in a fresh interpreter.

  python3 bench/probe.py info
      print the imported package path and library versions as JSON
  python3 bench/probe.py setup CONFIG
      import nlsobolev, parse the config, build the kernel and the function
      (timed from outside: this is one `setup_s` sample)
  python3 bench/probe.py layers CONFIG THREADS OUT_JSON
      time single layers through public functions on the workload's own
      inputs: kernel evaluation, function evaluation at the points of one
      polar chunk, and the thread speed-up of the pair and polar reductions
      at 1 and THREADS threads (the count the CLI ops ran with)

The config decides the workload: a `function.kind` key means the function is
built from it, otherwise (kappa) the function is the unit-cube profile.
"""

import json
import os
import statistics
import sys
import time

def build(cfg_path):
    from nlsobolev import cli
    cfg = cli.parse_config(cfg_path)
    p, d = float(cfg.get("p", "2")), int(cfg.get("d", "1"))
    k = cli.build_kernel(cfg, d, p)
    if "function.kind" not in cfg:
        cfg = dict(cfg, **{"function.kind": "cube-profile"})
    f = cli.build_function(cfg, d)
    return cfg, p, d, k, f


def _median_time(fn, reps):
    times = []
    for _ in range(reps):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def _deltas(cfg):
    if "delta_list" in cfg:
        return [float(t) for t in cfg["delta_list"].replace(",", " ").split()]
    return [float(cfg["delta"])]


def layers(cfg_path, threads):
    import numpy as np
    from nlsobolev import evaluator, functions, kernels

    cfg, p, d, k, f = build(cfg_path)
    n = int(cfg["grid_n"])
    delta = min(_deltas(cfg))
    u, spac = evaluator.sample_midpoints(f, n)
    out = {"threads": threads}

    # kernel: the |du|/delta arguments of the first lags of the pair sum
    if d == 1:
        lags = range(1, 1 + max(1, 2_000_000 // n))
        args = np.concatenate([np.abs(u[m:] - u[:-m]) for m in lags]) / delta
    else:
        lags = [(mx, my) for my in range(0, 16) for mx in range(1, 16)]
        args = np.concatenate([np.abs(u[mx:, my:] - u[:n - mx, :n - my]).ravel()
                               for mx, my in lags]) / delta
    t = _median_time(lambda: kernels.eval_kernel(k, args), 5)
    out["kernels.eval_ns_per_arg"] = t / args.size * 1e9

    # thread speed-up: time at 1 thread over time at the ops' thread count
    def speedup(run, reps):
        run(threads)                    # warm-up: first-call allocations
        t1, tn = [], []
        for _ in range(reps):
            for th, acc in ((1, t1), (threads, tn)):
                t = time.perf_counter()
                run(th)
                acc.append(time.perf_counter() - t)
        return statistics.median(t1) / statistics.median(tn)

    pair = lambda th: evaluator.pair_sum_on_samples(u, spac, k, p, delta, th)  # noqa: E731
    key = "pair1d" if d == 1 else "pair2d"
    out[f"evaluator.thread_speedup.{key}"] = speedup(pair, 3)
    if f.domain.flavor != "whole-space":
        return out                      # the polar scheme does not run

    def polar(th):
        params = evaluator.FunctionalParams(
            p=p, delta=delta, grid_n=n, threads=th,
            polar_h_steps=int(cfg.get("polar.h_steps", 600)),
            polar_angle_steps=int(cfg.get("polar.angle_steps", 64)))
        evaluator.lambda_polar(f, k, params)

    # function: the shifted points of one polar chunk, as the evaluator
    # itself builds them (recorded from a real call, so the chunk size
    # follows the library)
    chunks = []
    shifted = evaluator._polar_eval_shifted

    def record(f_, pts, box):
        chunks.append(pts)
        return shifted(f_, pts, box)

    evaluator._polar_eval_shifted = record
    try:
        polar(1)
    finally:
        evaluator._polar_eval_shifted = shifted
    pts = chunks[0]
    t = _median_time(lambda: functions.eval_u(f, pts), 5)
    out["functions.eval_ns_per_pt"] = t / (pts.size // d) * 1e9
    out["evaluator.thread_speedup.polar"] = speedup(polar, 2)
    return out


def main(argv):
    if argv[:1] == ["info"]:
        from importlib import metadata
        import nlsobolev
        info = {"module": os.path.abspath(nlsobolev.__file__),
                "nlsobolev": nlsobolev.__version__, "python": sys.version.split()[0]}
        for dist in ("numpy", "scipy"):
            try:
                info[dist] = metadata.version(dist)
            except metadata.PackageNotFoundError:
                info[dist] = None
        print(json.dumps(info))
        return 0
    if argv[:1] == ["setup"] and len(argv) == 2:
        build(argv[1])
        return 0
    if argv[:1] == ["layers"] and len(argv) == 4:
        result = layers(argv[1], int(argv[2]))
        with open(argv[3], "w") as fh:
            json.dump(result, fh)
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
