"""Run one `nlsobolev` CLI op with spans around the library's public functions.

Usage: python3 bench/trace_op.py SPANS_JSON OP_ID -- <cli arguments>

Every public function of cli, kernels, functions, evaluator, experiments and
gamma_limit is wrapped in every module that holds a binding to it (for
example `gamma_limit`'s own `pair_sum_on_samples` copy), so the span sits on
the name the caller actually looks up.  The library's source is unchanged.

Spans are kept in memory and written to SPANS_JSON when the op ends.  The
root span starts at the first statement of this script and ends when the
CLI returns, so interpreter start-up is the time between process spawn and
`t0_wall`, and interpreter exit the time between `end_wall` and reaping.
"""

import time

T0_WALL = time.time()
T0 = time.perf_counter()

import inspect  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

LAYERS = ("cli", "kernels", "functions", "evaluator", "experiments", "gamma_limit")


def _pair_attrs(u, *args, **kwargs):
    n = int(u.size)
    return {"ndim": int(u.ndim), "pairs": n * (n - 1) // 2}


def _polar_attrs(f, k, params, *args, **kwargs):
    d = f.domain.dim
    angles = 2 if d == 1 else params.polar_angle_steps
    return {"terms": params.grid_n ** d * params.polar_h_steps * angles}


def _kappa_attrs(prob, *args, **kwargs):
    return {"proposals": prob.iterations * prob.restarts}


# counts recorded at the span boundary, from the call's arguments
ATTRS = {
    "evaluator.pair_sum_on_samples": _pair_attrs,
    "evaluator.lambda_polar": _polar_attrs,
    "gamma_limit.kappa_estimate": _kappa_attrs,
}


class Tracer:
    """Nested spans on the calling thread; the library calls its public
    functions from the main thread only (the pool runs private workers)."""

    def __init__(self, op_id: int):
        self.op_id = op_id
        self.spans = []
        self.stack = []

    def open(self, name: str, attrs=None, start=None) -> int:
        idx = len(self.spans)
        self.spans.append({"id": idx, "parent": self.stack[-1] if self.stack else None,
                           "name": name, "op": self.op_id,
                           "start": time.perf_counter() if start is None else start,
                           "end": None, "attrs": attrs or {}})
        self.stack.append(idx)
        return idx

    def close(self, idx: int):
        self.spans[idx]["end"] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name, fn):
        attrs_of = ATTRS.get(name)

        def traced(*args, **kwargs):
            idx = self.open(name, attrs_of(*args, **kwargs) if attrs_of else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced


def install(tracer: Tracer, package, modules):
    """Rebind every public function of `modules` wherever it is bound."""
    wrappers = {}
    for mod in modules:
        short = mod.__name__.rsplit(".", 1)[-1]
        names = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
        for name in names:
            fn = getattr(mod, name, None)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                wrappers[id(fn)] = tracer.wrap(f"{short}.{name}", fn)
    for mod in (package, *modules):
        for name, value in list(vars(mod).items()):
            if id(value) in wrappers and inspect.isfunction(value):
                setattr(mod, name, wrappers[id(value)])


def main(argv) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, op_id, cli_args = argv[0], int(argv[1]), argv[3:]
    tracer = Tracer(op_id)
    root = tracer.open("trace.op", start=T0)
    imp = tracer.open("setup.import")
    import importlib
    package = importlib.import_module("nlsobolev")
    modules = [importlib.import_module(f"nlsobolev.{m}") for m in LAYERS]
    tracer.close(imp)
    install(tracer, package, modules)
    cli = modules[0]
    status = 1
    try:
        status = cli.main(cli_args)
    finally:
        tracer.close(root)
        end_wall = time.time()
        with open(spans_path, "w") as fh:
            json.dump({"t0_wall": T0_WALL, "end_wall": end_wall, "spans": tracer.spans}, fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
