"""numpy's OpenBLAS runs on one thread under nlsobolev, and no output
depends on how many threads it has.

`nlsobolev/__init__.py` sets OPENBLAS_NUM_THREADS to 1 while it loads
numpy, unless a thread count is set, and then deletes it again.  Each check
runs a fresh interpreter, since OpenBLAS reads the variable once, at load.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HAS_TASKS = Path("/proc/self/task").is_dir()
# the variables OpenBLAS reads its thread count from, first set first
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# after the imports, the process's OS threads and what the environment holds
PROBE = """
import json, os
{imports}
print(json.dumps([len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task")
                  else None, os.environ.get("OPENBLAS_NUM_THREADS")]))
"""


def _env(blas_threads, name="OPENBLAS_NUM_THREADS"):
    env = {key: value for key, value in os.environ.items() if key not in THREAD_VARS}
    if blas_threads is not None:
        env[name] = blas_threads
    return env


def _probe(imports, blas_threads, name="OPENBLAS_NUM_THREADS"):
    res = subprocess.run([sys.executable, "-c", PROBE.format(imports=imports)],
                         env=_env(blas_threads, name), capture_output=True, text=True,
                         check=True)
    return json.loads(res.stdout)


@pytest.mark.parametrize("imports, blas_threads, name, pinned", [
    # unset: no worker starts, and the pin is gone from the environment again
    ("import nlsobolev", None, "OPENBLAS_NUM_THREADS", True),
    # a value the user set is kept, and OpenBLAS starts its workers
    ("import nlsobolev", "2", "OPENBLAS_NUM_THREADS", False),
    ("import nlsobolev", "2", "OMP_NUM_THREADS", False),
    # numpy loaded first: its workers are already running and stay
    ("import numpy\nimport nlsobolev", None, "OPENBLAS_NUM_THREADS", False),
], ids=["unset", "user-set", "user-set-omp", "numpy-first"])
def test_openblas_pinned_only_while_numpy_loads(imports, blas_threads, name, pinned):
    count, left = _probe(imports, blas_threads, name)
    assert left == (blas_threads if name == "OPENBLAS_NUM_THREADS" else None)
    if HAS_TASKS:
        # unpinned, the process has the threads numpy alone starts under that env
        assert count == (1 if pinned else _probe("import numpy", blas_threads, name)[0])


@pytest.mark.skipif(not HAS_TASKS, reason="no /proc/self/task to count threads")
def test_pin_survives_a_large_product():
    # a product large enough for OpenBLAS to split still runs on one thread
    count, _ = _probe("import nlsobolev\nimport numpy as np\n"
                      "a = np.ones((600, 600)); a @ a", None)
    assert count == 1


AFFINE_2D = """
kernel.shape = indicator
kernel.normalize = true
function.kind = affine
function.gradient = 1.0, -0.5
function.offset = 0.25
d = 2
p = 2.0
"""


@pytest.mark.parametrize("sub, text", [
    # midpoint samples of a 2-D affine u: the product pts @ a
    ("sweep", AFFINE_2D + "delta_list = 0.4, 0.2\ngrid_n = 96\n"),
    # the polar scheme's per-chunk dot product
    ("eval", AFFINE_2D + "domain.flavor = whole-space\ndomain.padding = 0.5\n"
             "scheme = polar\npolar.h_steps = 64\ndelta = 0.5\ngrid_n = 40\n"),
], ids=["sweep-2d-affine", "eval-polar"])
def test_csv_bytes_do_not_depend_on_blas_threads(tmp_path, sub, text):
    conf = tmp_path / "run.conf"
    conf.write_text(text)
    csvs = []
    for blas_threads in ("1", "2"):
        out = tmp_path / f"run{blas_threads}"
        res = subprocess.run([sys.executable, "-m", "nlsobolev.cli", sub, "--config",
                              str(conf), "--out", str(out)],
                             env=_env(blas_threads), capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        csvs.append((tmp_path / f"run{blas_threads}.csv").read_bytes())
    assert csvs[0] == csvs[1]
