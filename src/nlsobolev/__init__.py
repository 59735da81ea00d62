"""Non-local, non-convex approximations of p-Dirichlet energies.

The central object is the functional

    Lambda_delta(u, Omega)
        = delta^p int_Omega int_Omega phi(|u(x)-u(y)| / delta) / |x-y|^(p+d),

built from a kernel phi that is calibrated so that, as the smoothing
scale delta shrinks, the values converge to int_Omega |grad u|^p for
Sobolev u (and, for monotone kernels, finiteness of the limit inferior
forces u to be Sobolev).  In the variational sense the limit is
kappa * int |grad u|^p for a constant kappa in (0, 1].

The package provides kernel construction/validation/calibration, two
independent evaluation schemes for cross-checking, convergence and
pathology experiments, a pattern-search estimator for kappa, and a
config-driven command line (``nlsobolev --help``).

Importing the package loads numpy with OpenBLAS pinned to one thread
(``OPENBLAS_NUM_THREADS=1``, set only while numpy loads): every sum here
is serial, and OpenBLAS's worker would only busy-wait.  A thread count you
set yourself in ``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` or
``OMP_NUM_THREADS`` wins.  Import nlsobolev before numpy to run the whole
process on single-threaded OpenBLAS.
"""

__version__ = "0.1.0"

import os as _os

# The library's two BLAS calls are small (a dot of at most 64 terms, the 2-D
# affine product), yet OpenBLAS starts a worker thread when numpy loads it
# that busy-waits about 0.1 s of CPU per process.  OpenBLAS reads its thread
# count once, at that load, from the first of these variables that is set:
# pin it for the load only, so no worker starts and child processes do not
# inherit the pin.  Numpy loaded earlier is unchanged.
_PIN = not any(name in _os.environ for name in
               ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"))
if _PIN:
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
try:
    import numpy as _np  # noqa: F401  (loaded here, under the pin)
finally:
    if _PIN:
        del _os.environ["OPENBLAS_NUM_THREADS"]

from .errors import (ContractError, DomainError, KernelValidationError,
                     NormalizationError, ParameterError, ResolutionError)
from .kernels import (Kernel, KernelValidationReport, band_kernel, bound_constant,
                      envelope_for, envelope_kernel, eval_kernel, gamma_dp,
                      growth_constant, indicator_kernel, normalization_integral,
                      normalize, power_cutoff_kernel, scaled_kernel_eval,
                      tabulated_kernel, validate)
from .functions import (Domain, TestFunction, affine_function, bounded_box,
                        cube_profile, dilate, discrete_lp_norm, eval_u,
                        grid_function, sine_function, sobolev_energy,
                        step_function, tent_function, unit_step, whole_space,
                        windowed_sine)
from .evaluator import (EvalResult, FunctionalParams, dilation_check, lambda_pair,
                        lambda_polar, pair_sum_on_samples, sample_midpoints,
                        scaling_check)
from .experiments import (GrowthReport, GrowthRow, SweepReport, SweepRow,
                          band_pathology, delta_sweep, step_divergence,
                          write_csv, write_growth_csv, write_meta,
                          write_sweep_csv)
from .gamma_limit import KappaProblem, KappaReport, kappa_estimate, write_trace_csv
