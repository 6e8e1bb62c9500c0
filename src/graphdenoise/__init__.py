"""Graph-signal denoising under a spectral smoothness prior.

The package models observed vertex signals as corruptions of an unknown
smooth signal and recovers the most likely original under three noise
models: additive Gaussian noise in the frequency domain, uniform random
scaling, and Bernoulli dropout over a suspicion set.  Comparison filters
and a reproducible experiment harness round out the library.
"""

import importlib

__version__ = "0.1.0"

# Each public name's home module.  A name, or a submodule, is imported the
# first time it is read (PEP 562), so ``import graphdenoise`` loads no
# submodule and a command loads only what it runs: a process without
# bytecode caches compiles every module it loads.
_HOME = {
    name: module
    for module, names in {
        "baselines": "band_filter local_average magic_filter nuclear_norm_denoise",
        "bernoulli": "bernoulli_denoise dropout_penalty l0_greedy lasso_coordinate_descent",
        "errors": "DegenerateSignalError GraphDenoiseError GraphDisconnectedError"
        " InvalidArgumentError NotPositiveDefiniteError NumericalFailureError TooLargeError",
        "experiments": "ExperimentSpec ExperimentTable add_noise ccp_vs_pg_benchmark"
        " make_cluster_data parse_experiment_spec pearson_correlation relative_error"
        " run_experiment",
        "gaussian": "denoise_gaussian estimate_tau",
        "graphs": "CsrMatrix Graph build_grid_graph build_knn_graph dirichlet_energy"
        " dirichlet_system",
        "result": "DenoiseResult DescentTrace",
        "solvers": "cg_solve harmonic_interpolate",
        "spectral": "SpectralBasis apply_filter eigendecompose gft igft"
        " map_error_covariance_diag sample_prior",
        "uniform": "ccp_denoise projected_gradient_denoise uniform_loss",
    }.items()
    for name in names.split()
}
_SUBMODULES = ("baselines", "bernoulli", "cli", "errors", "experiments", "gaussian", "graphs",
               "matrixio", "result", "solvers", "spectral", "uniform")


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_HOME, *_SUBMODULES})
