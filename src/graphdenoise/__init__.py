"""Graph-signal denoising under a spectral smoothness prior.

The package models observed vertex signals as corruptions of an unknown
smooth signal and recovers the most likely original under three noise
models: additive Gaussian noise in the frequency domain, uniform random
scaling, and Bernoulli dropout over a suspicion set.  Comparison filters
and a reproducible experiment harness round out the library.
"""

__version__ = "0.1.0"

from .baselines import (
    band_filter,
    local_average,
    magic_filter,
    nuclear_norm_denoise,
)
from .bernoulli import (
    bernoulli_denoise,
    dropout_penalty,
    l0_greedy,
    lasso_coordinate_descent,
)
from .errors import (
    DegenerateSignalError,
    GraphDenoiseError,
    GraphDisconnectedError,
    InvalidArgumentError,
    NotPositiveDefiniteError,
    NumericalFailureError,
    TooLargeError,
)
from .experiments import (
    ExperimentSpec,
    ExperimentTable,
    add_noise,
    ccp_vs_pg_benchmark,
    make_cluster_data,
    parse_experiment_spec,
    pearson_correlation,
    relative_error,
    run_experiment,
)
from .gaussian import denoise_gaussian, estimate_tau
from .graphs import (
    CsrMatrix,
    Graph,
    build_grid_graph,
    build_knn_graph,
    dirichlet_energy,
    dirichlet_system,
)
from .result import DenoiseResult, DescentTrace
from .solvers import cg_solve, harmonic_interpolate
from .spectral import (
    SpectralBasis,
    apply_filter,
    eigendecompose,
    gft,
    igft,
    map_error_covariance_diag,
    sample_prior,
)
from .uniform import (
    ccp_denoise,
    projected_gradient_denoise,
    uniform_loss,
)
