"""Dense spectral reference path: eigenbasis, transforms, filters, prior.

The eigendecomposition here is the testing/reference route; production
denoising goes through the sparse solvers.  It is capped at
``DEFAULT_EIG_CAP`` vertices because nothing in the package needs a full
spectrum at scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, TooLargeError
from .graphs import Graph, as_seed, as_signal

__all__ = [
    "SpectralBasis",
    "eigendecompose",
    "gft",
    "igft",
    "apply_filter",
    "sample_prior",
    "map_error_covariance_diag",
]

DEFAULT_EIG_CAP = 3000


@dataclass(frozen=True)
class SpectralBasis:
    """Ascending Laplacian eigenvalues and orthonormal eigenvectors.

    ``lambdas[0] == 0`` and ``psi[:, 0]`` is the constant vector 1/sqrt(n).
    Eigenvector signs are fixed so each column's largest-magnitude entry is
    positive, which keeps test expectations reproducible.
    """

    lambdas: np.ndarray
    psi: np.ndarray

    @property
    def n(self) -> int:
        return int(self.lambdas.size)


def eigendecompose(g: Graph) -> SpectralBasis:
    """Full dense eigendecomposition of the Laplacian (reference path).

    Refused with :class:`TooLargeError` above ``DEFAULT_EIG_CAP`` vertices.
    """
    if g.n > DEFAULT_EIG_CAP:
        raise TooLargeError(
            f"dense eigendecomposition refused for n={g.n} > cap={DEFAULT_EIG_CAP}; "
            "use the sparse solver path instead"
        )
    lam, psi = np.linalg.eigh(g.laplacian.toarray())
    lam = np.where(np.abs(lam) < 1e-12 * max(1.0, abs(lam[-1])), 0.0, lam)
    lam[0] = 0.0
    # sign convention: largest-|entry| coordinate positive
    pivot = np.argmax(np.abs(psi), axis=0)
    signs = np.sign(psi[pivot, np.arange(g.n)])
    signs[signs == 0] = 1.0
    psi = psi * signs
    psi[:, 0] = 1.0 / math.sqrt(g.n)
    return SpectralBasis(lambdas=lam, psi=psi)


def gft(basis: SpectralBasis, f) -> np.ndarray:
    """Graph Fourier transform: coefficients <f, psi_i>."""
    f = as_signal(f, basis.n)
    return basis.psi.T @ f


def igft(basis: SpectralBasis, coeffs) -> np.ndarray:
    """Inverse graph Fourier transform."""
    coeffs = as_signal(coeffs, basis.n)
    return basis.psi @ coeffs


def apply_filter(basis: SpectralBasis, response, f) -> np.ndarray:
    """Filter a signal: sum_i h_i <f, psi_i> psi_i.

    ``response`` holds the n per-frequency gains h_i in the order of
    ``basis.lambdas``; for example ``1 / (1 + tau * basis.lambdas)`` is the
    Gaussian-noise MAP estimate.
    """
    h = as_signal(response, basis.n)
    return basis.psi @ (h * gft(basis, f))


def sample_prior(
    basis: SpectralBasis,
    kappa: float,
    mean_coeff: float = 0.0,
    rng_seed: int | None = None,
) -> np.ndarray:
    """Draw a signal from the smoothness prior.

    Nonzero frequencies get independent N(0, 1/(2*kappa*lambda_i))
    coefficients; the mean frequency is pinned to ``mean_coeff`` because the
    prior leaves it unconstrained.  ``rng_seed`` is None (fresh entropy) or
    a nonnegative integer.
    """
    if not kappa > 0:
        raise InvalidArgumentError("kappa must be positive")
    rng = np.random.default_rng(as_seed(rng_seed))
    coeffs = np.empty(basis.n)
    coeffs[0] = mean_coeff
    std = np.sqrt(1.0 / (2.0 * kappa * basis.lambdas[1:]))
    coeffs[1:] = rng.standard_normal(basis.n - 1) * std
    return basis.psi @ coeffs


def map_error_covariance_diag(
    basis: SpectralBasis, kappa: float, sigma2: float
) -> np.ndarray:
    """Spectral-domain error variance of the Gaussian-model estimate.

    Entry i >= 2 is sigma^2 / (2*kappa*sigma^2*lambda_i + 1); the mean
    frequency is exact, so entry 1 is zero.
    """
    if kappa < 0:
        raise InvalidArgumentError("kappa must be nonnegative")
    if sigma2 < 0:
        raise InvalidArgumentError("sigma2 must be nonnegative")
    out = np.zeros(basis.n)
    out[1:] = sigma2 / (2.0 * kappa * sigma2 * basis.lambdas[1:] + 1.0)
    return out
