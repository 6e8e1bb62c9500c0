"""Dense spectral reference path: eigenbasis, transforms, filters, prior.

The eigendecomposition here is the testing/reference route; production
denoising goes through the sparse solvers.  A grid graph's basis is built
in closed form from the 2-D DCT-II, which diagonalises the grid Laplacian;
any other graph's comes from a dense ``eigh``.  Both are capped at
``DEFAULT_EIG_CAP`` vertices because nothing in the package needs a full
spectrum at scale.  This module is the package's one owner of the DCT:
the grid spectrum and the cached, sign-fixed DCT-II matrix
:func:`dct_matrix`, which both the grid eigenbasis and the grid Gaussian
solve use.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, TooLargeError, overflow_guard
from .graphs import Graph, as_seed, as_signal, check_kappa

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

    Closed form on a graph with a ``grid_shape``, a dense ``eigh``
    elsewhere.  Refused with :class:`TooLargeError` above
    ``DEFAULT_EIG_CAP`` vertices.
    """
    if g.n > DEFAULT_EIG_CAP:
        raise TooLargeError(
            f"dense eigendecomposition refused for n={g.n} > cap={DEFAULT_EIG_CAP}; "
            "use the sparse solver path instead"
        )
    if g.grid_shape is not None:
        lam, psi = _grid_eigenpairs(*g.grid_shape)
    else:
        lam, psi = np.linalg.eigh(g.laplacian.toarray())
        lam = np.where(np.abs(lam) < 1e-12 * max(1.0, abs(lam[-1])), 0.0, lam)
        _fix_signs(psi)
    lam[0] = 0.0
    psi[:, 0] = 1.0 / math.sqrt(g.n)
    return SpectralBasis(lambdas=lam, psi=psi)


def _fix_signs(vectors: np.ndarray) -> None:
    """Flip columns in place so each one's largest-|entry| coordinate,
    the first of any tie, is positive."""
    pivot = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[pivot, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    vectors *= signs


def grid_eigenvalues(h: int, w: int) -> np.ndarray:
    """The h x w grid Laplacian's eigenvalues 4 sin^2(pi i/2h) +
    4 sin^2(pi j/2w), as an (h, w) array indexed by frequency (i, j)."""
    return _path_eigenvalues(h)[:, None] + _path_eigenvalues(w)


def _path_eigenvalues(n: int) -> np.ndarray:
    return 4.0 * np.sin(np.pi * np.arange(n) / (2 * n)) ** 2


@functools.cache
def dct_matrix(n: int) -> np.ndarray:
    """Orthonormal DCT-II vectors as sign-fixed columns: entry (r, i) is
    s_i cos(pi i (2r + 1)/2n), the path Laplacian's i-th eigenvector.
    Cached per size and read-only."""
    # each entry is +-cos(pi j/2n) for one table index j in [0, n], the
    # angle reduced in integers, so entries equal in magnitude are bitwise
    # equal and a product of two columns has its largest entry where both
    # factors do
    k = np.outer(2 * np.arange(n) + 1, np.arange(n)) % (4 * n)
    k = np.minimum(k, 4 * n - k)  # cos(2 pi - x) = cos x
    table = np.cos(np.pi * np.arange(n + 1) / (2 * n))
    table[n] = 0.0
    # cos(pi - x) = -cos x
    basis = np.where(k > n, -1.0, 1.0) * table[np.minimum(k, 2 * n - k)]
    basis *= math.sqrt(2.0 / n)
    basis[:, 0] = math.sqrt(1.0 / n)
    _fix_signs(basis)
    basis.flags.writeable = False
    return basis


def _grid_eigenpairs(h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Ascending grid eigenvalues and their sign-fixed eigenvectors.

    Vertex r*w + c of frequency (i, j) is u_i(r) v_j(c), the products of
    the 1-D DCT-II vectors; ties, as in a square grid, keep the row-major
    frequency order.
    """
    lam = grid_eigenvalues(h, w).ravel()
    order = np.argsort(lam, kind="stable")
    rows, cols = dct_matrix(h)[:, order // w], dct_matrix(w)[:, order % w]
    psi = np.empty((h * w, h * w))
    np.multiply(rows[:, None, :], cols[None, :, :], out=psi.reshape(h, w, h * w))
    return lam[order], psi


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
    prior leaves it unconstrained, and must be finite.  ``rng_seed`` is
    None (fresh entropy) or a nonnegative integer.
    """
    check_kappa(kappa)
    if not np.isfinite(mean_coeff):
        raise InvalidArgumentError(f"mean_coeff must be finite, got {mean_coeff!r}")
    rng = np.random.default_rng(as_seed(rng_seed))
    coeffs = np.empty(basis.n)
    coeffs[0] = mean_coeff
    # a variance that overflows, or a 2*kappa*lambda that underflows to 0,
    # has no draw
    with overflow_guard("prior draw"), np.errstate(divide="raise"):
        std = np.sqrt(1.0 / (2.0 * kappa * basis.lambdas[1:]))
        coeffs[1:] = rng.standard_normal(basis.n - 1) * std
        return basis.psi @ coeffs


def map_error_covariance_diag(
    basis: SpectralBasis, kappa: float, sigma2: float
) -> np.ndarray:
    """Spectral-domain error variance of the Gaussian-model estimate.

    Entry i >= 2 is sigma^2 / (2*kappa*sigma^2*lambda_i + 1); the mean
    frequency is exact, so entry 1 is zero.  ``kappa`` and ``sigma2`` must
    be finite and nonnegative.
    """
    if not 0 <= kappa < np.inf:
        raise InvalidArgumentError(f"kappa must be nonnegative and finite, got {kappa}")
    if not 0 <= sigma2 < np.inf:
        raise InvalidArgumentError(f"sigma2 must be nonnegative and finite, got {sigma2}")
    out = np.zeros(basis.n)
    out[1:] = sigma2 / (2.0 * kappa * sigma2 * basis.lambdas[1:] + 1.0)
    return out
