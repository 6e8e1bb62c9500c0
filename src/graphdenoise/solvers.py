"""Preconditioned conjugate-gradient solving for every SPD system.

Every estimator in the package reduces to systems of the form
(I + tau*L) x = b, to a principal Laplacian submatrix L(U, U) x = b, or,
for the l0 support search, to the normal equations G(S, S) x = c(S) of
the sparse regression on B(:, zeta) with G = B(:, zeta)' B(:, zeta).  All
are assembled as sparse CSR matrices and handed to :func:`cg_solve`,
Jacobi (diagonal) preconditioned CG from x = 0.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import scipy.sparse as sp

from .errors import (
    ConvergenceError,
    InvalidArgumentError,
    NotPositiveDefiniteError,
    NumericalFailureError,
)
from .graphs import Graph, as_mask, restrict_laplacian
from .result import DenoiseResult

__all__ = ["cg_solve", "harmonic_interpolate"]


def cg_solve(
    matrix: sp.csr_matrix,
    b,
    tol: float = 1e-10,
    max_iter: int | None = None,
) -> DenoiseResult:
    """Solve matrix x = b for a symmetric positive definite CSR matrix.

    Stops at a relative residual of ``tol``; the result's ``trace`` holds
    the relative residual after each iteration.  Raises
    :class:`NotPositiveDefiniteError` on a nonpositive diagonal entry or a
    direction of nonpositive curvature, :class:`NumericalFailureError` on
    NaN/Inf, :class:`InvalidArgumentError` on a non-finite right-hand side,
    and :class:`ConvergenceError` (carrying the best iterate as a result
    with ``converged=False``) if the tolerance is not met within
    ``max_iter`` (default 10n).
    """
    n = matrix.shape[0]
    b = np.asarray(b, dtype=np.float64)
    if b.ndim != 1 or b.shape[0] != n:
        raise InvalidArgumentError(
            f"expected a length-{n} right-hand side, got shape {b.shape}"
        )
    if not np.all(np.isfinite(b)):
        raise InvalidArgumentError("right-hand side must be finite")
    if not tol > 0:
        raise InvalidArgumentError("tol must be positive")
    if max_iter is None:
        max_iter = 10 * n
    diag = matrix.diagonal()
    if np.any(diag <= 0.0):
        raise NotPositiveDefiniteError(
            f"matrix is not positive definite (diagonal minimum {diag.min():.3e})"
        )
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return DenoiseResult(signal=np.zeros_like(b), iterations=0)
    history: list[float] = []
    x = np.zeros_like(b)
    r = b.copy()
    minv = 1.0 / diag
    z = minv * r
    p = z
    rz = float(np.dot(r, z))
    relres = float(np.linalg.norm(r)) / bnorm
    best_x, best_res = x, relres
    k = 0
    while relres > tol and k < max_iter:
        ap = matrix.dot(p)
        pap = float(np.dot(p, ap))
        if not np.isfinite(pap):
            raise NumericalFailureError(
                "CG produced a non-finite curvature", trace=np.asarray(history)
            )
        if pap <= 0.0:
            raise NotPositiveDefiniteError(
                f"operator is not positive definite (p'Ap = {pap:.3e})"
            )
        alpha = rz / pap
        x = x + alpha * p
        r = r - alpha * ap
        k += 1
        relres = float(np.linalg.norm(r)) / bnorm
        history.append(relres)
        if not np.isfinite(relres):
            raise NumericalFailureError(
                "CG residual diverged", trace=np.asarray(history)
            )
        if relres < best_res:
            best_x, best_res = x, relres
        z = minv * r
        rz_new = float(np.dot(r, z))
        beta = rz_new / rz
        rz = rz_new
        p = z + beta * p
    if relres <= tol:
        return DenoiseResult(signal=x, iterations=k, trace=np.asarray(history))
    raise ConvergenceError(
        f"CG did not reach tol={tol:g} in {max_iter} iterations "
        f"(best relative residual {best_res:.3e})",
        report=DenoiseResult(
            signal=best_x,
            iterations=k,
            trace=np.asarray(history),
            converged=False,
        ),
    )


def harmonic_interpolate(
    graph: Graph,
    known,
    obs,
    tol: float = 1e-10,
) -> DenoiseResult:
    """Extend values on the known vertices to the whole graph with minimal energy.

    ``known`` is a length-n boolean mask and ``obs`` holds the known values
    in ascending vertex order (``signal[known]``).  On the rest every output
    value is the degree-weighted average of its neighbors, so the result
    obeys the maximum principle.  Returns the :func:`cg_solve` result of the
    L(U, U) solve on the unknown set U, with the full-length signal.  An
    empty known set is an :class:`InvalidArgumentError`.
    """
    known = as_mask(known, graph.n)
    n_known = int(np.count_nonzero(known))
    if n_known == 0:
        raise InvalidArgumentError("cannot interpolate from an empty known set")
    obs = np.asarray(obs, dtype=np.float64)
    if obs.ndim != 1 or obs.shape[0] != n_known:
        raise InvalidArgumentError(
            f"expected {n_known} observed values, got shape {obs.shape}"
        )
    out = np.empty(graph.n)
    out[known] = obs
    unknown = ~known
    if not unknown.any():
        return DenoiseResult(signal=out, iterations=0)
    # L(U,U) x = -L(U,K) obs; the negation goes on obs so that an unknown
    # vertex with no known neighbor gets +0, not -0
    rhs = restrict_laplacian(graph, unknown, known) @ -obs
    fit = cg_solve(restrict_laplacian(graph, unknown, unknown), rhs, tol=tol)
    out[unknown] = fit.signal
    return dataclasses.replace(fit, signal=out)
