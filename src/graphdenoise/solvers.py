"""Preconditioned conjugate-gradient solving for the denoisers' SDD systems.

Every estimator in the package reduces to systems of the form
(I + tau*L) x = b or to a principal Laplacian submatrix L(U, U) x = b.
Both are assembled as sparse CSR matrices and handed to :func:`cg_solve`,
Jacobi (diagonal) preconditioned CG.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import (
    ConvergenceError,
    InvalidArgumentError,
    NotPositiveDefiniteError,
    NumericalFailureError,
    SingularSystemError,
)
from .graphs import Graph, VertexSet, restrict_adjacency, restrict_laplacian

__all__ = ["SolveReport", "cg_solve", "harmonic_interpolate", "pcg"]


@dataclass(frozen=True)
class SolveReport:
    solution: np.ndarray
    iterations: int
    relative_residual: float
    residual_history: np.ndarray


def pcg(
    matvec,
    b: np.ndarray,
    diag: np.ndarray | None = None,
    tol: float = 1e-10,
    max_iter: int = 1000,
    x0: np.ndarray | None = None,
):
    """Jacobi-preconditioned CG on a matrix-free SPD operator.

    Returns (x, iterations, relative_residual, residual_history).  Raises
    :class:`NotPositiveDefiniteError` on a nonpositive curvature direction
    and :class:`NumericalFailureError` on NaN/Inf.  Does not raise on
    hitting ``max_iter``; the caller decides how to treat that.
    """
    b = np.asarray(b, dtype=np.float64)
    bnorm = float(np.linalg.norm(b))
    history: list[float] = []
    if bnorm == 0.0:
        return np.zeros_like(b), 0, 0.0, np.empty(0)
    x = np.zeros_like(b) if x0 is None else np.asarray(x0, dtype=np.float64).copy()
    r = b - matvec(x) if np.any(x) else b.copy()
    minv = None if diag is None else 1.0 / diag
    z = r if minv is None else minv * r
    p = z.copy()
    rz = float(np.dot(r, z))
    relres = float(np.linalg.norm(r)) / bnorm if bnorm else 0.0
    best_x, best_res = x.copy(), relres
    k = 0
    while relres > tol and k < max_iter:
        ap = matvec(p)
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
            best_x, best_res = x.copy(), relres
        z = r if minv is None else minv * r
        rz_new = float(np.dot(r, z))
        beta = rz_new / rz
        rz = rz_new
        p = z + beta * p
    if relres > tol:
        x, relres = best_x, best_res
    return x, k, relres, np.asarray(history)


def cg_solve(
    matrix: sp.csr_matrix,
    b,
    tol: float = 1e-10,
    max_iter: int | None = None,
) -> SolveReport:
    """Solve matrix x = b for a symmetric positive definite sparse matrix.

    Stops at a relative residual of ``tol``.  Raises
    :class:`NotPositiveDefiniteError` if CG meets a direction of
    nonpositive curvature, :class:`InvalidArgumentError` on a non-finite
    right-hand side, and :class:`ConvergenceError` (carrying the best
    iterate's report) if the tolerance is not met within ``max_iter``
    (default 10n).
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
    x, k, relres, history = pcg(
        matrix.dot, b, diag=matrix.diagonal(), tol=tol, max_iter=max_iter
    )
    report = SolveReport(
        solution=x, iterations=k, relative_residual=relres, residual_history=history
    )
    if relres > tol:
        raise ConvergenceError(
            f"CG did not reach tol={tol:g} in {max_iter} iterations "
            f"(best relative residual {relres:.3e})",
            report=report,
        )
    return report


def harmonic_interpolate(
    graph: Graph,
    s: VertexSet,
    obs,
    tol: float = 1e-10,
    max_iter: int | None = None,
) -> np.ndarray:
    """Extend values given on s to the whole graph with minimal energy.

    ``obs`` holds the known values in the order of ``s.members``.  On the
    complement every output value is the degree-weighted average of its
    neighbors, so the result obeys the maximum principle.
    """
    if s is None or len(s) == 0:
        raise SingularSystemError("cannot interpolate from an empty known set")
    if s.members[-1] >= graph.n:
        raise InvalidArgumentError("known set out of range")
    obs = np.asarray(obs, dtype=np.float64)
    if obs.ndim != 1 or obs.shape[0] != len(s):
        raise InvalidArgumentError(
            f"expected {len(s)} observed values, got shape {obs.shape}"
        )
    out = np.empty(graph.n)
    out[s.members] = obs
    comp = s.complement(graph.n)
    if len(comp) == 0:
        return out
    rhs = restrict_adjacency(graph, comp, s) @ obs
    report = cg_solve(
        restrict_laplacian(graph, comp, comp), rhs, tol=tol, max_iter=max_iter
    )
    out[comp.members] = report.solution
    return out
