"""Preconditioned conjugate-gradient solving of the package's SPD systems.

Every estimator in the package reduces to the Gaussian filter's scaled
system (a*I + b*L) u = r or to a principal Laplacian submatrix
L(U, U) x = r, posed by :func:`~graphdenoise.graphs.dirichlet_system`;
the l0 support search's normal equations G(S, S) x = c(S) are of the
second kind, G being L(zeta, zeta).  Each is a
:class:`~graphdenoise.graphs.CsrMatrix`, handed to :func:`cg_solve`,
scale-free Jacobi-preconditioned CG from x = 0; on a grid graph
:func:`~graphdenoise.gaussian.denoise_gaussian` solves the first exactly.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import (
    InvalidArgumentError,
    NotPositiveDefiniteError,
    NumericalFailureError,
    overflow_guard,
)
from .graphs import (
    CsrMatrix,
    Graph,
    as_mask,
    as_signal,
    check_tol,
    dirichlet_system,
    pow2_exponent,
)
from .result import DenoiseResult

__all__ = ["cg_solve", "harmonic_interpolate"]


def cg_solve(
    matrix: CsrMatrix,
    b,
    tol: float = 1e-10,
    max_iter: int | None = None,
) -> DenoiseResult:
    """Solve matrix x = b for a symmetric positive definite sparse matrix:
    a :class:`~graphdenoise.graphs.CsrMatrix`, or any object with ``@``,
    ``diagonal()`` and ``shape``.

    CG is exactly equivariant under a power of two, so b is scaled by one
    to max|b| in [1/2, 1), and x back: the result is scale-free and bitwise
    the unscaled solve's wherever that stays in range.  Stops at a relative
    residual of ``tol``; the result's ``trace`` holds the relative residual
    after each iteration.  If the tolerance is not met within ``max_iter``
    (default 10n) iterations, the best iterate is returned with
    ``converged=False``.  ``b`` must pass :func:`as_signal`.  Raises
    :class:`NotPositiveDefiniteError` on a nonpositive diagonal entry or a
    direction of nonpositive curvature, and :class:`NumericalFailureError`
    when an iterate overflows.
    """
    n = matrix.shape[0]
    b = as_signal(b, n)
    check_tol(tol)
    if max_iter is None:
        max_iter = 10 * n
    diag = matrix.diagonal()
    if np.any(diag <= 0.0):
        raise NotPositiveDefiniteError(
            f"matrix is not positive definite (diagonal minimum {diag.min():.3e})"
        )
    exp = pow2_exponent(b)
    b = np.ldexp(b, -exp)
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
        ap = matrix @ p
        pap = float(np.dot(p, ap))
        if not np.isfinite(pap):
            raise NumericalFailureError("CG produced a non-finite curvature")
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
            raise NumericalFailureError("CG residual diverged")
        if relres < best_res:
            best_x, best_res = x, relres
        z = minv * r
        rz_new = float(np.dot(r, z))
        beta = rz_new / rz
        rz = rz_new
        p = z + beta * p
    # at convergence the last iterate is the best one
    return DenoiseResult(
        signal=np.ldexp(best_x, exp),
        iterations=k,
        trace=np.asarray(history),
        converged=relres <= tol,
    )


def harmonic_interpolate(
    graph: Graph,
    known,
    obs,
    tol: float = 1e-10,
) -> DenoiseResult:
    """Extend values on the known vertices to the whole graph with minimal energy.

    ``known`` is a length-n boolean mask and ``obs`` holds the known values
    in ascending vertex order (``signal[known]``), checked by
    :func:`as_signal`.  On the rest every output value is the
    degree-weighted average of its neighbors, so the result obeys the
    maximum principle.  Returns the :func:`cg_solve` result of the
    :func:`dirichlet_system` of the unknown set, posed on ``obs`` scaled by
    :func:`pow2_exponent`, with the full-length signal.
    An empty known set is an :class:`InvalidArgumentError`.
    """
    known = as_mask(known, graph.n)
    n_known = int(np.count_nonzero(known))
    if n_known == 0:
        raise InvalidArgumentError("cannot interpolate from an empty known set")
    obs = as_signal(obs, n_known)
    exp = pow2_exponent(obs)
    out = np.zeros(graph.n)
    out[known] = np.ldexp(obs, -exp)
    unknown = ~known
    with overflow_guard("harmonic interpolation"):
        system, rhs, _ = dirichlet_system(graph, out, unknown)
        fit = cg_solve(system, rhs, tol=tol)
        out[unknown] = np.ldexp(fit.signal, exp)
    out[known] = obs  # as given: scaled down and back, a subnormal would round
    return dataclasses.replace(fit, signal=out)
