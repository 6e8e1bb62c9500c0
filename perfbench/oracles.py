"""Correctness oracles for the benchmark's outputs.

Every check assembles its own graph operators with numpy and scipy and
never calls graphdenoise, so a defect in the library's solve code cannot
hide in the check as well.  Each check returns ``(ok, detail)``.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.spatial.distance import cdist

GAUSSIAN_RESIDUAL_TOL = 1e-8
HARMONIC_RESIDUAL_TOL = 1e-8
KKT_TOL = 1e-6  # relative to the penalty weight tau


def grid_laplacian(height: int, width: int) -> sp.csr_matrix:
    """Combinatorial Laplacian of the unit-weight 4-neighbour grid."""
    idx = np.arange(height * width).reshape(height, width)
    a = np.concatenate([idx[:, :-1].ravel(), idx[:-1, :].ravel()])
    b = np.concatenate([idx[:, 1:].ravel(), idx[1:, :].ravel()])
    return _laplacian(height * width, a, b, np.ones(a.size))


def knn_laplacian(points: np.ndarray, k: int) -> sp.csr_matrix:
    """Laplacian of the symmetrized adaptive-kernel k-NN graph the README describes.

    Affinity exp(-d^2 / (sigma_a sigma_b)) with sigma_a the distance to the
    k-th neighbour, distance ties broken by index, symmetrized as
    (W + W^T) / 2.
    """
    n = points.shape[0]
    dist = cdist(points, points)
    np.fill_diagonal(dist, np.inf)
    nbrs = np.argsort(dist, axis=1, kind="stable")[:, :k]
    sigma = np.maximum(dist[np.arange(n), nbrs[:, -1]], np.finfo(float).tiny)
    rows = np.repeat(np.arange(n), k)
    cols = nbrs.ravel()
    aff = np.exp(-dist[rows, cols] ** 2 / (sigma[rows] * sigma[cols]))
    w = sp.csr_matrix((aff, (rows, cols)), shape=(n, n))
    upper = sp.triu((w + w.T) / 2.0, k=1).tocoo()
    keep = upper.data > 0.0
    return _laplacian(n, upper.row[keep], upper.col[keep], upper.data[keep])


def _laplacian(n, a, b, w) -> sp.csr_matrix:
    adj = sp.csr_matrix(
        (np.concatenate([w, w]), (np.concatenate([a, b]), np.concatenate([b, a]))),
        shape=(n, n),
    )
    return (sp.diags(np.asarray(adj.sum(axis=1)).ravel()) - adj).tocsr()


def moment_tau(lap: sp.csr_matrix, g: np.ndarray) -> float | None:
    """Method-of-moments tau = sigma^2 / (1/(2 kappa)) from g'Lg and ||Lg||^2.

    Returns None when the 2x2 moment solve leaves the positive quadrant;
    the generators size their noise so that this does not happen.
    """
    n = lap.shape[0]
    lg = lap @ g
    m1, m2 = float(g @ lg), float(lg @ lg)
    tr = float(lap.diagonal().sum())
    tr2 = float(lap.multiply(lap).sum())
    det = tr * tr - (n - 1) * tr2
    sigma2 = (tr * m1 - (n - 1) * m2) / det
    inv2kappa = (tr * m2 - tr2 * m1) / det
    if sigma2 > 0.0 and inv2kappa > 0.0:
        return sigma2 / inv2kappa
    return None


def gaussian_check(lap, g, f, tau) -> tuple[bool, str]:
    """(I + tau L) f = g to a relative residual of 1e-8."""
    if tau is None:
        return False, "moment estimate left the positive quadrant"
    res = np.linalg.norm(f + tau * (lap @ f) - g) / np.linalg.norm(g)
    return bool(res <= GAUSSIAN_RESIDUAL_TOL), f"residual {res:.2e} at tau {tau:.6g}"


def harmonic_check(lap, known: np.ndarray, g, f) -> tuple[bool, str]:
    """Known entries bitwise, L f = 0 on the complement, maximum principle."""
    if not np.array_equal(f[known], g[known]):
        return False, "a trusted entry changed"
    unknown = ~known
    if not unknown.any():
        return True, "nothing to fill"
    rhs = lap[unknown][:, known] @ f[known]
    res = np.linalg.norm(lap[unknown] @ f) / max(np.linalg.norm(rhs), np.finfo(float).tiny)
    lo, hi = f[known].min(), f[known].max()
    slack = 1e-9 * max(abs(lo), abs(hi), 1.0)
    bounded = f[unknown].min() >= lo - slack and f[unknown].max() <= hi + slack
    ok = res <= HARMONIC_RESIDUAL_TOL and bounded
    return bool(ok), f"residual {res:.2e}, maximum principle {'holds' if bounded else 'broken'}"


def lasso_check(lap, zeta: np.ndarray, g, f, tau) -> tuple[bool, str]:
    """Trusted entries bitwise and the KKT conditions of the zeta LASSO.

    The objective is ||B(:, zeta) x + B g||^2 + tau ||x||_1 with
    f = g + x on zeta, so its gradient on zeta is 2 (L f)(zeta).
    """
    if not np.array_equal(f[~zeta], g[~zeta]):
        return False, "a trusted entry changed"
    grad = 2.0 * (lap @ f)[zeta]
    x = f[zeta] - g[zeta]
    viol = np.where(x != 0.0, np.abs(grad + tau * np.sign(x)), np.maximum(np.abs(grad) - tau, 0.0))
    worst = float(viol.max()) if viol.size else 0.0
    return bool(worst <= KKT_TOL * tau), f"KKT violation {worst:.2e} (tau {tau:.6g})"


def l0_check(lap, zeta: np.ndarray, g, f, tau) -> tuple[bool, str]:
    """Trusted entries bitwise and an l0 objective no worse than x = 0."""
    if not np.array_equal(f[~zeta], g[~zeta]):
        return False, "a trusted entry changed"
    obj = float(f @ (lap @ f)) + tau * int(np.count_nonzero(f[zeta] != g[zeta]))
    obj0 = float(g @ (lap @ g))
    ok = obj <= obj0 + 1e-9 * max(1.0, abs(obj0))
    return bool(ok), f"objective {obj:.6g} vs {obj0:.6g} at x=0"


def uniform_loss(lap, f, kappa) -> float:
    nz = f != 0.0
    return kappa * float(f @ (lap @ f)) + float(np.sum(np.log(np.abs(f[nz]))))


def ccp_check(lap, g, f, kappa) -> tuple[bool, str]:
    """Output inside the sign/magnitude box, loss no higher than at g."""
    in_box = (
        np.all(f[g > 0] >= g[g > 0])
        and np.all(f[g < 0] <= g[g < 0])
        and np.all(f[g == 0] == 0.0)
    )
    loss, loss0 = uniform_loss(lap, f, kappa), uniform_loss(lap, g, kappa)
    ok = in_box and loss <= loss0
    return bool(ok), f"box {'holds' if in_box else 'broken'}, loss {loss:.6g} vs {loss0:.6g} at g"


def relative_error(truth, estimate) -> float:
    return float(np.linalg.norm(estimate - truth) / np.linalg.norm(truth))
