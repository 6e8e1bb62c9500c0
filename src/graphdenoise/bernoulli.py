"""Denoising of partial observations and Bernoulli dropout.

Given a suspicion set zeta of vertices whose observations may have been
replaced (each independently with probability p), the estimate keeps the
trusted complement bitwise and adjusts only f(zeta) = g(zeta) + x, where x
minimizes f'Lf + tau * penalty(x), with penalty the l1 norm (LASSO via
coordinate descent) or the l0 count (deterministic stepwise search).  As
the regression ||A x - y||^2 with A = B(:, zeta) and y = -B g (B the
incidence matrix, L = B'B), the solvers take it in Gram form:
G = A'A = L(zeta, zeta), a :class:`~graphdenoise.graphs.CsrMatrix`, and
c = A'y = -(L g)(zeta).  The penalty weight
tau = (log(1-p) - log p) / kappa is nonpositive once p >= 1/2; in that
regime nothing inside zeta is trusted and the estimate is the harmonic
interpolation of the complement's values, matching the known-set case.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import InvalidArgumentError, NotPositiveDefiniteError, overflow_guard
from .graphs import (
    CsrMatrix,
    Graph,
    as_mask,
    as_signal,
    check_kappa,
    check_tol,
    dirichlet_system,
)
from .result import DenoiseResult
from .solvers import cg_solve, harmonic_interpolate

__all__ = [
    "bernoulli_denoise",
    "dropout_penalty",
    "lasso_coordinate_descent",
    "l0_greedy",
    "lasso_kkt_violation",
]

MODES = ("l1", "l0")


def dropout_penalty(p: float, kappa: float) -> float:
    """The dropout model's sparsity weight tau = (log(1-p) - log p) / kappa.

    ``p`` is the dropout probability in (0, 1) and ``kappa`` the finite,
    positive prior smoothness weight; the weight is nonpositive once p >= 1/2.
    """
    if not (0.0 < p < 1.0):
        raise InvalidArgumentError("p must be in (0, 1)")
    check_kappa(kappa)
    return (math.log(1.0 - p) - math.log(p)) / kappa


def _sparse_result(x: np.ndarray, iterations: int, converged: bool) -> DenoiseResult:
    """The deviation x hard-thresholded at 1e-10; its support is what it moves."""
    x[np.abs(x) < 1e-10] = 0.0
    return DenoiseResult(x, iterations, converged=converged, support=np.flatnonzero(x))


def _linear_term(gram, linear) -> np.ndarray:
    """The linear term as a vector, checked by :func:`as_signal` to match
    the Gram matrix, which must be a :class:`CsrMatrix`."""
    if not isinstance(gram, CsrMatrix):
        raise InvalidArgumentError(
            f"gram must be a graphdenoise CsrMatrix, got {type(gram).__name__}"
        )
    return as_signal(linear, gram.shape[0])


def _colour_classes(gram: CsrMatrix) -> list[np.ndarray]:
    """Greedy colouring of the coordinates with a stored Gram entry.

    Two coordinates conflict when their entry of the symmetric Gram matrix
    is stored (for G = A'A: their columns of A share a nonzero row); in
    index order, each takes the smallest colour no conflicting coordinate
    holds.  Returns the classes in colour order, each sorted by index.
    """
    colour = np.full(gram.shape[0], -1, dtype=np.int64)
    for j in np.flatnonzero(np.diff(gram.indptr)):
        lo, hi = gram.indptr[j], gram.indptr[j + 1]
        taken = colour[gram.indices[lo:hi]]
        free = np.ones(hi - lo + 1, dtype=bool)
        free[taken[(taken >= 0) & (taken <= hi - lo)]] = False
        colour[j] = int(np.argmax(free))
    return [np.flatnonzero(colour == c) for c in range(int(colour.max(initial=-1)) + 1)]


def lasso_coordinate_descent(
    gram,
    linear,
    tau: float,
    tol: float = 1e-10,
    max_sweeps: int = 1000,
) -> DenoiseResult:
    """Colour-class coordinate descent for ||A x - y||^2 + tau * ||x||_1.

    The problem is given in Gram form, the symmetric G = A'A as a
    :class:`CsrMatrix` and c = A'y.  The coordinates are coloured so that
    no two of one class interact in G (:func:`_colour_classes`), so a class
    is updated in one vectorised soft-threshold step and a sweep over the
    classes is cyclic coordinate descent in colour-class order (Bradley et
    al., ICML 2011).
    The gradient half q = Gx - c is kept up to date (the covariance update
    of Friedman, Hastie and Tibshirani, JSS 2010), so a sweep costs
    O(nnz(G)).  The sweep stops once no coordinate moves by more than
    ``tol * max(1, max|x|)``; exhausting ``max_sweeps`` returns the last
    iterate with ``converged=False``.
    """
    if not tau > 0:
        raise InvalidArgumentError("tau must be positive")
    check_tol(tol)
    c = _linear_term(gram, linear)
    x = np.zeros(c.size)
    q = -c
    half_tau = tau / 2.0
    col_sq = gram.diagonal()
    classes = []
    slot = np.empty(c.size, dtype=np.int64)
    for cols in _colour_classes(gram):
        cols = cols[col_sq[cols] > 0.0]  # zero columns stay at 0
        # G(:, cols) as the Gram's entries in those columns, in CSR order
        entries = np.flatnonzero(np.isin(gram.indices, cols))
        slot[cols] = np.arange(cols.size)
        block = (gram.rows[entries], slot[gram.indices[entries]], gram.data[entries])
        classes.append((cols, block, col_sq[cols]))
    converged = False
    sweeps = 0
    for sweeps in range(1, max_sweeps + 1):
        max_delta = 0.0
        for cols, (rows, at, values), sq in classes:
            rho = sq * x[cols] - q[cols]
            xc = np.sign(rho) * np.maximum(np.abs(rho) - half_tau, 0.0) / sq
            delta = xc - x[cols]
            q += np.bincount(rows, values * delta[at], c.size)
            x[cols] = xc
            max_delta = max(max_delta, float(np.max(np.abs(delta), initial=0.0)))
        if max_delta <= tol * max(1.0, float(np.max(np.abs(x), initial=0.0))):
            converged = True
            break
    return _sparse_result(x, sweeps, converged)


def lasso_kkt_violation(gram, linear, tau: float, x) -> float:
    """Worst-coordinate KKT violation of ||A x - y||^2 + tau * ||x||_1 at x,
    given G = A'A and c = A'y: the gradient of the fit is 2(Gx - c)."""
    c = _linear_term(gram, linear)
    x = as_signal(x, c.size)
    grad = 2.0 * (gram @ x - c)
    violation = np.where(
        x != 0.0,
        np.abs(grad + tau * np.sign(x)),
        np.maximum(np.abs(grad) - tau, 0.0),
    )
    return float(np.max(violation, initial=0.0))


class _StepwiseSearch:
    """Deterministic stepwise support search for the l0-penalized objective.

    Works in coefficient space: each refit is a CG solve of G(S, S) x = c(S)
    with G = A'A and c = A'y, and the correlations are A'r = c - G(:, S) x.
    Each fit is scored by its true residual ``energy(x)`` = ||A x - y||^2,
    which stays right for a fit that stopped short, where x'Gx - 2c'x does
    not.
    """

    # designs wider than this skip the expensive full-support and
    # complement descents; the pairwise stall escape is always capped
    SMALL_DESIGN = 64
    PAIR_CANDIDATES = 12
    N_SINGLE_STARTS = 7

    def __init__(self, gram, c, tau, energy):
        self.gram, self.c, self.energy = gram, c, energy
        self.p = c.size
        col_sq = gram.diagonal()
        self.usable = col_sq > 0.0
        self.col_sq = np.where(self.usable, col_sq, 1.0)
        self.tau = tau
        self.moves = 0
        self.fits: dict[tuple[int, ...], tuple[np.ndarray, float, bool]] = {}

    def refit(self, support):
        """The sorted support and its least-squares coefficients.

        The search revisits the same supports many times, so each fit is
        kept (read-only), with its residual sum of squares and whether it
        converged, for the life of the search.  A fit that stops short, at
        the CG cap (best iterate kept) or at nonpositive curvature (zero
        coefficients kept), has not converged.
        """
        key = tuple(sorted(support))
        if key not in self.fits:
            if not key:
                x, converged = np.empty(0), True
            else:
                s = list(key)
                try:
                    fit = cg_solve(
                        self.gram.principal(s),
                        self.c[s],
                        tol=1e-12,
                        max_iter=max(200, 10 * len(s)),
                    )
                    x, converged = fit.signal, fit.converged
                except NotPositiveDefiniteError:
                    x, converged = np.zeros(len(s)), False
            x.flags.writeable = False
            full = np.zeros(self.p)
            full[list(key)] = x
            self.fits[key] = (x, float(self.energy(full)), converged)
        return list(key), self.fits[key][0]

    def rss(self, s):
        return self.fits[tuple(s)][1]

    def correlation(self, s, x):
        """A'r for the residual r of the fit (s, x)."""
        full = np.zeros(self.p)
        full[s] = x
        return self.c - self.gram @ full

    def objective(self, support):
        s, x = self.refit(support)
        return self.rss(s) + self.tau * len(s)

    def gains(self, support, corr):
        g = np.where(self.usable, corr**2 / self.col_sq, -np.inf)
        if support:
            g[sorted(support)] = -np.inf
        return g

    def forward(self, support):
        support = list(support)
        s, x = self.refit(support)
        while len(support) < self.p:
            g = self.gains(support, self.correlation(s, x))
            j = int(np.argmax(g))
            if g[j] >= self.tau:
                support.append(j)
                self.moves += 1
                s, x = self.refit(support)
                continue
            # single additions stalled: try the best pair among the
            # strongest remaining candidates
            cand = [
                int(c)
                for c in np.argsort(-g, kind="stable")[: self.PAIR_CANDIDATES]
                if np.isfinite(g[c])
            ]
            cur = self.rss(s) + self.tau * len(support)
            best = (cur, None)
            for i in range(len(cand)):
                for j2 in range(i + 1, len(cand)):
                    o = self.objective(support + [cand[i], cand[j2]])
                    if o < best[0] - 1e-12:
                        best = (o, (cand[i], cand[j2]))
            if best[1] is None:
                break
            support.extend(best[1])
            self.moves += 1
            s, x = self.refit(support)
        return support

    def prune(self, support):
        support = list(support)
        while support:
            cur = self.objective(support)
            best = (cur, None)
            for j in support:
                o = self.objective([t for t in support if t != j])
                if o < best[0] - 1e-12:
                    best = (o, j)
            if best[1] is None:
                break
            support.remove(best[1])
            self.moves += 1
        return support

    def swap(self, support):
        support = list(support)
        for _ in range(20):
            s, x = self.refit(support)
            cur = self.rss(s) + self.tau * len(s)
            corr = np.abs(self.correlation(s, x))
            corr[s] = -np.inf
            cand = np.argsort(-corr, kind="stable")
            improved = False
            for j in list(support):
                for c in cand:
                    c = int(c)
                    if c in support or not self.usable[c]:
                        continue
                    o = self.objective([t for t in support if t != j] + [c])
                    if o < cur - 1e-12:
                        support.remove(j)
                        support.append(c)
                        self.moves += 1
                        improved = True
                        break
                if improved:
                    break
            if not improved:
                break
        return support

    def run(self):
        g0 = self.gains([], self.c)
        order = np.argsort(-g0, kind="stable")
        # forward selection from [] adds order[0] first and then follows
        # the first single start, so it runs only when no single qualifies
        starts = [
            [int(j)] for j in order[: self.N_SINGLE_STARTS] if g0[j] >= self.tau
        ] or [[]]
        small = self.p <= self.SMALL_DESIGN
        columns = np.flatnonzero(self.usable).tolist()
        if small:
            starts.append(columns)
        best = (self.objective([]), [])  # x = 0
        for start in starts:
            base = self.prune(start) if len(start) > 1 else self.forward(start)
            candidates = [base]
            if small:
                candidates.append([j for j in columns if j not in base])
            for cand in candidates:
                t = self.prune(cand)
                if small:
                    t = self.prune(self.swap(t))
                o = self.objective(t)
                if o < best[0]:
                    best = (o, sorted(t))
        return best[1]


def l0_greedy(gram, linear, tau: float, energy) -> DenoiseResult:
    """Deterministic stepwise search for ||A x - y||^2 + tau * ||x||_0.

    The problem is given in Gram form, G = A'A as a :class:`CsrMatrix` and
    c = A'y, plus ``energy(x)``, which returns the residual ||A x - y||^2 of
    a full-length x; supports are ranked by it.  Forward selection drives the search:
    repeatedly add the coordinate with the largest residual reduction (its
    squared correlation with the residual over G_jj), refit least squares
    on the support with :func:`cg_solve` on the support's rows and columns
    of G, and stop when no single addition gains at least tau.  Plain
    forward selection is easily trapped, so the search also restarts from
    the strongest single columns, prunes unhelpful members, escapes stalls
    with bounded pairwise additions, and, on designs of at most 64 columns,
    descends from the full support (of the nonzero columns) and from
    complements of found supports with bounded exchange moves.  Zero columns never enter a
    support.  Supports are ranked by their true objective, x = 0 being the
    first candidate, so the result is never worse than x = 0; it reports
    ``converged=False`` when its support's least-squares fit stopped short.
    Still a heuristic: global optimality is not guaranteed.
    """
    if not tau > 0:
        raise InvalidArgumentError("tau must be positive")
    c = _linear_term(gram, linear)
    search = _StepwiseSearch(gram, c, tau, energy)
    s, coeffs = search.refit(search.run())
    x = np.zeros(c.size)
    x[s] = coeffs
    # a full-support design with A * 1 = 0 (so G * 1 = 0) leaves the
    # coefficient mean free; pin the minimal-norm representative
    if s and len(s) == c.size:
        ones = np.ones(c.size)
        if float(np.max(np.abs(gram @ ones))) <= 1e-12 * max(
            1.0, float(np.max(np.abs(gram.data), initial=0.0))
        ):
            x -= x.mean()
    return _sparse_result(x, search.moves, search.fits[tuple(s)][2])


def bernoulli_denoise(
    g_signal, graph: Graph, zeta, tau: float, mode: str = "l1"
) -> DenoiseResult:
    """Dropout-model estimate; trusted vertices are passed through bitwise.

    ``zeta`` is the length-n boolean suspicion mask and ``tau`` the penalty
    weight (:func:`dropout_penalty` of (p, kappa)); ``mode`` picks the l1 or
    l0 penalty.  With a positive penalty (p < 1/2) the suspicious entries
    move by the sparse-regression deviation; with a nonpositive penalty
    (p >= 1/2) every suspicious entry is refilled by harmonic interpolation
    from the trusted complement.  An all-true mask suspects every vertex.
    The result's ``support`` holds the vertices moved: the regression's
    support, or every suspect on the refill.
    """
    if mode not in MODES:
        raise InvalidArgumentError(f"mode must be one of {MODES}, got {mode!r}")
    g = as_signal(g_signal, graph.n)
    zeta = as_mask(zeta, graph.n)
    suspects = np.flatnonzero(zeta)
    if suspects.size == 0:
        return DenoiseResult(signal=g.copy(), iterations=0, support=suspects)
    if tau <= 0.0:
        trusted = ~zeta
        fit = harmonic_interpolate(graph, trusted, g[trusted])
        return dataclasses.replace(fit, support=suspects)

    with overflow_guard("dropout arithmetic"):
        gram, linear, energy = dirichlet_system(graph, g, zeta)
        if mode == "l1":
            update = lasso_coordinate_descent(gram, linear, tau)
        else:
            update = l0_greedy(gram, linear, tau, energy)
        f = g.copy()
        f[zeta] += update.signal
    return dataclasses.replace(update, signal=f, support=suspects[update.support])
