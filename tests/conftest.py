"""Shared fixtures and independent dense oracles for the test suite.

The oracles here deliberately avoid the library's sparse code paths: dense
matrices are assembled straight from the edge list, connectivity is checked
by union-find, and least squares goes through numpy.  Tests compare the
production implementations against these.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from graphdenoise import CsrMatrix, Graph, build_grid_graph, l0_greedy


def dense_adjacency(g: Graph) -> np.ndarray:
    a = np.zeros((g.n, g.n))
    for u, v, w in zip(g.edge_a, g.edge_b, g.edge_w):
        a[u, v] += w
        a[v, u] += w
    return a


def dense_laplacian(g: Graph) -> np.ndarray:
    a = dense_adjacency(g)
    return np.diag(a.sum(axis=1)) - a


def dense_incidence(g: Graph) -> np.ndarray:
    """The oriented incidence matrix B, one row per edge, with +sqrt(w) at
    the lower id and -sqrt(w) at the higher, so that L = B'B."""
    b = np.zeros((g.edge_w.size, g.n))
    for e, (u, v, w) in enumerate(zip(g.edge_a, g.edge_b, g.edge_w)):
        b[e, u] = np.sqrt(w)
        b[e, v] = -np.sqrt(w)
    return b


def as_scipy(m: CsrMatrix) -> sp.csr_matrix:
    """The scipy copy of a CsrMatrix, entry for entry."""
    return sp.csr_matrix((m.data, m.indices, m.indptr), shape=m.shape)


def shifted_laplacian(graph: Graph, d, tau: float) -> CsrMatrix:
    """The SPD system matrix diag(d) + tau*L, assembled by scipy from the
    Laplacian's entries and handed back as the package's CsrMatrix."""
    m = (sp.diags(d) + tau * as_scipy(graph.laplacian)).tocoo()
    return CsrMatrix.from_triplets(graph.n, m.row, m.col, m.data)


def gram_form(a: np.ndarray, y: np.ndarray):
    """The Gram-form arguments (A'A, A'y, energy) of ||A x - y||^2 on a
    design A, energy(x) being the residual ||A x - y||^2.  The products are
    sparse, as a sparse design's would be."""
    a = sp.csc_matrix(a)

    def energy(x):
        r = a @ x - y
        return float(r @ r)

    return (a.T @ a).tocsr(), a.T @ y, energy


def l0_on_design(a: np.ndarray, y: np.ndarray, tau: float):
    """``l0_greedy`` for ||A x - y||^2 + tau ||x||_0 on a dense design."""
    gram, c, energy = gram_form(a, y)
    return l0_greedy(gram, c, tau, energy)


def union_find_components(n: int, edges) -> int:
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    return len({find(v) for v in range(n)})


def random_connected_graph(n: int, extra: int, rng: np.random.Generator) -> Graph:
    """Random tree plus `extra` chords, weights in [0.5, 2]."""
    edges = []
    for v in range(1, n):
        u = int(rng.integers(0, v))
        edges.append((u, v, float(rng.uniform(0.5, 2.0))))
    have = {(min(u, v), max(u, v)) for u, v, _ in edges}
    tries = 0
    while len(edges) < n - 1 + extra and tries < 50 * (extra + 1):
        tries += 1
        u, v = sorted(int(x) for x in rng.integers(0, n, 2))
        if u == v or (u, v) in have:
            continue
        have.add((u, v))
        edges.append((u, v, float(rng.uniform(0.5, 2.0))))
    return Graph.from_edges(n, *zip(*edges))


def vertex_mask(n: int, ids) -> np.ndarray:
    """The length-n boolean mask of the vertex ids."""
    mask = np.zeros(n, dtype=bool)
    mask[list(ids)] = True
    return mask


@pytest.fixture
def p3() -> Graph:
    """Path on three vertices with unit weights."""
    return build_grid_graph(1, 3)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
