"""The dense graph-convolution path that the neighbor-table path in
terasec.autodiff replaced, kept as the reference for the differential tests:
the adjacency and the propagation matrix as n x n arrays, the dense
normalization and its scan into a neighbor table, and
`Tensor(a_norm) @ features`.
"""
import numpy as np

from terasec.autodiff import DimensionError, NeighborTable, Tensor


def dense_adjacency(n: int, edges) -> np.ndarray:
    """The n x n 0/1 matrix of an undirected [E, 2] edge list, as the window
    set-up once built it."""
    a, b = np.asarray(edges, dtype=int).reshape(-1, 2).T
    adj = np.zeros((n, n))
    adj[a, b] = adj[b, a] = 1.0
    return adj


def normalized_adjacency(a: np.ndarray) -> np.ndarray:
    """Symmetric normalization D^{-1/2} (A + I) D^{-1/2} of a binary
    symmetric adjacency with zero diagonal."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not np.allclose(a, a.T):
        raise DimensionError("adjacency must be square and symmetric")
    a_tilde = a + np.eye(a.shape[0])
    d_inv_sqrt = 1.0 / np.sqrt(a_tilde.sum(axis=1))
    return d_inv_sqrt[:, None] * a_tilde * d_inv_sqrt[None, :]


def neighbor_table(a_norm: np.ndarray) -> NeighborTable:
    """Read-only neighbor table of an exactly symmetric matrix, each row's
    nonzeros in ascending column order."""
    a = np.asarray(a_norm, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not np.array_equal(a, a.T):
        raise DimensionError("propagation matrix must be square and exactly "
                             "symmetric")
    n = a.shape[0]
    rows, cols = np.nonzero(a)
    counts = np.bincount(rows, minlength=n)
    # position of each nonzero within its row: nonzero() is row-major
    pos = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
    idx = np.repeat(np.arange(n)[:, None], counts.max(initial=1), axis=1)
    weight = np.zeros(idx.shape)
    idx[rows, pos] = cols
    weight[rows, pos] = a[rows, cols]
    idx.setflags(write=False)
    weight.setflags(write=False)
    return NeighborTable(idx, weight)


def dense_matrix(table: NeighborTable) -> np.ndarray:
    """The n x n matrix a neighbor table holds (padding adds zeros)."""
    n = table.idx.shape[0]
    a = np.zeros((n, n))
    np.add.at(a, (np.arange(n)[:, None], table.idx), table.weight)
    return a


def permuted_table(table: NeighborTable, perm) -> NeighborTable:
    """The table of P A P^T for the node order `perm`."""
    a = dense_matrix(table)
    return neighbor_table(a[np.ix_(perm, perm)])


def dense_gcn_call(layer, features: Tensor, table: NeighborTable) -> Tensor:
    """GcnLayer.__call__ as it was: a dense n x n product."""
    a_norm = dense_matrix(table)
    if features.shape[0] != a_norm.shape[0]:
        raise DimensionError("feature row count must match the graph size")
    agg = Tensor(a_norm) @ features
    return (agg @ layer.w).tanh()
