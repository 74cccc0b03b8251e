"""The dense graph-convolution path that the neighbor-table path in
terasec.autodiff replaced, kept as the reference for the differential tests:
the propagation matrix as an n x n array and `Tensor(a_norm) @ features`.
"""
import numpy as np

from terasec.autodiff import (DimensionError, NeighborTable, Tensor,
                              neighbor_table)


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
