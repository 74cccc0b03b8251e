"""Code that terasec replaced, kept as the reference for the differential
tests.

The dense graph-convolution path that the neighbor-table path in
terasec.autodiff replaced: the adjacency and the propagation matrix as
n x n arrays, the dense normalization and its scan into a neighbor table,
and `Tensor(a_norm) @ features`.

The per-phase GCN actors that terasec.agent.GcnActor replaced, each with its
own hard-coded heads, their safe_init, and a GrantAgent built on them.  The
offloading actor computes its GCN layers on the sources' neighbourhood
alone, through `chain_sub_graph_call` below; the outcome actor computes its
last layer at every node and gathers the acting rows from it with
`gather_rows`, the op GcnLayer's former `rows` argument replaced.

The row path that terasec.autodiff.sub_graph's tables replaced:
`row_gcn_call`, GcnLayer.__call__ as it was with its `rows` argument, which
reads every row of the graph in its first layer and pads the input gradient
of a layer at some rows to full height (`_pad_rows`) before its neighbor
sum, and `_row_subset`, which checked the rows at every call.

The neighbor sum's first form, one k-loop over whole columns, which the
row-blocked terasec.autodiff._neighbor_sum replaced; like the kernel, it
adds the first term to a zero buffer.  `first_term_neighbor_sum` is that
loop as it was, started from the first term.

The three-op GCN layer (propagate, matmul, tanh) that the one-op
GcnLayer.__call__ replaced: `chain_gcn_call`, with its `propagate` op.
At some rows the chain's matmul takes the propagated rows alone, so its
weight gradient is their product with the output gradient.  Two such
layers read out at some rows run the first at the rows' neighbourhood and
scatter it to full height for the second: `chain_sub_graph_call`.

The scale, tanh and scale-back ops that the one-op agent.bound_logits
replaced: `chain_bound_logits`.
"""
import numpy as np

from terasec.agent import (LOGIT_BOUND, OFFLOAD_FEATURES, OUTCOME_FEATURES,
                           SKIP_LR_SCALE, CentralCritic, GrantAgent,
                           _actor_lr_scale, bound_logits, logit_bias)
from terasec.autodiff import (Adam, Dense, DimensionError, GcnLayer,
                              NeighborTable, Tensor, _neighbor_sum)

from backward_reference import scale, scatter_rows


def gather_rows(a: Tensor, idx) -> Tensor:
    """Rows idx of a (repeats allowed); the gradient is scattered back."""
    idx = np.asarray(idx, dtype=int)

    def vjp(g):
        buf = np.zeros_like(a.data)
        np.add.at(buf, idx, g)
        return (buf,)

    return Tensor._make(a.data[idx], (a,), vjp, owned=True)


def chain_bound_logits(z: Tensor) -> Tensor:
    """L * tanh(z / L) as three graph ops."""
    return scale(scale(z, 1.0 / LOGIT_BOUND).tanh(), LOGIT_BOUND)


def neighbor_sum(x: np.ndarray, table: NeighborTable) -> np.ndarray:
    """sum_k weight[:, k] * x[idx[:, k]], each k's term added in k order to
    a zero buffer over whole columns, so a row whose terms are all -0.0
    sums to +0.0."""
    idx, weight = table
    out = np.zeros((idx.shape[0], x.shape[1]))
    for k in range(idx.shape[1]):
        out += weight[:, k:k + 1] * x[idx[:, k]]
    return out


def first_term_neighbor_sum(x: np.ndarray,
                            table: NeighborTable) -> np.ndarray:
    """The whole-column k-loop as it was before it summed into a zero
    buffer: it starts from the first term, so a row whose terms are all
    -0.0 sums to -0.0."""
    idx, weight = table
    out = weight[:, :1] * x[idx[:, 0]]
    for k in range(1, idx.shape[1]):
        out += weight[:, k:k + 1] * x[idx[:, k]]
    return out


def _row_subset(rows, n: int) -> np.ndarray:
    """rows as an index array of unique rows of an n-row table."""
    rows = np.asarray(rows, dtype=np.intp)
    ordered = np.sort(rows.reshape(-1))
    if rows.ndim != 1 or np.any(np.diff(ordered) <= 0) or (
            rows.size and (ordered[0] < 0 or ordered[-1] >= n)):
        raise DimensionError(f"rows must be unique rows of the {n}-row graph")
    return rows


def _pad_rows(v: np.ndarray, rows, n: int) -> np.ndarray:
    """v's rows at positions rows of an n-row zero matrix."""
    out = np.zeros((n, v.shape[1]))
    out[rows] = v
    return out


def row_gcn_call(layer, features: Tensor, table: NeighborTable,
                 rows=None) -> Tensor:
    """GcnLayer.__call__ with its `rows` argument, as it was: F' over every
    row of the n-row graph, or F'[rows] from every row of F, its input
    gradient padded to full height before the neighbor sum."""
    x, w = features, layer.w
    n = table.idx.shape[0]
    if x.shape[0] != n:
        raise DimensionError("feature row count must match the graph size")
    read = table
    if rows is not None:
        rows = _row_subset(rows, n)
        read = NeighborTable(table.idx[rows], table.weight[rows])
    agg = _neighbor_sum(x.data, read)
    out = agg @ w.data
    np.tanh(out, out=out)
    kept = agg if w.requires_grad else None

    def vjp(g):
        nonlocal kept
        d = np.square(out)
        np.subtract(1.0, d, out=d)
        if g.flags.writeable and g.shape == out.shape:
            d = np.multiply(g, d, out=g)
        else:
            np.multiply(g, d, out=d)
        np.add(d, 0.0, out=d)
        gw = gx = None
        if kept is not None and w.requires_grad:
            gw = kept.T @ d
        kept = None
        if x.requires_grad:
            gx = d @ w.data.T
            np.add(gx, 0.0, out=gx)
            if rows is not None:
                gx = _pad_rows(gx, rows, n)
            gx = _neighbor_sum(gx, table,
                               out=d if d.shape == gx.shape else None)
        return gx, gw

    return Tensor._make(out, (x, w), vjp, owned=True)


def propagate(x, table: NeighborTable, rows=None) -> Tensor:
    """(A_norm @ x)[rows] for the matrix the table holds, computed for those
    rows only; rows=None reads every row.  A_norm is symmetric, so the
    gradient propagates through the same table, zero-padded to every row
    first."""
    if not isinstance(x, Tensor):
        x = Tensor(x)
    n = table.idx.shape[0]
    if x.shape[0] != n:
        raise DimensionError("feature row count must match the graph size")
    read = table
    if rows is not None:
        rows = _row_subset(rows, n)
        read = NeighborTable(table.idx[rows], table.weight[rows])

    def vjp(g):
        if rows is not None:
            g = _pad_rows(g, rows, n)
        return (_neighbor_sum(g, table),)

    return Tensor._make(_neighbor_sum(x.data, read), (x,), vjp, owned=True)


def chain_gcn_call(layer, features: Tensor, table: NeighborTable,
                   rows=None) -> Tensor:
    """GcnLayer.__call__ as three graph ops: propagate, matmul, tanh."""
    return (propagate(features, table, rows) @ layer.w).tanh()


def hop_rows(table: NeighborTable, rows) -> np.ndarray:
    """rows and their neighbors, ascending (padding points at the row)."""
    return np.unique(table.idx[np.asarray(rows, dtype=int)])


def chain_sub_graph_call(gcn1, gcn2, features: Tensor, table: NeighborTable,
                         rows) -> Tensor:
    """Two GcnLayers read out at rows as three-op chains: the first at the
    rows' neighbourhood (hop_rows), scattered to full height for the second,
    which reads only those rows of it."""
    hop = hop_rows(table, rows)
    h = scatter_rows(chain_gcn_call(gcn1, features, table, hop), hop,
                     table.idx.shape[0])
    return chain_gcn_call(gcn2, h, table, rows)


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


def dense_matrix(table: NeighborTable, cols=None) -> np.ndarray:
    """The [n, cols] matrix a neighbor table of n rows holds (padding adds
    zeros); cols=None: n."""
    n = table.idx.shape[0]
    a = np.zeros((n, n if cols is None else cols))
    np.add.at(a, (np.arange(n)[:, None], table.idx), table.weight)
    return a


def permuted_table(table: NeighborTable, perm) -> NeighborTable:
    """The table of P A P^T for the node order `perm`."""
    a = dense_matrix(table)
    return neighbor_table(a[np.ix_(perm, perm)])


def dense_gcn_call(layer, features: Tensor, table: NeighborTable,
                   back=None) -> Tensor:
    """GcnLayer.__call__ as it was, a dense product, over GcnLayer's tables:
    the rows of table, as a dense matrix over the input rows; its product's
    backward needs no back table, which sets the input row count alone."""
    n_in = (table if back is None else back).idx.shape[0]
    if features.shape[0] != n_in:
        raise DimensionError("feature row count must match the graph size")
    agg = Tensor(dense_matrix(table, n_in)) @ features
    return (agg @ layer.w).tanh()


class OffloadActor:
    """Shared GCN stack with offload / sub-array / power heads per source."""

    def __init__(self, rng, k_subbands, width=128):
        self.k = k_subbands
        self.gcn1 = GcnLayer(rng, OFFLOAD_FEATURES, width, "actor_to.gcn1")
        self.gcn2 = GcnLayer(rng, width, width, "actor_to.gcn2")
        self.head_offload = Dense(rng, width, 5, "actor_to.head_offload", 0.1)
        self.head_subarray = Dense(rng, width, 5, "actor_to.head_subarray", 0.1)
        self.head_power = Dense(rng, width, 4 * k_subbands + 1,
                                "actor_to.head_power", 0.1)

    def forward(self, features: np.ndarray, table: NeighborTable, source_rows):
        src = chain_sub_graph_call(self.gcn1, self.gcn2, Tensor(features),
                                   table, source_rows)
        offload = bound_logits(self.head_offload(src)).softmax_rows()
        subarray = bound_logits(self.head_subarray(src)).softmax_rows()  # 4 used + slack
        power = bound_logits(self.head_power(src)).softmax_rows()        # 4K used + slack
        return offload, subarray, power

    def parameters(self):
        return (self.gcn1.parameters() + self.gcn2.parameters()
                + self.head_offload.parameters() + self.head_subarray.parameters()
                + self.head_power.parameters())


class OutcomeActor:
    """Shared GCN stack with sub-array scalar and power heads per transmitter."""

    def __init__(self, rng, k_subbands, width=128):
        self.k = k_subbands
        self.gcn1 = GcnLayer(rng, OUTCOME_FEATURES, width, "actor_ot.gcn1")
        self.gcn2 = GcnLayer(rng, width, width, "actor_ot.gcn2")
        self.head_subarray = Dense(rng, width, 1, "actor_ot.head_subarray", 0.1)
        self.head_power = Dense(rng, width, k_subbands + 1,
                                "actor_ot.head_power", 0.1)

    def forward(self, features: np.ndarray, table: NeighborTable, tx_rows):
        emb = self.gcn2(self.gcn1(Tensor(features), table), table)
        tx = gather_rows(emb, tx_rows)
        subarray = bound_logits(self.head_subarray(tx)).sigmoid()
        power = bound_logits(self.head_power(tx)).softmax_rows()  # K used + slack
        return subarray, power

    def parameters(self):
        return (self.gcn1.parameters() + self.gcn2.parameters()
                + self.head_subarray.parameters() + self.head_power.parameters())


def safe_init(actor_to: OffloadActor, actor_ot: OutcomeActor) -> None:
    """Bias output heads so the initial policy spends nearly all resources
    and keeps tasks mostly local: slack logits at -4, self-offload logit +2,
    outcome sub-array sigmoid logit +4.  Biases are set in pre-bound space
    so the bounded logits hit the targets exactly at zero input."""
    actor_to.head_offload.b.data[:] = 0.0
    actor_to.head_offload.b.data[0, 0] = logit_bias(2.0)
    actor_to.head_subarray.b.data[:] = 0.0
    actor_to.head_subarray.b.data[0, -1] = logit_bias(-4.0)
    actor_to.head_power.b.data[:] = 0.0
    actor_to.head_power.b.data[0, -1] = logit_bias(-4.0)
    actor_ot.head_subarray.b.data[:] = logit_bias(4.0)
    actor_ot.head_power.b.data[:] = 0.0
    actor_ot.head_power.b.data[0, -1] = logit_bias(-4.0)


class PerPhaseGrantAgent(GrantAgent):
    """GrantAgent on OffloadActor, OutcomeActor and their safe_init."""

    def __init__(self, env, cfg):
        rng = self._bind(env, cfg)
        self.actor_to = OffloadActor(rng, self.k, cfg.hidden_width)
        self.actor_ot = OutcomeActor(rng, self.k, cfg.hidden_width)
        self.critic = CentralCritic(rng, self.k, cfg.hidden_width)
        safe_init(self.actor_to, self.actor_ot)
        self.actor_params = self.actor_to.parameters() + self.actor_ot.parameters()
        self.critic_params = self.critic.parameters()
        self.actor_opt = Adam(self.actor_params, cfg.actor_lr,
                              lr_scales=[_actor_lr_scale(p)
                                         for p in self.actor_params])
        self.critic_opt = Adam(self.critic_params, cfg.critic_lr,
                               lr_scales=[SKIP_LR_SCALE if "skip" in p.name
                                          else 1.0
                                          for p in self.critic_params])

    def actor_tensors(self, f_to: np.ndarray, f_ot: np.ndarray):
        offload, subarray, power = self.actor_to.forward(f_to, self.table,
                                                         self.sub.rows)
        ot_sub, ot_power = self.actor_ot.forward(
            f_ot, self.table, np.arange(len(self.env.involved)))
        return offload, subarray, power, ot_sub, ot_power
