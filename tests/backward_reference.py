"""The backward sweep that Tensor.backward's freeing walk replaced, kept as
the reference for the differential tests: it sums the same gradients in
the same order and leaves the whole graph in place, every intermediate
.grad included.

Also `tensor_sum`, the scalar root of the gradient checks, which was
Tensor.sum until no code in terasec called it; `scale`, which was
Tensor.__mul__ and __rmul__ until no code in terasec called them;
`concat_cols`, `scatter_rows` and `chain_critic_input`: the generic ops and
the chain of nine that laid out the critic's input before
GrantAgent.critic_input; `reshape` and `slice_cols`, which were Tensor
methods until the dense critic read its live inputs through one op,
_FlatCritic.live_row; and `mse`, the critic's loss op until the TD step
seeded its backward pass with the loss's gradient in Q."""
import numpy as np

from terasec.autodiff import DimensionError, GraphStateError, Tensor


def tensor_sum(t: Tensor) -> Tensor:
    """The sum of t's elements as a [1, 1] graph op."""
    return Tensor._make(
        np.array([[t.data.sum()]]), (t,),
        lambda g: (np.full_like(t.data, np.asarray(g).item()),))


def scale(t: Tensor, s) -> Tensor:
    """t times the scalar s as a graph op."""
    s = float(s)
    return Tensor._make(t.data * s, (t,), lambda g: (g * s,))


def mse(pred: Tensor, target: Tensor) -> Tensor:
    """Mean squared error against a constant target; a scalar tensor."""
    if pred.shape != target.shape:
        raise DimensionError("mse shape mismatch")
    diff = pred.data - target.data
    n = diff.size
    return Tensor._make(np.array([[np.mean(diff**2)]]), (pred,),
                        lambda g: (2.0 * diff / n * np.asarray(g).item(),))


def reshape(t: Tensor, rows, cols) -> Tensor:
    """t's entries, row by row, as a [rows, cols] graph op."""
    return Tensor._make(t.data.reshape(rows, cols), (t,),
                        lambda g: (g.reshape(t.shape),))


def slice_cols(t: Tensor, cols) -> Tensor:
    """t's columns cols (a slice, or an index array of unique columns)."""
    def vjp(g):
        buf = np.zeros_like(t.data)
        buf[:, cols] = g
        return (buf,)

    return Tensor._make(t.data[:, cols], (t,), vjp)


def concat_cols(tensors):
    """Column-wise concatenation of tensors sharing the row count."""
    rows = tensors[0].shape[0]
    if any(t.shape[0] != rows for t in tensors):
        raise DimensionError("concat_cols requires matching row counts")
    widths = [t.shape[1] for t in tensors]
    offsets = np.concatenate([[0], np.cumsum(widths)])
    data = np.concatenate([t.data for t in tensors], axis=1)
    return Tensor._make(data, tuple(tensors), lambda g: [
        g[:, lo:hi] for lo, hi in zip(offsets[:-1], offsets[1:])])


def scatter_rows(t: Tensor, idx, n_rows) -> Tensor:
    """t's rows placed at positions idx of a zero [n_rows, d]."""
    idx = np.asarray(idx, dtype=int)
    out = np.zeros((n_rows, t.shape[1]))
    out[idx] = t.data
    return Tensor._make(out, (t,), lambda g: (g[idx],))


def chain_critic_input(agent, f_to, f_ot, tensors) -> Tensor:
    """agent.critic_input(f_to, f_ot, tensors) as nine generic ops: each
    head's action columns sliced off, each phase's concatenated, the
    offloading phase's scattered to the source rows, and both phases'
    features and actions concatenated."""
    n_to = len(agent.spec_to)
    act_to, act_ot = (
        concat_cols([slice_cols(t, slice(cols))
                     for t, (_, _, cols, _) in zip(ts, spec)])
        for ts, spec in ((tensors[:n_to], agent.spec_to),
                         (tensors[n_to:], agent.spec_ot)))
    act_to = scatter_rows(act_to, agent.sub.rows, f_to.shape[0])
    return concat_cols([Tensor(f_to), Tensor(f_ot), act_to, act_ot])


def graph_nodes(root) -> list:
    """Every tensor of root's recorded graph, in post-order."""
    topo, seen = [], {id(root)}
    stack = [(root, iter(root._parents))]
    while stack:
        t, parents = stack[-1]
        for p in parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append((p, iter(p._parents)))
                break
        else:
            stack.pop()
            topo.append(t)
    return topo


def reference_backward(root, seed=None):
    """root.backward(seed) as it was before the walk freed the graph."""
    if not root.requires_grad:
        raise GraphStateError("backward on a tensor with no recorded graph")
    topo = graph_nodes(root)
    if seed is None:
        if root.data.size != 1:
            raise GraphStateError("implicit seed requires a scalar output")
        seed = np.ones_like(root.data)
    root._accumulate(np.asarray(seed, dtype=np.float64).reshape(root.data.shape))
    walk_from(root, topo)


def walk_from(root, topo=None):
    """The sweep of reference_backward from root's .grad as it stands: a
    .grad set by hand reaches root's op with its -0.0s and NaNs, where a
    seed would be added to a zero buffer first."""
    for t in reversed(graph_nodes(root) if topo is None else topo):
        if t._vjp is not None:
            for p, g in zip(t._parents, t._vjp(t.grad)):
                if g is not None and p.requires_grad:
                    p._accumulate(g, t._owned)
