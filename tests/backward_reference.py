"""The backward sweep that Tensor.backward's freeing walk replaced, kept as
the reference for the differential tests: it sums the same gradients in
the same order and leaves the whole graph in place, every intermediate
.grad included.

Also `tensor_sum`, the scalar root of the gradient checks, which was
Tensor.sum until no code in terasec called it."""
import numpy as np

from terasec.autodiff import GraphStateError, Tensor


def tensor_sum(t: Tensor) -> Tensor:
    """The sum of t's elements as a [1, 1] graph op."""
    return Tensor._make(
        np.array([[t.data.sum()]]), (t,),
        lambda g: (np.full_like(t.data, np.asarray(g).item()),))


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
    for t in reversed(topo):
        if t._vjp is not None:
            for p, g in zip(t._parents, t._vjp(t.grad)):
                if g is not None and p.requires_grad:
                    p._accumulate(g, t._owned)
