"""Minimal reverse-mode autodiff on float64 matrices, with the layers needed
by the actors and critic: dense (also stacked, one weight matrix per input
row), graph convolution, tanh and sigmoid, softmax heads and mean pooling,
plus the Adam optimizer and an .npz checkpoint format.
"""
from __future__ import annotations

import json
import os
import threading
import zipfile
from typing import NamedTuple

import numpy as np

CHECKPOINT_FORMAT = "terasec-params-v2"
#: how a checkpoint in the JSON format before CHECKPOINT_FORMAT begins
_V1_HEAD = b'{"format": "terasec-params-v1"'


class GraphStateError(RuntimeError):
    """backward() called without a recorded forward pass."""


class DimensionError(ValueError):
    pass


class CheckpointMismatchError(DimensionError):
    """A checkpoint lacks a tensor or has it in another shape (.meta: its meta)."""

    def __init__(self, message, meta):
        super().__init__(message)
        self.meta = meta


class RankOneGrad(NamedTuple):
    """A weight gradient whose every element is one product, held as its
    factors: the [B, d, o] batched outer product x[:, :, None] * g[:, None, :]
    of x [B, d] and g [B, o] (B = 1 for a [d, o] matrix).  It holds views of
    the forward input and the output gradient, so a product whose input is
    a Parameter, which an optimizer step changes in place, forms its
    gradient at once instead."""

    x: np.ndarray
    g: np.ndarray

    def formed(self, shape):
        """The whole gradient in shape, with the bits of a first gradient:
        the product plus 0.0."""
        out = np.empty(shape)
        self.fill(0, out.reshape(-1))
        return out

    def fill(self, lo, out):
        """out (1-D) := the flat elements lo:lo + out.size of the gradient,
        each the product plus 0.0; one call per run of whole matrices."""
        x, g = self
        d, n = x.shape[1], g.shape[1]
        at, end = 0, out.size
        while at < end:
            r, j = divmod(lo + at, n)
            b, i = divmod(r, d)
            if j or end - at < n:  # part of one row
                k = min(n - j, end - at)
                np.multiply(x[b, i], g[b, j:j + k], out=out[at:at + k])
            elif not i and end - at >= d * n:  # whole matrices from b
                mats = (end - at) // (d * n)
                k = mats * d * n
                np.multiply(x[b:b + mats, :, None], g[b:b + mats, None, :],
                            out=out[at:at + k].reshape(mats, d, n))
            else:  # whole rows of matrix b
                rows = min((end - at) // n, d - i)
                k = rows * n
                np.multiply(x[b, i:i + rows, None], g[b],
                            out=out[at:at + k].reshape(rows, n))
            at += k
        return np.add(out, 0.0, out=out)


class Tensor:
    """A float64 tensor participating in a recorded computation graph: a
    [rows, cols] matrix, or a [B, d, o] stack of weight matrices.

    .grad reads the accumulated gradient as an array.  A first gradient
    that is a RankOneGrad, a weight's in a product with one input row or in
    a rowwise product, is held as its factors until .grad is read or a
    second gradient arrives; Adam forms it block by block as it reads it."""

    __slots__ = ("data", "_grad", "requires_grad", "_parents", "_vjp",
                 "_owned")

    def __init__(self, data, requires_grad=False):
        self.data = np.atleast_2d(np.asarray(data, dtype=np.float64))
        self._grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._vjp = None
        self._owned = False

    @property
    def shape(self):
        return self.data.shape

    @property
    def grad(self):
        if isinstance(self._grad, RankOneGrad):
            self._grad = self._grad.formed(self.data.shape)
        return self._grad

    @grad.setter
    def grad(self, value):
        self._grad = value

    # -- graph bookkeeping -------------------------------------------------

    @staticmethod
    def _make(data, parents, vjp, owned=False):
        """An op's output.  vjp(g) returns one gradient per parent, None for
        a parent that needs none; owned: each is a fresh product that
        _accumulate may take over.  The graph is recorded only when some
        parent needs a gradient.  data is the op's float64 [rows, cols]
        array, taken as it is: Tensor() normalises outside input."""
        out = Tensor.__new__(Tensor)
        out.data, out._grad = data, None
        for p in parents:
            if p.requires_grad:
                out.requires_grad, out._parents = True, parents
                out._vjp, out._owned = vjp, owned
                return out
        out.requires_grad, out._parents, out._vjp, out._owned = (
            False, (), None, False)
        return out

    def _accumulate(self, g, owned=False):
        """Add g to .grad.  owned: g is a fresh product no one else holds, so
        the first gradient may take it over in place.  A first gradient of
        another shape (mean_rows's) is held as a read-only broadcast of
        g + 0.0; a second gradient then replaces it by the sum.
        A first RankOneGrad is held as it is by a leaf; a later one, or one
        for an op's output, is formed, so an op's output holds an array."""
        if isinstance(g, RankOneGrad):
            if self._grad is None and self._vjp is None:
                self._grad = g
                return
            g = g.formed(self.data.shape)
        grad = self.grad
        if grad is None:
            # the bits of a zero buffer plus g (-0.0 -> +0.0)
            if owned:
                self._grad = np.add(g, 0.0, out=g)
            elif g.shape == self.data.shape:
                self._grad = g + 0.0
            else:
                self._grad = np.broadcast_to(g + 0.0, self.data.shape)
        elif grad.flags.writeable:
            grad += g
        else:
            self._grad = grad + g

    def backward(self, seed):
        """Reverse-mode sweep from this tensor, seeded with seed (this
        tensor's gradient): each op's gradient for a parent that requires
        one at this time is added into its .grad.  The sweep frees the
        graph: an op's output drops its closure and parents before calling
        it, so no closure runs twice even after a walk that raised, and its
        .grad after; leaves keep .grad."""
        if not self.requires_grad:
            raise GraphStateError("backward on a tensor with no recorded graph")
        # iterative post-order over the op outputs (a leaf's parents are ()):
        # a recursive closure is a reference cycle that keeps the whole graph
        # alive until the cyclic collector runs
        topo, seen = [], {id(self)}
        stack = [(self, iter(self._parents or ()))]
        while stack:
            t, parents = stack[-1]
            for p in parents:
                if p._parents != () and id(p) not in seen:
                    seen.add(id(p))
                    stack.append((p, iter(p._parents or ())))
                    break
            else:
                stack.pop()
                if t._parents is None:
                    raise GraphStateError("backward through a walked graph")
                topo.append(t)
        self._accumulate(np.asarray(seed, dtype=np.float64).reshape(self.data.shape))
        while topo:
            t = topo.pop()
            if t._vjp is not None:
                parents, vjp, t._parents, t._vjp = t._parents, t._vjp, None, None
                for p, g in zip(parents, vjp(t._grad)):
                    if g is not None and p.requires_grad:
                        p._accumulate(g, t._owned)
                t._grad = None

    # -- operations ----------------------------------------------------------

    def __matmul__(self, other):
        a, b = self, other
        if a.shape[1] != b.shape[0]:
            raise DimensionError(f"matmul shapes {a.shape} x {b.shape}")

        def vjp(g):
            return (g @ b.data.T if a.requires_grad else None,
                    (RankOneGrad(a.data, g) if a.shape[0] == 1
                     and not isinstance(a, Parameter) else a.data.T @ g)
                    if b.requires_grad else None)

        return Tensor._make(a.data @ b.data, (a, b), vjp, owned=True)

    def rowwise_matmul(self, w):
        """Row i of this [B, d] tensor times its own matrix w[i] of a
        [B, d, o] stack: [B, o], each row with the bits of x[i:i+1] @ w[i]."""
        if w.data.ndim != 3 or self.shape != w.shape[:2]:
            raise DimensionError(
                f"rowwise matmul shapes {self.shape} x {w.shape}")

        def vjp(g):
            return (np.matmul(g[:, None, :], w.data.transpose(0, 2, 1))[:, 0, :]
                    if self.requires_grad else None,
                    (np.matmul(self.data[:, :, None], g[:, None, :])
                     if isinstance(self, Parameter) else
                     RankOneGrad(self.data, g)) if w.requires_grad else None)

        return Tensor._make(np.matmul(self.data[:, None, :], w.data)[:, 0, :],
                            (self, w), vjp, owned=True)

    def __add__(self, other):
        a, b = self, other

        def vjp(g):
            return (_unbroadcast(g, a.shape) if a.requires_grad else None,
                    _unbroadcast(g, b.shape) if b.requires_grad else None)

        return Tensor._make(a.data + b.data, (a, b), vjp)

    def tanh(self):
        out_data = np.tanh(self.data)

        def vjp(g):
            # g * (1 - out**2), in one buffer
            d = np.square(out_data)
            np.subtract(1.0, d, out=d)
            return (np.multiply(g, d, out=d),)

        return Tensor._make(out_data, (self,), vjp, owned=True)

    def sigmoid(self):
        out_data = 1.0 / (1.0 + np.exp(-self.data))
        return Tensor._make(out_data, (self,),
                            lambda g: (g * out_data * (1.0 - out_data),))

    def softmax_rows(self):
        """Numerically stable row-wise softmax."""
        z = self.data - np.maximum.reduce(self.data, axis=1, keepdims=True)
        e = np.exp(z)
        out_data = e / np.add.reduce(e, axis=1, keepdims=True)

        def vjp(g):
            dot = np.add.reduce(g * out_data, axis=1, keepdims=True)
            return (out_data * (g - dot),)

        return Tensor._make(out_data, (self,), vjp)

    def mean_rows(self):
        """Mean over rows: [n, d] -> [1, d]."""
        n = self.shape[0]
        return Tensor._make(np.add.reduce(self.data, axis=0, keepdims=True) / n,
                            (self,), lambda g: (g / n,))


def _unbroadcast(g, shape):
    if shape[0] == 1 and g.shape[0] > 1:
        g = np.add.reduce(g, axis=0, keepdims=True)
    return g


# -- graph utilities ---------------------------------------------------------


class NeighborTable(NamedTuple):
    """A symmetric propagation matrix as padded per-row neighbor lists: row i
    holds weight[i, k] at column idx[i, k].  Rows narrower than the widest
    are padded with their own index at weight 0."""

    idx: np.ndarray      # [n, w] int
    weight: np.ndarray   # [n, w] float64


def normalized_adjacency(n: int, edges) -> NeighborTable:
    """Read-only neighbor table, rows in column order, of D^{-1/2} (A + I)
    D^{-1/2} for nodes 0..n-1 and undirected [E, 2] edges (repeats allowed).
    Degrees are exact integers and weights d_i * d_j: the dense path's bits."""
    edges = np.asarray(edges, dtype=np.int64)
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise DimensionError(f"edges must be [E, 2], got shape {edges.shape}")
    a, b = edges.T
    if np.any((np.minimum(a, b) < 0) | (np.maximum(a, b) >= n) | (a == b)):
        raise DimensionError(f"an edge must join two nodes of [0, {n})")
    # keys i * n + j of both directions and the self-loops, row-major and
    # deduplicated by sort (np.unique would import numpy.ma during set-up)
    keys = np.sort(np.concatenate([a * n + b, b * n + a, np.arange(n) * (n + 1)]))
    rows, cols = np.divmod(keys[np.diff(keys, prepend=-1) > 0], n)
    deg = np.bincount(rows, minlength=n)
    d = 1.0 / np.sqrt(deg)
    # position of each entry within its row: the keys are row-major
    pos = np.arange(rows.size) - np.repeat(np.cumsum(deg) - deg, deg)
    idx = np.repeat(np.arange(n)[:, None], deg.max(initial=1), axis=1)
    weight = np.zeros(idx.shape)
    idx[rows, pos] = cols
    weight[rows, pos] = d[rows] * d[cols]
    idx.setflags(write=False)
    weight.setflags(write=False)
    return NeighborTable(idx, weight)


#: term elements per neighbor-sum row block, about: the block's gathered
#: terms and its output rows stay in cache through the one summing pass
NEIGHBOR_BLOCK = 65536


def _neighbor_sum(x: np.ndarray, table: NeighborTable,
                  out: np.ndarray | None = None) -> np.ndarray:
    """sum_k weight[:, k] * x[idx[:, k]], each term added in k order to a
    zero buffer, in row blocks of equal height, as many as the terms hold
    NEIGHBOR_BLOCK elements (at least one).  Each block gathers its terms,
    k-major, into one reused buffer and sums them with one einsum, whose
    default unoptimized loop keeps that order and rounding.  out: an [n, d]
    buffer, not x, to write it into."""
    idx, weight = table
    (n, w), d = idx.shape, x.shape[1]
    if out is None:
        out = np.empty((n, d))
    blocks = max(1, round(n * w * d / NEIGHBOR_BLOCK))
    per = max(1, -(-n // blocks))
    term = np.empty(w * min(per, n) * d)
    for lo in range(0, n, per):
        ix = idx[lo:lo + per].T
        t = term[:ix.size * d].reshape(*ix.shape, d)
        x.take(ix, axis=0, out=t, mode="clip")
        np.einsum("mk,kmj->mj", weight[lo:lo + per], t, out=out[lo:lo + per])
    return out


class SubGraph(NamedTuple):
    """Two GCN layers of a symmetric graph read out at some rows alone.  A
    two-layer GCN's output at a row depends only on the row's two-hop
    neighbourhood, so the first layer runs at `hop` and the last at `rows`.
    Each layer's pair (table, back) is GcnLayer's: table holds each output
    row's entries into the layer's input rows, back each input row's
    entries into the output rows, where an entry whose row the output lacks
    points at one zero row after them."""

    rows: np.ndarray     # the read-out rows, in the order given
    hop: np.ndarray      # the rows and their neighbours, ascending
    first: tuple         # the graph's rows hop, over every row
    last: tuple          # the graph's rows `rows`, over hop


def _layer_tables(table: NeighborTable, out_rows, in_rows) -> tuple:
    """(table, back) of a layer at table's rows out_rows over its rows
    in_rows, ascending, which hold every neighbor of out_rows."""
    idx, weight = table

    def at(rows):
        """Each graph row's position in rows, len(rows) past them."""
        pos = np.full(idx.shape[0], len(rows))
        pos[rows] = np.arange(len(rows))
        return pos

    pair = (NeighborTable(at(in_rows)[idx[out_rows]], weight[out_rows]),
            NeighborTable(at(out_rows)[idx[in_rows]], weight[in_rows]))
    for part in (*pair[0], *pair[1]):
        part.setflags(write=False)
    return pair


def sub_graph(table: NeighborTable, rows) -> SubGraph:
    """The SubGraph of table's symmetric graph at rows, unique rows of it."""
    n = table.idx.shape[0]
    rows = np.asarray(rows, dtype=np.intp)
    ordered = np.sort(rows.reshape(-1))
    if rows.ndim != 1 or np.any(np.diff(ordered) <= 0) or (
            rows.size and (ordered[0] < 0 or ordered[-1] >= n)):
        raise DimensionError(f"rows must be unique rows of the {n}-row graph")
    # a mask, not np.unique, which would import numpy.ma
    near = np.zeros(n, dtype=bool)
    near[table.idx[rows]] = True
    hop = np.flatnonzero(near)
    return SubGraph(rows, hop, _layer_tables(table, hop, np.arange(n)),
                    _layer_tables(table, rows, hop))


# -- parameters, layers, optimizer -------------------------------------------


class Parameter(Tensor):
    """A named trainable tensor, held C-contiguous so Adam can update it
    through a flat view."""

    __slots__ = ("name",)

    def __init__(self, data, name):
        super().__init__(data, requires_grad=True)
        self.data = np.ascontiguousarray(self.data)
        self.name = name


def xavier_uniform(rng: np.random.Generator, fan_in: int, fan_out: int,
                   scale: float = 1.0) -> np.ndarray:
    limit = scale * np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


class Dense:
    def __init__(self, rng, d_in, d_out, name, weight_scale=1.0):
        self.w = Parameter(xavier_uniform(rng, d_in, d_out, weight_scale), f"{name}.w")
        self.b = Parameter(np.zeros((1, d_out)), f"{name}.b")

    def __call__(self, x: Tensor) -> Tensor:
        return x @ self.w + self.b

    def parameters(self):
        return [self.w, self.b]


class StackedDense:
    """B private dense layers in one: row i of a [B, d] input meets its own
    weights w[i] ([B, d, o], stacked from `ws`) and bias b[i] ([B, o])."""

    def __init__(self, ws, name):
        self.w = Parameter(ws, f"{name}.w")
        self.b = Parameter(np.zeros((ws.shape[0], ws.shape[2])), f"{name}.b")

    def __call__(self, x: Tensor) -> Tensor:
        return x.rowwise_matmul(self.w) + self.b

    def parameters(self):
        return [self.w, self.b]


class GcnLayer:
    """F' = tanh(A_norm @ F @ W) as one graph op, at the rows of a per-call
    NeighborTable of A_norm (see SubGraph for a table of some rows).  It
    keeps F', and A_norm @ F only while W requires a gradient.  Backward
    has the bits of the propagate, matmul and tanh ops it replaced: the
    weight gradient is (A_norm @ F).T @ dF' over the computed rows, and the
    input gradient runs through `back`, the table itself for a whole graph
    (A_norm being symmetric).

    Backward runs once and holds one hidden-width transient beside what the
    graph keeps: it forms g * (1 - F'**2) in the incoming gradient's buffer
    where it may, drops A_norm @ F once the weight gradient is formed and
    writes the input gradient's neighbor sum into the dead buffer."""

    def __init__(self, rng, d_in, d_out, name):
        self.w = Parameter(xavier_uniform(rng, d_in, d_out), f"{name}.w")

    def __call__(self, features: Tensor, table: NeighborTable,
                 back: NeighborTable | None = None) -> Tensor:
        x, w = features, self.w
        back = table if back is None else back
        if x.shape[0] != back.idx.shape[0]:
            raise DimensionError("feature row count must match the graph size")
        agg = _neighbor_sum(x.data, table)
        out = agg @ w.data
        np.tanh(out, out=out)
        kept = agg if w.requires_grad else None

        def vjp(g):
            nonlocal kept
            # g * (1 - out**2), plus the zero buffer of a first gradient; a
            # row-broadcast or read-only g leaves it to the scratch buffer
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
                # the output rows' gradient, and the zero row a back table
                # of some rows points at (a whole graph's gradient keeps its
                # row count, so the heap reuses that buffer's chunk); no
                # + 0.0: a sum from a zero buffer keeps no zero term's sign
                m = d.shape[0]
                gx = np.empty((m + (back is not table), w.shape[0]))
                np.matmul(d, w.data.T, out=gx[:m])
                gx[m:] = 0.0
                gx = _neighbor_sum(gx, back,
                                   out=d if d.shape == x.shape else None)
            return gx, gw

        return Tensor._make(out, (x, w), vjp, owned=True)

    def parameters(self):
        return [self.w]


#: elements per Adam block: each of a block's ufunc calls takes the
#: interpreter lock again, so fewer, larger blocks let the shares overlap
#: more, while a block's five 256 KB arrays (data, moments, scratch pair)
#: still stay in a 2 MB L2 cache through every update pass (65,536 spill it)
ADAM_BLOCK = 32768
#: elements from which an optimizer splits each step across the process's CPUs
ADAM_SHARE_MIN = 2**20


def _aligned_zeros(shape):
    """Zeros that start on a 64-byte line: calloc'd with 8 spare elements."""
    buf = np.zeros(int(np.prod(shape)) + 8)
    return buf[-buf.ctypes.data % 64 // 8:][:buf.size - 8].reshape(shape)


class Adam:
    """Adam with bias correction; ascent is descent on the negated objective.

    `lr_scales` optionally gives each parameter its own multiplier on the
    shared learning rate.  The update runs in place over each parameter's
    flat data, at most ADAM_BLOCK elements at a time (a gradient held as a
    RankOneGrad is formed a block at a time in a scratch buffer), with the
    operation order of
    m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g**2;
    p -= (lr*scale) * (m/c1) / (sqrt(v/c2) + eps).
    From ADAM_SHARE_MIN elements, one equal share of the blocks per affinity
    CPU runs on its own thread and scratch pair (share 0 on the caller's).
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params, lr, lr_scales=None):
        self.params = list(params)
        self.lr = lr
        if lr_scales is None:
            lr_scales = [1.0] * len(self.params)
        if len(lr_scales) != len(self.params):
            raise DimensionError("lr_scales must match the parameter count")
        self.lr_scales = list(lr_scales)
        self.step_count = 0
        self.m = [_aligned_zeros(p.data.shape) for p in self.params]
        self.v = [_aligned_zeros(p.data.shape) for p in self.params]
        self._scratch = [_aligned_zeros((2, ADAM_BLOCK))]

    def step(self):
        flat = []  # every parameter is checked before any moves
        for i, p in enumerate(self.params):
            # the flat views must alias: a reshaped copy would drop the update
            if not p.data.flags.c_contiguous:
                raise DimensionError(
                    f"Adam needs C-contiguous data for {p.name!r}")
            g = p._grad
            if g is not None and not isinstance(g, RankOneGrad):
                if np.shape(g) != self.m[i].shape:
                    raise DimensionError(
                        f"gradient shape mismatch for {p.name!r}")
                g = np.asarray(g, dtype=np.float64).reshape(-1)
            flat.append((p.data.reshape(-1), self.m[i].reshape(-1),
                         self.v[i].reshape(-1), g, self.lr * self.lr_scales[i]))
        self.step_count += 1
        b1, b2, eps = self.beta1, self.beta2, self.eps
        c1, c2 = 1 - b1**self.step_count, 1 - b2**self.step_count
        total = sum(data.size for data, *_ in flat)
        shares = (len(getattr(os, "sched_getaffinity", lambda pid: {0})(0))
                  if total >= ADAM_SHARE_MIN else 1)
        while len(self._scratch) < shares:
            self._scratch.append(_aligned_zeros((2, ADAM_BLOCK)))
        errors = []

        def run(k):
            start, stop = total * k // shares, total * (k + 1) // shares
            buf_a, buf_b = self._scratch[k]
            try:
                for data, m, v, g, lr in flat:
                    lo, end = max(start, 0), min(stop, data.size)
                    start, stop = start - data.size, stop - data.size
                    while lo < end:
                        hi = min(lo - lo % ADAM_BLOCK + ADAM_BLOCK, end)
                        pb, mb, vb = data[lo:hi], m[lo:hi], v[lo:hi]
                        ta, tb = buf_a[:hi - lo], buf_b[:hi - lo]
                        if g is None:
                            gb = 0.0
                        elif isinstance(g, RankOneGrad):
                            gb = g.fill(lo, tb)
                        else:
                            gb = g[lo:hi]
                        np.multiply(mb, b1, out=mb)
                        np.multiply(gb, 1 - b1, out=ta)
                        np.add(mb, ta, out=mb)
                        np.multiply(vb, b2, out=vb)
                        np.multiply(gb, gb, out=ta)
                        np.multiply(ta, 1 - b2, out=ta)
                        np.add(vb, ta, out=vb)
                        np.divide(vb, c2, out=ta)
                        np.sqrt(ta, out=ta)
                        np.add(ta, eps, out=ta)
                        np.divide(mb, c1, out=tb)
                        np.multiply(tb, lr, out=tb)
                        np.divide(tb, ta, out=tb)
                        np.subtract(pb, tb, out=pb)
                        lo = hi
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(k,))
                   for k in range(1, shares)]
        for t in threads:
            t.start()
        run(0)
        for t in threads:
            t.join()
        if errors:
            raise errors[0]


# -- checkpoints --------------------------------------------------------------


def _write_atomically(path, mode, write):
    """write(fh) into a temporary file beside path, then rename it into
    place, so a failed write never leaves path half-written."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode) as fh:
            write(fh)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write_json(path, obj):
    """json.dump obj, indented by 2, to path through _write_atomically."""
    _write_atomically(path, "w", lambda fh: json.dump(obj, fh, indent=2))


def _check_finite(name, data):
    if not np.isfinite(data).all():
        raise ValueError(f"tensor {name!r} holds non-finite values")


def save_checkpoint(path, params, meta=None):
    """Write params to path as an uncompressed .npz archive: each tensor as a
    float64 array 'tensor/<name>', the 'format' tag and the 'meta' dict as a
    JSON string.  Refuses, writing nothing, if a tensor is non-finite or two
    parameters share a name."""
    arrays = {"format": np.array(CHECKPOINT_FORMAT),
              "meta": np.array(json.dumps(meta or {}))}
    for p in params:
        _check_finite(p.name, p.data)
        if (key := f"tensor/{p.name}") in arrays:
            raise ValueError(f"two parameters are named {p.name!r}")
        arrays[key] = p.data
    _write_atomically(path, "wb", lambda fh: np.savez(fh, **arrays))


def load_checkpoint(path, params):
    """Load the tensors save_checkpoint wrote into the given parameters by
    name (float64, same shapes, finite values); a rejected checkpoint changes
    no parameter.  A file in another format is a ValueError."""
    not_v2 = f"not a {CHECKPOINT_FORMAT} .npz archive"
    with open(path, "rb") as fh:
        if fh.read(len(_V1_HEAD)) == _V1_HEAD:
            raise ValueError(f"{not_v2}: the old JSON format terasec-params-v1")
        fh.seek(0)
        entries, key = {}, None
        try:
            archive = np.load(fh, allow_pickle=False)
            if not isinstance(archive, np.lib.npyio.NpzFile):
                raise ValueError("a bare .npy array")
            with archive:
                for key in archive.files:
                    entries[key] = archive[key]
        except (EOFError, ValueError, zipfile.BadZipFile) as exc:
            at = "" if key is None else f" (entry {key!r})"
            raise ValueError(f"{not_v2}{at}: {exc}") from None
    if str(entries.get("format")) != CHECKPOINT_FORMAT or "meta" not in entries:
        raise ValueError(f"{not_v2}: no format tag or no meta")
    meta = json.loads(str(entries["meta"]))
    loaded = []
    for p in params:
        data = entries.get(f"tensor/{p.name}")
        if data is None:
            raise CheckpointMismatchError(f"no tensor {p.name!r}", meta)
        if not isinstance(data, np.ndarray) or data.dtype != np.float64:
            raise ValueError(f"tensor {p.name!r} is not a float64 array")
        if data.shape != p.data.shape:
            raise CheckpointMismatchError(f"shape mismatch for {p.name!r}", meta)
        _check_finite(p.name, data)
        loaded.append(data)
    for p, data in zip(params, loaded):
        p.data = data
    return meta
