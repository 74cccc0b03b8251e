"""Minimal reverse-mode autodiff on float64 matrices, with the layers needed
by the actors and critic: dense, graph convolution, tanh and sigmoid, softmax
heads, mean pooling and squared-error loss, plus the Adam optimizer and a
JSON checkpoint format.
"""
from __future__ import annotations

import json
import os
from typing import NamedTuple

import numpy as np

CHECKPOINT_FORMAT = "terasec-params-v1"


class GraphStateError(RuntimeError):
    """backward() called without a recorded forward pass."""


class DimensionError(ValueError):
    pass


class CheckpointMismatchError(DimensionError):
    """A checkpoint lacks a tensor or has it in another shape (.meta: its meta)."""

    def __init__(self, message, meta):
        super().__init__(message)
        self.meta = meta


class DeadInputError(RuntimeError):
    """An input column that meets a weight row outside the parameter's live
    rows is nonzero: that row would need a gradient it never gets."""


#: no dead rows: every row of a tensor is live
_NO_ROWS = np.empty(0, dtype=np.intp)
_NO_ROWS.setflags(write=False)


class Tensor:
    """A 2-D float64 tensor participating in a recorded computation graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    #: the rows gradients reach and the rows they skip; a Parameter narrows
    #: them with set_live_rows
    live_rows = slice(None)
    dead_rows = _NO_ROWS

    def __init__(self, data, requires_grad=False):
        self.data = np.atleast_2d(np.asarray(data, dtype=np.float64))
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def grad_shape(self):
        """Shape of .grad: the live rows of data."""
        return (self.data.shape[0] - self.dead_rows.size, *self.data.shape[1:])

    # -- graph bookkeeping -------------------------------------------------

    @staticmethod
    def _make(data, parents, backward):
        out = Tensor(data)
        out.requires_grad = any(p.requires_grad for p in parents)
        if out.requires_grad:
            out._parents = parents
            out._backward = backward
        return out

    def _accumulate(self, g):
        if self.grad is None:
            # one pass with the bits of a zero buffer plus g (-0.0 -> +0.0)
            self.grad = np.broadcast_to(g, self.grad_shape) + 0.0
        else:
            self.grad += g

    def backward(self, seed=None):
        """Reverse-mode sweep from this tensor; accumulates into .grad."""
        if not self.requires_grad:
            raise GraphStateError("backward on a tensor with no recorded graph")
        # iterative post-order: a recursive closure is a reference cycle that
        # keeps the whole graph alive until the cyclic collector runs
        topo, seen = [], {id(self)}
        stack = [(self, iter(self._parents))]
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
        if seed is None:
            if self.data.size != 1:
                raise GraphStateError("implicit seed requires a scalar output")
            seed = np.ones_like(self.data)
        self._accumulate(np.asarray(seed, dtype=np.float64).reshape(self.data.shape))
        for t in reversed(topo):
            if t._backward is not None:
                t._backward(t.grad)

    # -- operations ----------------------------------------------------------

    def __matmul__(self, other):
        other = _as_tensor(other)
        if self.shape[1] != other.shape[0]:
            raise DimensionError(f"matmul shapes {self.shape} x {other.shape}")
        a, b = self, other
        if b.dead_rows.size:
            _check_dead_inputs(a.data, b)

        def backward(g):
            if a.requires_grad:
                a._accumulate(g @ b.data.T)
            if b.requires_grad:
                # live weight rows only: the dead ones meet zero inputs
                b._accumulate(a.data[:, b.live_rows].T @ g)

        return Tensor._make(a.data @ b.data, (a, b), backward)

    def __add__(self, other):
        other = _as_tensor(other)
        a, b = self, other

        def backward(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(g, b.shape))

        return Tensor._make(a.data + b.data, (a, b), backward)

    def __sub__(self, other):
        other = _as_tensor(other)
        a, b = self, other

        def backward(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(-g, b.shape))

        return Tensor._make(a.data - b.data, (a, b), backward)

    def __mul__(self, scalar):
        s = float(scalar)
        a = self

        def backward(g):
            if a.requires_grad:
                a._accumulate(g * s)

        return Tensor._make(a.data * s, (a,), backward)

    __rmul__ = __mul__

    def tanh(self):
        a = self
        out_data = np.tanh(a.data)

        def backward(g):
            if a.requires_grad:
                a._accumulate(g * (1.0 - out_data**2))

        return Tensor._make(out_data, (a,), backward)

    def sigmoid(self):
        a = self
        out_data = 1.0 / (1.0 + np.exp(-a.data))

        def backward(g):
            if a.requires_grad:
                a._accumulate(g * out_data * (1.0 - out_data))

        return Tensor._make(out_data, (a,), backward)

    def softmax_rows(self):
        """Numerically stable row-wise softmax."""
        a = self
        z = a.data - a.data.max(axis=1, keepdims=True)
        e = np.exp(z)
        out_data = e / e.sum(axis=1, keepdims=True)

        def backward(g):
            if a.requires_grad:
                dot = np.sum(g * out_data, axis=1, keepdims=True)
                a._accumulate(out_data * (g - dot))

        return Tensor._make(out_data, (a,), backward)

    def mean_rows(self):
        """Mean over rows: [n, d] -> [1, d]."""
        a = self
        n = a.shape[0]

        def backward(g):
            if a.requires_grad:
                a._accumulate(np.repeat(g, n, axis=0) / n)

        return Tensor._make(a.data.mean(axis=0, keepdims=True), (a,), backward)

    def reshape(self, rows, cols):
        a = self
        orig = a.shape

        def backward(g):
            if a.requires_grad:
                a._accumulate(g.reshape(orig))

        return Tensor._make(a.data.reshape(rows, cols), (a,), backward)

    def gather_rows(self, idx):
        a = self
        idx = np.asarray(idx, dtype=int)

        def backward(g):
            if a.requires_grad:
                buf = np.zeros_like(a.data)
                np.add.at(buf, idx, g)
                a._accumulate(buf)

        return Tensor._make(a.data[idx], (a,), backward)

    def scatter_rows(self, idx, n_rows):
        """Place this tensor's rows at positions idx of a zero [n_rows, d]."""
        a = self
        idx = np.asarray(idx, dtype=int)
        data = np.zeros((n_rows, a.shape[1]))
        data[idx] = a.data

        def backward(g):
            if a.requires_grad:
                a._accumulate(g[idx])

        return Tensor._make(data, (a,), backward)

    def slice_cols(self, start, stop):
        a = self

        def backward(g):
            if a.requires_grad:
                buf = np.zeros_like(a.data)
                buf[:, start:stop] = g
                a._accumulate(buf)

        return Tensor._make(a.data[:, start:stop], (a,), backward)

    def sum(self):
        a = self

        def backward(g):
            if a.requires_grad:
                a._accumulate(np.full_like(a.data, np.asarray(g).item()))

        return Tensor._make(np.array([[a.data.sum()]]), (a,), backward)


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _check_dead_inputs(x, w):
    """Raise DeadInputError if an input column that meets one of w's dead
    rows is not exactly zero (-0.0 counts as zero)."""
    hit = np.any(x[:, w.dead_rows] != 0.0, axis=0)
    if hit.any():
        col = int(w.dead_rows[np.argmax(hit)])
        raise DeadInputError(
            f"input column {col} of {w.name!r} is nonzero, but its weight "
            f"row is not live")


def _unbroadcast(g, shape):
    if g.shape == shape:
        return g
    out = g
    if shape[0] == 1 and g.shape[0] > 1:
        out = out.sum(axis=0, keepdims=True)
    if shape[1] == 1 and g.shape[1] > 1:
        out = out.sum(axis=1, keepdims=True)
    return out


def concat_cols(tensors):
    """Column-wise concatenation of tensors sharing the row count."""
    tensors = [_as_tensor(t) for t in tensors]
    rows = tensors[0].shape[0]
    if any(t.shape[0] != rows for t in tensors):
        raise DimensionError("concat_cols requires matching row counts")
    widths = [t.shape[1] for t in tensors]
    offsets = np.concatenate([[0], np.cumsum(widths)])

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                t._accumulate(g[:, lo:hi])

    data = np.concatenate([t.data for t in tensors], axis=1)
    return Tensor._make(data, tuple(tensors), backward)


def mse(pred, target):
    """Mean squared error over all entries; returns a scalar tensor."""
    pred = _as_tensor(pred)
    target = _as_tensor(target)
    if pred.shape != target.shape:
        raise DimensionError("mse shape mismatch")
    diff = pred.data - target.data
    n = diff.size

    def backward(g):
        if pred.requires_grad:
            pred._accumulate(2.0 * diff / n * np.asarray(g).item())
        if target.requires_grad:
            target._accumulate(-2.0 * diff / n * np.asarray(g).item())

    return Tensor._make(np.array([[np.mean(diff**2)]]), (pred, target), backward)


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


def _neighbor_sum(x: np.ndarray, table: NeighborTable) -> np.ndarray:
    """sum_k weight[:, k] * x[idx[:, k]], accumulated in k order."""
    idx, weight = table
    out = weight[:, :1] * x[idx[:, 0]]
    for k in range(1, idx.shape[1]):
        out += weight[:, k:k + 1] * x[idx[:, k]]
    return out


def propagate(x, table: NeighborTable) -> Tensor:
    """A_norm @ x for the matrix the table holds.  A_norm is symmetric, so
    the gradient propagates through the same table."""
    x = _as_tensor(x)
    if x.shape[0] != table.idx.shape[0]:
        raise DimensionError("feature row count must match the graph size")

    def backward(g):
        if x.requires_grad:
            x._accumulate(_neighbor_sum(g, table))

    return Tensor._make(_neighbor_sum(x.data, table), (x,), backward)


# -- parameters, layers, optimizer -------------------------------------------


class Parameter(Tensor):
    """A named trainable tensor, held C-contiguous so Adam can update it
    through a flat view.

    Every row is live unless set_live_rows narrows them.  .grad then holds
    the live rows only, in order, and a matmul whose input meets a dead row
    with a nonzero column raises DeadInputError.  A dead row's gradient would
    be +-0 at every step, which leaves Adam's moments at +0 and the row
    unchanged, so skipping it changes no bit.
    """

    __slots__ = ("name", "live_rows", "dead_rows")

    def __init__(self, data, name):
        super().__init__(data, requires_grad=True)
        self.data = np.ascontiguousarray(self.data)
        self.name = name
        self.live_rows = slice(None)
        self.dead_rows = _NO_ROWS

    def set_live_rows(self, rows):
        """Make only `rows` (ascending, unique) live.  For a one-row input,
        each live gradient element is a single product, so it has the bits
        of the full-width gradient's element."""
        rows = np.asarray(rows, dtype=np.intp)
        n = self.data.shape[0]
        if rows.ndim != 1 or np.any(np.diff(rows) <= 0) or (
                rows.size and (rows[0] < 0 or rows[-1] >= n)):
            raise DimensionError(f"live rows of {self.name!r} must be "
                                 f"ascending, unique and within {n} rows")
        dead = np.ones(n, dtype=bool)
        dead[rows] = False
        self.live_rows = rows
        self.dead_rows = np.flatnonzero(dead)


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


class GcnLayer:
    """F' = tanh(A_norm @ F @ W); A_norm is a per-call constant given as a
    NeighborTable."""

    def __init__(self, rng, d_in, d_out, name):
        self.w = Parameter(xavier_uniform(rng, d_in, d_out), f"{name}.w")

    def __call__(self, features: Tensor, table: NeighborTable) -> Tensor:
        return (propagate(features, table) @ self.w).tanh()

    def parameters(self):
        return [self.w]


#: elements per Adam block: the block and the scratch buffers stay in cache
#: while each update pass runs over them
ADAM_BLOCK = 16384


def _adam_blocks(p):
    """A parameter's live rows as Adam blocks of at most ADAM_BLOCK elements:
    (lo, hi, src), [lo, hi) a range of the flat live-row arrays (moments and
    gradient) and src either the flat data slice it updates, where the
    block's rows are adjacent, or the data rows to gather and scatter back."""
    n_rows, cols = p.data.shape
    rows = np.arange(n_rows)[p.live_rows]
    per = max(1, ADAM_BLOCK // cols)
    blocks = []
    for r in range(0, rows.size, per):
        idx = rows[r:r + per]
        lo, size = r * cols, idx.size * cols
        if idx[-1] - idx[0] == idx.size - 1:
            # adjacent rows: flat data slices, split where a row outgrows a block
            shift = idx[0] * cols - lo
            for a in range(lo, lo + size, ADAM_BLOCK):
                b = min(a + ADAM_BLOCK, lo + size)
                blocks.append((a, b, slice(a + shift, b + shift)))
        else:
            blocks.append((lo, lo + size, idx))
    return blocks


class Adam:
    """Adam with bias correction; ascent is descent on the negated objective.

    `lr_scales` optionally gives each parameter its own multiplier on the
    shared learning rate.  Moments are kept for each parameter's live rows
    only, and only those rows are updated.  The update runs in place, at most
    ADAM_BLOCK elements at a time, with the operation order of
    m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g**2;
    p -= (lr*scale) * (m/c1) / (sqrt(v/c2) + eps).
    """

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8,
                 lr_scales=None):
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        if lr_scales is None:
            lr_scales = [1.0] * len(self.params)
        if len(lr_scales) != len(self.params):
            raise DimensionError("lr_scales must match the parameter count")
        self.lr_scales = list(lr_scales)
        self.step_count = 0
        self.m = [np.zeros(p.grad_shape) for p in self.params]
        self.v = [np.zeros(p.grad_shape) for p in self.params]
        self._blocks = [_adam_blocks(p) for p in self.params]
        self._scratch = tuple(np.empty(ADAM_BLOCK) for _ in range(3))

    def step(self, maximize=False):
        self.step_count += 1
        b1, b2, eps = self.beta1, self.beta2, self.eps
        c1 = 1 - b1**self.step_count
        c2 = 1 - b2**self.step_count
        buf_a, buf_b, buf_p = self._scratch
        for i, p in enumerate(self.params):
            lr = self.lr * self.lr_scales[i]
            # the flat views must alias: a reshaped copy would drop the update
            if not p.data.flags.c_contiguous:
                raise DimensionError(
                    f"Adam needs C-contiguous data for {p.name!r}")
            data = p.data.reshape(-1)
            m, v = self.m[i].reshape(-1), self.v[i].reshape(-1)
            if p.grad is None:
                g = None
            elif np.shape(p.grad) != self.m[i].shape:
                raise DimensionError(f"gradient shape mismatch for {p.name!r}")
            else:
                g = np.asarray(p.grad, dtype=np.float64).reshape(-1)
            for lo, hi, src in self._blocks[i]:
                gathered = type(src) is not slice
                if gathered:
                    pb = np.take(p.data, src, axis=0, mode="clip",
                                 out=buf_p[:hi - lo].reshape(src.size, -1))
                    pb = pb.reshape(-1)
                else:
                    pb = data[src]
                mb, vb = m[lo:hi], v[lo:hi]
                gb = 0.0 if g is None else g[lo:hi]
                ta, tb = buf_a[:hi - lo], buf_b[:hi - lo]
                if maximize:
                    gb = np.negative(gb, out=tb)
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
                if gathered:
                    p.data[src] = pb.reshape(src.size, -1)


# -- checkpoints --------------------------------------------------------------


def write_json(path, obj, **dump_kwargs):
    """json.dump obj to a temporary file beside path, then rename it into
    place, so a failed write never leaves path half-written."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            json.dump(obj, fh, **dump_kwargs)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _check_finite(name, data):
    if not np.isfinite(data).all():
        raise ValueError(f"tensor {name!r} holds non-finite values")


def save_checkpoint(path, params, meta=None):
    """Write params by name; refuses (writing nothing) if any is non-finite."""
    for p in params:
        _check_finite(p.name, p.data)
    blob = {
        "format": CHECKPOINT_FORMAT,
        "meta": meta or {},
        "tensors": {
            p.name: {"shape": list(p.data.shape), "data": p.data.ravel().tolist()}
            for p in params
        },
    }
    write_json(path, blob)


def load_checkpoint(path, params):
    """Load tensors by name into the given parameters (shapes must match,
    values must be finite); a rejected checkpoint changes no parameter."""
    with open(path) as fh:
        blob = json.load(fh)
    if blob.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"unsupported checkpoint format {blob.get('format')!r}")
    tensors, meta = blob["tensors"], blob.get("meta", {})
    loaded = []
    for p in params:
        if p.name not in tensors:
            raise CheckpointMismatchError(f"no tensor {p.name!r}", meta)
        entry = tensors[p.name]
        data = np.asarray(entry["data"], dtype=np.float64).reshape(entry["shape"])
        if data.shape != p.data.shape:
            raise CheckpointMismatchError(f"shape mismatch for {p.name!r}", meta)
        _check_finite(p.name, data)
        loaded.append(data)
    for p, data in zip(params, loaded):
        p.data = data
    return meta
