"""Minimal reverse-mode autodiff on float64 matrices, with the layers needed
by the actors and critic: dense, graph convolution, activations, softmax
heads, mean pooling and squared-error loss, plus the Adam optimizer and a
JSON checkpoint format.
"""
from __future__ import annotations

import json
import os

import numpy as np

CHECKPOINT_FORMAT = "terasec-params-v1"


class GraphStateError(RuntimeError):
    """backward() called without a recorded forward pass."""


class DimensionError(ValueError):
    pass


class Tensor:
    """A 2-D float64 tensor participating in a recorded computation graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        self.data = np.atleast_2d(np.asarray(data, dtype=np.float64))
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

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
            self.grad = np.zeros_like(self.data)
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

        def backward(g):
            if a.requires_grad:
                a._accumulate(g @ b.data.T)
            if b.requires_grad:
                b._accumulate(a.data.T @ g)

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

    def relu(self):
        a = self
        mask = a.data > 0.0

        def backward(g):
            if a.requires_grad:
                a._accumulate(g * mask)

        return Tensor._make(a.data * mask, (a,), backward)

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


def normalized_adjacency(a: np.ndarray) -> np.ndarray:
    """Symmetric normalization D^{-1/2} (A + I) D^{-1/2} of a binary
    symmetric adjacency with zero diagonal."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not np.allclose(a, a.T):
        raise DimensionError("adjacency must be square and symmetric")
    a_tilde = a + np.eye(a.shape[0])
    d_inv_sqrt = 1.0 / np.sqrt(a_tilde.sum(axis=1))
    return d_inv_sqrt[:, None] * a_tilde * d_inv_sqrt[None, :]


# -- parameters, layers, optimizer -------------------------------------------


class Parameter(Tensor):
    """A named trainable tensor."""

    def __init__(self, data, name):
        super().__init__(data, requires_grad=True)
        self.name = name

    __slots__ = ("name",)


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


_ACTIVATIONS = {
    "relu": lambda t: t.relu(),
    "tanh": lambda t: t.tanh(),
    "identity": lambda t: t,
}


class GcnLayer:
    """F' = activation(A_norm @ F @ W); A_norm is a per-call constant."""

    def __init__(self, rng, d_in, d_out, name, activation="tanh"):
        if activation not in _ACTIVATIONS:
            raise DimensionError(f"unknown activation {activation!r}")
        self.w = Parameter(xavier_uniform(rng, d_in, d_out), f"{name}.w")
        self.activation = activation

    def __call__(self, features: Tensor, a_norm: np.ndarray) -> Tensor:
        if features.shape[0] != a_norm.shape[0]:
            raise DimensionError("feature row count must match the graph size")
        agg = Tensor(a_norm) @ features
        return _ACTIVATIONS[self.activation](agg @ self.w)

    def parameters(self):
        return [self.w]


class Adam:
    """Adam with bias correction; ascent is descent on the negated objective.

    `lr_scales` optionally gives each parameter its own multiplier on the
    shared learning rate.
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
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self, maximize=False):
        self.step_count += 1
        b1, b2 = self.beta1, self.beta2
        for i, p in enumerate(self.params):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if maximize:
                g = -g
            self.m[i] = b1 * self.m[i] + (1 - b1) * g
            self.v[i] = b2 * self.v[i] + (1 - b2) * g**2
            m_hat = self.m[i] / (1 - b1**self.step_count)
            v_hat = self.v[i] / (1 - b2**self.step_count)
            p.data -= (self.lr * self.lr_scales[i] * m_hat
                       / (np.sqrt(v_hat) + self.eps))


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


def save_checkpoint(path, params, meta=None):
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
    """Load tensors by name into the given parameters (shapes must match)."""
    with open(path) as fh:
        blob = json.load(fh)
    if blob.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"unsupported checkpoint format {blob.get('format')!r}")
    tensors = blob["tensors"]
    for p in params:
        if p.name not in tensors:
            raise KeyError(f"checkpoint is missing tensor {p.name!r}")
        entry = tensors[p.name]
        data = np.asarray(entry["data"], dtype=np.float64).reshape(entry["shape"])
        if data.shape != p.data.shape:
            raise DimensionError(f"shape mismatch for {p.name!r}")
        p.data = data
    return blob.get("meta", {})
