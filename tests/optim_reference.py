"""The Adam step, first-gradient accumulation and weight-gradient products
that terasec.autodiff's in-place, blocked and factored versions replaced,
kept as the reference for the differential tests: whole-array temporaries,
with the same operation order.
"""
import numpy as np


class ReferenceAdam:
    """Adam with bias correction; ascent is descent on the negated objective."""

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8,
                 lr_scales=None):
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        if lr_scales is None:
            lr_scales = [1.0] * len(self.params)
        self.lr_scales = list(lr_scales)
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        self.step_count += 1
        b1, b2 = self.beta1, self.beta2
        for i, p in enumerate(self.params):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            self.m[i] = b1 * self.m[i] + (1 - b1) * g
            self.v[i] = b2 * self.v[i] + (1 - b2) * g**2
            m_hat = self.m[i] / (1 - b1**self.step_count)
            v_hat = self.v[i] / (1 - b2**self.step_count)
            p.data -= (self.lr * self.lr_scales[i] * m_hat
                       / (np.sqrt(v_hat) + self.eps))


def reference_first_grad(data, g):
    """A tensor's first accumulated gradient: a zero buffer plus g."""
    grad = np.zeros_like(data)
    grad += g
    return grad


def reference_rank_one_product(g, shape):
    """The product a matmul formed for a weight gradient it now holds as a
    RankOneGrad: x.T @ g for one input row, else the batched outer product."""
    x, g = g
    if x.shape[0] == 1:
        return (x.T @ g).reshape(shape)
    return np.matmul(x[:, :, None], g[:, None, :]).reshape(shape)
