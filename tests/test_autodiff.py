import json
import os

import numpy as np
import pytest

from terasec.autodiff import (Adam, Dense, DimensionError, GcnLayer,
                              GraphStateError, Parameter, Tensor, concat_cols,
                              load_checkpoint, mse,
                              normalized_adjacency, save_checkpoint,
                              write_json, xavier_uniform)


def finite_diff(f, x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function of a matrix."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        fp = f()
        x[idx] = orig - eps
        fm = f()
        x[idx] = orig
        g[idx] = (fp - fm) / (2.0 * eps)
    return g


def check_gradient(build, params, rtol=1e-4):
    """Compare autodiff gradients of a scalar graph with finite differences."""
    for p in params:
        p.grad = None
    out = build()
    out.backward()
    for p in params:
        num = finite_diff(lambda: build().data.item(), p.data)
        got = p.grad if p.grad is not None else np.zeros_like(p.data)
        denom = np.maximum(np.abs(num), 1e-6)
        assert np.max(np.abs(got - num) / denom) < rtol, p.name


# -- op-level gradient checks -------------------------------------------------

OPS = {
    "matmul": lambda a, b: (a @ b).sum(),
    "add": lambda a, b: (a @ b + a @ b).sum(),
    "sub": lambda a, b: (a @ b - b.mean_rows()).sum(),
    "scalar_mul": lambda a, b: ((a @ b) * 0.37).sum(),
    "relu": lambda a, b: (a @ b).relu().sum(),
    "tanh": lambda a, b: (a @ b).tanh().sum(),
    "sigmoid": lambda a, b: (a @ b).sigmoid().sum(),
    "softmax": lambda a, b: ((a @ b).softmax_rows() @ Tensor(np.arange(3.0).reshape(3, 1))).sum(),
    "mean_rows": lambda a, b: (a @ b).mean_rows().tanh().sum(),
    "reshape": lambda a, b: (a @ b).reshape(1, 12).tanh().sum(),
    "gather": lambda a, b: (a @ b).gather_rows([0, 2, 2]).sum(),
    "scatter": lambda a, b: (a @ b).scatter_rows([1, 3, 0, 5], 6).tanh().sum(),
    "slice": lambda a, b: (a @ b).slice_cols(1, 3).sum(),
    "concat": lambda a, b: concat_cols([a @ b, (a @ b).tanh()]).sum(),
    "mse": lambda a, b: mse(a @ b, Tensor(np.ones((4, 3)))),
}


@pytest.mark.parametrize("name", sorted(OPS))
def test_op_gradients(name):
    rng = np.random.default_rng(hash(name) % 2**32)
    for _ in range(3):
        a = Parameter(rng.standard_normal((4, 5)) * 0.7, "a")
        b = Parameter(rng.standard_normal((5, 3)) * 0.7, "b")
        check_gradient(lambda: OPS[name](a, b), [a, b])


def test_gradient_identity_and_mse():
    x = Parameter(np.array([[2.0]]), "x")
    y = x.sum()
    y.backward()
    assert x.grad[0, 0] == 1.0
    pred = Parameter(np.array([[1.0, 3.0]]), "pred")
    loss = mse(pred, Tensor(np.array([[0.0, 1.0]])))
    loss.backward()
    assert np.allclose(pred.grad, 2.0 * np.array([[1.0, 2.0]]) / 2.0)


def test_backward_requires_recorded_graph():
    with pytest.raises(GraphStateError):
        Tensor(np.zeros((1, 1))).backward()
    p = Parameter(np.zeros((2, 2)), "p")
    with pytest.raises(GraphStateError):
        (p @ Tensor(np.ones((2, 2)))).backward()   # non-scalar implicit seed


def test_determinism():
    rng = np.random.default_rng(0)
    w = rng.standard_normal((6, 4))
    x = rng.standard_normal((3, 6))
    r1 = (Tensor(x) @ Tensor(w)).tanh().data
    r2 = (Tensor(x) @ Tensor(w)).tanh().data
    assert np.array_equal(r1, r2)


# -- softmax oracle -----------------------------------------------------------

def test_softmax_equal_logits():
    out = Tensor(np.zeros((1, 5))).softmax_rows().data
    assert np.allclose(out, 0.2)


def test_softmax_ln2_oracle():
    out = Tensor(np.array([[np.log(2.0), 0.0]])).softmax_rows().data
    assert np.allclose(out, [2.0 / 3.0, 1.0 / 3.0])


def test_softmax_shift_invariance_and_simplex():
    rng = np.random.default_rng(2)
    z = rng.standard_normal((4, 7)) * 5
    a = Tensor(z).softmax_rows().data
    b = Tensor(z + 123.456).softmax_rows().data
    assert np.max(np.abs(a - b)) < 1e-12
    assert np.allclose(a.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(a >= 0)


# -- normalized adjacency -----------------------------------------------------

def test_normalized_adjacency_oracles():
    assert np.allclose(normalized_adjacency(np.zeros((1, 1))), [[1.0]])
    two = normalized_adjacency(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(two, 0.5)


def test_normalized_adjacency_ring_row_sums():
    for n in (4, 7, 12):
        a = np.zeros((n, n))
        for i in range(n):
            a[i, (i + 1) % n] = a[(i + 1) % n, i] = 1.0
        norm = normalized_adjacency(a)
        assert np.allclose(norm.sum(axis=1), 1.0)
        assert np.allclose(norm, norm.T)


def test_normalized_adjacency_spectral_radius():
    rng = np.random.default_rng(4)
    for _ in range(5):
        n = 6
        a = (rng.random((n, n)) < 0.4).astype(float)
        a = np.triu(a, 1)
        a = a + a.T
        norm = normalized_adjacency(a)
        eig = np.max(np.abs(np.linalg.eigvalsh(norm)))
        assert eig <= 1.0 + 1e-9


def test_normalized_adjacency_asymmetric_error():
    with pytest.raises(DimensionError):
        normalized_adjacency(np.array([[0.0, 1.0], [0.0, 0.0]]))


# -- layers -------------------------------------------------------------------

def test_gcn_layer_gradient():
    rng = np.random.default_rng(5)
    layer = GcnLayer(rng, 3, 2, "g", "tanh")
    a_norm = normalized_adjacency(np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0.0]]))
    feats = rng.standard_normal((3, 3))
    check_gradient(lambda: layer(Tensor(feats), a_norm).sum(),
                   layer.parameters())


def test_dense_gradient_and_shapes():
    rng = np.random.default_rng(6)
    layer = Dense(rng, 4, 3, "d")
    x = rng.standard_normal((5, 4))
    check_gradient(lambda: layer(Tensor(x)).tanh().sum(), layer.parameters())
    with pytest.raises(DimensionError):
        Tensor(np.zeros((2, 3))) @ Tensor(np.zeros((2, 3)))


def test_xavier_bounds():
    rng = np.random.default_rng(7)
    w = xavier_uniform(rng, 50, 30)
    limit = np.sqrt(6.0 / 80.0)
    assert np.max(np.abs(w)) <= limit


# -- Adam ---------------------------------------------------------------------

def test_adam_zero_gradient_noop():
    p = Parameter(np.array([[1.0, -2.0]]), "p")
    opt = Adam([p], lr=0.1)
    before = p.data.copy()
    opt.step()
    assert np.array_equal(p.data, before)
    assert opt.step_count == 1


def test_adam_first_step_is_signed_lr():
    p = Parameter(np.array([[1.0, -2.0, 3.0]]), "p")
    p.grad = np.array([[0.5, -4.0, 1e-3]])
    opt = Adam([p], lr=0.01)
    before = p.data.copy()
    opt.step()
    # bias-corrected first step: m_hat/sqrt(v_hat) = sign(g)
    assert np.allclose(before - p.data, 0.01 * np.sign(p.grad), rtol=1e-4)


def test_adam_step_bound():
    rng = np.random.default_rng(8)
    p = Parameter(rng.standard_normal((3, 3)), "p")
    opt = Adam([p], lr=0.05)
    for _ in range(20):
        p.grad = rng.standard_normal((3, 3)) * 10
        before = p.data.copy()
        opt.step()
        # |update| <= lr * (1 + margin) from the Adam bound
        assert np.max(np.abs(p.data - before)) <= 0.05 * 1.2


def test_adam_maximize_ascends():
    p = Parameter(np.array([[0.0]]), "p")
    opt = Adam([p], lr=0.1)
    p.grad = np.array([[1.0]])
    opt.step(maximize=True)
    assert p.data[0, 0] > 0.0


def test_adam_lr_scales():
    p1 = Parameter(np.array([[0.0]]), "p1")
    p2 = Parameter(np.array([[0.0]]), "p2")
    opt = Adam([p1, p2], lr=0.1, lr_scales=[1.0, 0.1])
    p1.grad = np.array([[1.0]])
    p2.grad = np.array([[1.0]])
    opt.step()
    assert abs(p1.data[0, 0] / p2.data[0, 0] - 10.0) < 1e-6
    with pytest.raises(DimensionError):
        Adam([p1, p2], lr=0.1, lr_scales=[1.0])


def test_adam_converges_on_quadratic():
    p = Parameter(np.array([[5.0]]), "p")
    opt = Adam([p], lr=0.1)
    for _ in range(500):
        p.grad = 2.0 * (p.data - 1.5)
        opt.step()
    assert abs(p.data[0, 0] - 1.5) < 1e-3


# -- checkpoints --------------------------------------------------------------

def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(9)
    params = [Parameter(rng.standard_normal((3, 4)), "layer.w"),
              Parameter(rng.standard_normal((1, 4)), "layer.b")]
    path = os.path.join(tmp_path, "ck.json")
    save_checkpoint(path, params, meta={"note": 1})
    fresh = [Parameter(np.zeros((3, 4)), "layer.w"),
             Parameter(np.zeros((1, 4)), "layer.b")]
    meta = load_checkpoint(path, fresh)
    assert meta == {"note": 1}
    for a, b in zip(params, fresh):
        assert np.array_equal(a.data, b.data)


def test_checkpoint_errors(tmp_path):
    path = os.path.join(tmp_path, "bad.json")
    with open(path, "w") as fh:
        fh.write('{"format": "other"}')
    with pytest.raises(ValueError):
        load_checkpoint(path, [])
    good = os.path.join(tmp_path, "good.json")
    save_checkpoint(good, [Parameter(np.zeros((2, 2)), "x")])
    with pytest.raises(KeyError):
        load_checkpoint(good, [Parameter(np.zeros((2, 2)), "y")])
    with pytest.raises(DimensionError):
        load_checkpoint(good, [Parameter(np.zeros((3, 2)), "x")])


@pytest.mark.parametrize("write", [
    lambda path: save_checkpoint(path, [Parameter(np.ones((2, 2)), "w")]),
    lambda path: write_json(path, {"converged_u": 0.5}, indent=2),
], ids=["checkpoint", "summary"])
def test_failed_write_leaves_no_partial_file(tmp_path, monkeypatch, write):
    existing = str(tmp_path / "old.json")
    write(existing)
    before = open(existing, "rb").read()

    def failing_dump(obj, fh, **kwargs):
        fh.write('{"format": ')
        raise OSError("disk full")

    monkeypatch.setattr(json, "dump", failing_dump)
    for path in (existing, str(tmp_path / "new.json")):
        with pytest.raises(OSError, match="disk full"):
            write(path)
    assert open(existing, "rb").read() == before
    assert os.listdir(tmp_path) == ["old.json"]
