import json
import os
import tracemalloc

import numpy as np
import pytest

from terasec.autodiff import (ADAM_BLOCK, Adam, CheckpointMismatchError,
                              DeadInputError, Dense, DimensionError, GcnLayer,
                              GraphStateError, Parameter, Tensor, concat_cols,
                              load_checkpoint, mse, normalized_adjacency,
                              propagate, save_checkpoint, write_json,
                              xavier_uniform)
from terasec.constellation import WalkerConfig

import gcn_reference as ref
from conftest import make_env
from optim_reference import ReferenceAdam, reference_first_grad


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


def path_edges(n):
    return np.array([(i, i + 1) for i in range(n - 1)]).reshape(-1, 2)


def ring_edges(n):
    return np.array([(i, (i + 1) % n) for i in range(n)])


# -- op-level gradient checks -------------------------------------------------

#: a 4-node path: end rows are narrower than inner rows, so padding is used
PATH4 = normalized_adjacency(4, path_edges(4))

OPS = {
    "matmul": lambda a, b: (a @ b).sum(),
    "add": lambda a, b: (a @ b + a @ b).sum(),
    "sub": lambda a, b: (a @ b - b.mean_rows()).sum(),
    "scalar_mul": lambda a, b: ((a @ b) * 0.37).sum(),
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
    "propagate": lambda a, b: propagate((a @ b).tanh(), PATH4).tanh().sum(),
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
    one = ref.dense_matrix(normalized_adjacency(1, np.zeros((0, 2), int)))
    assert np.allclose(one, [[1.0]])
    two = ref.dense_matrix(normalized_adjacency(2, [[0, 1]]))
    assert np.allclose(two, 0.5)


def test_normalized_adjacency_ring_row_sums():
    for n in (4, 7, 12):
        norm = ref.dense_matrix(normalized_adjacency(n, ring_edges(n)))
        assert np.allclose(norm.sum(axis=1), 1.0)
        assert np.allclose(norm, norm.T)


def test_normalized_adjacency_spectral_radius():
    rng = np.random.default_rng(4)
    for _ in range(5):
        n = 6
        a = (rng.random((n, n)) < 0.4).astype(float)
        norm = ref.dense_matrix(normalized_adjacency(
            n, np.argwhere(np.triu(a, 1))))
        eig = np.max(np.abs(np.linalg.eigvalsh(norm)))
        assert eig <= 1.0 + 1e-9


def test_normalized_adjacency_asymmetric_error():
    """The dense reference rejects an asymmetric matrix; an edge list has
    no direction, so the src normalization cannot be given one."""
    with pytest.raises(DimensionError):
        ref.normalized_adjacency(np.array([[0.0, 1.0], [0.0, 0.0]]))


def _same_table(a, b):
    return (np.array_equal(a.idx, b.idx)
            and a.weight.tobytes() == b.weight.tobytes())


@pytest.mark.parametrize("phasing", [0, 36])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("n_sources", [1, 10, 50, 200, 500])
def test_normalized_adjacency_equals_the_dense_path(n_sources, seed, phasing):
    """The window's table has the dense normalization's exact bits."""
    env = make_env(seed=seed, steps=1, n_sources=n_sources,
                   walker=WalkerConfig(phasing_factor=phasing))
    n = len(env.involved)
    dense = ref.neighbor_table(ref.normalized_adjacency(
        ref.dense_adjacency(n, env.edges)))
    assert _same_table(normalized_adjacency(n, env.edges), dense)


def test_normalized_adjacency_ignores_repeated_edges():
    edges = np.array([(0, 1), (1, 2), (3, 4), (2, 0)])
    table = normalized_adjacency(5, edges)
    assert _same_table(table, ref.neighbor_table(ref.normalized_adjacency(
        ref.dense_adjacency(5, edges))))
    repeated = np.concatenate([edges, edges[::-1, ::-1], edges[:2]])
    assert _same_table(normalized_adjacency(5, repeated), table)


@pytest.mark.parametrize("edges", [[(0, 5)], [(-1, 2)], [(1, 2), (3, 3)],
                                   [(0, 1, 2)], [0, 1]],
                         ids=["past_n", "negative", "self_loop", "three_cols",
                              "flat"])
def test_normalized_adjacency_rejects_bad_edges(edges):
    with pytest.raises(DimensionError):
        normalized_adjacency(5, edges)


# -- neighbor-table propagation -----------------------------------------------

def _isolated_node_edges():
    return 6, ring_edges(5) + 1      # node 0 has no edges


def _env_edges(seed, n_sources):
    env = make_env(seed=seed, steps=1, n_sources=n_sources)
    return len(env.involved), env.edges


#: (n, edges) per graph
GRAPHS = {
    "ring": lambda: (7, ring_edges(7)),
    "path": lambda: (6, path_edges(6)),
    "isolated": _isolated_node_edges,
    **{f"env_seed{seed}_src{n_src}": (lambda s=seed, m=n_src:
                                      _env_edges(s, m))
       for seed in (1, 2, 3) for n_src in (10, 200)},
}


@pytest.mark.parametrize("graph", sorted(GRAPHS))
def test_propagate_equals_the_dense_product(graph):
    """Forward is a_norm @ x and backward a_norm.T @ g, to 1e-12 relative
    to the sum of the terms' magnitudes (|a_norm| @ |x|): a row whose terms
    cancel has no element-wise relative bound in any summation order."""
    n, edges = GRAPHS[graph]()
    a_norm = ref.normalized_adjacency(ref.dense_adjacency(n, edges))
    table = normalized_adjacency(n, edges)
    rng = np.random.default_rng(n)
    x = Parameter(rng.standard_normal((n, 7)), "x")
    g = rng.standard_normal((n, 7))
    out = propagate(x, table)
    scale = np.abs(a_norm) @ np.abs(x.data)
    assert np.all(np.abs(out.data - a_norm @ x.data) <= 1e-12 * scale)
    out.backward(g)
    scale = np.abs(a_norm.T) @ np.abs(g)
    assert np.all(np.abs(x.grad - a_norm.T @ g) <= 1e-12 * scale)
    # every row's nonzeros are in the table; padding points at the row
    nnz = np.count_nonzero(a_norm, axis=1)
    assert table.idx.shape == table.weight.shape == (n, nnz.max())
    padding = table.weight == 0.0
    assert np.array_equal(padding.sum(axis=1), nnz.max() - nnz)
    assert np.all(table.idx[padding]
                  == np.nonzero(padding)[0])


def test_neighbor_table_rejects_asymmetric_matrices():
    """The dense reference scan; the src table is built from edges and
    scans no matrix."""
    a_norm = ref.normalized_adjacency(ref.dense_adjacency(5, ring_edges(5)))
    skewed = a_norm.copy()
    skewed[0, 1] = np.nextafter(skewed[0, 1], 1.0)   # asymmetric by one ulp
    for bad in (skewed, a_norm[:, :4], np.ones(5)):
        with pytest.raises(DimensionError):
            ref.neighbor_table(bad)


def test_propagate_rejects_a_row_count_mismatch():
    table = normalized_adjacency(5, ring_edges(5))
    for rows in (4, 6):
        with pytest.raises(DimensionError):
            propagate(Tensor(np.ones((rows, 3))), table)
    layer = GcnLayer(np.random.default_rng(0), 3, 2, "g")
    with pytest.raises(DimensionError):
        layer(Tensor(np.ones((4, 3))), table)


# -- layers -------------------------------------------------------------------

def test_gcn_layer_gradient():
    rng = np.random.default_rng(5)
    layer = GcnLayer(rng, 3, 2, "g")
    table = normalized_adjacency(3, [(0, 1), (1, 2)])
    feats = rng.standard_normal((3, 3))
    check_gradient(lambda: layer(Tensor(feats), table).sum(),
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


def _same_bits(a, b):
    """Equal shapes and float64 bit patterns (signed zeros and NaNs too)."""
    return a.shape == b.shape and np.array_equal(
        np.ascontiguousarray(a).view(np.uint64),
        np.ascontiguousarray(b).view(np.uint64))


#: (shape, memory order) of each parameter of the differential Adam test
ADAM_CASES = [((1, 1), "C"), ((1, ADAM_BLOCK - 1), "C"), ((ADAM_BLOCK, 1), "C"),
              ((1, ADAM_BLOCK + 1), "C"), ((2 * ADAM_BLOCK + 7, 1), "C"),
              ((3, ADAM_BLOCK // 2 + 5), "F")]


@pytest.mark.parametrize("maximize", [False, True])
def test_adam_equals_the_reference_step(maximize):
    """Five in-place blocked steps equal today's whole-array Adam bit for
    bit, with mixed lr scales, an F-ordered input, a missing gradient,
    signed zeros and NaN gradients."""
    rng = np.random.default_rng(11)
    inits = [np.asarray(rng.standard_normal(shape), order=order)
             for shape, order in ADAM_CASES]
    params = [Parameter(x.copy(order="K"), f"p{i}")
              for i, x in enumerate(inits)]
    ref = [Tensor(x.copy(order="K"), requires_grad=True) for x in inits]
    assert not ref[-1].data.flags.c_contiguous
    scales = [1.0, 0.1, 10.0, 0.02, 1.0, 0.5]
    opt = Adam(params, lr=0.03, lr_scales=scales)
    ref_opt = ReferenceAdam(ref, lr=0.03, lr_scales=scales)
    for step in range(5):
        for i, (p, r) in enumerate(zip(params, ref)):
            g = rng.standard_normal(p.data.shape) * 10.0 ** rng.integers(-6, 3)
            g.flat[::3] = 0.0
            g.flat[1::7] = -0.0
            if i == 1:
                g.flat[::5] = np.nan
            if i == 2 and step == 1:
                g = None
            p.grad = None if g is None else g.copy()
            r.grad = None if g is None else g.copy()
        opt.step(maximize=maximize)
        ref_opt.step(maximize=maximize)
        for i, (p, r) in enumerate(zip(params, ref)):
            assert _same_bits(p.data, r.data), (step, i)
            assert _same_bits(opt.m[i], ref_opt.m[i]), (step, i)
            assert _same_bits(opt.v[i], ref_opt.v[i]), (step, i)


def test_adam_step_allocates_no_parameter_sized_buffer():
    rng = np.random.default_rng(12)
    p = Parameter(rng.standard_normal((1000, 1000)), "big")
    opt = Adam([p], lr=0.01)
    p.grad = rng.standard_normal(p.data.shape)
    view = p.data
    tracemalloc.start()
    try:
        opt.step()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < p.data.nbytes // 20
    assert p.data is view


def test_adam_rejects_a_parameter_it_cannot_update_in_place():
    p = Parameter(np.ones((3, 4)), "p")
    opt = Adam([p], lr=0.01)
    p.data = np.asfortranarray(np.ones((3, 4)))
    with pytest.raises(DimensionError, match="C-contiguous"):
        opt.step()
    p.data = np.ones((3, 4))
    p.grad = np.ones((4, 3))
    with pytest.raises(DimensionError, match="gradient shape"):
        opt.step()


#: (shape, live rows) of each parameter of the row-sparse Adam test: runs
#: and gaps across ADAM_BLOCK boundaries, widths that do not divide it, rows
#: wider than a block, no live row at all, and every row live
ROW_SPARSE_CASES = [
    ((40, 1000), [0, 1, 2, 5, 15, 16, 17, 18, 19, 20, 33, 34, 39]),
    ((6, ADAM_BLOCK + 3), [1, 2, 4]),
    ((3000, 7), sorted(set(range(0, 3000, 3)) | set(range(2300, 2400)))),
    ((5, 3), []),
    ((50, 333), list(range(50))),
]


@pytest.mark.parametrize("maximize", [False, True])
def test_row_sparse_adam_equals_the_reference_step(maximize):
    """Adam over live rows equals the whole-array reference given the full
    gradient with the dead rows +-0, bit for bit: live weights and moments
    match, and dead rows keep their exact bits, -0.0 included."""
    rng = np.random.default_rng(14)
    params, ref, inits = [], [], []
    for i, (shape, live) in enumerate(ROW_SPARSE_CASES):
        x = rng.standard_normal(shape)
        x[::4] = -0.0
        p = Parameter(x.copy(), f"p{i}")
        p.set_live_rows(live)
        params.append(p)
        ref.append(Tensor(x.copy(), requires_grad=True))
        inits.append(x)
    scales = [1.0, 0.1, 10.0, 0.02, 0.5]
    opt = Adam(params, lr=0.03, lr_scales=scales)
    ref_opt = ReferenceAdam(ref, lr=0.03, lr_scales=scales)
    for step in range(5):
        for i, (p, r) in enumerate(zip(params, ref)):
            g = rng.standard_normal(p.data.shape) * 10.0 ** rng.integers(-6, 3)
            g.flat[::3] = 0.0
            g.flat[1::7] = -0.0
            g[p.dead_rows] = np.where(rng.random(g[p.dead_rows].shape) < 0.5,
                                      0.0, -0.0)
            if i == 0 and step == 1:
                g = None
            p.grad = None if g is None else g[p.live_rows].copy()
            r.grad = None if g is None else g.copy()
        opt.step(maximize=maximize)
        ref_opt.step(maximize=maximize)
        for i, (p, r) in enumerate(zip(params, ref)):
            live, dead = p.live_rows, p.dead_rows
            assert _same_bits(p.data, r.data), (step, i)
            assert _same_bits(p.data[dead], inits[i][dead]), (step, i)
            assert _same_bits(opt.m[i], ref_opt.m[i][live]), (step, i)
            assert _same_bits(opt.v[i], ref_opt.v[i][live]), (step, i)
            assert not np.any(ref_opt.m[i][dead]), (step, i)
            assert not np.any(np.signbit(ref_opt.m[i][dead])), (step, i)


def test_row_sparse_adam_allocates_no_parameter_sized_buffer():
    rng = np.random.default_rng(15)
    p = Parameter(rng.standard_normal((1000, 1000)), "big")
    p.set_live_rows(sorted(set(range(0, 1000, 3)) | set(range(400, 700))))
    opt = Adam([p], lr=0.01)
    assert opt.m[0].shape == (p.live_rows.size, 1000)
    p.grad = rng.standard_normal(opt.m[0].shape)
    view = p.data
    tracemalloc.start()
    try:
        opt.step()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < p.data.nbytes // 20
    assert p.data is view


def test_live_rows_gradient_equals_the_full_gradient_rows():
    """With one input row, the live-row weight gradient is the full-width
    gradient's live rows, bit for bit, and the input gradient is unchanged."""
    rng = np.random.default_rng(16)
    live = [0, 3, 4, 5, 9]
    x = rng.standard_normal((1, 10))
    x[0, [1, 2, 6, 7, 8]] = [0.0, -0.0, 0.0, 0.0, -0.0]
    w_init = rng.standard_normal((10, 6))
    grads = []
    for rows in (None, live):
        w = Parameter(w_init.copy(), "w")
        if rows is not None:
            w.set_live_rows(rows)
        xt = Tensor(x.copy(), requires_grad=True)
        ((xt @ w).tanh() @ Tensor(np.arange(6.0).reshape(6, 1))).backward()
        grads.append((w.grad, xt.grad))
    (w_full, x_full), (w_live, x_live) = grads
    assert w_live.shape == (len(live), 6)
    assert _same_bits(w_live, w_full[live])
    assert _same_bits(x_live, x_full)


def test_a_nonzero_input_to_a_dead_row_raises_and_names_its_column():
    w = Parameter(np.ones((5, 2)), "layer.w")
    w.set_live_rows([0, 2])
    assert list(w.dead_rows) == [1, 3, 4]
    Tensor(np.array([[1.0, -0.0, 2.0, 0.0, 0.0]])) @ w
    for bad in (0.5, np.nan):
        x = np.array([[1.0, 0.0, 2.0, bad, 0.0]])
        with pytest.raises(DeadInputError, match=r"column 3 of 'layer.w'"):
            Tensor(x) @ w
    for rows in ([2, 0], [0, 0], [0, 5], [-1], [[0, 1]]):
        with pytest.raises(DimensionError, match="live rows"):
            w.set_live_rows(rows)


def test_adam_rejects_a_gradient_of_other_rows_than_the_live_ones():
    p = Parameter(np.ones((4, 3)), "p")
    p.set_live_rows([1, 2])
    opt = Adam([p], lr=0.01)
    p.grad = np.ones((4, 3))
    with pytest.raises(DimensionError, match="gradient shape"):
        opt.step()
    p.set_live_rows([1, 2, 3])
    p.grad = np.ones((3, 3))
    with pytest.raises(DimensionError, match="gradient shape"):
        opt.step()


@pytest.mark.parametrize("g_shape", [(3, 4), (1, 4), (3, 1)])
def test_first_gradient_equals_a_zero_buffer_plus_g(g_shape):
    rng = np.random.default_rng(13)
    g = rng.standard_normal(g_shape)
    g.flat[0] = -0.0
    g.flat[-1] = 0.0
    if g.size > 2:
        g.flat[1] = np.nan
        g.flat[2] = -np.inf
    t = Tensor(np.ones((3, 4)), requires_grad=True)
    t._accumulate(g)
    want = reference_first_grad(t.data, g)
    assert _same_bits(t.grad, want)
    assert not np.signbit(t.grad.flat[0])
    assert not np.shares_memory(t.grad, g)


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
    with pytest.raises(CheckpointMismatchError, match="no tensor 'y'"):
        load_checkpoint(good, [Parameter(np.zeros((2, 2)), "y")])
    with pytest.raises(CheckpointMismatchError, match="shape mismatch"):
        load_checkpoint(good, [Parameter(np.zeros((3, 2)), "x")])


def test_load_checkpoint_rejects_non_finite_values(tmp_path):
    path = os.path.join(tmp_path, "nan.json")
    save_checkpoint(path, [Parameter(np.ones((2, 2)), "a"),
                           Parameter(np.ones((1, 3)), "layer.w")])
    with open(path) as fh:
        blob = json.load(fh)
    blob["tensors"]["layer.w"]["data"][1] = float("nan")
    with open(path, "w") as fh:
        json.dump(blob, fh)
    params = [Parameter(np.zeros((2, 2)), "a"),
              Parameter(np.zeros((1, 3)), "layer.w")]
    with pytest.raises(ValueError, match="'layer.w'"):
        load_checkpoint(path, params)
    assert all(not p.data.any() for p in params)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_save_checkpoint_refuses_non_finite_values(tmp_path, bad):
    w = np.ones((2, 2))
    w[1, 0] = bad
    path = str(tmp_path / "ck.json")
    with pytest.raises(ValueError, match="'layer.w'"):
        save_checkpoint(path, [Parameter(np.ones((1, 2)), "layer.b"),
                               Parameter(w, "layer.w")])
    assert os.listdir(tmp_path) == []


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
