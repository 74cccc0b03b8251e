import json
import multiprocessing
import os
import signal
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from terasec import autodiff
from terasec.autodiff import (ADAM_BLOCK, ADAM_SHARE_MIN, NEIGHBOR_BLOCK, Adam,
                              GCN_SHARE_MIN, CheckpointMismatchError, Dense,
                              DimensionError, GcnLayer, GraphStateError,
                              NeighborTable, Parameter, RankOneGrad,
                              StackedDense, Tensor, _neighbor_sum,
                              load_checkpoint,
                              normalized_adjacency, save_checkpoint,
                              sub_graph, write_json, xavier_uniform)
from terasec.agent import GrantAgent, TrainConfig
from terasec.baselines import _FlatCritic
from terasec.constellation import WalkerConfig
from terasec.harness import ExperimentConfig, build_environment

import gcn_reference as ref
from backward_reference import (concat_cols, mse, reshape, scale,
                                scatter_rows, slice_cols, tensor_sum)
from conftest import make_env, set_cpus
from optim_reference import (ReferenceAdam, reference_first_grad,
                             reference_rank_one_product)


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
    out.backward(np.ones((1, 1)))
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
#: PATH4 read out at its end row 3: hop is rows 2 and 3
PATH4_END = sub_graph(PATH4, [3])
#: a flat critic whose live entries of a [4, 4] input are all but the last
#: column's: one dead entry in each row, the last entry among them
LIVE_3_OF_4 = _FlatCritic(np.random.default_rng(0),
                          np.tile([True, True, True, False], 4), 2)


def _gcn_with(w, x, *tables):
    """A GcnLayer whose weight is w, applied to x over the tables (PATH4
    for none)."""
    layer = GcnLayer(np.random.default_rng(0), *w.shape, "g")
    layer.w = w
    return layer(x, *(tables or (PATH4,)))


OPS = {
    "matmul": lambda a, b: tensor_sum(a @ b),
    "add": lambda a, b: tensor_sum(a @ b + a @ b),
    "scalar_mul": lambda a, b: tensor_sum(scale(a @ b, 0.37)),
    "tanh": lambda a, b: tensor_sum((a @ b).tanh()),
    "sigmoid": lambda a, b: tensor_sum((a @ b).sigmoid()),
    "softmax": lambda a, b: tensor_sum(
        (a @ b).softmax_rows() @ Tensor(np.arange(3.0).reshape(3, 1))),
    "mean_rows": lambda a, b: tensor_sum((a @ b).mean_rows().tanh()),
    "reshape": lambda a, b: tensor_sum(reshape(a @ b, 1, 12).tanh()),
    "gather": lambda a, b: tensor_sum(ref.gather_rows(a @ b, [0, 2, 2])),
    "scatter": lambda a, b: tensor_sum(
        scatter_rows(a @ b, [1, 3, 0, 5], 6).tanh()),
    "slice": lambda a, b: tensor_sum(slice_cols(a @ b, slice(1, 3)).tanh()),
    "slice_index": lambda a, b: tensor_sum(slice_cols(
        a @ b, np.array([2, 0])).tanh()),
    "concat": lambda a, b: tensor_sum(concat_cols([a @ b, (a @ b).tanh()])),
    "live_row": lambda a, b: tensor_sum(LIVE_3_OF_4.live_row(concat_cols(
        [a @ b, Tensor(np.zeros((4, 1)))])).tanh()),
    "mse": lambda a, b: mse(a @ b, Tensor(np.ones((4, 3)))),
    "propagate": lambda a, b: tensor_sum(ref.propagate((a @ b).tanh(),
                                                       PATH4).tanh()),
    "propagate_rows": lambda a, b: tensor_sum(ref.propagate(
        (a @ b).tanh(), PATH4, [3, 0]).tanh()),
    "gcn_layer": lambda a, b: tensor_sum(_gcn_with(b, a)),
    "gcn_layer_rows": lambda a, b: tensor_sum(_gcn_with(
        Tensor(np.eye(3) * 0.7), _gcn_with(b, a, *PATH4_END.first),
        *PATH4_END.last)),
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
    y = tensor_sum(x)
    y.backward(np.ones((1, 1)))
    assert x.grad[0, 0] == 1.0
    pred = Parameter(np.array([[1.0, 3.0]]), "pred")
    loss = mse(pred, Tensor(np.array([[0.0, 1.0]])))
    loss.backward(np.ones((1, 1)))
    assert np.allclose(pred.grad, 2.0 * np.array([[1.0, 2.0]]) / 2.0)


def test_backward_requires_recorded_graph():
    with pytest.raises(GraphStateError):
        Tensor(np.zeros((1, 1))).backward(np.ones((1, 1)))


#: an op that meets x at two parent slots: the graph, and the gradients of
#: the two slots for a seed g
TWICE = {
    "add": (lambda x: x + x, lambda x, g: (g, g)),
    "matmul": (lambda x: x @ x, lambda x, g: (g @ x.T, x.T @ g)),
    "concat": (lambda x: concat_cols([x, x]),
               lambda x, g: (g[:, :3], g[:, 3:])),
    # the add's gradient, then the mean's: g summed over the rows (plus
    # the mean output's zero buffer), repeated to every row and divided
    "mean_rows": (lambda x: x + x.mean_rows(),
                  lambda x, g: (g, np.repeat(g.sum(axis=0, keepdims=True)
                                             + 0.0, 3, axis=0) / 3)),
    # the mean's gradient first, then the tanh's
    "mean_rows_first": (lambda x: x.tanh() + x.mean_rows(),
                        lambda x, g: (np.repeat(g.sum(axis=0, keepdims=True)
                                                + 0.0, 3, axis=0) / 3,
                                      (g + 0.0) * (1.0 - np.square(
                                          np.tanh(x))))),
}


@pytest.mark.parametrize("name", sorted(TWICE))
def test_a_parent_met_twice_gets_the_sum_of_both_gradients(name):
    """The first gradient is a zero buffer plus the first slot's, and the
    second slot's is added to it."""
    build, slots = TWICE[name]
    rng = np.random.default_rng(21)
    data = rng.standard_normal((3, 3))
    x = Tensor(data, requires_grad=True)
    out = build(x)
    g = rng.standard_normal(out.shape)
    g[0, 0] = -0.0
    out.backward(g)
    first, second = slots(data, g)
    want = reference_first_grad(data, first)
    want += second
    assert _same_bits(x.grad, want)


@pytest.mark.parametrize("owned", [False, True], ids=["copied", "owned"])
def test_a_first_row_gradient_stays_a_row_until_a_full_one_arrives(owned):
    """A first [1, d] gradient for an [n, d] tensor is held as a read-only
    broadcast of one row with the bits of the full first gradient; a full
    second gradient replaces it by a fresh sum with the bits of the
    materialized form's, signed zeros in both included."""
    rng = np.random.default_rng(23)
    data = rng.standard_normal((5, 4))
    row, full = rng.standard_normal((1, 4)), rng.standard_normal((5, 4))
    row[0, :2] = -0.0
    full[:, 0] = -0.0
    x = Tensor(data, requires_grad=True)
    x._accumulate(row.copy())
    first = reference_first_grad(data, np.repeat(row, 5, axis=0))
    assert x.grad.strides[0] == 0 and not x.grad.flags.writeable
    assert _same_bits(x.grad, first)
    x._accumulate(full.copy(), owned)
    first += full
    assert x.grad.flags.writeable
    assert _same_bits(x.grad, first)


def test_a_gcn_layer_backward_runs_once_in_the_incoming_buffer():
    """The layer's backward forms its gradient in a writable incoming
    gradient and leaves the input gradient there; a read-only one gets the
    same bits in fresh buffers.  It drops its aggregation, and
    Tensor.backward walks it once: a second walk raises instead of
    returning no weight gradient."""
    rng = np.random.default_rng(24)
    x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    g = rng.standard_normal((4, 3))
    g[0] = -0.0
    results = []
    for reuse in (True, False):
        layer = GcnLayer(np.random.default_rng(25), 3, 3, "g")
        out = layer(x, PATH4)
        seed = g.copy()
        seed.setflags(write=reuse)
        gx, gw = out._vjp(seed)
        assert np.shares_memory(gx, seed) == reuse
        results.append((_bits(gx), _bits(gw)))
        out = layer(x, PATH4)
        out.backward(g.copy())
        grads = _bits(layer.w.grad), _bits(x.grad)
        with pytest.raises(GraphStateError, match="walked"):
            out.backward(g.copy())
        assert (_bits(layer.w.grad), _bits(x.grad)) == grads
    assert results[0] == results[1]


def test_a_walk_that_raises_leaves_no_closure_to_call_again():
    """backward takes an op's closure and parents off it before calling the
    closure: after a closure raises part-way through a walk, a second walk,
    from the same root or from a new one built on the op that raised,
    raises GraphStateError and calls no closure a second time."""
    w = Parameter(np.ones((2, 2)), "w")
    h = Tensor(np.ones((1, 2))) @ w
    calls = []

    def counted(name, vjp):
        def call(g):
            calls.append(name)
            return vjp(g)
        return call

    def fails(g):
        raise FloatingPointError("the closure fails")

    h._vjp = counted("matmul", h._vjp)
    bad = Tensor._make(h.data, (h,), counted("fails", fails))
    root = bad.tanh()
    root._vjp = counted("tanh", root._vjp)
    with pytest.raises(FloatingPointError):
        root.backward(np.ones((1, 2)))
    assert calls == ["tanh", "fails"]
    for again in (root, scale(bad, 2.0)):
        with pytest.raises(GraphStateError, match="walked"):
            again.backward(np.ones((1, 2)))
    assert calls == ["tanh", "fails"] and w.grad is None
    assert bad._vjp is None and bad._parents is None


def test_a_parent_that_stops_requiring_a_gradient_gets_none():
    """requires_grad is read at backward time: a parent switched off after
    the forward pass gets no gradient, and the others get theirs."""
    rng = np.random.default_rng(22)
    x = Tensor(rng.standard_normal((2, 4)), requires_grad=True)
    w = Parameter(rng.standard_normal((4, 3)), "w")
    out = tensor_sum((x @ w).tanh()) + tensor_sum(x)
    x.requires_grad = False
    out.backward(np.ones((1, 1)))
    assert x.grad is None
    want = Parameter(w.data.copy(), "w")
    tensor_sum((Tensor(x.data) @ want).tanh()).backward(np.ones((1, 1)))
    assert _same_bits(w.grad, want.grad)


def test_an_op_records_its_graph_when_any_parent_needs_a_gradient():
    """_make takes the op's array as its output's data, and records the
    graph when any parent requires a gradient, the first or a later one."""
    w = Parameter(np.ones((2, 2)), "w")
    c = Tensor(np.ones((2, 2)))
    for parents, recorded in (((c, w), True), ((w, c), True),
                              ((c, c), False)):
        data = np.zeros((2, 2))
        out = Tensor._make(data, parents, lambda g: (g, g))
        assert out.data is data and out.requires_grad == recorded
        assert out._parents == (parents if recorded else ())
        assert (out._vjp is not None) == recorded


def test_an_op_output_forms_a_rank_one_gradient_at_once():
    """A leaf holds a first RankOneGrad as its factors; an op's output,
    whose own op reads its gradient, holds the formed array, with the
    same bits."""
    rng = np.random.default_rng(31)
    x, g = rng.standard_normal((1, 3)), rng.standard_normal((1, 4))
    x[0, 0] = -0.0
    leaf = Tensor(np.zeros((3, 4)), requires_grad=True)
    op = Tensor._make(np.zeros((3, 4)), (leaf,), lambda g: (g,))
    for t in (leaf, op):
        t._accumulate(RankOneGrad(x, g))
    assert isinstance(leaf._grad, RankOneGrad)
    assert type(op._grad) is np.ndarray
    assert _same_bits(op._grad, leaf.grad)


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
    """The reference chain's propagation, whose neighbor sum the layer
    runs: forward is a_norm @ x and backward a_norm.T @ g, to 1e-12
    relative to the sum of the terms' magnitudes (|a_norm| @ |x|): a row
    whose terms cancel has no element-wise relative bound in any summation
    order."""
    n, edges = GRAPHS[graph]()
    a_norm = ref.normalized_adjacency(ref.dense_adjacency(n, edges))
    table = normalized_adjacency(n, edges)
    rng = np.random.default_rng(n)
    x = Parameter(rng.standard_normal((n, 7)), "x")
    g = rng.standard_normal((n, 7))
    out = ref.propagate(x, table)
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


def _random_table(rng, n, isolated):
    """A random graph's table on n nodes of which the last `isolated` have
    no edge: their rows hold the self-loop alone and padding."""
    linked = n - isolated
    edges = rng.integers(0, max(linked, 1), size=(3 * linked, 2))
    edges = edges[edges[:, 0] != edges[:, 1]]
    return normalized_adjacency(n, edges)


def _signed_features(rng, n, d):
    """Random features with whole rows of -0.0 and +0.0, so a row whose
    terms are all zeros has a sign to keep."""
    x = rng.standard_normal((n, d))
    x[rng.random(n) < 0.2] = -0.0
    x[rng.random(n) < 0.1] = 0.0
    return x


def _row_blocks(n, w, d) -> list:
    """The heights of _neighbor_sum's row blocks over an [n, w] table at d
    columns: as many blocks of equal height as the terms hold
    NEIGHBOR_BLOCK elements, the last one shorter where n does not divide."""
    blocks = max(1, round(n * w * d / NEIGHBOR_BLOCK))
    per = max(1, -(-n // blocks))
    return [min(per, n - lo) for lo in range(0, n, per)]


@pytest.mark.parametrize("isolated", [0, 5, "all"])
@pytest.mark.parametrize("width", [1, 9, 52, 128])
def test_blocked_neighbor_sum_has_the_bits_of_the_k_loop(width, isolated):
    """The row-blocked kernel against the whole-column k-loop over a zero
    buffer, on the last n rows of one w-wide table: terms of one block below
    and one above NEIGHBOR_BLOCK elements, two blocks of unequal height and
    three; with isolated nodes, and with no edge at all (a table one
    neighbor wide); on inputs spanning e^+-30.  Row 0, whose terms are all
    -0.0, sums to +0.0 in both, and no output bit depends on the sign of a
    zero input, which GcnLayer's backward relies on."""
    rng = np.random.default_rng(width)
    big = 4 * NEIGHBOR_BLOCK // width + 7
    graph = _random_table(rng, big, big if isolated == "all" else isolated)
    w = graph.idx.shape[1]
    per = NEIGHBOR_BLOCK // (w * width)
    heights = []
    for n in (per // 2, per + per // 3, 2 * per + 7, 3 * per + 5):
        table = NeighborTable(graph.idx[-n:], graph.weight[-n:])
        if isolated == "all":
            assert w == 1
        else:
            assert np.any(table.weight == 0.0)    # padded rows
        x = _signed_features(rng, big, width)
        x *= np.exp(rng.uniform(-30.0, 30.0, x.shape))
        x[table.idx[0]] = -0.0        # every term of row 0 is -0.0
        got, want = _neighbor_sum(x, table), ref.neighbor_sum(x, table)
        assert got.tobytes() == want.tobytes()
        assert np.array_equal(np.signbit(got), np.signbit(want))
        assert not np.any(np.signbit(got[0]) | np.signbit(want[0]))
        assert np.all(got[0] == 0.0)
        flipped = np.where(x == 0.0, -x, x)     # every zero's sign flipped
        assert _neighbor_sum(flipped, table).tobytes() == got.tobytes()
        heights.append(_row_blocks(n, w, width))
    assert [len(h) for h in heights] == [1, 1, 2, 3]
    assert (heights[0][0] * w * width < NEIGHBOR_BLOCK
            < heights[1][0] * w * width)
    assert heights[2][0] != heights[2][1]


@pytest.mark.parametrize("graph", ["isolated", "env_seed1_src200"])
def test_propagate_at_rows_has_the_bits_of_a_gather(graph):
    """The reference chain's propagate(x, table, rows) forward and backward
    against the full propagation followed by a gather of those rows."""
    n, edges = GRAPHS[graph]()
    table = normalized_adjacency(n, edges)
    rng = np.random.default_rng(n)
    rows = rng.permutation(n)[:max(1, n // 7)]
    data = _signed_features(rng, n, 128)
    g = _signed_features(rng, rows.size, 128)
    x, x_ref = Parameter(data, "x"), Parameter(data.copy(), "x")
    out = ref.propagate(x, table, rows)
    out_ref = ref.gather_rows(ref.propagate(x_ref, table), rows)
    assert out.data.tobytes() == out_ref.data.tobytes()
    out.backward(g)
    out_ref.backward(g)
    assert x.grad.tobytes() == x_ref.grad.tobytes()


@pytest.mark.parametrize("rows", [[0, 3, 0], [5], [-1], [[0, 1]]],
                         ids=["repeated", "past_n", "negative", "nested"])
def test_propagate_rejects_rows_outside_the_graph(rows):
    """The reference chain at every call, and the layer's tables once,
    where they are built."""
    table = normalized_adjacency(5, ring_edges(5))
    with pytest.raises(DimensionError):
        ref.propagate(Tensor(np.ones((5, 3))), table, rows)
    with pytest.raises(DimensionError):
        sub_graph(table, rows)


@pytest.mark.parametrize("graph", sorted(GRAPHS))
def test_a_sub_graph_holds_the_rows_neighbourhood_and_its_tables(graph):
    """hop is the rows and their neighbours, ascending; each table holds
    the graph's entries at its rows, re-indexed to the layer's input rows,
    and each back table those of the input rows, re-indexed to the output
    rows or the zero row after them."""
    n, edges = GRAPHS[graph]()
    table = normalized_adjacency(n, edges)
    rows = np.random.default_rng(n).permutation(n)[:max(1, n // 7)]
    sub = sub_graph(table, rows)
    assert sub.rows.tolist() == rows.tolist()
    assert sub.hop.tolist() == ref.hop_rows(table, rows).tolist()
    a = ref.dense_matrix(table)
    for (fwd, back), outs, ins in ((sub.first, sub.hop, np.arange(n)),
                                   (sub.last, rows, sub.hop)):
        assert np.array_equal(ref.dense_matrix(fwd, ins.size),
                              a[np.ix_(outs, ins)])
        with_zero = ref.dense_matrix(back, outs.size + 1)
        assert np.array_equal(with_zero[:, :-1], a[np.ix_(ins, outs)])
        for part in (*fwd, *back):
            assert not part.flags.writeable


def test_a_gcn_layer_at_rows_has_the_bits_of_the_full_layer():
    """At 1,400 nodes a layer computed at 200 rows from their sub-graph's
    hop rows keeps the full layer's forward and input gradient bit for bit
    (zero outside hop).  Its weight gradient is the product over those 200
    rows alone, (A_norm @ F)[rows].T @ dF': BLAS splits the full layer's
    sum over 1,400 rows into blocks, so the two sum in another order and
    agree to rounding, not bit for bit."""
    n = 1400
    rng = np.random.default_rng(3)
    table = _random_table(rng, n, 10)
    rows = rng.permutation(n)[:200]
    sub = sub_graph(table, rows)
    feats = rng.standard_normal((n, 128))
    g = rng.standard_normal((rows.size, 128))
    grads = []
    for restricted in (True, False):
        layer = GcnLayer(np.random.default_rng(4), 128, 128, "g")
        if restricted:
            x = Parameter(feats[sub.hop], "x")
            out = layer(x, *sub.last)
        else:
            x = Parameter(feats.copy(), "x")
            out = ref.gather_rows(layer(x, table), rows)
        out.backward(g)
        grads.append((out.data, layer.w.grad, x.grad))
    (out, gw, gx), (out_full, gw_full, gx_full) = grads
    assert out.tobytes() == out_full.tobytes()
    assert gx.tobytes() == gx_full[sub.hop].tobytes()
    assert not np.delete(gx_full, sub.hop, axis=0).any()
    d = g * (1.0 - out**2) + 0.0
    agg = _neighbor_sum(feats, table)[rows]
    assert gw.tobytes() == (agg.T @ d).tobytes()
    np.testing.assert_allclose(gw, gw_full, rtol=1e-11, atol=0)


def _bits(a):
    return None if a is None else (a.shape, a.tobytes())


#: (the input needs a gradient, the weights are frozen) of each case
GCN_CASES = {"constant_input": (False, False), "input_grad": (True, False),
             "frozen_weights": (True, True), "no_graph": (False, True)}


def _one_op_layers(gcn1, gcn2, x, table, rows):
    """Two stacked GcnLayers, at every row or over rows' sub-graph."""
    if rows is None:
        return gcn2(gcn1(x, table), table)
    sub = sub_graph(table, rows)
    return gcn2(gcn1(x, *sub.first), *sub.last)


def _chain_layers(gcn1, gcn2, x, table, rows):
    """The same two layers as the reference's three-op chains."""
    if rows is None:
        return ref.chain_gcn_call(gcn2, ref.chain_gcn_call(gcn1, x, table),
                                  table)
    return ref.chain_sub_graph_call(gcn1, gcn2, x, table, rows)


@pytest.mark.parametrize("at_rows", [False, True], ids=["every_row", "rows"])
@pytest.mark.parametrize("case", sorted(GCN_CASES))
@pytest.mark.parametrize("graph", ["isolated", "env_seed1_src200"])
def test_a_gcn_layer_has_the_bits_of_the_three_op_chain(graph, case,
                                                        at_rows):
    """Two stacked layers, read out at some rows (over their sub-graph) or
    at every row, as one op each and as the propagate -> matmul -> tanh
    chain they replaced: the outputs and every leaf's .grad (input, both
    weights) have the same bits, signed zeros in the input and the seed
    included."""
    n, edges = GRAPHS[graph]()
    table = normalized_adjacency(n, edges)
    rng = np.random.default_rng(n)
    rows = rng.permutation(n)[:max(1, n // 7)] if at_rows else None
    needs_grad, frozen = GCN_CASES[case]
    feats = _signed_features(rng, n, 9)
    seed = _signed_features(rng, n if rows is None else rows.size, 128)
    results = []
    for layers in (_one_op_layers, _chain_layers):
        layer_rng = np.random.default_rng(8)
        gcn1 = GcnLayer(layer_rng, 9, 128, "g1")
        gcn2 = GcnLayer(layer_rng, 128, 128, "g2")
        x = Tensor(feats.copy(), requires_grad=needs_grad)
        for w in (gcn1.w, gcn2.w):
            w.requires_grad = not frozen
        out = layers(gcn1, gcn2, x, table, rows)
        if out.requires_grad:
            out.backward(seed)
        results.append([_bits(t) for t in (out.data, x.grad, gcn1.w.grad,
                                           gcn2.w.grad)])
    assert results[0] == results[1]
    assert [g is not None for g in results[0][1:]] == [needs_grad,
                                                       not frozen, not frozen]


def test_gcn_layer_gradient_at_rows():
    """Finite differences through two layers over a sub-graph's tables:
    the first at hop from every row, the last at the rows from hop."""
    rng = np.random.default_rng(6)
    first = GcnLayer(rng, 3, 2, "g1")
    last = GcnLayer(rng, 2, 2, "g2")
    sub = sub_graph(PATH4, [2, 0])
    feats = Parameter(rng.standard_normal((4, 3)), "feats")
    check_gradient(
        lambda: tensor_sum(last(first(feats, *sub.first), *sub.last).tanh()),
        [feats, *first.parameters(), *last.parameters()])


def test_propagate_rejects_a_row_count_mismatch():
    table = normalized_adjacency(5, ring_edges(5))
    for rows in (4, 6):
        with pytest.raises(DimensionError):
            ref.propagate(Tensor(np.ones((rows, 3))), table)
    layer = GcnLayer(np.random.default_rng(0), 3, 2, "g")
    with pytest.raises(DimensionError):
        layer(Tensor(np.ones((4, 3))), table)


# -- layers -------------------------------------------------------------------

def test_gcn_layer_gradient():
    rng = np.random.default_rng(5)
    layer = GcnLayer(rng, 3, 2, "g")
    table = normalized_adjacency(3, [(0, 1), (1, 2)])
    feats = rng.standard_normal((3, 3))
    check_gradient(lambda: tensor_sum(layer(Tensor(feats), table)),
                   layer.parameters())


def test_dense_gradient_and_shapes():
    rng = np.random.default_rng(6)
    layer = Dense(rng, 4, 3, "d")
    x = rng.standard_normal((5, 4))
    check_gradient(lambda: tensor_sum(layer(Tensor(x)).tanh()),
                   layer.parameters())
    with pytest.raises(DimensionError):
        Tensor(np.zeros((2, 3))) @ Tensor(np.zeros((2, 3)))


def test_rowwise_matmul_gradient():
    """Finite differences in both arguments, through a stacked dense layer
    and a plain rowwise product."""
    rng = np.random.default_rng(7)
    layer = StackedDense(rng.standard_normal((4, 5, 3)) * 0.7, "s")
    x = Parameter(rng.standard_normal((4, 5)) * 0.7, "x")
    w = Parameter(rng.standard_normal((4, 3, 2)) * 0.7, "w")
    check_gradient(
        lambda: tensor_sum(
            layer(x).tanh().rowwise_matmul(w).softmax_rows().sigmoid()),
        [x, w, *layer.parameters()])


#: (d, o) of every private actor layer of the dense baseline
ACTOR_SHAPES = [(9, 128), (8, 128), (128, 128), (128, 1), (128, 5), (128, 17)]


@pytest.mark.parametrize("d,o", ACTOR_SHAPES)
def test_rowwise_matmul_equals_the_per_row_product(d, o):
    """Output, input gradient and weight gradient have the bits of
    x[i:i+1] @ w[i] and its backward, row by row."""
    rng = np.random.default_rng(d * 1000 + o)
    b = 7
    x = rng.standard_normal((b, d))
    x[1, ::3] = 0.0
    x[2, ::5] = -0.0
    w = rng.standard_normal((b, d, o)) * 0.1
    g = rng.standard_normal((b, o))
    g[3, ::2] = -0.0
    xt = Tensor(x.copy(), requires_grad=True)
    wt = Parameter(w.copy(), "w")
    out = xt.rowwise_matmul(wt)
    out.backward(g)
    for i in range(b):
        xi = Tensor(x[i:i + 1].copy(), requires_grad=True)
        wi = Parameter(w[i].copy(), "wi")
        yi = xi @ wi
        yi.backward(g[i:i + 1])
        assert _same_bits(out.data[i:i + 1], yi.data), i
        assert _same_bits(xt.grad[i:i + 1], xi.grad), i
        assert _same_bits(wt.grad[i], wi.grad), i


def test_rowwise_matmul_rejects_mismatched_shapes():
    x = Tensor(np.ones((3, 4)))
    for shape in ((2, 4, 5), (3, 5, 5), (4, 5)):
        with pytest.raises(DimensionError, match="rowwise matmul shapes"):
            x.rowwise_matmul(Parameter(np.ones(shape), "w"))
    x.rowwise_matmul(Parameter(np.ones((3, 4, 5)), "w"))


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


@pytest.fixture
def fast_switching():
    """Threads switch as often as the interpreter lets them."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(interval)


#: (shape, memory order) of each parameter of the differential Adam test,
#: [B, d, o] stacks among them, one with matrices wider than a block
ADAM_CASES = [((1, 1), "C"), ((1, ADAM_BLOCK - 1), "C"), ((ADAM_BLOCK, 1), "C"),
              ((1, ADAM_BLOCK + 1), "C"), ((2 * ADAM_BLOCK + 7, 1), "C"),
              ((40, 9, 128), "C"), ((5, 130, 130), "C"),
              ((3, ADAM_BLOCK // 2 + 5), "F")]
#: the differential Adam test's parameters: a stacked rank-one gradient
#: first, the ADAM_CASES, a one-row rank-one gradient and a parameter wider
#: than ADAM_SHARE_MIN, so that 2 and 3 shares cut parameters mid-block
ADAM_SPLIT_CASES = ([((3, 100, 700), "C")] + ADAM_CASES
                    + [((300, 700), "C"), ((1, ADAM_SHARE_MIN + 5), "C")])
ADAM_RANK_ONE = {0: 3, len(ADAM_CASES) + 1: 1}  # parameter: factor rows


@pytest.mark.parametrize("shares", [1, 2, 3])
def test_adam_equals_the_reference_step(shares, monkeypatch, fast_switching):
    """Five in-place blocked steps equal today's whole-array Adam bit for
    bit, with mixed lr scales, weight stacks, an F-ordered input, a missing
    gradient, signed zeros, NaN gradients and rank-one gradients, stacked
    and one-row, whatever the number of shares the step splits into (3
    shares run more threads than the host may have CPUs).  The parameters
    the shares cut have no zero gradient, so an element a share updates
    twice or leaves out changes a bit."""
    set_cpus(monkeypatch, shares)
    sizes = np.cumsum([0] + [np.prod(shape) for shape, _ in ADAM_SPLIT_CASES])
    cut = set()
    for k in range(1, shares):
        edge = sizes[-1] * k // shares
        i = int(np.searchsorted(sizes, edge, side="right")) - 1
        assert (edge - sizes[i]) % ADAM_BLOCK, (k, i)  # mid-block
        cut.add(i)
    # the wide parameter, and at 3 shares the one-row rank-one one too
    assert cut == [set(), {10}, {9, 10}][shares - 1]
    rng = np.random.default_rng(11)
    inits = [np.asarray(rng.standard_normal(shape), order=order)
             for shape, order in ADAM_SPLIT_CASES]
    params = [Parameter(x.copy(order="K"), f"p{i}")
              for i, x in enumerate(inits)]
    ref = [Tensor(x.copy(order="K"), requires_grad=True) for x in inits]
    assert not ref[8].data.flags.c_contiguous
    scales = [0.3, 1.0, 0.1, 10.0, 0.02, 1.0, 0.1, 1.0, 0.5, 2.0, 1.0]
    opt = Adam(params, lr=0.03, lr_scales=scales)
    ref_opt = ReferenceAdam(ref, lr=0.03, lr_scales=scales)
    for step in range(5):
        for i, (p, r) in enumerate(zip(params, ref)):
            if i in ADAM_RANK_ONE:
                b, (d, o) = ADAM_RANK_ONE[i], p.shape[-2:]
                held = RankOneGrad(rng.standard_normal((b, d)),
                                   rng.standard_normal((b, o)))
                p._grad = held
                r.grad = reference_first_grad(
                    r.data, reference_rank_one_product(held, p.shape))
                continue
            g = rng.standard_normal(p.data.shape) * 10.0 ** rng.integers(-6, 3)
            if i <= len(ADAM_CASES):
                g.flat[::3] = 0.0
                g.flat[1::7] = -0.0
            if i == 2:
                g.flat[::5] = np.nan
            if i == 3 and step == 1:
                g = None
            p.grad = None if g is None else g.copy()
            r.grad = None if g is None else g.copy()
        opt.step()
        ref_opt.step()
        assert len(opt._scratch) == shares
        for i, (p, r) in enumerate(zip(params, ref)):
            assert _same_bits(p.data, r.data), (step, i)
            assert _same_bits(opt.m[i], ref_opt.m[i]), (step, i)
            assert _same_bits(opt.v[i], ref_opt.v[i]), (step, i)


@pytest.mark.parametrize("shares", [1, 3])
def test_adam_moments_and_scratch_start_on_64_byte_lines(shares, monkeypatch):
    """Each moment and scratch buffer starts on a 64-byte line, whatever
    offset the heap gives its allocation: nine sizes in a row."""
    set_cpus(monkeypatch, shares)
    params = [Parameter(np.ones((1, n)), f"p{n}") for n in range(1, 10)]
    params.append(Parameter(np.ones(ADAM_SHARE_MIN), "wide"))
    opt = Adam(params, lr=0.01)
    for p in params:
        p.grad = np.ones(p.shape)
    opt.step()
    assert len(opt._scratch) == shares
    bufs = opt.m + opt.v + [b for pair in opt._scratch for b in pair]
    assert all(b.ctypes.data % 64 == 0 for b in bufs)
    assert all(b.size == ADAM_BLOCK for pair in opt._scratch for b in pair)


@pytest.mark.parametrize("failing", [0, 1])
def test_a_share_that_raises_fails_the_step_and_leaves_no_thread(
        failing, monkeypatch):
    """A RankOneGrad.fill that raises in the first share or in the second
    makes step raise that error.  The step starts no thread beyond the
    pool's worker, which a first step started, and the pool serves the
    next step."""
    set_cpus(monkeypatch, 2)
    p = Parameter(np.zeros((1024, 1025)), "w")
    assert p.data.size >= ADAM_SHARE_MIN
    opt = Adam([p], lr=0.01)
    p.grad = np.ones(p.shape)
    opt.step()
    before = threading.active_count()
    fill = RankOneGrad.fill

    def fail_in_share(self, lo, out):
        if (lo >= p.data.size // 2) == bool(failing):
            raise FloatingPointError(f"share {failing}")
        return fill(self, lo, out)

    monkeypatch.setattr(RankOneGrad, "fill", fail_in_share)
    p._grad = RankOneGrad(np.ones((1, 1024)), np.ones((1, 1025)))
    with pytest.raises(FloatingPointError, match=f"share {failing}"):
        opt.step()
    assert threading.active_count() == before
    p.grad = np.ones(p.shape)
    opt.step()
    assert threading.active_count() == before


def _shares_spy(monkeypatch):
    """[(n, shares, {thread names that ran a share})] of every _in_shares
    call from now on."""
    calls, real = [], autodiff._in_shares

    def spy(fn, n, shares):
        ran = set()

        def share(k, lo, hi):
            ran.add(threading.current_thread().name)
            return fn(k, lo, hi)

        calls.append((n, shares, ran))
        return real(share, n, shares)

    monkeypatch.setattr(autodiff, "_in_shares", spy)
    return calls


@pytest.mark.parametrize("sizes", [[ADAM_SHARE_MIN - 1], [5, 7, 1000]])
def test_an_optimizer_below_the_share_minimum_runs_alone(sizes, monkeypatch):
    """Below ADAM_SHARE_MIN elements an optimizer holds one scratch pair and
    runs its one share on the caller, on any number of CPUs; at
    ADAM_SHARE_MIN it splits its elements into one share per CPU, which
    the caller and the pool's workers (one per CPU but the caller's) run."""
    set_cpus(monkeypatch, 3)
    calls = _shares_spy(monkeypatch)
    params = [Parameter(np.ones((1, n)), f"p{n}") for n in sizes]
    opt = Adam(params, lr=0.01)
    for p in params:
        p.grad = np.ones(p.shape)
    opt.step()
    main = threading.current_thread().name
    assert len(opt._scratch) == 1
    assert calls == [(sum(sizes), 1, {main})]
    params.append(Parameter(np.ones((1, ADAM_SHARE_MIN - sum(sizes))), "x"))
    opt = Adam(params, lr=0.01)
    opt.step()
    assert len(opt._scratch) == 3
    assert calls[1][:2] == (ADAM_SHARE_MIN, 3)
    assert autodiff._pool[1] >= 2


# -- GCN neighbor sums split across the CPUs -----------------------------------

def _bench_window(n_sources):
    """The benchmark's window at n_sources: its source-selection seed."""
    return build_environment(ExperimentConfig.from_dict({
        "policy": "grant", "n_sources": n_sources, "train": {"steps": 1},
        "source_selection": {"seed": 999_999}}), 1)


@pytest.fixture(scope="module")
def window_tables():
    """The gcn_grant_s200 window's 1,365-row table and its offloading
    sources' SubGraph, whose first layer has 848 rows."""
    env = _bench_window(200)
    table = normalized_adjacency(len(env.involved), env.edges)
    sub = sub_graph(table, env._offload_rows[:, 0])
    assert table.idx.shape[0] == 1365 and len(sub.hop) == 848
    return table, sub


def _split_layers(tables, width, case, root, hidden=128):
    """Bits of two stacked layers' output and every .grad, `hidden` wide,
    at every row of the window's table or over its SubGraph, with the
    GCN_CASES case's gradients, the backward seeded at the output (a
    writable gradient) or at its row mean (a read-only row broadcast)."""
    table, sub = tables
    first, last = (table,), (table,)
    if sub is not None:
        first, last = sub.first, sub.last
    rng = np.random.default_rng(width)
    needs_grad, frozen = GCN_CASES[case]
    x = Tensor(_signed_features(rng, table.idx.shape[0], width),
               requires_grad=needs_grad)
    gcn1 = GcnLayer(rng, width, hidden, "g1")
    gcn2 = GcnLayer(rng, hidden, hidden, "g2")
    for w in (gcn1.w, gcn2.w):
        w.requires_grad = not frozen
    out = gcn2(gcn1(x, *first), *last)
    top = out.mean_rows() if root == "mean" else out
    top.backward(_signed_features(rng, *top.shape))
    return [_bits(t) for t in (out.data, x.grad, gcn1.w.grad, gcn2.w.grad)]


def _sum_shares_spy(monkeypatch):
    """[(output elements, shares)] of every neighbor sum from now on."""
    sums, runs = [], _shares_spy(monkeypatch)
    real = autodiff._neighbor_sum

    def spy(x, table, out=None):
        got = real(x, table, out)
        sums.append((got.size, runs[-1][1]))  # the one _in_shares call
        return got

    monkeypatch.setattr(autodiff, "_neighbor_sum", spy)
    return sums


@pytest.mark.parametrize("root", ["out", "mean"])
@pytest.mark.parametrize("case", ["input_grad", "frozen_weights",
                                  "constant_input"])
@pytest.mark.parametrize("graph", ["whole", "sub"])
@pytest.mark.parametrize("width", [8, 9, 52, 128])
@pytest.mark.parametrize("cpus", [2, 3])
def test_a_split_gcn_layer_has_the_one_share_bits(
        window_tables, monkeypatch, cpus, width, graph, case, root):
    """Two stacked layers 128, 226 or 300 wide on the 1,365-row window, at
    every row or over the sources' SubGraph, on 2 or 3 CPUs: the output and
    every .grad have the bits of one CPU, for input widths 8, 9, 52 and
    128.  A row slice of a product with W may differ from the whole
    product in its last width mod 8 columns, so only the neighbor sums
    split: each of GCN_SHARE_MIN output elements into one share per CPU,
    each smaller one not at all."""
    table, sub = window_tables
    tables = (table, sub if graph == "sub" else None)
    for hidden in (128, 226, 300):
        set_cpus(monkeypatch, 1)
        want = _split_layers(tables, width, case, root, hidden)
        set_cpus(monkeypatch, cpus)
        with pytest.MonkeyPatch.context() as patch:
            sums = _sum_shares_spy(patch)
            assert _split_layers(tables, width, case, root, hidden) == want
        assert any(shares > 1 for _, shares in sums)
        assert all(shares == (cpus if size >= GCN_SHARE_MIN else 1)
                   for size, shares in sums), hidden


def _sum_shapes(n_sources):
    """The output shapes of one training step's neighbor sums on the
    benchmark's window at n_sources."""
    agent = GrantAgent(_bench_window(n_sources), TrainConfig(seed=1, steps=1))
    shapes, real = set(), autodiff._neighbor_sum

    def spy(x, table, out=None):
        got = real(x, table, out)
        shapes.add(got.shape)
        return got

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(autodiff, "_neighbor_sum", spy)
        agent.run_training()
    return shapes


def test_gcn_share_min_parts_the_10_and_200_source_layers():
    """Every neighbor sum of the paper_grant_s10 window (291 involved
    nodes) stays below GCN_SHARE_MIN; on the gcn_grant_s200 window the
    848 x 128, 1,365 x 52 and 1,365 x 128 sums reach it, and the 848 x 9
    and 1,365 x 8 first-layer sums and the sources' 200 x 128 ones do
    not."""
    assert max(r * c for r, c in _sum_shapes(10)) == 291 * 128 < GCN_SHARE_MIN
    shapes = _sum_shapes(200)
    assert ({s for s in shapes if s[0] * s[1] >= GCN_SHARE_MIN}
            == {(848, 128), (1365, 52), (1365, 128)})
    assert ({s for s in shapes if s[0] * s[1] < GCN_SHARE_MIN}
            == {(848, 9), (1365, 8), (200, 128)})


def test_a_busy_worker_leaves_its_share_to_the_caller(window_tables,
                                                      monkeypatch):
    """With every worker of the pool held inside another run's share, a
    split neighbor sum runs every share on the caller, with the same
    bits."""
    set_cpus(monkeypatch, 1)
    want = _split_layers(window_tables, 52, "input_grad", "out")
    set_cpus(monkeypatch, 2)
    autodiff._in_shares(lambda k, lo, hi: None, 2, 2)   # the pool exists
    jobs, workers = autodiff._pool
    hold, held = threading.Event(), threading.Semaphore(0)

    def holding(k, lo, hi):
        held.release()
        assert hold.wait(60)

    busy = autodiff._Run(holding, workers, workers)
    for _ in range(workers):
        jobs.put(busy)
    try:
        for _ in range(workers):
            assert held.acquire(timeout=60)
        calls = _shares_spy(monkeypatch)
        assert _split_layers(window_tables, 52, "input_grad", "out") == want
    finally:
        hold.set()
        for _ in range(workers):
            assert busy.ended.acquire(timeout=60)
    main = threading.current_thread().name
    assert calls and all(ran == {main} for _, _, ran in calls)


@pytest.mark.parametrize("failing", [0, 1])
def test_a_share_error_reaches_the_caller_after_every_started_share(
        failing):
    """Either share's error is raised in the caller once both shares have
    ended, also when a worker runs a share four times as long as the
    caller's (the call repeats until a worker has run one); the pool
    serves the next call."""
    for _ in range(20):
        ended, on_worker = [], []

        def share(k, lo, hi):
            worker = threading.current_thread().name == "terasec-share"
            on_worker.append(worker)
            time.sleep(0.2 if worker else 0.05)
            ended.append(k)
            if k == failing:
                raise FloatingPointError(f"share {k}")

        with pytest.raises(FloatingPointError, match=f"share {failing}"):
            autodiff._in_shares(share, 10, 2)
        assert sorted(ended) == [0, 1]
        if any(on_worker):
            break
    assert any(on_worker)
    got = []
    autodiff._in_shares(lambda k, lo, hi: got.append((lo, hi)), 10, 2)
    assert sorted(got) == [(0, 5), (5, 10)]


def test_concurrent_callers_run_each_share_once(monkeypatch, fast_switching):
    """Four threads call _in_shares at once, 3 shares a call on a host that
    may have fewer CPUs, with threads switching as often as they can: every
    call runs each of its shares exactly once, over its own rows."""
    set_cpus(monkeypatch, 3)
    bad = []

    def caller():
        for _ in range(50):
            seen = []
            autodiff._in_shares(lambda k, lo, hi: seen.append((k, lo, hi)),
                                30, 3)
            if sorted(seen) != [(0, 0, 10), (1, 10, 20), (2, 20, 30)]:
                bad.append(seen)

    threads = [threading.Thread(target=caller) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(120)
        assert not t.is_alive()
    assert not bad


def test_the_pool_workers_hold_back_every_signal():
    """A worker blocks every signal, so SIGINT and SIGTERM reach the thread
    that may hold them back around a CSV row."""
    masks = {}

    def share(k, lo, hi):
        time.sleep(0.01)
        masks[threading.current_thread().name] = signal.pthread_sigmask(
            signal.SIG_BLOCK, [])

    for _ in range(50):
        autodiff._in_shares(share, 2, 2)
        if "terasec-share" in masks:
            break
    assert masks["terasec-share"] >= {signal.SIGINT, signal.SIGTERM}


def _split_layer_bits(conn, tables):
    conn.send(_split_layers(tables, 9, "constant_input", "out"))


def test_a_forked_child_runs_a_split_layer_on_a_pool_of_its_own(
        window_tables, monkeypatch):
    """A child forked after the pool started does not wait on the parent's
    workers, which it lacks: it makes its own pool, and its split layer
    has the one-share bits."""
    set_cpus(monkeypatch, 1)
    want = _split_layers(window_tables, 9, "constant_input", "out")
    set_cpus(monkeypatch, 2)
    assert _split_layers(window_tables, 9, "constant_input", "out") == want
    assert autodiff._pool is not None
    ctx = multiprocessing.get_context("fork")
    ours, theirs = ctx.Pipe()
    child = ctx.Process(target=_split_layer_bits,
                        args=(theirs, window_tables))
    child.start()
    try:
        assert ours.poll(120), "the child's split layer did not finish"
        assert ours.recv() == want
    finally:
        child.kill()
        child.join()


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
    """A step that meets a parameter it cannot update raises before it moves
    any parameter, moment or the step count: no half-applied step."""
    rng = np.random.default_rng(14)
    good = Parameter(rng.standard_normal((3, 4)), "good")
    p = Parameter(rng.standard_normal((3, 4)), "p")
    opt = Adam([good, p], lr=0.01)
    good.grad, p.grad = rng.standard_normal((2, 3, 4))
    opt.step()

    def state():
        return [a.copy() for a in [good.data, p.data] + opt.m + opt.v]

    before = state()
    good.grad = rng.standard_normal((3, 4))
    p.data = np.asfortranarray(p.data)
    with pytest.raises(DimensionError, match="C-contiguous"):
        opt.step()
    assert opt.step_count == 1
    assert all(_same_bits(a, b) for a, b in zip(state(), before))
    p.data = np.ascontiguousarray(p.data)
    p.grad = np.ones((4, 3))
    with pytest.raises(DimensionError, match="gradient shape"):
        opt.step()
    assert opt.step_count == 1
    assert all(_same_bits(a, b) for a, b in zip(state(), before))


@pytest.mark.parametrize("g_shape", [(3, 4), (1, 4), (3, 1)])
def test_first_gradient_equals_a_zero_buffer_plus_g(g_shape):
    """A first gradient has the bits of a zero buffer plus g; one of
    another shape is held as a read-only broadcast, and a second gradient
    gives the writeable sum."""
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
    assert t.grad.flags.writeable == (g_shape == t.shape)
    g2 = rng.standard_normal(g_shape)
    t._accumulate(g2)
    want += g2
    assert _same_bits(t.grad, want)
    assert t.grad.flags.writeable


def test_an_owned_first_gradient_is_taken_over_in_place():
    rng = np.random.default_rng(17)
    g = rng.standard_normal((3, 4))
    g.flat[:3] = [-0.0, np.nan, -np.inf]
    want = reference_first_grad(np.ones((3, 4)), g)
    t = Tensor(np.ones((3, 4)), requires_grad=True)
    t._accumulate(g, owned=True)
    assert t.grad is g
    assert _same_bits(t.grad, want)
    t._accumulate(np.ones((3, 4)), owned=True)
    assert _same_bits(t.grad, want + 1.0)


@pytest.mark.parametrize("stacked", [False, True])
def test_matmul_first_gradients_equal_a_zero_buffer_plus_the_product(stacked):
    """The products a matmul takes over as first gradients keep the bits of
    a zero buffer plus the product, NaN included."""
    rng = np.random.default_rng(18)
    x = rng.standard_normal((1, 6))
    x[0, :2] = [0.0, -0.0]
    w = rng.standard_normal((6, 4))
    g = rng.standard_normal((1, 4))
    g[0, :2] = [-0.0, np.nan]
    xt = Tensor(x, requires_grad=True)
    if stacked:
        wt = Parameter(w[None], "w")
        xt.rowwise_matmul(wt).backward(g)
    else:
        wt = Parameter(w, "w")
        (xt @ wt).backward(g)
    assert _same_bits(wt.grad, reference_first_grad(wt.data, (x.T @ g)
                                                    .reshape(wt.shape)))
    assert _same_bits(xt.grad, reference_first_grad(x, g @ w.T))


def _signed_factor(rng, shape):
    """Normal draws with +0.0 and -0.0 entries, so products of two such
    factors include -0.0."""
    a = rng.standard_normal(shape)
    a.flat[::4] = 0.0
    a.flat[1::5] = -0.0
    return a


def _one_row_dense(rng):
    """A Dense layer on one row."""
    layer = Dense(rng, 50, 70, "d")
    x = _signed_factor(rng, (1, 50))

    def backward(g):
        layer(Tensor(x)).backward(g)
        return [x.T @ g, g]
    return backward, layer.parameters(), (1, 70)


def _split_stack(rng):
    """A StackedDense whose width, 6, does not divide ADAM_BLOCK: its
    blocks split a row and a matrix."""
    layer = StackedDense(rng.standard_normal((9, 700, 6)), "s")
    x = _signed_factor(rng, (9, 700))

    def backward(g):
        layer(Tensor(x)).backward(g)
        return [np.matmul(x[:, :, None], g[:, None, :]), g]
    return backward, layer.parameters(), (9, 6)


def _weight_met_twice(rng):
    """One weight in two one-row products: its first gradient is held as
    factors and formed when the second arrives."""
    w = Parameter(rng.standard_normal((40, 30)), "w")
    x1, x2 = _signed_factor(rng, (1, 40)), _signed_factor(rng, (1, 40))

    def backward(g):
        (Tensor(x1) @ w + Tensor(x2) @ w).backward(g)
        grad = reference_first_grad(w.data, x1.T @ g)
        grad += x2.T @ g
        return [grad]
    return backward, [w], (1, 30)


#: graphs whose weight gradients are rank-one, each built from a generator
#: as (backward(g): walk the graph from seed g and return each parameter's
#: gradient as the products formed it, the parameters, the seed's shape)
RANK_ONE_CASES = {"dense_row": _one_row_dense, "stack_split": _split_stack,
                  "met_twice": _weight_met_twice}


@pytest.mark.parametrize("read_first", [False, True], ids=["held", "read"])
@pytest.mark.parametrize("case", sorted(RANK_ONE_CASES))
def test_adam_from_factors_equals_the_reference_from_the_formed_gradient(
        case, read_first, monkeypatch):
    """Over three steps, Adam stepping gradients held as RankOneGrad equals
    ReferenceAdam stepping the gradients the products formed (plus the zero
    buffer of a first gradient), bit for bit, -0.0 products included; each
    block Adam forms has the reference gradient's bits, and a gradient read
    (so formed) before the step gives the same step."""
    build = RANK_ONE_CASES[case]
    backward, params, g_shape = build(np.random.default_rng(31))
    ref = [Tensor(p.data.copy(), requires_grad=True) for p in params]
    opt = Adam(params, lr=0.01)
    ref_opt = ReferenceAdam(ref, lr=0.01)
    blocks = {}
    fill = RankOneGrad.fill

    def spy(self, lo, out):
        got = fill(self, lo, out)
        blocks[lo] = got.copy()
        return got

    monkeypatch.setattr(RankOneGrad, "fill", spy)
    rng = np.random.default_rng(32)
    for step in range(3):
        g = _signed_factor(rng, g_shape)
        for p in params:
            p.grad = None
        wants = backward(g)
        for p, r, want in zip(params, ref, wants):
            # a zero buffer plus the product; no bit moves for met_twice's sum
            r.grad = reference_first_grad(p.data, want.reshape(p.shape))
        held = [p for p in params if isinstance(p._grad, RankOneGrad)]
        assert bool(held) == (case != "met_twice")
        if read_first:
            for p, r in zip(params, ref):
                assert _same_bits(p.grad, r.grad), p.name
        blocks.clear()
        opt.step()
        ref_opt.step()
        if held and not read_first:
            flat = np.concatenate([blocks[lo] for lo in sorted(blocks)])
            want = ref[params.index(held[0])].grad.reshape(-1)
            assert _same_bits(flat, want)
        else:
            assert not blocks
        for i, (p, r) in enumerate(zip(params, ref)):
            assert _same_bits(p.data, r.data), (step, p.name)
            assert _same_bits(opt.m[i], ref_opt.m[i]), (step, p.name)
            assert _same_bits(opt.v[i], ref_opt.v[i]), (step, p.name)


#: (d, n) of the dense baseline's stacked rank-one gradients: the outcome
#: actors' fc1, their sub-array head and their power head, 291 matrices each
RANK_ONE_STACKS = {1: (128, 1), 6: (128, 6), 128: (8, 128)}


@pytest.mark.parametrize("block", [ADAM_BLOCK, ADAM_BLOCK // 2, 3001])
@pytest.mark.parametrize("width", sorted(RANK_ONE_STACKS))
def test_rank_one_fill_by_blocks_equals_the_formed_gradient(width, block):
    """RankOneGrad.fill, a block at a time, has the bits of the formed
    gradient (the product plus 0.0), -0.0 products included, over blocks
    that start mid-matrix, cover runs of two or more whole matrices and end
    mid-row (mid-matrix for one-column matrices), and over blocks cut at
    multiples of the block size as Adam cuts them."""
    d, n = RANK_ONE_STACKS[width]
    rng = np.random.default_rng(41)
    held = RankOneGrad(_signed_factor(rng, (291, d)),
                       _signed_factor(rng, (291, n)))
    shape, mat = (291, d, n), d * n
    products = held.x[:, :, None] * held.g[:, None, :]
    assert np.signbit(products[products == 0.0]).any()
    want = reference_first_grad(np.empty(shape),
                                reference_rank_one_product(held, shape))
    formed = held.formed(shape)
    assert _same_bits(formed, want)
    total = formed.size
    first = mat + mat // 2 + 1  # mid-matrix, mid-row
    for edges in (range(0, total, block), range(first, total, block)):
        edges = [0, *edges, total][edges[0] == 0:]
        for lo, hi in zip(edges[:-1], edges[1:]):
            out = np.full(hi - lo, np.nan)
            assert held.fill(lo, out) is out
            assert _same_bits(out, formed.reshape(-1)[lo:hi]), (lo, hi)
    lo, hi = first, first + block
    assert lo % mat and hi <= total and (hi % n or n == 1) and hi % mat
    assert hi // mat - (lo // mat + 1) >= 2  # whole matrices inside


@pytest.mark.parametrize("stacked", [False, True])
def test_a_product_with_a_parameter_input_forms_its_weight_gradient(stacked):
    """A Parameter input changes in place when Adam steps it, so the weight
    gradient of its product is formed at once: stepping input and weight
    together equals ReferenceAdam on the formed gradients."""
    rng = np.random.default_rng(33)
    x = Parameter(_signed_factor(rng, (3, 8) if stacked else (1, 8)), "x")
    w = Parameter(rng.standard_normal((3, 8, 5) if stacked else (8, 5)), "w")
    ref = [Tensor(p.data.copy(), requires_grad=True) for p in (x, w)]
    out = x.rowwise_matmul(w) if stacked else x @ w
    out.backward(_signed_factor(rng, out.shape))
    assert not isinstance(w._grad, RankOneGrad)
    for p, r in zip((x, w), ref):
        r.grad = p.grad.copy()
    Adam([x, w], lr=0.1).step()
    ReferenceAdam(ref, lr=0.1).step()
    assert _same_bits(x.data, ref[0].data) and _same_bits(w.data, ref[1].data)


# -- checkpoints --------------------------------------------------------------

def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(9)
    params = [Parameter(rng.standard_normal((3, 4)), "layer.w"),
              Parameter(rng.standard_normal((1, 4)), "layer.b")]
    # a path without the .npz suffix: np.savez given a str would append one
    path = os.path.join(tmp_path, "ck.ckpt")
    save_checkpoint(path, params, meta={"note": 1})
    assert os.listdir(tmp_path) == ["ck.ckpt"]
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
    with pytest.raises(ValueError, match="not a terasec-params-v2 .npz archive"):
        load_checkpoint(path, [])
    good = os.path.join(tmp_path, "good.npz")
    save_checkpoint(good, [Parameter(np.zeros((2, 2)), "x")])
    with pytest.raises(CheckpointMismatchError, match="no tensor 'y'"):
        load_checkpoint(good, [Parameter(np.zeros((2, 2)), "y")])
    with pytest.raises(CheckpointMismatchError, match="shape mismatch"):
        load_checkpoint(good, [Parameter(np.zeros((3, 2)), "x")])


def _rewrite_archive(path, **changes):
    """Rewrite the checkpoint archive at path with some entries replaced,
    or dropped where the change is None."""
    with np.load(path) as archive:
        entries = {key: archive[key] for key in archive.files}
    entries.update(changes)
    np.savez(path, **{k: v for k, v in entries.items() if v is not None})


def test_load_checkpoint_rejects_non_finite_values(tmp_path):
    path = os.path.join(tmp_path, "nan.npz")
    save_checkpoint(path, [Parameter(np.ones((2, 2)), "a"),
                           Parameter(np.ones((1, 3)), "layer.w")])
    _rewrite_archive(path, **{"tensor/layer.w": np.array([[1.0, np.nan, 1.0]])})
    params = [Parameter(np.zeros((2, 2)), "a"),
              Parameter(np.zeros((1, 3)), "layer.w")]
    with pytest.raises(ValueError, match="'layer.w'"):
        load_checkpoint(path, params)
    assert all(not p.data.any() for p in params)


@pytest.mark.parametrize("changes,message", [
    ({"tensor/layer.w": np.ones((1, 3), dtype=np.float32)},
     "tensor 'layer.w' is not a float64 array"),
    ({"tensor/layer.w": np.ones((1, 3)).astype(">f8")},
     "tensor 'layer.w' is not a float64 array"),
    ({"tensor/layer.w": np.array([[1.0, None, 1.0]], dtype=object)},
     "entry 'tensor/layer.w'.*allow_pickle=False"),
    ({"format": None}, "no format tag or no meta"),
    ({"format": np.array("terasec-params-v1")}, "no format tag or no meta"),
    ({"meta": None}, "no format tag or no meta"),
], ids=["float32", "big-endian", "object", "no-format", "other-format",
        "no-meta"])
def test_load_checkpoint_rejects_a_malformed_archive(tmp_path, changes, message):
    path = os.path.join(tmp_path, "ck.npz")
    save_checkpoint(path, [Parameter(np.ones((2, 2)), "a"),
                           Parameter(np.ones((1, 3)), "layer.w")])
    _rewrite_archive(path, **changes)
    params = [Parameter(np.zeros((2, 2)), "a"),
              Parameter(np.zeros((1, 3)), "layer.w")]
    with pytest.raises(ValueError, match=message):
        load_checkpoint(path, params)
    assert all(not p.data.any() for p in params)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_save_checkpoint_refuses_non_finite_values(tmp_path, bad):
    w = np.ones((2, 2))
    w[1, 0] = bad
    path = str(tmp_path / "ck.npz")
    with pytest.raises(ValueError, match="'layer.w'"):
        save_checkpoint(path, [Parameter(np.ones((1, 2)), "layer.b"),
                               Parameter(w, "layer.w")])
    assert os.listdir(tmp_path) == []


def test_save_checkpoint_refuses_two_parameters_of_one_name(tmp_path):
    path = str(tmp_path / "ck.npz")
    with pytest.raises(ValueError, match="two parameters are named 'layer.w'"):
        save_checkpoint(path, [Parameter(np.ones((2, 2)), "layer.w"),
                               Parameter(np.ones((1, 2)), "layer.b"),
                               Parameter(np.zeros((2, 2)), "layer.w")])
    assert os.listdir(tmp_path) == []


def _fail_in_json_dump(monkeypatch):
    def failing_dump(obj, fh, **kwargs):
        fh.write('{"format": ')
        raise OSError("disk full")

    monkeypatch.setattr(json, "dump", failing_dump)


def _fail_in_a_tensor_member(monkeypatch):
    """The archive's 0-d format and meta members are written whole, then the
    first tensor member breaks off after its magic string."""
    write_array = np.lib.format.write_array

    def failing_write_array(fp, array, *args, **kwargs):
        if array.ndim:
            fp.write(b"\x93NUMPY")
            raise OSError("disk full")
        write_array(fp, array, *args, **kwargs)

    monkeypatch.setattr(np.lib.format, "write_array", failing_write_array)


@pytest.mark.parametrize("write,fail", [
    (lambda path: save_checkpoint(path, [Parameter(np.ones((2, 2)), "w")]),
     _fail_in_a_tensor_member),
    (lambda path: write_json(path, {"converged_u": 0.5}),
     _fail_in_json_dump),
], ids=["checkpoint", "summary"])
def test_failed_write_leaves_no_partial_file(tmp_path, monkeypatch, write, fail):
    existing = str(tmp_path / "old.json")
    write(existing)
    before = open(existing, "rb").read()
    fail(monkeypatch)
    for path in (existing, str(tmp_path / "new.json")):
        with pytest.raises(OSError, match="disk full"):
            write(path)
    assert open(existing, "rb").read() == before
    assert os.listdir(tmp_path) == ["old.json"]
