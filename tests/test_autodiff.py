from concurrent.futures import ThreadPoolExecutor

from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
import numpy as np
import pytest

from gadkit import autodiff as ad
from gadkit.autodiff import (Adam, NonFiniteError, Tape, Tensor, backward,
                             bce_with_logits, scaled_cosine_error, spmm)
from gadkit.graph import build_graph, normalize_adjacency

from conftest import assert_gradients_match


def test_tensor_rejects_non_finite():
    with pytest.raises(NonFiniteError):
        Tensor([[1.0, np.nan]])
    with pytest.raises(NonFiniteError):
        Tensor([[np.inf]])


def test_tensor_copies_its_input():
    arr = np.ones((2, 2))
    t = Tensor(arr)
    arr[0, 0] = 5.0
    assert np.array_equal(t.values, np.ones((2, 2)))


def test_op_overflow_still_raises():
    # op outputs are adopted without a copy but still checked for finiteness
    big = Tensor(np.full((2, 2), 1e200))
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
        ad.matmul(big, big)


def test_tensor_is_double_precision():
    t = Tensor([[1, 2], [3, 4]])
    assert t.values.dtype == np.float64


def test_spmm_identity_like():
    g = build_graph([], np.zeros((3, 1)))
    adj = normalize_adjacency(g)  # isolated nodes: diagonal weight 1
    h = Tensor([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    assert np.array_equal(spmm(adj, h).values, h.values)


def test_spmm_hand_arithmetic():
    g = build_graph([(0, 1)], np.zeros((2, 1)))
    adj = normalize_adjacency(g)  # all weights 1/2
    out = spmm(adj, Tensor([[1.0], [3.0]]))
    assert np.array_equal(out.values, [[2.0], [2.0]])


def test_spmm_matches_dense_product():
    rng = np.random.default_rng(0)
    edges = [(int(rng.integers(20)), int(rng.integers(20))) for _ in range(40)]
    g = build_graph(edges, rng.standard_normal((20, 4)))
    adj = normalize_adjacency(g)
    dense = np.zeros((20, 20))
    for u in range(20):
        lo, hi = adj.indptr[u], adj.indptr[u + 1]
        dense[u, adj.indices[lo:hi]] = adj.data[lo:hi]
    h = rng.standard_normal((20, 4))
    got = spmm(adj, Tensor(h)).values
    assert np.abs(got - dense @ h).max() < 1e-12


def test_relu_values():
    out = ad.activation(Tensor([[-1.0, 0.0, 2.0]]), "relu")
    assert out.values.tolist() == [[0.0, 0.0, 2.0]]


def test_sigmoid_at_zero():
    assert ad.activation(Tensor([[0.0]]), "sigmoid").values[0, 0] == 0.5


@settings(max_examples=80, deadline=None)
@given(x=hnp.arrays(np.float64, st.integers(0, 30), elements=st.floats(-1e300, 1e300)),
       seed=st.integers(0, 2 ** 32 - 1))
@pytest.mark.parametrize("kind, slope", [("leaky_relu", ad.LEAKY_SLOPE),
                                         ("prelu", ad.PRELU_SLOPE)])
def test_slope_activations_match_two_branch_form(kind, slope, x, seed):
    x = np.concatenate([x, [0.0, -0.0]]).reshape(1, -1)
    h = Tensor(x, requires_grad=True)
    with Tape() as tape:
        out = ad.activation(h, kind)
    assert out.values.tobytes() == np.where(x > 0, x, slope * x).tobytes()
    g = np.random.default_rng(seed).standard_normal(x.shape)
    (got,) = tape._nodes[-1].vjp(g)
    assert got.tobytes() == (g * np.where(x > 0, 1.0, slope)).tobytes()


def _masked_sigmoid(z):
    """The boolean-mask form stable_sigmoid replaced; kept as its oracle."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@settings(max_examples=100, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, max_side=8),
                  elements=st.floats(-800.0, 800.0) | st.sampled_from([0.0, -0.0])))
def test_stable_sigmoid_matches_masked_form(z):
    with np.errstate(over="raise"):
        got = ad.stable_sigmoid(z)
    assert got.tobytes() == _masked_sigmoid(z).tobytes()


def test_unknown_activation_rejected():
    with pytest.raises(ValueError, match="unknown activation"):
        ad.activation(Tensor([[1.0]]), "gelu")


def test_chain_gradient_matches_finite_differences():
    rng = np.random.default_rng(42)
    for _ in range(5):
        x = rng.standard_normal((4, 3)) + np.sign(rng.standard_normal((4, 3))) * 0.05
        w = rng.standard_normal((3, 2))

        def chain(tx, tw):
            return ad.sum_all(ad.mean_rows(ad.activation(ad.matmul(tx, tw), "relu")))

        assert_gradients_match(chain, [x, w])


@pytest.mark.parametrize("kind", ["relu", "leaky_relu", "tanh", "prelu", "sigmoid"])
def test_each_activation_gradient(kind):
    rng = np.random.default_rng(hash(kind) % 2 ** 32)
    # keep inputs away from the relu-family kink at 0
    x = rng.standard_normal((3, 4))
    x += np.sign(x) * 0.01
    assert_gradients_match(lambda t: ad.sum_all(ad.activation(t, kind)), [x])


def test_elementary_kernel_gradients():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((4, 2))
    bias = rng.standard_normal((1, 2))
    assert_gradients_match(lambda ta, tb: ad.sum_all(ad.matmul(ta, tb)), [a, b])
    assert_gradients_match(lambda t: ad.sum_all(ad.transpose(t)), [a])
    assert_gradients_match(lambda t: ad.sum_all(ad.scale(t, -2.5)), [a])
    assert_gradients_match(
        lambda ta, tb: ad.sum_all(ad.add(ta, ad.scale(tb, 2.0))), [a, a.copy()])
    assert_gradients_match(
        lambda th, tb: ad.sum_all(ad.add_bias(th, tb)),
        [rng.standard_normal((3, 2)), bias])
    assert_gradients_match(
        lambda ta, tb, tc: ad.sum_all(ad.activation(ad.matmul(ta, tb, bias=tc), "tanh")),
        [a, b, bias])
    assert_gradients_match(lambda t: ad.sum_all(ad.mean_rows(t)), [a])
    assert_gradients_match(
        lambda t: ad.sum_all(ad.gather_rows(t, np.array([0, 2, 2]))), [a])
    assert_gradients_match(
        lambda t: ad.sum_all(ad.zero_rows(t, np.array([1]))), [a])
    token = rng.standard_normal((1, 4))
    assert_gradients_match(
        lambda tx, tt: ad.sum_all(ad.row_substitute(tx, np.array([0, 2]), tt)),
        [a, token])
    assert_gradients_match(
        lambda t1, t2: ad.sum_all(ad.concat_rows([t1, t2])), [a, a.copy()])
    ptr = np.array([0, 1, 3])
    assert_gradients_match(
        lambda t: ad.sum_all(ad.activation(ad.segment_mean(t, ptr), "tanh")), [a])
    assert_gradients_match(
        lambda th, tv: ad.sum_all(ad.activation(ad.segment_dot(th, tv, ptr), "tanh")),
        [a, rng.standard_normal((2, 4))])
    assert_gradients_match(
        lambda tx, th: scaled_cosine_error(tx, th, 2.0, weights=[0.5, 2.0, 1.5]),
        [a, rng.standard_normal((3, 4))])


def test_matmul_bias_matches_add_bias_bit_for_bit():
    rng = np.random.default_rng(31)
    arrays = [rng.standard_normal((7, 5)), rng.standard_normal((5, 3)),
              rng.standard_normal((1, 3))]

    def run(fused):
        a, w, b = (Tensor(v, requires_grad=True) for v in arrays)
        with Tape() as tape:
            out = ad.matmul(a, w, bias=b) if fused else ad.add_bias(ad.matmul(a, w), b)
            loss = ad.sum_all(ad.activation(out, "tanh"))
        backward(tape, loss)
        return [out.values, a.grad, w.grad, b.grad]

    for got, expect in zip(run(True), run(False)):
        assert got.tobytes() == expect.tobytes()


def test_spmm_gradient():
    rng = np.random.default_rng(13)
    edges = [(int(rng.integers(6)), int(rng.integers(6))) for _ in range(8)]
    g = build_graph(edges, np.zeros((6, 1)))
    adj = normalize_adjacency(g)
    h = rng.standard_normal((6, 3))
    assert_gradients_match(lambda t: ad.sum_all(spmm(adj, t)), [h])


def test_bce_analytic_values():
    loss = bce_with_logits(Tensor([[0.0]]), np.array([[1.0]]))
    assert loss.item() == pytest.approx(np.log(2.0), abs=1e-12)
    # large logit with matching target: ~0, no overflow
    loss = bce_with_logits(Tensor([[50.0]]), np.array([[1.0]]))
    assert 0.0 <= loss.item() < 1e-20
    loss = bce_with_logits(Tensor([[-50.0], [50.0]]),
                           np.array([[0.0], [1.0]]))
    assert loss.item() < 1e-20


def test_bce_gradient():
    rng = np.random.default_rng(17)
    for _ in range(3):
        z = rng.standard_normal((5, 1)) * 2
        y = (rng.random((5, 1)) < 0.4).astype(np.float64)
        w = rng.uniform(0.5, 4.0, size=(5, 1))
        assert_gradients_match(lambda t: bce_with_logits(t, y, w), [z])


def test_bce_validates_targets():
    with pytest.raises(ValueError, match="0/1"):
        bce_with_logits(Tensor([[0.0]]), np.array([[0.5]]))
    with pytest.raises(ValueError, match="shape"):
        bce_with_logits(Tensor([[0.0]]), np.array([[1.0], [0.0]]))


def test_sce_zero_when_equal():
    x = np.array([[1.0, 2.0], [3.0, -1.0]])
    loss = scaled_cosine_error(Tensor(x), Tensor(x.copy()), 2.0)
    assert loss.item() == pytest.approx(0.0, abs=1e-15)


def test_sce_orthogonal_rows():
    loss = scaled_cosine_error(Tensor([[1.0, 0.0]]), Tensor([[0.0, 1.0]]), 1.0)
    assert loss.item() == pytest.approx(1.0, abs=1e-12)


def test_sce_rejects_small_gamma():
    with pytest.raises(ValueError, match="gamma"):
        scaled_cosine_error(Tensor([[1.0]]), Tensor([[1.0]]), 0.5)


def test_sce_gradient():
    rng = np.random.default_rng(29)
    x = rng.standard_normal((6, 5))
    xh = rng.standard_normal((6, 5))
    assert_gradients_match(
        lambda tx, th: scaled_cosine_error(tx, th, 2.0), [x, xh])


def _sce_before_weights(xv, rv, gamma, g):
    """scaled_cosine_error's forward value and vjp before it took weights."""
    m = xv.shape[0]
    nx = np.maximum(np.linalg.norm(xv, axis=1, keepdims=True), 1e-12)
    nr = np.maximum(np.linalg.norm(rv, axis=1, keepdims=True), 1e-12)
    cos = (xv * rv).sum(axis=1, keepdims=True) / (nx * nr)
    d = np.maximum(1.0 - cos, 0.0)
    coef = -g * gamma * d ** (gamma - 1.0) / m
    return ((d ** gamma).mean(),
            coef * (rv / (nx * nr) - cos * xv / (nx * nx)),
            coef * (xv / (nx * nr) - cos * rv / (nr * nr)))


@settings(max_examples=60, deadline=None)
@given(shape=st.tuples(st.integers(1, 40), st.integers(1, 6)),
       gamma=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_sce_without_weights_keeps_its_former_bits(shape, gamma, seed):
    rng = np.random.default_rng(seed)
    x, r = rng.standard_normal(shape), rng.standard_normal(shape)
    tx, tr = Tensor(x, requires_grad=True), Tensor(r, requires_grad=True)
    with Tape() as tape:
        out = scaled_cosine_error(tx, tr, gamma)
    gx, gr = tape._nodes[-1].vjp(np.array([[0.7]]))
    value, ex, er = _sce_before_weights(x, r, gamma, 0.7)
    assert out.values[0, 0].tobytes() == value.tobytes()
    assert gx.tobytes() == ex.tobytes() and gr.tobytes() == er.tobytes()


def test_sce_weights_average_group_means():
    rng = np.random.default_rng(17)
    x, r = rng.standard_normal((7, 3)), rng.standard_normal((7, 3))
    sizes = np.array([2, 5])
    groups = [scaled_cosine_error(Tensor(x[a:b]), Tensor(r[a:b]), 2.0).item()
              for a, b in ((0, 2), (2, 7))]
    weights = np.repeat(7 / (2 * sizes), sizes)
    got = scaled_cosine_error(Tensor(x), Tensor(r), 2.0, weights=weights).item()
    assert got == pytest.approx(np.mean(groups), rel=1e-14)
    with pytest.raises(ValueError, match="weights"):
        scaled_cosine_error(Tensor(x), Tensor(r), 2.0, weights=np.ones(6))


@st.composite
def _segmented_rows(draw):
    """(values, ptr): rows in 1-6 non-empty segments, one-row ones included."""
    sizes = draw(st.lists(st.integers(1, 20) | st.just(1), min_size=1, max_size=6))
    cols = draw(st.integers(1, 5))
    values = draw(hnp.arrays(np.float64, (sum(sizes), cols),
                             elements=st.floats(-1e6, 1e6) | st.sampled_from([0.0, -0.0])))
    return values, np.cumsum([0] + sizes)


@settings(max_examples=100, deadline=None)
@given(case=_segmented_rows(), seed=st.integers(0, 2 ** 32 - 1))
def test_segment_mean_is_mean_rows_per_segment_bit_for_bit(case, seed):
    x, ptr = case
    h = Tensor(x, requires_grad=True)
    g = np.random.default_rng(seed).standard_normal((ptr.size - 1, x.shape[1]))
    with Tape() as tape:
        out = ad.segment_mean(h, ptr)
    (got,) = tape._nodes[-1].vjp(g)
    expect, expect_grad = [], []
    for k, (a, b) in enumerate(zip(ptr[:-1], ptr[1:])):
        part = Tensor(x[a:b], requires_grad=True)
        with Tape() as tape:
            expect.append(ad.mean_rows(part).values)
        expect_grad.append(tape._nodes[-1].vjp(g[k:k + 1])[0])
    assert out.values.tobytes() == np.vstack(expect).tobytes()
    assert got.tobytes() == np.vstack(expect_grad).tobytes()


def test_segment_ops_reject_bad_offsets():
    h = Tensor(np.ones((4, 2)))
    v = Tensor(np.ones((2, 2)))
    for ptr in ([0, 2, 2, 4], [0, 3], [1, 4], [0, 3, 2, 4], [4]):
        with pytest.raises(ValueError, match="segment"):
            ad.segment_mean(h, ptr)
        with pytest.raises(ValueError, match="segment"):
            ad.segment_dot(h, v, ptr)
    with pytest.raises(ValueError, match="segment"):
        ad.segment_dot(h, Tensor(np.ones((3, 2))), [0, 1, 4])


def test_segment_dot_is_the_rowwise_bilinear_score():
    rng = np.random.default_rng(23)
    h, v = rng.standard_normal((5, 3)), rng.standard_normal((2, 3))
    ptr = np.array([0, 2, 5])
    got = ad.segment_dot(Tensor(h), Tensor(v), ptr).values
    expect = np.concatenate([h[:2] @ v[0], h[2:] @ v[1]])[:, None]
    assert got.shape == (5, 1) and np.allclose(got, expect, rtol=1e-14, atol=0)


def test_backward_sum_gives_ones():
    w = Tensor(np.zeros((2, 3)), requires_grad=True)
    with Tape() as tape:
        loss = ad.sum_all(w)
    backward(tape, loss)
    assert np.array_equal(w.grad, np.ones((2, 3)))


def test_backward_unused_param_gets_zeros():
    w = Tensor(np.ones((2, 2)), requires_grad=True)
    x = Tensor(np.ones((1, 1)), requires_grad=True)
    with Tape() as tape:
        loss = ad.sum_all(ad.scale(x, 3.0))
    backward(tape, loss, params=[w, x])
    assert np.array_equal(w.grad, np.zeros((2, 2)))
    assert np.array_equal(x.grad, [[3.0]])


def test_backward_twice_is_an_error():
    w = Tensor(np.ones((1, 1)), requires_grad=True)
    with Tape() as tape:
        loss = ad.sum_all(w)
    backward(tape, loss)
    with pytest.raises(RuntimeError, match="already ran"):
        backward(tape, loss)
    tape.reset()  # after reset the tape is reusable
    with tape:
        loss = ad.sum_all(w)
    backward(tape, loss)


def test_backward_rejects_non_scalar_and_foreign_loss():
    w = Tensor(np.ones((2, 2)), requires_grad=True)
    with Tape() as tape:
        out = ad.scale(w, 2.0)
    with pytest.raises(ValueError, match="scalar"):
        backward(tape, out)
    with Tape() as other:
        loss = ad.sum_all(Tensor(np.ones((1, 1)), requires_grad=True))
    with pytest.raises(ValueError, match="not produced on this tape"):
        backward(tape, loss)


def test_backward_is_linear():
    rng = np.random.default_rng(3)
    vals = rng.standard_normal((3, 3))

    def grad_of(fn):
        w = Tensor(vals, requires_grad=True)
        with Tape() as tape:
            loss = fn(w)
        backward(tape, loss)
        return w.grad

    l1 = lambda w: ad.sum_all(ad.activation(w, "tanh"))
    l2 = lambda w: ad.sum_all(ad.matmul(w, w))
    combo = grad_of(lambda w: ad.add(ad.scale(l1(w), 2.0), ad.scale(l2(w), -3.0)))
    expect = 2.0 * grad_of(l1) - 3.0 * grad_of(l2)
    assert np.abs(combo - expect).max() < 1e-10


def test_gradients_accumulate_until_reset():
    w = Tensor(np.ones((1, 1)), requires_grad=True)
    for expect in (2.0, 4.0):
        with Tape() as tape:
            loss = ad.scale(w, 2.0)
        backward(tape, loss)
        assert w.grad[0, 0] == expect
    ad.zero_grad([w])
    assert w.grad is None


def test_kernels_are_deterministic():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((5, 4))
    w = rng.standard_normal((4, 4))
    a = ad.matmul(ad.activation(Tensor(x), "tanh"), Tensor(w)).values
    b = ad.matmul(ad.activation(Tensor(x.copy()), "tanh"), Tensor(w.copy())).values
    assert np.array_equal(a, b)


def test_adam_zero_grad_means_no_motion():
    p = Tensor([[1.0, -2.0]], requires_grad=True)
    opt = Adam([p], lr=0.1)
    p.grad = np.zeros((1, 2))
    before = p.values.copy()
    opt.step()
    assert np.array_equal(p.values, before)


def test_adam_first_step_is_lr_sized():
    p = Tensor([[1.0]], requires_grad=True)
    opt = Adam([p], lr=0.1)
    p.grad = np.ones((1, 1))
    opt.step()
    assert p.values[0, 0] == pytest.approx(0.9, abs=1e-7)


def test_adam_descends_quadratic():
    p = Tensor([[1.0]], requires_grad=True)
    opt = Adam([p], lr=0.1)
    for _ in range(100):
        opt.zero_grad()
        with Tape() as tape:
            loss = ad.matmul(p, ad.transpose(p))
        backward(tape, loss)
        opt.step()
    assert abs(p.values[0, 0]) < 0.1


def test_adam_requires_gradients():
    p = Tensor([[1.0]], requires_grad=True)
    opt = Adam([p], lr=0.1)
    with pytest.raises(ValueError, match="no gradient"):
        opt.step()


def test_shape_mismatches_raise():
    with pytest.raises(ValueError, match="matmul"):
        ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
    with pytest.raises(ValueError, match="add shape"):
        ad.add(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))))
    with pytest.raises(ValueError, match="bias"):
        ad.add_bias(Tensor(np.ones((2, 3))), Tensor(np.ones((1, 2))))
    with pytest.raises(ValueError, match="bias"):
        ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 3))),
                  bias=Tensor(np.ones((1, 2))))


def test_concat_rows_rejects_empty_and_mismatch():
    with pytest.raises(ValueError, match="at least one"):
        ad.concat_rows([])
    with pytest.raises(ValueError, match="column mismatch"):
        ad.concat_rows([Tensor(np.ones((2, 3))), Tensor(np.ones((2, 2)))])


def test_spmm_rejects_wrong_node_count():
    g = build_graph([(0, 1)], np.zeros((2, 1)))
    adj = normalize_adjacency(g)
    with pytest.raises(ValueError, match="nodes"):
        spmm(adj, Tensor(np.ones((3, 2))))


def test_gather_rows_range_check():
    with pytest.raises(ValueError, match="out of range"):
        ad.gather_rows(Tensor(np.ones((2, 2))), np.array([5]))


def _quadratic(target):
    """A single (1, 3) parameter and the loss sum((p - target)^2)."""
    p = Tensor(np.zeros((1, 3)), requires_grad=True)
    t = Tensor(target)

    def loss_fn():
        d = ad.add(p, ad.scale(t, -1.0))
        return ad.sum_all(ad.activation(d, "tanh"))

    return p, loss_fn


@pytest.mark.parametrize("epochs, expect", [(25, [9, 19, 24]), (20, [9, 19]),
                                            (1, [0]), (9, [8])])
def test_train_validates_every_ten_epochs_and_at_the_last(epochs, expect):
    p, loss_fn = _quadratic(np.ones((1, 3)))
    calls = []

    def counted():
        calls.append(None)
        return loss_fn()

    checked = []

    def validate():
        checked.append(len(calls) - 1)
        return 0.0

    losses, best = ad.train([p], counted, epochs, 0.1, validate=validate)
    assert checked == expect
    assert len(losses) == epochs
    assert best == (0.0, expect[0])


def test_train_keeps_first_best_and_restores_its_snapshot():
    p, loss_fn = _quadratic(np.ones((1, 3)))
    scores = iter([0.2, 0.7, 0.7, 0.1])
    snapshots = []

    def validate():
        snapshots.append(p.values.copy())
        return next(scores)

    losses, best = ad.train([p], loss_fn, 40, 0.1, validate=validate)
    assert best == (0.7, 19)  # the tie at epoch 29 does not replace it
    assert p.values.tobytes() == snapshots[1].tobytes()
    assert not np.array_equal(snapshots[1], snapshots[3])


def test_train_without_validate_ends_at_the_last_step():
    p, loss_fn = _quadratic(np.ones((1, 3)))
    losses, best = ad.train([p], loss_fn, 12, 0.1)
    assert best is None
    # replaying the same Adam steps by hand lands on the same bits
    q, replay_loss = _quadratic(np.ones((1, 3)))
    opt = Adam([q], lr=0.1)
    for _ in range(12):
        opt.zero_grad()
        with Tape() as tape:
            loss = replay_loss()
        backward(tape, loss, params=[q])
        opt.step()
    assert p.values.tobytes() == q.values.tobytes()
    assert losses[-1] == loss.item()


def test_train_keeps_the_heap_on_the_main_thread_and_on_a_pool(monkeypatch):
    calls = []
    monkeypatch.setattr(ad, "keep_heap", lambda: calls.append(1))
    p, loss_fn = _quadratic(np.ones((1, 3)))
    ad.train([p], loss_fn, 2, 0.1)
    assert len(calls) == 1
    with ThreadPoolExecutor(max_workers=1) as pool:
        pool.submit(ad.train, [p], loss_fn, 2, 0.1).result(timeout=60)
    assert len(calls) == 2


def test_train_rejects_zero_epochs():
    p, loss_fn = _quadratic(np.ones((1, 3)))
    with pytest.raises(ValueError, match="epochs"):
        ad.train([p], loss_fn, 0, 0.1)


@pytest.mark.parametrize("lr", [float("nan"), 0.0, -1.0, float("inf")])
def test_train_rejects_an_lr_that_is_not_finite_and_positive(lr):
    p, loss_fn = _quadratic(np.ones((1, 3)))
    before = p.values.copy()
    with pytest.raises(ValueError, match="lr must be finite and positive"):
        ad.train([p], loss_fn, 3, lr)
    assert np.array_equal(p.values, before)


def test_train_names_the_diverging_epoch():
    p, loss_fn = _quadratic(np.ones((1, 3)))
    calls = []

    def blows_up_at_epoch_3():
        calls.append(None)
        return ad.scale(loss_fn(), np.inf if len(calls) == 4 else 1.0)

    with np.errstate(invalid="ignore"), \
            pytest.raises(RuntimeError, match="diverged at epoch 3"):
        ad.train([p], blows_up_at_epoch_3, 10, 0.1)
