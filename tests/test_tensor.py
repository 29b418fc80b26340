"""Unit tests for the tensor/autodiff core."""

import math
import weakref

import numpy as np
import pytest
from scipy.special import ndtr

from chants.errors import ConfigError, ShapeError
from chants.tensor import (
    AttnWeights,
    MicroBatchMasks,
    Tensor,
    add,
    constant,
    cross_entropy,
    div,
    dropout,
    exp,
    ffn,
    flop_estimate,
    gelu,
    layer_norm,
    log,
    matmul,
    mul,
    multi_head_attention,
    no_grad,
    reshape,
    softmax,
    sqrt,
    tensor_sum,
    transpose,
)

from fdcheck import check_gradients, numeric_gradient, relative_error

RNG = np.random.default_rng(20240811)


class TestMatmul:
    def test_identity(self):
        a = RNG.normal(size=(2, 2))
        out = matmul(constant(np.eye(2)), constant(a))
        np.testing.assert_array_equal(out.data, a)

    def test_hand_product(self):
        out = matmul(constant([[1.0, 2.0], [3.0, 4.0]]), constant([[1.0], [1.0]]))
        np.testing.assert_array_equal(out.data, [[3.0], [7.0]])

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            matmul(constant(np.zeros((2, 3))), constant(np.zeros((2, 2))))

    def test_gradient_of_sum_equals_ones_times_b_transposed(self):
        a = RNG.normal(size=(3, 4))
        b = RNG.normal(size=(4, 2))
        ta = Tensor(a, requires_grad=True)
        tensor_sum(matmul(ta, constant(b))).backward()
        np.testing.assert_allclose(ta.grad, np.ones((3, 2)) @ b.T, rtol=1e-12)
        # and the same answer from the finite-difference oracle
        numeric = numeric_gradient(lambda x, y: float((x @ y).sum()), [a, b], 0, step=1e-6)
        assert relative_error(ta.grad, numeric) < 1e-4

    def test_batched_matmul_gradcheck(self):
        a = RNG.normal(size=(2, 3, 4))
        b = RNG.normal(size=(4, 3))
        check_gradients(lambda x, y: tensor_sum(mul(matmul(x, y), matmul(x, y))), [a, b])


class TestSoftmax:
    def test_uniform_on_equal_inputs(self):
        out = softmax(constant([0.0, 0.0, 0.0]), axis=-1)
        np.testing.assert_allclose(out.data, np.full(3, 1.0 / 3.0), atol=1e-15)

    def test_no_overflow_on_large_inputs(self):
        out = softmax(constant([1000.0, 1000.0]), axis=-1)
        np.testing.assert_allclose(out.data, [0.5, 0.5], atol=1e-15)
        assert np.isfinite(out.data).all()

    def test_matches_high_precision_reference(self):
        # reference values from a 40-digit scalar evaluation of e^x / sum e^x
        out = softmax(constant([1.0, 2.0, 3.0]), axis=-1)
        expected = [0.090030573170380458, 0.24472847105479765, 0.66524095577482189]
        np.testing.assert_allclose(out.data, expected, rtol=1e-14)

    def test_rows_sum_to_one_along_axis(self):
        for _ in range(20):
            shape = tuple(RNG.integers(1, 6, size=RNG.integers(1, 4)))
            axis = int(RNG.integers(0, len(shape)))
            x = RNG.normal(scale=8.0, size=shape)
            s = softmax(constant(x), axis=axis).data
            assert (s >= 0).all()
            np.testing.assert_allclose(s.sum(axis=axis), 1.0, atol=1e-12)

    def test_gradcheck(self):
        x = RNG.normal(size=(3, 5))
        w = RNG.normal(size=(3, 5))
        check_gradients(lambda a: tensor_sum(mul(softmax(a, axis=-1), constant(w))), [x])


class TestLayerNorm:
    def test_constant_row_maps_to_zero(self):
        gain, bias = np.ones(4), np.zeros(4)
        out = layer_norm(constant(np.full((2, 4), 3.7)), constant(gain), constant(bias))
        np.testing.assert_array_equal(out.data, np.zeros((2, 4)))

    def test_two_point_row(self):
        out = layer_norm(constant([[1.0, 3.0]]), constant(np.ones(2)), constant(np.zeros(2)))
        np.testing.assert_allclose(out.data, [[-1.0, 1.0]], atol=1e-6)

    def test_row_statistics(self):
        x = RNG.normal(size=(6, 8))
        out = layer_norm(constant(x), constant(np.ones(8)), constant(np.zeros(8))).data
        assert np.abs(out.mean(axis=-1)).max() < 1e-9
        np.testing.assert_allclose(out.var(axis=-1), 1.0, atol=1e-6)

    def test_gradcheck(self):
        x = RNG.normal(size=(3, 4))
        gain = RNG.normal(size=4)
        bias = RNG.normal(size=4)
        probe = RNG.normal(size=(3, 4))
        err = check_gradients(
            lambda a, g, b: tensor_sum(mul(layer_norm(a, g, b), constant(probe))),
            [x, gain, bias],
        )
        assert err < 1e-4


def _attn_weights(width: int, rng, with_out: bool = True) -> AttnWeights:
    def p():
        return Tensor(rng.normal(scale=0.5, size=(width, width)), requires_grad=True)

    return AttnWeights(w_q=p(), w_k=p(), w_v=p(), w_o=p() if with_out else None)


class TestMultiHeadAttention:
    def test_single_key_weight_is_one(self):
        rng = np.random.default_rng(0)
        w = _attn_weights(4, rng)
        # softmax over a single key is exactly 1 whatever the query, so the
        # output equals the projected value row pushed through the output
        # projection
        kv = rng.normal(size=(1, 4))
        direct = (kv @ w.w_v.data) @ w.w_o.data
        for query in (np.zeros((1, 4)), rng.normal(size=(1, 4))):
            out = multi_head_attention(constant(query), constant(kv), w, heads=2)
            np.testing.assert_allclose(out.data, direct, rtol=1e-12)

    def test_output_shape(self):
        rng = np.random.default_rng(1)
        w = _attn_weights(8, rng)
        out = multi_head_attention(
            constant(rng.normal(size=(7, 8))), constant(rng.normal(size=(3, 8))), w, heads=2
        )
        assert out.shape == (7, 8)

    def test_heads_must_divide_width(self):
        rng = np.random.default_rng(2)
        w = _attn_weights(6, rng)
        with pytest.raises(ConfigError):
            multi_head_attention(constant(np.zeros((2, 6))), constant(np.zeros((2, 6))), w, heads=4)

    def test_single_head_matches_dense_reference(self):
        rng = np.random.default_rng(3)
        w = _attn_weights(4, rng)
        q_in = rng.normal(size=(5, 4))
        kv_in = rng.normal(size=(3, 4))
        out = multi_head_attention(constant(q_in), constant(kv_in), w, heads=1)

        # dense reference computed directly from the defining formula
        q = q_in @ w.w_q.data
        k = kv_in @ w.w_k.data
        v = kv_in @ w.w_v.data
        scores = q @ k.T / math.sqrt(4)
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        attn = e / e.sum(axis=-1, keepdims=True)
        expected = (attn @ v) @ w.w_o.data
        np.testing.assert_allclose(out.data, expected, rtol=1e-12)

    def test_gradcheck(self):
        rng = np.random.default_rng(4)
        q_in = rng.normal(size=(3, 4))
        kv_in = rng.normal(size=(2, 4))
        mats = [rng.normal(scale=0.5, size=(4, 4)) for _ in range(4)]

        def fn(q, kv, wq, wk, wv, wo):
            w = AttnWeights(w_q=wq, w_k=wk, w_v=wv, w_o=wo)
            out = multi_head_attention(q, kv, w, heads=2)
            return tensor_sum(mul(out, out))

        check_gradients(fn, [q_in, kv_in, *mats])


class TestFfn:
    def test_zero_weights_broadcast_second_bias(self):
        x = RNG.normal(size=(3, 4))
        out = ffn(
            constant(x),
            constant(np.zeros((4, 16))),
            constant(np.zeros(16)),
            constant(np.zeros((16, 4))),
            constant([1.0, -2.0, 0.5, 0.0]),
        )
        np.testing.assert_array_equal(out.data, np.tile([1.0, -2.0, 0.5, 0.0], (3, 1)))

    def test_shape_round_trip(self):
        x = RNG.normal(size=(5, 4))
        out = ffn(
            constant(x),
            constant(RNG.normal(size=(4, 16))),
            constant(RNG.normal(size=16)),
            constant(RNG.normal(size=(16, 4))),
            constant(RNG.normal(size=4)),
        )
        assert out.shape == (5, 4)

    def test_gradcheck(self):
        rng = np.random.default_rng(5)
        args = [
            rng.normal(size=(3, 4)),
            rng.normal(size=(4, 8)),
            rng.normal(size=8),
            rng.normal(size=(8, 4)),
            rng.normal(size=4),
        ]
        check_gradients(lambda x, w1, b1, w2, b2: tensor_sum(mul(ffn(x, w1, b1, w2, b2), x)), args)

    def test_gradcheck_with_dropout(self):
        rng = np.random.default_rng(9)
        args = [
            rng.normal(size=(2, 3, 4)),
            rng.normal(size=(4, 8)),
            rng.normal(size=8),
            rng.normal(size=(8, 4)),
            rng.normal(size=4),
        ]

        def fn(x, w1, b1, w2, b2):
            # a fresh rng per evaluation draws the same mask every time
            out = ffn(x, w1, b1, w2, b2, rate=0.5, rng=np.random.default_rng(10))
            return tensor_sum(mul(out, x))

        plain = ffn(*map(constant, args)).data
        dropped = ffn(*map(constant, args), rate=0.5, rng=np.random.default_rng(10)).data
        assert not np.allclose(plain, dropped)
        check_gradients(fn, args)

    @pytest.mark.parametrize("masks", ["off", "generator", "micro_batches"])
    @pytest.mark.parametrize("shape", [(5, 4), (3, 5, 4), (2, 3, 5, 4), (0, 5, 4)])
    def test_graph_free_forward_is_bitwise_the_taped_forward(self, shape, masks):
        rng = np.random.default_rng(14)
        x = rng.normal(size=shape)
        weights = [rng.normal(size=(4, 16)), rng.normal(size=16), rng.normal(size=(16, 4)), rng.normal(size=4)]
        rows = [shape[0] // 2, shape[0] - shape[0] // 2]

        def run(xs, source, taped):
            kwargs = {} if source is None else dict(rate=0.3, rng=source)
            leaf = Tensor(xs, requires_grad=True)
            if taped:
                out = ffn(leaf, *weights, **kwargs)
                assert out.requires_grad
            else:
                with no_grad():
                    out = ffn(leaf, *weights, **kwargs)
                assert not out.requires_grad
            return out.data

        def forward(taped):
            gen = np.random.default_rng(15)
            if masks == "micro_batches":
                source = MicroBatchMasks(gen, rows)
                out = np.concatenate([run(x[lo:hi], source, taped) for lo, hi in source])
            else:
                out = run(x, gen if masks == "generator" else None, taped)
            return out, gen.random()

        (taped, taped_next), (free, free_next) = forward(True), forward(False)
        assert free.shape == taped.shape == x.shape
        assert free.tobytes() == taped.tobytes()
        assert free_next == taped_next


def identity_head(logits, labels):
    """The fused head on logits: x @ I + 0 is exact for finite x."""
    k = logits.shape[-1]
    return cross_entropy(logits, np.eye(k), np.zeros(k), labels)


class TestCrossEntropy:
    def test_confident_correct_prediction(self):
        loss = identity_head(constant([[1e9, 0.0]]), [0])
        assert abs(loss.item()) < 1e-12

    def test_uniform_two_way(self):
        loss = identity_head(constant([[0.0, 0.0]]), [1])
        assert abs(loss.item() - math.log(2.0)) < 1e-12

    def test_uniform_fourteen_way(self):
        loss = identity_head(constant(np.zeros((3, 14))), [0, 5, 13])
        assert abs(loss.item() - math.log(14.0)) < 1e-12

    def test_out_of_range_label(self):
        with pytest.raises(IndexError):
            identity_head(constant(np.zeros((2, 3))), [0, 3])
        with pytest.raises(IndexError):
            identity_head(constant(np.zeros((2, 3))), [-1, 0])

    @pytest.mark.parametrize(
        "x, w, b, labels",
        [
            (np.zeros((2, 3)), np.zeros((4, 2)), np.zeros(2), [0, 1]),
            (np.zeros((2, 3)), np.zeros((3, 2)), np.zeros(3), [0, 1]),
            (np.zeros(3), np.zeros((3, 2)), np.zeros(2), [0]),
            (np.zeros((2, 3)), np.zeros((3, 2)), np.zeros(2), [0]),
        ],
        ids=["inner-dims", "bias", "1-d-rows", "label-count"],
    )
    def test_bad_shapes_raise(self, x, w, b, labels):
        with pytest.raises(ShapeError):
            cross_entropy(x, w, b, labels)

    def test_gradcheck(self):
        # with respect to the rows, the weights and the bias
        rng = np.random.default_rng(36)
        labels = [0, 3, 2, 4]
        arrays = [rng.normal(size=(4, 6)), rng.normal(size=(6, 5)), rng.normal(size=5)]
        check_gradients(lambda x, w, b: cross_entropy(x, w, b, labels), arrays)


# The op-by-op compositions that the fused kernels replaced, kept as references.


def composed_mean(a, axis):
    return mul(tensor_sum(a, axis=axis, keepdims=True), constant(1.0 / a.shape[axis]))


def composed_logsumexp(a, axis=-1):
    """log(sum(exp(a))) along ``axis`` with max subtraction; keeps the axis."""
    shift = constant(a.data.max(axis=axis, keepdims=True))
    return add(log(tensor_sum(exp(add(a, mul(constant(-1.0), shift))), axis=axis, keepdims=True)), shift)


def composed_layer_norm(x, gain, bias, eps=1e-12):
    mu = composed_mean(x, -1)
    centered = add(x, mul(constant(-1.0), mu))
    var = composed_mean(mul(centered, centered), -1)
    return add(mul(div(centered, sqrt(add(var, constant(eps)))), gain), bias)


def _swap_heads_and_rows(x):
    n = x.ndim
    return transpose(x, tuple(range(n - 3)) + (n - 2, n - 3, n - 1))


def composed_attention(q_in, kv_in, w, heads):
    def split(t):
        *lead, length, width = t.shape
        return _swap_heads_and_rows(reshape(t, (*lead, length, heads, width // heads)))

    q, k, v = split(matmul(q_in, w.w_q)), split(matmul(kv_in, w.w_k)), split(matmul(kv_in, w.w_v))
    scores = mul(matmul(q, transpose(k)), constant(1.0 / math.sqrt(q.shape[-1])))
    out = _swap_heads_and_rows(matmul(softmax(scores, axis=-1), v))
    *lead, length, h, dh = out.shape
    out = reshape(out, (*lead, length, h * dh))
    return out if w.w_o is None else matmul(out, w.w_o)


def composed_ffn(x, w1, b1, w2, b2, *, rate=0.0, rng=None):
    h = dropout(gelu(add(matmul(x, w1), b1)), rate, rng)
    return add(matmul(h, w2), b2)


def composed_cross_entropy(logits, labels):
    n, k = logits.shape
    onehot = np.zeros((n, k))
    onehot[np.arange(n), labels] = 1.0
    log_probs = add(logits, mul(constant(-1.0), composed_logsumexp(logits)))
    return mul(tensor_sum(mul(log_probs, constant(onehot))), constant(-1.0 / n))


def composed_head(x, w, b, labels):
    """The classifier head as the tape recorded it before the fused node."""
    return composed_cross_entropy(add(matmul(x, w), b), labels)


def assert_fused_matches_composed(fused, composed, arrays, tol=1e-12):
    """Outputs and every leaf gradient agree to ``tol`` relative to their largest entry."""
    results = []
    for fn in (fused, composed):
        leaves = [Tensor(a, requires_grad=True) for a in arrays]
        out = fn(*leaves)
        probe = np.random.default_rng(0).normal(size=out.shape)
        tensor_sum(mul(out, constant(probe))).backward()
        results.append([out.data] + [leaf.grad for leaf in leaves])
    for i, (got, want) in enumerate(zip(*results)):
        np.testing.assert_allclose(got, want, rtol=0, atol=tol * np.abs(want).max(), err_msg=f"item {i}")


class TestFusedKernelsMatchComposition:
    def test_layer_norm(self):
        rng = np.random.default_rng(30)
        arrays = [rng.normal(size=(2, 5, 8)), rng.normal(size=8), rng.normal(size=8)]
        assert_fused_matches_composed(layer_norm, composed_layer_norm, arrays)

    @pytest.mark.parametrize("with_out", [True, False])
    def test_cross_attention(self, with_out):
        rng = np.random.default_rng(31)
        arrays = [rng.normal(size=(2, 6, 8)), rng.normal(size=(2, 3, 8))]
        arrays += [rng.normal(scale=0.5, size=(8, 8)) for _ in range(4 if with_out else 3)]

        def run(attention):
            def fn(q, kv, *w):
                return attention(q, kv, AttnWeights(*w), 4)

            return fn

        assert_fused_matches_composed(run(multi_head_attention), run(composed_attention), arrays)

    def test_self_attention_sums_both_input_paths(self):
        rng = np.random.default_rng(32)
        arrays = [rng.normal(size=(2, 5, 8))] + [rng.normal(scale=0.5, size=(8, 8)) for _ in range(4)]

        def run(attention):
            def fn(x, *w):
                return attention(x, x, AttnWeights(*w), 2)

            return fn

        assert_fused_matches_composed(run(multi_head_attention), run(composed_attention), arrays)

    def test_ffn_with_dropout_draws_the_same_mask(self):
        rng = np.random.default_rng(33)
        arrays = [rng.normal(size=(2, 5, 4)), rng.normal(size=(4, 16)), rng.normal(size=16)]
        arrays += [rng.normal(size=(16, 4)), rng.normal(size=4)]

        def run(block):
            def fn(*args):
                return block(*args, rate=0.3, rng=np.random.default_rng(34))

            return fn

        assert_fused_matches_composed(run(ffn), run(composed_ffn), arrays)

    def test_cross_entropy(self):
        rng = np.random.default_rng(35)
        labels = rng.integers(0, 5, size=7)
        arrays = [rng.normal(size=(7, 4)), rng.normal(size=(4, 5)), rng.normal(size=5)]
        assert_fused_matches_composed(
            lambda *args: cross_entropy(*args, labels), lambda *args: composed_head(*args, labels), arrays
        )


class TestFlopEstimate:
    def test_interactive_reference_dims(self):
        assert flop_estimate(128, 9, 512, interactive=True) == 1_179_648

    def test_self_attention_reference_dims(self):
        assert flop_estimate(128, 9, 512, interactive=False) == 8_430_080

    def test_square_case_identity(self):
        for t in (1, 7, 64):
            assert flop_estimate(t, t, 16, interactive=True) == 2 * t * t * 16

    def test_interactive_cheaper_when_2tc_below_t2_plus_c2(self):
        # includes every benchmark dataset shape (T, C) seen in practice
        for t, c in [(128, 9), (36, 6), (93, 13), (29, 12), (10, 3)]:
            if 2 * t * c < t * t + c * c:
                assert flop_estimate(t, c, 64, True) < flop_estimate(t, c, 64, False)

    def test_rejects_nonpositive_dims(self):
        with pytest.raises(ConfigError):
            flop_estimate(0, 3, 4, True)


class TestAutodiffPlumbing:
    def test_every_primitive_passes_gradcheck_on_small_tensors(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(4, 6))
        y = rng.normal(size=(4, 6))
        probe = rng.normal(size=(1, 6))
        cases = [
            (lambda a, b: tensor_sum(mul(add(a, b), add(a, b))), [x, y]),
            (lambda a, b: tensor_sum(mul(a, b)), [x, y]),
            (lambda a: tensor_sum(mul(gelu(a), a)), [x]),
            (lambda a: tensor_sum(mul(transpose(a), transpose(a))), [x]),
            (lambda a: tensor_sum(mul(reshape(a, (2, 12)), reshape(a, (2, 12)))), [x]),
            (lambda a, b: tensor_sum(mul(div(a, add(mul(b, b), constant(1.0))), a)), [x, y]),
            (lambda a: tensor_sum(mul(exp(a), constant(probe))), [x]),
            (lambda a: tensor_sum(mul(log(add(mul(a, a), constant(0.5))), a)), [x]),
            (lambda a: tensor_sum(mul(sqrt(add(mul(a, a), constant(0.5))), constant(probe))), [x]),
        ]
        for fn, args in cases:
            check_gradients(fn, args)

    def test_broadcast_addition_reduces_gradient(self):
        a = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(RNG.normal(size=(4,)), requires_grad=True)
        tensor_sum(add(a, b)).backward()
        np.testing.assert_array_equal(b.grad, np.full(4, 3.0))

    def test_gradients_accumulate_until_reset(self):
        a = Tensor(np.ones(3), requires_grad=True)
        tensor_sum(a).backward()
        tensor_sum(a).backward()
        np.testing.assert_array_equal(a.grad, np.full(3, 2.0))
        a.zero_grad()
        assert a.grad is None

    def test_second_backward_through_a_freed_graph_raises(self):
        a = Tensor(RNG.normal(size=3), requires_grad=True)
        h = mul(a, a)
        loss = tensor_sum(h)
        loss.backward()
        first = a.grad.copy()
        with pytest.raises(RuntimeError, match="already freed"):
            loss.backward()
        # a new graph over the freed interior node is spent as well
        with pytest.raises(RuntimeError, match="already freed"):
            tensor_sum(mul(h, a)).backward()
        np.testing.assert_array_equal(a.grad, first)

    @pytest.mark.parametrize(
        "build, bad",
        [
            # one node over leaves, which backward runs with no sort
            (lambda w, b: cross_entropy(constant(np.eye(2)), w, b, [0, 2]), np.ones(2)),
            # an interior node under the output, so backward sorts the graph
            (lambda w, b: add(matmul(constant(np.eye(2)), w), b), np.ones((1, 3))),
        ],
        ids=["all-leaf", "sorted"],
    )
    def test_a_gradient_of_another_shape_is_rejected(self, build, bad):
        w = Tensor(RNG.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(RNG.normal(size=3), requires_grad=True)
        out = build(w, b)
        with pytest.raises(ShapeError, match="gradient of shape"):
            out.backward(bad)
        assert w.grad is None and b.grad is None
        out.backward(np.ones(out.shape))  # the graph is still whole
        assert w.grad.shape == w.shape and b.grad.shape == b.shape

    def test_one_node_over_leaves_is_freed_like_any_graph(self):
        a = Tensor(RNG.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(RNG.normal(size=3), requires_grad=True)
        loss = cross_entropy(constant(np.eye(2)), a, b, [0, 2])
        loss.backward()
        first = a.grad.copy()
        assert loss._parents == () and loss.grad is None
        with pytest.raises(RuntimeError, match="already freed"):
            loss.backward()
        np.testing.assert_array_equal(a.grad, first)

    def test_interior_tensor_is_unreachable_after_backward(self):
        a = Tensor(RNG.normal(size=(4, 3)), requires_grad=True)
        h = gelu(matmul(a, transpose(a)))
        interior = weakref.ref(h)
        loss = tensor_sum(h)
        del h
        assert interior() is not None
        loss.backward()
        assert interior() is None
        assert a.grad is not None

    def test_no_grad_blocks_graph_construction(self):
        a = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            out = tensor_sum(mul(a, a))
        assert not out.requires_grad
        assert a.grad is None

    def test_dropout_eval_is_identity_and_train_scales(self):
        x = constant(np.ones((100, 100)))
        assert dropout(x, 0.4, None) is x
        rng = np.random.default_rng(7)
        out = dropout(x, 0.4, rng).data
        kept = out != 0.0
        np.testing.assert_allclose(out[kept], 1.0 / 0.6, rtol=1e-12)
        assert abs(kept.mean() - 0.6) < 0.02

    def test_dropout_gradient_uses_same_mask(self):
        rng = np.random.default_rng(8)
        a = Tensor(np.ones((50, 50)), requires_grad=True)
        out = dropout(a, 0.3, rng)
        tensor_sum(out).backward()
        np.testing.assert_array_equal(a.grad, out.data)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf * 0 and max * scale
    @pytest.mark.parametrize("rate", [0.05, 0.1, 0.2, 0.5, 0.9])
    def test_dropout_is_bitwise_the_float64_mask_formula(self, rate):
        # the boolean mask, then the scale: bitwise x * (keep * scale), also
        # for infinities, NaN, signed zeros, subnormals and the largest float
        rng = np.random.default_rng(11)
        f64 = np.finfo(np.float64)
        special = [np.inf, -np.inf, np.nan, 0.0, -0.0, f64.smallest_subnormal, -f64.tiny / 3, f64.max, -f64.max]
        x = np.concatenate([np.repeat(special, 100), rng.normal(size=3100) * 10.0 ** rng.integers(-300, 300, 3100)])
        x = x.reshape(40, 100)
        g = rng.permutation(x.ravel()).reshape(x.shape)
        scale = 1.0 / (1.0 - rate)
        keep = np.random.default_rng(12).random(x.shape) >= rate

        a = Tensor(x, requires_grad=True)
        out = dropout(a, rate, np.random.default_rng(12))
        out.backward(g)
        assert out.data.tobytes() == (x * (keep * scale)).tobytes()
        assert a.grad.tobytes() == (g * (keep * scale)).tobytes()

        # the FFN's dropout, after its GELU, in forward and backward
        w1, b1, w2, b2 = rng.normal(size=(100, 8)), rng.normal(size=8), rng.normal(size=(8, 3)), rng.normal(size=3)
        xs, gs = rng.normal(size=(40, 100)), rng.normal(size=(40, 3))
        keep = np.random.default_rng(13).random((40, 8)) >= rate
        w1_leaf = Tensor(w1, requires_grad=True)
        out = ffn(constant(xs), w1_leaf, b1, w2, b2, rate=rate, rng=np.random.default_rng(13))
        out.backward(gs)
        z = xs @ w1 + b1
        cdf = ndtr(z)
        hidden = cdf * z * (keep * scale)
        assert out.data.tobytes() == (hidden @ w2 + b2).tobytes()
        d = (gs @ w2.T) * (keep * scale) * (cdf + z * np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi))
        np.testing.assert_allclose(w1_leaf.grad, xs.T @ d, rtol=1e-12, atol=0.0)


class TestMicroBatchMasks:
    @staticmethod
    def boolean_masks(rng, rows, shapes, rate):
        """The unpacked reference: each site's whole mask as one boolean array."""
        offsets = np.cumsum([0, *rows])
        masks = []
        for shape in shapes:
            mask = np.empty((offsets[-1], *shape), dtype=bool)
            for start, stop in zip(offsets[:-1], offsets[1:]):
                np.greater_equal(rng.random((stop - start, *shape)), rate, out=mask[start:stop])
            masks.append(mask)
        return [[m[lo:hi] for m in masks] for lo, hi in zip(offsets[:-1], offsets[1:])]

    def test_packed_masks_serve_bitwise_the_boolean_masks_on_every_pass(self):
        rows, shapes, rate = [3, 1, 5, 2], [(4, 13), (7,), (2, 3, 8), (1,)], 0.3
        want = self.boolean_masks(np.random.default_rng(50), rows, shapes, rate)
        rng = np.random.default_rng(50)
        masks = MicroBatchMasks(rng, rows)
        for _ in range(2):  # a second pass (gradient caching) sees the same masks
            spans = []
            for j, (lo, hi) in enumerate(masks):
                spans.append((lo, hi))
                for site, shape in enumerate(shapes):
                    got = masks.keep((hi - lo, *shape), rate)
                    assert got.dtype == bool and got.shape == (rows[j], *shape)
                    np.testing.assert_array_equal(got, want[j][site])
            assert spans == [(0, 3), (3, 4), (4, 9), (9, 11)]
        reference_rng = np.random.default_rng(50)
        self.boolean_masks(reference_rng, rows, shapes, rate)
        assert rng.random() == reference_rng.random()

    def test_a_site_with_another_shape_is_rejected(self):
        masks = MicroBatchMasks(np.random.default_rng(51), [2, 2])
        spans = iter(masks)
        next(spans)
        masks.keep((2, 9), 0.5)
        next(spans)
        with pytest.raises(ShapeError, match="dropout site 0"):
            masks.keep((2, 10), 0.5)
        spans = iter(masks)
        next(spans)
        next(spans)
        masks.keep((2, 9), 0.5)
        with pytest.raises(ShapeError, match="micro-batch 1 reached a dropout site"):
            masks.keep((2, 9), 0.5)
