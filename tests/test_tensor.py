"""Core op tests: loop oracles, analytic examples, and grad checks."""

import math

import numpy as np
import pytest

from cmvqa.numerics import (
    LstmParams,
    NonFiniteError,
    ShapeError,
    Tensor,
    add,
    attention_glimpse,
    broadcast_to,
    concat_last,
    conv2d_relu,
    cross_entropy,
    factor_readout,
    factor_rows,
    glimpse_values,
    grad_check,
    grid_attention,
    grid_rows,
    lstm_sequence,
    mean_over_axes,
    mul,
    pointwise_channel_map,
    pooled_values,
    relu,
    reshape,
    rows,
    scale,
    sigmoid,
    slice_last,
    softmax_rows,
    sum_over_axes,
    tanh,
    upsample_nearest,
    weighted_sum,
)
from cmvqa.numerics.tensor import _softmax
from layer_oracles import (
    conv2d,
    matmul,
    multimodal_channel_map,
    one_hot_basis,
    pair_map,
    phi0_blocks,
    transpose2d,
)


# -- independent oracles ------------------------------------------------------


def matmul_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Naive triple loop product."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for l in range(k):
                out[i, j] += a[i, l] * b[l, j]
    return out


def channel_map_oracle(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Apply the affine map position by position."""
    flat = x.reshape(-1, x.shape[-1])
    out = np.zeros((flat.shape[0], w.shape[1]))
    for p in range(flat.shape[0]):
        out[p] = flat[p] @ w + b
    return out.reshape(x.shape[:-1] + (w.shape[1],))


def mean_oracle(x: np.ndarray, axes) -> np.ndarray:
    """Loop-sum over the reduced axes divided by the count."""
    axes = sorted(axes)
    kept = [i for i in range(x.ndim) if i not in axes]
    out_shape = tuple(x.shape[i] for i in kept)
    out = np.zeros(out_shape)
    count = 1
    for ax in axes:
        count *= x.shape[ax]
    for idx in np.ndindex(*x.shape):
        out_idx = tuple(idx[i] for i in kept)
        out[out_idx] += x[idx]
    return out / count


def cross_entropy_oracle(z: np.ndarray, t: int) -> float:
    return float(-np.log(np.exp(z[t]) / np.exp(z).sum()))


# -- matmul -------------------------------------------------------------------


class TestMatmul:
    def test_identity(self):
        b = np.array([[1.5, -2.0], [0.25, 7.0]])
        out = matmul(Tensor(np.eye(2)), Tensor(b))
        assert np.array_equal(out.data, b)

    def test_scalar_case(self):
        out = matmul(Tensor([[2.0]]), Tensor([[3.0]]))
        assert out.data[0, 0] == 6.0

    def test_against_loop_oracle(self, gen):
        for _ in range(20):
            a = gen.standard_normal((3, 4))
            b = gen.standard_normal((4, 2))
            out = matmul(Tensor(a), Tensor(b))
            assert np.abs(out.data - matmul_oracle(a, b)).max() < 1e-12

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))

    def test_grad_flows_to_both_inputs(self, gen):
        a = Tensor(gen.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(gen.standard_normal((4, 2)), requires_grad=True)
        loss = sum_over_axes(matmul(a, b), (0, 1))
        loss.backward()
        assert a.grad is not None and b.grad is not None
        # d(sum(ab))/da = ones @ b.T
        assert np.allclose(a.grad, np.ones((3, 2)) @ b.data.T)


# -- softmax ------------------------------------------------------------------


class TestSoftmaxRows:
    def test_uniform_row(self):
        out = softmax_rows(Tensor([[0.0, 0.0]]))
        assert np.allclose(out.data, [[0.5, 0.5]], atol=1e-15)

    def test_analytic_row(self):
        out = softmax_rows(Tensor([[0.0, math.log(2.0)]]))
        assert np.allclose(out.data, [[1.0 / 3.0, 2.0 / 3.0]], atol=1e-15)

    def test_large_magnitude_no_overflow(self):
        out = softmax_rows(Tensor([[1000.0, 1000.0]]))
        assert np.allclose(out.data, [[0.5, 0.5]])

    def test_rows_sum_to_one_and_nonnegative(self, gen):
        # includes magnitude-1e3 entries
        x = np.concatenate(
            [gen.standard_normal((500, 7)), gen.uniform(-1e3, 1e3, size=(500, 7))]
        )
        out = softmax_rows(Tensor(x)).data
        assert (out >= 0).all()
        assert np.abs(out.sum(axis=1) - 1.0).max() <= 1e-9

    def test_vector_is_one_row(self, gen):
        x = gen.standard_normal(5) * 4
        g = gen.standard_normal(5)
        vec, row = Tensor(x, requires_grad=True), Tensor(x[None], requires_grad=True)
        out_vec, out_row = softmax_rows(vec), softmax_rows(row)
        assert out_vec.shape == (5,)
        assert np.array_equal(out_vec.data, out_row.data[0])
        (gv,), (gr,) = out_vec._backward(g), out_row._backward(g[None])
        assert gv.shape == (5,)
        assert np.array_equal(gv, gr[0])
        with pytest.raises(ShapeError):
            softmax_rows(Tensor(np.zeros((1, 2, 3))))

    def test_rejects_non_finite_input(self):
        bad = np.zeros((2, 2))
        bad[0, 0] = np.nan
        t = Tensor.__new__(Tensor)
        t.data = bad
        t.requires_grad = False
        t.grad = None
        t._parents = ()
        t._backward = None
        t._op = None
        with pytest.raises(NonFiniteError):
            softmax_rows(t)


# -- pointwise channel map ------------------------------------------------------


class TestPointwiseChannelMap:
    def test_identity_weight(self, gen):
        x = gen.standard_normal((4, 4, 3))
        out = pointwise_channel_map(Tensor(x), Tensor(np.eye(3)), Tensor(np.zeros(3)))
        assert np.array_equal(out.data, x)

    def test_constant_input(self, gen):
        w = gen.standard_normal((3, 5))
        b = gen.standard_normal(5)
        c = np.array([0.3, -1.2, 2.0])
        x = np.broadcast_to(c, (2, 6, 3)).copy()
        out = pointwise_channel_map(Tensor(x), Tensor(w), Tensor(b)).data
        expected = c @ w + b
        assert np.abs(out - expected).max() < 1e-12

    def test_against_position_loop_oracle(self, gen):
        for shape in [(5, 3), (2, 3, 4), (2, 2, 2, 3)]:
            x = gen.standard_normal(shape)
            w = gen.standard_normal((shape[-1], 6))
            b = gen.standard_normal(6)
            out = pointwise_channel_map(Tensor(x), Tensor(w), Tensor(b)).data
            assert np.abs(out - channel_map_oracle(x, w, b)).max() < 1e-12

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError, match="channel mismatch"):
            pointwise_channel_map(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))), Tensor(np.zeros(5)))


def _forward_and_grads(build, inputs, out_grad):
    """Forward value and every input's gradient of sum(build(*inputs) * out_grad)."""
    tensors = [Tensor(x, requires_grad=True) for x in inputs]
    out = build(*tensors)
    sum_over_axes(mul(out, Tensor(out_grad.reshape(out.shape))), tuple(range(out.data.ndim))).backward()
    return [out.data.reshape(out_grad.shape)] + [t.grad for t in tensors]


def _assert_close(got, want, tol=1e-12):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.shape == b.shape
        assert np.abs(a - b).max() <= tol


@pytest.mark.parametrize("l_w, g", [(1, 1), (1, 3), (4, 1), (3, 2)])
def test_multimodal_channel_map_matches_map_over_built_f(gen, l_w, g):
    from cmvqa.fusion import CmsaConfig, build_multimodal_map
    from cmvqa.question import QuestionEmbedding

    config = CmsaConfig(l_w=l_w, g=g, c_v=3, d_q=5, glimpses=1)
    inputs = [gen.standard_normal((g, g, 3)), gen.standard_normal((g, g, 8)),
              gen.standard_normal((l_w, 5)), gen.standard_normal((config.d_f, 4)),
              gen.standard_normal(4)]
    out_grad = gen.standard_normal((config.n_positions, 4))

    def factorized(v, s, q, w, b):
        return multimodal_channel_map(concat_last([v, s]), q, w, b)

    def oracle(v, s, q, w, b):
        f = build_multimodal_map(v, s, QuestionEmbedding(q=q), config)
        return pointwise_channel_map(f, w, b)

    _assert_close(_forward_and_grads(factorized, inputs, out_grad),
                  _forward_and_grads(oracle, inputs, out_grad))


@pytest.mark.parametrize("shape", [(1, 1, 3), (2, 3, 4), (1, 2, 2, 3), (3, 2, 1, 5)])
def test_pointwise_channel_map_matches_matmul_reference(gen, shape):
    x, w, b = gen.standard_normal(shape), gen.standard_normal((shape[-1], 6)), gen.standard_normal(6)
    out_grad = gen.standard_normal(shape[:-1] + (6,))
    lead = list(range(len(shape) - 1))
    reference = [np.matmul(x, w) + b, np.matmul(out_grad, w.T),
                 np.tensordot(x, out_grad, axes=(lead, lead)), out_grad.reshape(-1, 6).sum(axis=0)]
    _assert_close(_forward_and_grads(pointwise_channel_map, [x, w, b], out_grad), reference)


def test_multimodal_channel_map_rejects_mismatched_shapes():
    grid, words = Tensor(np.zeros((2, 2, 3))), Tensor(np.zeros((3, 2)))
    with pytest.raises(ShapeError, match="multimodal_channel_map"):
        multimodal_channel_map(grid, words, Tensor(np.zeros((6, 4))), Tensor(np.zeros(4)))


@pytest.mark.parametrize("l_w, g", [(1, 1), (1, 3), (4, 1), (3, 2)])
def test_factor_rows_and_one_hot_basis_give_the_built_f(gen, l_w, g):
    """[B_0 | 1] Phi_0 is F bit for bit (each entry sums one nonzero and zeros),
    and its gradients are those of F's."""
    from cmvqa.fusion import CmsaConfig, build_multimodal_map
    from cmvqa.question import QuestionEmbedding

    config = CmsaConfig(l_w=l_w, g=g, c_v=3, d_q=5, glimpses=1)
    inputs = [gen.standard_normal((g, g, 3)), gen.standard_normal((g, g, 8)),
              gen.standard_normal((l_w, 5))]
    out_grad = gen.standard_normal((l_w, g, g, config.d_f))
    shape = out_grad.shape

    def factorized(v, s, q):
        return pair_map((one_hot_basis(config), factor_rows(v, s, q)), shape)

    def oracle(v, s, q):
        return build_multimodal_map(v, s, QuestionEmbedding(q=q), config)

    got = _forward_and_grads(factorized, inputs, out_grad)
    want = _forward_and_grads(oracle, inputs, out_grad)
    assert got[0].tobytes() == want[0].tobytes()
    _assert_close(got, want)
    # grid_rows applies B_0 by broadcast, with the same bits
    phi = factor_rows(*(Tensor(x) for x in inputs)).data
    assert grid_rows(phi, l_w).tobytes() == want[0].reshape(-1, config.d_f).tobytes()


# -- cross entropy --------------------------------------------------------------


class TestCrossEntropy:
    def test_uniform_logits(self):
        out = cross_entropy(Tensor(np.zeros(4)), 2)
        assert abs(out.item() - math.log(4.0)) < 1e-12

    def test_saturated(self):
        out = cross_entropy(Tensor([30.0, -30.0]), 0)
        assert 0.0 <= out.item() < 1e-12

    def test_against_formula_oracle(self, gen):
        for _ in range(50):
            z = gen.standard_normal(6)
            t = int(gen.integers(0, 6))
            assert abs(cross_entropy(Tensor(z), t).item() - cross_entropy_oracle(z, t)) < 1e-12

    def test_strictly_positive(self, gen):
        z = gen.standard_normal(5)
        assert cross_entropy(Tensor(z), 1).item() > 0.0

    def test_target_out_of_range(self):
        with pytest.raises(IndexError):
            cross_entropy(Tensor(np.zeros(3)), 3)
        with pytest.raises(IndexError):
            cross_entropy(Tensor(np.zeros(3)), -1)

    def test_batched_mean_matches_per_row(self, gen):
        z = gen.standard_normal((4, 5))
        t = np.array([0, 3, 2, 4])
        batched = cross_entropy(Tensor(z), t).item()
        single = np.mean([cross_entropy(Tensor(z[i]), int(t[i])).item() for i in range(4)])
        assert abs(batched - single) < 1e-12

        # an (H, W, K) map is its (H * W, K) rows: the same loss and gradient bits
        grid = Tensor(gen.standard_normal((2, 3, 5)), requires_grad=True)
        mask = gen.integers(0, 5, size=(2, 3))
        flat = Tensor(grid.data.reshape(6, 5), requires_grad=True)
        on_grid, on_rows = cross_entropy(grid, mask), cross_entropy(flat, mask.reshape(-1))
        on_grid.backward()
        on_rows.backward()
        assert on_grid.item() == on_rows.item()
        assert grid.grad.shape == (2, 3, 5)
        assert np.array_equal(grid.grad.reshape(6, 5), flat.grad)
        for bad in (mask.T, mask.reshape(-1), mask[:, :2]):
            with pytest.raises(ShapeError):
                cross_entropy(grid, bad)

    def test_shift_invariance(self, gen):
        z = gen.standard_normal(5)
        a = cross_entropy(Tensor(z), 2).item()
        b = cross_entropy(Tensor(z + 7.5), 2).item()
        assert abs(a - b) < 1e-12


# -- mean over axes --------------------------------------------------------------


class TestMeanOverAxes:
    def test_constant_map(self):
        out = mean_over_axes(Tensor(np.full((7, 7), 3.25)), (0, 1))
        assert out.item() == 3.25

    def test_size_one_axis_is_identity(self, gen):
        x = gen.standard_normal((1, 5))
        out = mean_over_axes(Tensor(x), (0,))
        assert np.array_equal(out.data, x[0])

    def test_against_loop_oracle(self, gen):
        for shape, axes in [((3, 4), (0,)), ((2, 3, 4), (1, 2)), ((2, 3, 4, 5), (0, 2))]:
            x = gen.standard_normal(shape)
            out = mean_over_axes(Tensor(x), axes).data
            assert np.abs(out - mean_oracle(x, axes)).max() < 1e-12

    @pytest.mark.parametrize("shape, axes", [((3, 2, 2, 24), (1, 2)), ((6, 4, 4, 32), (1, 2)),
                                             ((4, 4, 32), (0, 1)), ((12, 7, 7, 1544), (1, 2)),
                                             ((4, 6), (0, 1))])
    def test_bit_identical_to_ndarray_mean(self, gen, shape, axes):
        x = gen.standard_normal(shape)
        out = mean_over_axes(Tensor(x), axes).data
        assert np.asarray(out).tobytes() == np.asarray(x.mean(axis=axes)).tobytes()

    def test_invalid_axis(self):
        with pytest.raises(ShapeError):
            mean_over_axes(Tensor(np.zeros((2, 2))), (2,))

    def test_gradient_distributes_inverse_count(self, gen):
        x = Tensor(gen.standard_normal((4, 6)), requires_grad=True)
        mean_over_axes(x, (0, 1)).backward()
        assert np.allclose(x.grad, np.full((4, 6), 1.0 / 24.0))


# -- conv / upsample / misc -------------------------------------------------------


class TestConvUpsample:
    def test_conv_zero_weights(self, gen):
        x = Tensor(gen.standard_normal((8, 8, 2)))
        w = Tensor(np.zeros((3, 3, 2, 4)))
        b = Tensor(np.array([1.0, 2.0, 3.0, 4.0]))
        out = conv2d(x, w, b, stride=2, padding=1)
        assert out.shape == (4, 4, 4)
        assert np.allclose(out.data, np.broadcast_to(b.data, (4, 4, 4)))

    def test_conv_matches_manual_window(self, gen):
        x = gen.standard_normal((4, 4, 1))
        w = gen.standard_normal((3, 3, 1, 1))
        out = conv2d(Tensor(x), Tensor(w), Tensor(np.zeros(1)), stride=2, padding=1).data
        xp = np.pad(x, ((1, 1), (1, 1), (0, 0)))
        for r in range(2):
            for c in range(2):
                window = xp[2 * r : 2 * r + 3, 2 * c : 2 * c + 3, 0]
                assert abs(out[r, c, 0] - (window * w[:, :, 0, 0]).sum()) < 1e-12

    def test_upsample_values_and_shape(self):
        x = Tensor(np.arange(4.0).reshape(2, 2, 1))
        out = upsample_nearest(x, 2)
        assert out.shape == (4, 4, 1)
        assert np.array_equal(out.data[:2, :2, 0], np.zeros((2, 2)))
        assert np.array_equal(out.data[2:, 2:, 0], np.full((2, 2), 3.0))


class TestPlumbingOps:
    def test_concat_slice_roundtrip(self, gen):
        a = gen.standard_normal((3, 2))
        b = gen.standard_normal((3, 4))
        cat = concat_last([Tensor(a), Tensor(b)])
        assert np.array_equal(slice_last(cat, 0, 2).data, a)
        assert np.array_equal(slice_last(cat, 2, 6).data, b)

    def test_rows_gather_and_pad_mask(self, gen):
        table = gen.standard_normal((5, 3))
        out = rows(Tensor(table), [2, 0, 2], zero_id=0)
        assert np.array_equal(out.data[0], table[2])
        assert np.array_equal(out.data[1], np.zeros(3))
        assert np.array_equal(out.data[2], table[2])

    def test_rows_out_of_range(self):
        with pytest.raises(IndexError):
            rows(Tensor(np.zeros((3, 2))), [3])

    def test_pad_row_gets_no_gradient(self, gen):
        table = Tensor(gen.standard_normal((4, 3)), requires_grad=True)
        out = rows(table, [0, 1, 1], zero_id=0)
        sum_over_axes(out, (0, 1)).backward()
        assert np.array_equal(table.grad[0], np.zeros(3))
        assert np.allclose(table.grad[1], np.full(3, 2.0))

    def test_broadcast_to_gradient_sums(self, gen):
        x = Tensor(gen.standard_normal((1, 3)), requires_grad=True)
        broadcast_to(x, (4, 3)).data
        out = sum_over_axes(broadcast_to(x, (4, 3)), (0, 1))
        out.backward()
        assert np.allclose(x.grad, np.full((1, 3), 4.0))

    def test_broadcast_to_rejects_fewer_axes(self):
        with pytest.raises(ShapeError, match="fewer axes"):
            broadcast_to(Tensor(np.zeros((1, 1, 3))), (3,))


# -- grad check over every differentiable op -----------------------------------


def _scalarize(t):
    if t.data.ndim == 0:
        return t
    return sum_over_axes(mul(t, Tensor(np.arange(1.0, t.size + 1.0).reshape(t.shape))), tuple(range(t.data.ndim)))


OP_CASES = {
    "add": lambda p, g: add(p["a"], p["b"]),
    "mul": lambda p, g: mul(p["a"], p["b"]),
    "scale": lambda p, g: scale(p["a"], -1.7),
    "matmul": lambda p, g: matmul(p["m1"], p["m2"]),
    "transpose2d": lambda p, g: transpose2d(p["m1"]),
    "relu": lambda p, g: relu(p["a"]),
    "sigmoid": lambda p, g: sigmoid(p["a"]),
    "tanh": lambda p, g: tanh(p["a"]),
    "reshape": lambda p, g: reshape(p["a"], (6,)),
    "broadcast_to": lambda p, g: broadcast_to(p["row"], (5, 4)),
    "concat_last": lambda p, g: concat_last([p["a"], p["b"]]),
    "slice_last": lambda p, g: slice_last(p["a"], 1, 3),
    "rows": lambda p, g: rows(p["m1"], [1, 0, 1], zero_id=0),
    "mean_over_axes": lambda p, g: mean_over_axes(p["a"], (1,)),
    "sum_over_axes": lambda p, g: sum_over_axes(p["a"], (0,)),
    "softmax_rows": lambda p, g: softmax_rows(p["m1"]),
    "pointwise_channel_map": lambda p, g: pointwise_channel_map(p["x3"], p["w"], p["bias"]),
    "multimodal_channel_map": lambda p, g: multimodal_channel_map(p["grid"], p["words"], p["mw"],
                                                                  p["bias"]),
    "cross_entropy": lambda p, g: cross_entropy(p["logits"], 1),
    "conv2d": lambda p, g: conv2d(p["img"], p["kern"], p["kb"], stride=2, padding=1),
    "upsample_nearest": lambda p, g: upsample_nearest(p["img"], 3),
    "lstm_sequence": lambda p, g: lstm_sequence(p["seq"], LstmParams(w=p["lstm_w"], b=p["lstm_b"])),
    "conv2d_relu": lambda p, g: conv2d_relu(p["img"], p["kern"], p["kb"], stride=2, padding=1),
    "weighted_sum": lambda p, g: weighted_sum(p["mix"], [p["a"], p["b"], p["c"]]),
    # a map as the pair (identity, Phi); and a factor pair with a tracked B
    "attention_glimpse": lambda p, g: attention_glimpse(
        Tensor(np.eye(4)), p["att_phi"], _weights(p, QK))[0],
    "attention_glimpse[factors, pooled]": lambda p, g: attention_glimpse(
        p["att_b"], p["att_phi"], _weights(p, QK), pool=2)[0],
    # Phi_0's 4 factor rows as 2 words and 2 cells, in factor_rows's layout
    "grid_attention": lambda p, g: grid_attention(p["grid_phi"], _weights(p, QK), GRID_BLOCKS)[0],
    "grid_attention[pooled]": lambda p, g: grid_attention(
        p["grid_phi"], _weights(p, QK), GRID_BLOCKS, pool=True)[0],
    "glimpse_values": lambda p, g: glimpse_values(p["att_phi"], _weights(p, VO)),
    "glimpse_values[blocks]": lambda p, g: glimpse_values(p["grid_phi"], _weights(p, VO),
                                                          GRID_BLOCKS),
    "pooled_values": lambda p, g: pooled_values(p["att_bar"], p["att_phi"], _weights(p, VO)),
    "factor_rows": lambda p, g: factor_rows(p["grid"], p["fr_s"], p["words"]),
    # 3 words and 1 cell
    "factor_readout": lambda p, g: factor_readout(p["att_bar"], p["fr_phi"], p["ro_w"], p["ro_b"]),
}


QK = ("aq_w", "aq_b", "ak_w", "ak_b")
VO = ("av_w", "av_b", "ao_w", "ao_b")
GRID_BLOCKS = (2, 2)   # 2 word rows on columns 2:, 2 cell rows on columns :2


def _weights(p, names) -> list:
    return [p[k] for k in names]


def _op_inputs(gen) -> dict:
    inputs = {
        "a": Tensor(gen.standard_normal((2, 3)) + 0.1, requires_grad=True),
        "b": Tensor(gen.standard_normal((2, 3)), requires_grad=True),
        "row": Tensor(gen.standard_normal((1, 4)), requires_grad=True),
        "m1": Tensor(gen.standard_normal((3, 4)), requires_grad=True),
        "m2": Tensor(gen.standard_normal((4, 2)), requires_grad=True),
        "x3": Tensor(gen.standard_normal((2, 2, 3)), requires_grad=True),
        "w": Tensor(gen.standard_normal((3, 4)), requires_grad=True),
        "bias": Tensor(gen.standard_normal(4), requires_grad=True),
        "logits": Tensor(gen.standard_normal(5), requires_grad=True),
        "img": Tensor(gen.standard_normal((4, 4, 2)), requires_grad=True),
        "kern": Tensor(gen.standard_normal((3, 3, 2, 2)) * 0.5, requires_grad=True),
        "kb": Tensor(gen.standard_normal(2), requires_grad=True),
        "grid": Tensor(gen.standard_normal((2, 2, 5)), requires_grad=True),
        "words": Tensor(gen.standard_normal((3, 2)), requires_grad=True),
        "mw": Tensor(gen.standard_normal((7, 4)), requires_grad=True),
        # drawn after the keys above, so their values stay as they were
        "seq": Tensor(gen.standard_normal((4, 2)), requires_grad=True),
        "lstm_w": Tensor(gen.standard_normal((5, 12)) * 0.5, requires_grad=True),
        "lstm_b": Tensor(gen.standard_normal(12), requires_grad=True),
        "mix": Tensor(gen.standard_normal(3), requires_grad=True),
        "c": Tensor(gen.standard_normal((2, 3)), requires_grad=True),
        # factor pairs: B (6, 4) pooled over 2 groups, Phi (5, 4)
        "att_b": Tensor(gen.standard_normal((6, 4)), requires_grad=True),
        "att_phi": Tensor(gen.standard_normal((5, 4)), requires_grad=True),
        "att_bar": Tensor(gen.standard_normal((3, 4)), requires_grad=True),
        "fr_s": Tensor(gen.standard_normal((2, 2, 1)), requires_grad=True),
        "fr_phi": Tensor(gen.standard_normal((5, 4)), requires_grad=True),
        "ro_w": Tensor(gen.standard_normal((4, 2)), requires_grad=True),
        "ro_b": Tensor(gen.standard_normal(2), requires_grad=True),
        **{name: Tensor(gen.standard_normal(shape), requires_grad=True) for name, shape in (
            ("aq_w", (4, 3)), ("aq_b", (3,)), ("ak_w", (4, 3)), ("ak_b", (3,)),
            ("av_w", (4, 3)), ("av_b", (3,)), ("ao_w", (3, 4)), ("ao_b", (4,)))},
    }
    phi = inputs["att_phi"].data
    inputs["grid_phi"] = Tensor(np.where(phi0_blocks(phi.shape, GRID_BLOCKS), phi, 0.0),
                                requires_grad=True)
    return inputs


@pytest.mark.parametrize("op_name", sorted(OP_CASES))
def test_every_op_passes_grad_check_at_5_random_points(op_name):
    for point in range(5):
        gen = np.random.default_rng(100 * point + 7)
        params = _op_inputs(gen)
        build = OP_CASES[op_name]

        def objective():
            return _scalarize(build(params, gen))

        used = {k: v for k, v in params.items() if _touches(op_name, k)}
        report = grad_check(objective, used, h=1e-5, tol=1e-4)
        assert report.passed, report.summary()


@pytest.mark.parametrize("op_name", sorted(OP_CASES))
def test_ops_never_write_into_their_inputs(op_name):
    """Outputs may alias inputs (reshape returns a view), so no op may write
    into an input's data, forward or backward: read-only inputs must pass."""
    gen = np.random.default_rng(7)
    params = _op_inputs(gen)
    before = {k: t.data.copy() for k, t in params.items()}
    for t in params.values():
        t.data.flags.writeable = False
    _scalarize(OP_CASES[op_name](params, gen)).backward()
    for k, t in params.items():
        assert t.data.tobytes() == before[k].tobytes()
        assert (t.grad is not None) == _touches(op_name, k)


@pytest.mark.parametrize("op_name", sorted(OP_CASES))
def test_every_op_is_one_node_with_each_input_once(op_name):
    """Every op, layer nodes included, returns one node whose parents are its
    inputs, each listed once: the tracked ones are exactly those it reads,
    and the rest are untracked constants."""
    gen = np.random.default_rng(7)
    params = _op_inputs(gen)
    out = OP_CASES[op_name](params, gen)
    assert out._op == op_name.split("[")[0]
    parents = [id(p) for p in out._parents]
    assert len(set(parents)) == len(parents)
    tracked = {id(p) for p in out._parents if p.requires_grad}
    assert tracked == {id(t) for k, t in params.items() if _touches(op_name, k)}


def _touches(op_name: str, key: str) -> bool:
    needed = {
        "add": {"a", "b"},
        "mul": {"a", "b"},
        "scale": {"a"},
        "matmul": {"m1", "m2"},
        "transpose2d": {"m1"},
        "relu": {"a"},
        "sigmoid": {"a"},
        "tanh": {"a"},
        "reshape": {"a"},
        "broadcast_to": {"row"},
        "concat_last": {"a", "b"},
        "slice_last": {"a"},
        "rows": {"m1"},
        "mean_over_axes": {"a"},
        "sum_over_axes": {"a"},
        "softmax_rows": {"m1"},
        "pointwise_channel_map": {"x3", "w", "bias"},
        "multimodal_channel_map": {"grid", "words", "mw", "bias"},
        "cross_entropy": {"logits"},
        "conv2d": {"img", "kern", "kb"},
        "upsample_nearest": {"img"},
        "lstm_sequence": {"seq", "lstm_w", "lstm_b"},
        "conv2d_relu": {"img", "kern", "kb"},
        "weighted_sum": {"mix", "a", "b", "c"},
        "attention_glimpse": {"att_phi", *QK},
        "attention_glimpse[factors, pooled]": {"att_b", "att_phi", *QK},
        "grid_attention": {"grid_phi", *QK},
        "grid_attention[pooled]": {"grid_phi", *QK},
        "glimpse_values": {"att_phi", *VO},
        "glimpse_values[blocks]": {"grid_phi", *VO},
        "pooled_values": {"att_bar", "att_phi", *VO},
        "factor_rows": {"grid", "fr_s", "words"},
        "factor_readout": {"att_bar", "fr_phi", "ro_w", "ro_b"},
    }
    return key in needed[op_name]


# -- determinism ----------------------------------------------------------------


def test_forward_backward_bit_identical_across_runs():
    def run():
        gen = np.random.default_rng(42)
        a = Tensor(gen.standard_normal((4, 4)), requires_grad=True)
        b = Tensor(gen.standard_normal((4, 4)), requires_grad=True)
        out = sum_over_axes(relu(matmul(a, softmax_rows(b))), (0, 1))
        out.backward()
        return out.item(), a.grad.copy(), b.grad.copy()

    v1, ga1, gb1 = run()
    v2, ga2, gb2 = run()
    assert v1 == v2
    assert np.array_equal(ga1, ga2)
    assert np.array_equal(gb1, gb2)


@pytest.mark.parametrize("shape", [(12, 12), (96, 96), (96, 6), (96, 16), (588, 588), (588, 12)])
def test_softmax_in_place_bit_identical_to_expression(gen, shape):
    """The softmax that exponentiates and divides one fresh array in place
    gives the bytes of the plain expression, on attention-sized rows."""
    x = gen.standard_normal(shape) * 4.0
    e = np.exp(x - x.max(axis=1, keepdims=True))
    assert _softmax(x).tobytes() == (e / e.sum(axis=1, keepdims=True)).tobytes()


def _sigmoid_two_branch(x: np.ndarray) -> np.ndarray:
    """The masked formula: 1/(1+e^-x) where x >= 0, e^x/(1+e^x) elsewhere."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_bit_identical_to_two_branch_formula(gen):
    edges = [0.0, 1e-300, 1.0, 30.0, 700.0, 800.0]
    x = np.concatenate([edges, np.negative(edges), gen.standard_normal(500) * 20.0])
    a = Tensor(x, requires_grad=True)
    out = sigmoid(a)
    ref = _sigmoid_two_branch(x)
    assert np.array_equal(out.data, ref)
    assert out.data.tobytes() == ref.tobytes()
    sum_over_axes(out, (0,)).backward()
    assert a.grad.tobytes() == (ref * (1.0 - ref)).tobytes()


def _conv2d_pad_reference(x, w, b, g, stride, padding):
    """im2col conv with np.pad and a per-tap gather; returns out, gx, gw, gb for
    the upstream gradient g."""
    h, wd, c_in = x.shape
    kh, kw, _, c_out = w.shape
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (wd + 2 * padding - kw) // stride + 1
    xp = np.pad(x, ((padding, padding), (padding, padding), (0, 0)))
    cols = np.empty((ho, wo, kh, kw, c_in))
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j, :] = xp[i : i + stride * ho : stride, j : j + stride * wo : stride, :]
    patches = cols.reshape(ho * wo, kh * kw * c_in)
    w2 = w.reshape(kh * kw * c_in, c_out)
    out = (patches @ w2 + b).reshape(ho, wo, c_out)
    g2 = g.reshape(ho * wo, c_out)
    gcols = (g2 @ w2.T).reshape(ho, wo, kh, kw, c_in)
    gxp = np.zeros_like(xp)
    for i in range(kh):
        for j in range(kw):
            gxp[i : i + stride * ho : stride, j : j + stride * wo : stride, :] += gcols[:, :, i, j, :]
    gx = gxp[padding : padding + h, padding : padding + wd, :]
    return out, gx, (patches.T @ g2).reshape(w.shape), g2.sum(axis=0)


@pytest.mark.parametrize("stride,padding", [(2, 1), (1, 0), (1, 1), (2, 0), (2, 2), (3, 1)])
@pytest.mark.parametrize("shape", [(8, 8, 1), (5, 7, 3), (16, 16, 4)])
def test_conv2d_bit_identical_to_pad_reference(gen, shape, stride, padding):
    x = Tensor(gen.standard_normal(shape), requires_grad=True)
    w = Tensor(gen.standard_normal((3, 3, shape[2], 5)), requires_grad=True)
    b = Tensor(gen.standard_normal(5), requires_grad=True)
    out = conv2d(x, w, b, stride=stride, padding=padding)
    g = gen.standard_normal(out.shape)
    sum_over_axes(mul(out, Tensor(g)), (0, 1, 2)).backward()
    ref = _conv2d_pad_reference(x.data, w.data, b.data, g, stride, padding)
    for got, want in zip((out.data, x.grad, w.grad, b.grad), ref):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kernel", [(1, 1), (2, 4), (4, 4), (5, 5)])
@pytest.mark.parametrize("stride,padding", [(1, 0), (2, 1), (3, 2), (4, 0)])
def test_conv2d_bit_identical_to_pad_reference_for_other_kernels(gen, kernel, stride, padding):
    """The col2im that adds taps sharing a block offset at once, for kernels
    narrower and wider than the stride."""
    x = Tensor(gen.standard_normal((9, 11, 2)), requires_grad=True)
    w = Tensor(gen.standard_normal(kernel + (2, 3)), requires_grad=True)
    b = Tensor(gen.standard_normal(3), requires_grad=True)
    out = conv2d(x, w, b, stride=stride, padding=padding)
    g = gen.standard_normal(out.shape)
    sum_over_axes(mul(out, Tensor(g)), (0, 1, 2)).backward()
    ref = _conv2d_pad_reference(x.data, w.data, b.data, g, stride, padding)
    for got, want in zip((out.data, x.grad, w.grad, b.grad), ref):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_conv2d_skips_input_gradient_of_constant_input():
    """An input that needs no gradient (the raw image) gets None, and the
    weight and bias gradients are the same bits as with a tracked input."""
    grads = []
    for tracked in (True, False):
        gen = np.random.default_rng(5)
        x = Tensor(gen.standard_normal((8, 8, 1)), requires_grad=tracked)
        w = Tensor(gen.standard_normal((3, 3, 1, 4)), requires_grad=True)
        b = Tensor(gen.standard_normal(4), requires_grad=True)
        out = conv2d(x, w, b)
        gx, gw, gb = out._backward(np.ones(out.shape))
        assert (gx is None) == (not tracked)
        grads.append((gw.tobytes(), gb.tobytes()))
    assert grads[0] == grads[1]


@pytest.mark.parametrize("stride,padding", [(2, 1), (1, 0), (1, 1), (3, 1)])
@pytest.mark.parametrize("tracked", [True, False], ids=["tracked", "raw"])
def test_conv2d_relu_bit_identical_to_conv2d_then_relu(gen, stride, padding, tracked):
    """Three inputs sharing the kernel: value and every gradient, with the
    input's gradient skipped for an input that needs none."""
    xs = [Tensor(gen.standard_normal((8, 7, 3)), requires_grad=tracked) for _ in range(3)]
    w = Tensor(gen.standard_normal((3, 3, 3, 5)), requires_grad=True)
    b = Tensor(gen.standard_normal(5), requires_grad=True)

    def bits(layer):
        outs = [layer(x, w, b, stride=stride, padding=padding) for x in xs]
        total = None
        for out in outs:
            term = sum_over_axes(mul(out, Tensor(np.cos(np.arange(out.size)).reshape(out.shape))),
                                 (0, 1, 2))
            total = term if total is None else add(total, term)
        for t in [w, b] + xs:
            t.zero_grad()
        total.backward()
        return [o.data.tobytes() for o in outs] + [
            None if t.grad is None else t.grad.tobytes() for t in [w, b] + xs]

    fused = bits(conv2d_relu)
    assert fused == bits(lambda *args, **kw: relu(conv2d(*args, **kw)))
    assert (fused[-1] is None) == (not tracked)


@pytest.mark.parametrize("blocks", [(0, 2), (4, 2), (2, 0), (2, 4)])
def test_block_boundary_outside_the_factor_rejected(blocks):
    """Phi_0 (5, 4) holds L word rows, at least one cell row and the constant
    row, and each kind of row at least one column."""
    phi = Tensor(np.zeros((5, 4)))
    qk = [Tensor(np.zeros(shape)) for shape in ((4, 2), (2,), (4, 2), (2,))]
    vo = [Tensor(np.zeros(shape)) for shape in ((4, 2), (2,), (2, 4), (4,))]
    with pytest.raises(ShapeError, match=r"grid_attention of a factor \(5, 4\) in blocks"):
        grid_attention(phi, qk, blocks)
    with pytest.raises(ShapeError, match="glimpse_values of a factor"):
        glimpse_values(phi, vo, blocks)


def test_attention_glimpse_rejects_mismatched_weights():
    phi = Tensor(np.zeros((3, 4)))
    weights = [Tensor(np.zeros(shape)) for shape in ((4, 2), (2,), (4, 3), (2,))]
    with pytest.raises(ShapeError, match="attention_glimpse weights"):
        attention_glimpse(Tensor(np.eye(2)), phi, weights)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("op_name,build", [
    ("add", lambda t: add(t, Tensor(np.ones(t.shape)))),
    ("mul", lambda t: mul(t, Tensor(np.ones(t.shape)))),
    ("reshape", lambda t: reshape(t, (6,))),
    ("broadcast_to", lambda t: broadcast_to(t, (4, 2, 3))),
    ("slice_last", lambda t: slice_last(t, 0, 3)),
    ("conv2d", lambda t: conv2d(Tensor(t.data.reshape(2, 3, 1)), Tensor(np.ones((1, 1, 1, 1))),
                                Tensor(np.zeros(1)), stride=1, padding=0)),
    # checked before the ReLU, which maps NaN and -inf to 0
    ("conv2d_relu", lambda t: conv2d_relu(Tensor(t.data.reshape(2, 3, 1)),
                                          Tensor(np.ones((1, 1, 1, 1))), Tensor(np.zeros(1)),
                                          stride=1, padding=0)),
    ("weighted_sum", lambda t: weighted_sum(Tensor(np.ones(2)), [Tensor(np.ones(t.shape)), t])),
    ("attention_glimpse", lambda t: attention_glimpse(
        Tensor(np.eye(1)), t, [Tensor(np.ones(shape)) for shape in ((3, 1), (1,), (3, 1), (1,))])[0]),
    # the bad value in the word row's block, which glimpse 0 reads
    ("grid_attention", lambda t: grid_attention(
        Tensor(np.fliplr(t.data.reshape(3, 2))),
        [Tensor(np.ones(shape)) for shape in ((2, 1), (1,), (2, 1), (1,))], (1, 1))[0]),
    ("pooled_values", lambda t: pooled_values(
        Tensor(np.ones((1, 1))), t,
        [Tensor(np.ones(shape)) for shape in ((3, 1), (1,), (1, 3), (3,))])),
])
def test_non_finite_output_names_the_op(op_name, build, bad):
    x = np.arange(6.0).reshape(2, 3)
    x[0, 0] = bad
    with pytest.raises(NonFiniteError, match=f"'{op_name}'") as err:
        build(Tensor(x))
    assert err.value.op == op_name


@pytest.mark.filterwarnings("error")
def test_finite_output_with_overflowing_sum_is_accepted_silently():
    out = add(Tensor(np.full(2, 9e307)), Tensor(np.zeros(2)))
    assert np.array_equal(out.data, np.full(2, 9e307))
    out = reshape(Tensor(np.full((2, 2), 1.7e308)), (4,))
    assert out.shape == (4,)


def test_finite_outputs_enforced():
    big = Tensor(np.full((2, 2), 1e308))
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match="matmul"):
        matmul(big, big)


def test_item_requires_scalar():
    with pytest.raises(ShapeError):
        Tensor(np.zeros((2,))).item()
