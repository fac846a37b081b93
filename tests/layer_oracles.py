"""The layers as compositions of primitive ops: the graphs the layer-level
ops (the factor-form glimpse, the encoder-axis conv2d_relu, weighted_sum)
replace, the segmentation decoder with its second 1x1 map on every pixel,
and the loop form of the spatial map.  Each takes the arguments of the
function it stands in for, so a test can patch it in under that function's
name.  The primitive ops that only these graphs use (matmul, transpose2d,
conv2d, stack and multimodal_channel_map) live here too."""

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from cmvqa import fusion
from cmvqa.fusion import _check_factors, build_multimodal_map
from cmvqa.numerics import (
    NonFiniteError,
    ShapeError,
    Tensor,
    add,
    broadcast_to,
    concat_last,
    cross_entropy,
    mean_over_axes,
    mul,
    pointwise_channel_map,
    relu,
    reshape,
    softmax_rows,
    sum_over_axes,
    upsample_nearest,
)
from cmvqa.numerics.tensor import _node
from cmvqa.vision import TypeClassifierParams, TypeGate


# -- primitive ops without a caller in src ---------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Plain 2-D matrix product; inner extents must agree."""
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul needs rank-2 operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner extents differ: {a.shape} x {b.shape}")
    data = a.data @ b.data
    return _node(data, (a, b), lambda g: (g @ b.data.T, a.data.T @ g), "matmul")


def transpose2d(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError(f"transpose2d needs a rank-2 tensor, got {a.shape}")
    return _node(a.data.T.copy(), (a,), lambda g: (g.T,), "transpose2d")


def conv2d(x: Tensor, weight: Tensor, bias: Tensor, stride: int = 2, padding: int = 1) -> Tensor:
    """2-D convolution on a single (H, W, C_in) map: patch rows gathered tap by
    tap from the np.pad-ded input, one GEMM, and a tap-by-tap scatter-add for
    the input's gradient.

    weight: (kh, kw, C_in, C_out), bias: (C_out,). Output spatial size is
    (H + 2*padding - kh) // stride + 1 per side.
    """
    h, wd, c_in = x.shape
    kh, kw, wc_in, c_out = weight.shape
    if wc_in != c_in:
        raise ShapeError(f"conv2d channel mismatch: input {x.shape} vs weight {weight.shape}")
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (wd + 2 * padding - kw) // stride + 1
    xp = np.pad(x.data, ((padding, padding), (padding, padding), (0, 0)))
    cols = np.empty((ho, wo, kh, kw, c_in))
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j, :] = xp[i : i + stride * ho : stride, j : j + stride * wo : stride, :]
    patches = cols.reshape(ho * wo, kh * kw * c_in)
    w2 = weight.data.reshape(kh * kw * c_in, c_out)

    def back(g: np.ndarray):
        g2 = g.reshape(ho * wo, c_out)
        gw, gb = (patches.T @ g2).reshape(weight.shape), g2.sum(axis=0)
        if not x.requires_grad:
            return None, gw, gb
        gcols = (g2 @ w2.T).reshape(ho, wo, kh, kw, c_in)
        gxp = np.zeros_like(xp)
        for i in range(kh):
            for j in range(kw):
                gxp[i : i + stride * ho : stride, j : j + stride * wo : stride, :] += gcols[:, :, i, j, :]
        return gxp[padding : padding + h, padding : padding + wd, :], gw, gb

    return _node((patches @ w2 + bias.data).reshape(ho, wo, c_out), (x, weight, bias), back,
                 "conv2d")


def stack(parts) -> Tensor:
    """Equally shaped tensors stacked on a new leading axis."""
    parts = tuple(parts)
    return _node(np.stack([p.data for p in parts]), parts, lambda g: tuple(g), "stack")


def multimodal_channel_map(grid: Tensor, words: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """pointwise_channel_map over F[i, r, c] = [grid[r, c] | words[i]] as an
    (L * G * G, C_out) matrix in (i, r, c) row order, without building F: the
    grid (G, G, C_g) and the words (L, D) are mapped by their rows of the weight
    and added, and the backward takes row and column sums of the gradient."""
    if grid.data.ndim != 3 or words.data.ndim != 2 or weight.data.ndim != 2 or \
            weight.shape[0] != grid.shape[2] + words.shape[1] or bias.shape != weight.shape[1:]:
        raise ShapeError(f"multimodal_channel_map shapes: grid {grid.shape}, words "
                         f"{words.shape}, weight {weight.shape}, bias {bias.shape}")
    cells = grid.data.reshape(-1, grid.shape[2])
    k, c_out = cells.shape[1], weight.shape[1]
    data = ((words.data @ weight.data[k:] + bias.data)[:, None]
            + cells @ weight.data[:k]).reshape(-1, c_out)

    def back(g: np.ndarray):
        g3 = g.reshape(words.shape[0], -1, c_out)
        g_cell, g_word = g3.sum(axis=0), g3.sum(axis=1)
        gw = np.concatenate([cells.T @ g_cell, words.data.T @ g_word])
        return ((g_cell @ weight.data[:k].T).reshape(grid.shape), g_word @ weight.data[k:].T,
                gw, g_word.sum(axis=0))

    return _node(data, (grid, words, weight, bias), back, "multimodal_channel_map")


# -- the glimpse and the fuse ------------------------------------------------------


@dataclass
class Collected:
    """What the compositions collect: each glimpse's Q, K, V and A."""

    q: list = field(default_factory=list)
    k: list = field(default_factory=list)
    v: list = field(default_factory=list)
    a: list = field(default_factory=list)


def one_hot_basis(config) -> Tensor:
    """B_0: row (i, r, c) is one-hot at word i and at cell L + r G + c.  The
    fuse never builds it; with it, ``attention_glimpse`` is the oracle of
    ``grid_attention``."""
    l_w, cells = config.l_w, config.g * config.g
    pos = np.arange(l_w * cells)
    b = np.zeros((l_w * cells, l_w + cells))
    b[pos, pos // cells] = 1.0
    b[pos, l_w + pos % cells] = 1.0
    return Tensor(b)


def phi0_blocks(shape: tuple, blocks: tuple) -> np.ndarray:
    """True on the two blocks of a (L + G * G + 1, D) Phi_0 that ``factor_rows``
    writes, for ``blocks`` = (L, C_v + 8): the word rows' last columns and the
    cell rows' first ones.  Every other entry of Phi_0 is zero."""
    l_w, c = blocks
    mask = np.zeros(shape, dtype=bool)
    mask[:l_w, c:] = True
    mask[l_w:-1, :c] = True
    return mask


def map_pair(x: Tensor) -> tuple:
    """An (L, G, G, D) map as the glimpse pair (identity, [X; 0])."""
    flat = reshape(x, (-1, x.shape[-1]))
    return (Tensor(np.eye(flat.shape[0])),
            transpose2d(concat_last([transpose2d(flat), Tensor(np.zeros((x.shape[-1], 1)))])))


def pair_map(pair: tuple, shape: tuple) -> Tensor:
    """The map [B | 1] Phi of a glimpse pair, in ``shape``."""
    b, phi = pair
    ones = Tensor(np.ones((b.shape[0], 1)))
    return reshape(matmul(concat_last([b, ones]), phi), shape)


def self_attention_map(x, params, config, collect=None, pool=False):
    """fusion.self_attention_pass on an (L, G, G, D_f) map X, given as the pair
    (identity, [X; 0]): the output map, or with ``pool`` its (L, D_f) grid mean."""
    out = fusion.self_attention_pass(map_pair(x), params, config, collect=collect, pool=pool)
    return out if pool else pair_map(out, x.shape)


def self_attention_composition(f_in, params, config, collect=None, pool=False):
    """The glimpse over an (L, G, G, D_f) map or over F's factor triple (v, s, q),
    built from primitive ops, one node per op: Q/K/V maps, attention, out map of
    A V, or with ``pool`` the (L, D_f) grid mean of the output."""
    l_w, g, d_f = config.l_w, config.g, config.d_f
    n = config.n_positions
    if isinstance(f_in, tuple):
        _check_factors(*f_in, config)
        x = None
        channel_map = partial(multimodal_channel_map, concat_last(f_in[:2]), f_in[2])
    else:
        if f_in.shape != (l_w, g, g, d_f):
            raise ShapeError(f"F {f_in.shape}, expected {(l_w, g, g, d_f)}")
        x = reshape(f_in, (n, d_f))
        channel_map = partial(pointwise_channel_map, x)

    q = channel_map(params.q_w, params.q_b)
    k = channel_map(params.k_w, params.k_b)
    v = None if pool and x is not None else channel_map(params.v_w, params.v_b)

    try:
        a = softmax_rows(matmul(q, transpose2d(k)))
    except NonFiniteError as err:
        raise NonFiniteError("attention logits overflowed") from err

    if collect is not None:
        collect.q.append(q)
        collect.k.append(k)
        if v is not None:
            collect.v.append(v)
        collect.a.append(a)
    if not pool:
        f_mid = matmul(a, v)
        return reshape(pointwise_channel_map(f_mid, params.out_w, params.out_b), (l_w, g, g, d_f))
    a_bar = mean_over_axes(reshape(a, (l_w, g * g, n)), (1,))    # P A, (L_w, N)
    if v is None:
        f_mid = pointwise_channel_map(matmul(a_bar, x), params.v_w, params.v_b)
    else:
        f_mid = matmul(a_bar, v)
    return pointwise_channel_map(f_mid, params.out_w, params.out_b)


def cmsa_fuse_composition(v, s, q, params, config):
    """fusion.cmsa_fuse on maps: glimpse 0 over the factor triple, the last
    glimpse pooled, the residual's grid mean [mean v | mean s | q_i] added, and
    the projection.  Returns (f_hat, Collected)."""
    state = Collected()
    f = (v, s, q.q)
    last = len(params.glimpses) - 1
    for i, glimpse in enumerate(params.glimpses):
        f = self_attention_composition(f, glimpse, config, collect=state, pool=i == last)
    grid_mean = mean_over_axes(concat_last([v, s]), (0, 1))
    f_mean = concat_last([broadcast_to(grid_mean, (config.l_w, config.c_v + 8)), q.q])
    return pointwise_channel_map(add(f, f_mean), params.proj_w, params.proj_b), state


def full_map_composition(v, s, q, params, config):
    """The fuse with no shortcut: F built, every glimpse's full output, and the
    grid mean taken of (F' + F)."""
    f0 = build_multimodal_map(v, s, q, config)
    f = f0
    for glimpse in params.glimpses:
        f = self_attention_composition(f, glimpse, config)
    pooled = mean_over_axes(add(f, f0), (1, 2))
    return pointwise_channel_map(pooled, params.proj_w, params.proj_b)


def conv_relu_composition(x, weight, bias, stride=2, padding=1):
    return relu(conv2d(x, weight, bias, stride=stride, padding=padding))


def conv_relu_stack(maps, weights, biases, stride=2, padding=1):
    """numerics.conv2d_relu as a conv2d and a relu node per encoder, the
    outputs stacked: maps is the (H, W, C) map every encoder reads, or one
    such map per encoder."""
    if isinstance(maps, Tensor):
        maps = [maps] * len(weights)
    return stack(conv_relu_composition(m, w, b, stride, padding)
                 for m, w, b in zip(maps, weights, biases, strict=True))


def backbone_composition(image, backbones):
    """vision.backbone_forward as a conv2d and a relu node per encoder and
    layer, each encoder's stack run on its own, and the outputs stacked."""
    outs = []
    for params in backbones:
        x = image
        for layer in params.layers:
            x = conv_relu_composition(x, layer.weight, layer.bias)
        outs.append(x)
    return stack(outs)


def classify_type_composition(image, params: TypeClassifierParams) -> TypeGate:
    """vision.classify_type with a conv2d and a relu node for the stem."""
    feats = conv_relu_composition(image, params.stem.weight, params.stem.bias)
    pooled = mean_over_axes(feats, (0, 1))
    logits = pointwise_channel_map(pooled, params.proj_w, params.proj_b)
    w = reshape(softmax_rows(reshape(logits, (1, 3))), (3,))
    return TypeGate(logits=logits, w=w)


def blend_composition(v, gate):
    """vision.blend as a broadcast of the gate weights over the (3, ...)
    stack v, a mul, and a sum over the encoder axis."""
    w = broadcast_to(reshape(gate.w, (3,) + (1,) * (v.data.ndim - 1)), v.shape)
    return sum_over_axes(mul(w, v), (0,))


def segmentation_decoder_composition(features, kind, params, factor):
    """heads.image_task_head's segmentation decoder with the upsample between
    its two 1x1 maps, so the second map and its bias run on every pixel."""
    assert kind == "segmentation"
    (w0, w1), (b0, b1) = params.weights, params.biases
    x = upsample_nearest(relu(pointwise_channel_map(features, w0, b0)), factor)
    return pointwise_channel_map(x, w1, b1)


def segmentation_loss_composition(pixel_logits, mask):
    """The per-pixel cross-entropy on the (H * W, K) rows of the logits."""
    h, w, k = pixel_logits.shape
    return cross_entropy(reshape(pixel_logits, (h * w, k)), np.asarray(mask).reshape(-1))


def spatial_map_loops(g: int) -> Tensor:
    """vision.spatial_map cell by cell."""
    s = np.zeros((g, g, 8))
    for r in range(g):
        for c in range(g):
            x_tl = -1.0 + 2.0 * c / g
            y_tl = -1.0 + 2.0 * r / g
            x_br = -1.0 + 2.0 * (c + 1) / g
            y_br = -1.0 + 2.0 * (r + 1) / g
            s[r, c] = [
                x_tl,
                y_tl,
                (x_tl + x_br) / 2.0,
                (y_tl + y_br) / 2.0,
                x_br,
                y_br,
                2.0 / g,
                2.0 / g,
            ]
    return Tensor(s)
