"""The layers as compositions of primitive ops: the graphs the layer-level
ops (attention_glimpse, conv2d_relu, weighted_sum) replace, and the loop
form of the spatial map.  Each takes the arguments of the function it stands
in for, so a test can patch it in under that function's name."""

from functools import partial

import numpy as np

from cmvqa.fusion import _check_factors
from cmvqa.numerics import (
    NonFiniteError,
    ShapeError,
    Tensor,
    add,
    broadcast_to,
    concat_last,
    conv2d,
    matmul,
    mean_over_axes,
    mul,
    multimodal_channel_map,
    pointwise_channel_map,
    relu,
    reshape,
    scale,
    slice_last,
    softmax_rows,
    transpose2d,
)
from cmvqa.vision import TypeClassifierParams, TypeGate


def self_attention_composition(f_in, params, config, collect=None, pool=False):
    """fusion.self_attention_pass built from primitive ops, one node per op."""
    l_w, g, d_f, qkv = config.l_w, config.g, config.d_f, config.qkv_channels
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
        logits = matmul(q, transpose2d(k))
        if config.scaled_attention:
            logits = scale(logits, 1.0 / np.sqrt(qkv))
        a = softmax_rows(logits)
    except NonFiniteError as err:
        raise NonFiniteError(
            "attention logits overflowed; consider enabling scaled_attention"
        ) from err

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


def conv_relu_composition(x, weight, bias, stride=2, padding=1):
    return relu(conv2d(x, weight, bias, stride=stride, padding=padding))


def backbone_composition(image, params):
    """vision.backbone_forward with a conv2d and a relu node per layer."""
    x = image
    for layer in params.layers:
        x = conv_relu_composition(x, layer.weight, layer.bias)
    return x


def classify_type_composition(image, params: TypeClassifierParams) -> TypeGate:
    """vision.classify_type with a conv2d and a relu node for the stem."""
    feats = conv_relu_composition(image, params.stem.weight, params.stem.bias)
    pooled = mean_over_axes(feats, (0, 1))
    logits = pointwise_channel_map(pooled, params.proj_w, params.proj_b)
    w = reshape(softmax_rows(reshape(logits, (1, 3))), (3,))
    return TypeGate(logits=logits, w=w)


def blend_composition(v_a, v_h, v_c, gate):
    """vision.blend as slice, broadcast and mul per encoder, then two adds."""
    shape = v_a.shape
    parts = []
    for i, v_i in enumerate((v_a, v_h, v_c)):
        w_i = broadcast_to(slice_last(gate.w, i, i + 1), shape)
        parts.append(mul(w_i, v_i))
    return add(add(parts[0], parts[1]), parts[2])


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
