"""Image side: type-specific conv backbones, the type gate, blending, spatial map.

Three small strided conv stacks stand in for the per-type encoders; a separate
cheap stem classifies the image type into simplex weights w, and the blended
visual feature is v = w1*v_a + w2*v_h + w3*v_c.  The 8-D spatial map encodes
normalized cell geometry: [x_tl, y_tl, x_ctr, y_ctr, x_br, y_br, w, h].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from .numerics import (
    ShapeError,
    Tensor,
    conv2d_relu,
    im2col,
    mean_over_axes,
    pointwise_channel_map,
    softmax_rows,
    uniform_init,
    weighted_sum,
    zeros_param,
)

@dataclass
class ConvLayer:
    weight: Tensor  # (kh, kw, c_in, c_out)
    bias: Tensor    # (c_out,)


@dataclass
class BackboneParams:
    layers: List[ConvLayer]


@dataclass
class TypeGate:
    logits: Tensor  # (3,)
    w: Tensor       # (3,), softmax of logits


@dataclass
class TypeClassifierParams:
    stem: ConvLayer
    proj_w: Tensor  # (stem channels, 3)
    proj_b: Tensor  # (3,)


def _n_stride2_layers(h: int, w: int, g: int) -> int:
    """Layers needed to shrink (h, w) to (g, g) by factors of two."""
    if h != w:
        raise ShapeError(f"expected square input, got {h}x{w}")
    if h % g:
        raise ShapeError(f"input size {h} not divisible down to grid {g}")
    ratio = h // g
    n = ratio.bit_length() - 1
    if 2**n != ratio:
        raise ShapeError(f"input size {h} / grid {g} must be a power of two, got {ratio}")
    return n


def init_backbone(gen, image_size: int, c_in: int, g: int, c_v: int) -> BackboneParams:
    """Stride-2 conv stack with channels ramping up to c_v."""
    n = _n_stride2_layers(image_size, image_size, g)
    layers = []
    prev = c_in
    for i in range(n):
        out = max(4, c_v >> (n - 1 - i)) if i < n - 1 else c_v
        fan_in, fan_out = 9 * prev, 9 * out
        layers.append(
            ConvLayer(
                weight=uniform_init(gen, (3, 3, prev, out), fan_in, fan_out),
                bias=zeros_param(out),
            )
        )
        prev = out
    return BackboneParams(layers=layers)


def image_patches(image: Tensor) -> np.ndarray:
    """The image's 3x3, stride-2, zero-padded patch rows: what the gate stem
    and every backbone's first layer read, so one forward builds them once."""
    return im2col(image.data, 3, 3, 2, 1)


def backbone_forward(image: Tensor, params: BackboneParams,
                     patches: np.ndarray | None = None) -> Tensor:
    """Image (H, W, C_in) -> features (G, G, C_v); ReLU after every layer.
    ``patches`` is ``image_patches(image)``, built here when None."""
    x = image
    for i, layer in enumerate(params.layers):
        x = conv2d_relu(x, layer.weight, layer.bias, stride=2, padding=1,
                        patches=None if i else patches)
    return x


def init_type_classifier(gen, c_in: int, stem_channels: int = 8) -> TypeClassifierParams:
    stem = ConvLayer(
        weight=uniform_init(gen, (3, 3, c_in, stem_channels), 9 * c_in, 9 * stem_channels),
        bias=zeros_param(stem_channels),
    )
    proj_w = uniform_init(gen, (stem_channels, 3), stem_channels, 3)
    proj_b = zeros_param(3)
    return TypeClassifierParams(stem=stem, proj_w=proj_w, proj_b=proj_b)


def classify_type(image: Tensor, params: TypeClassifierParams,
                  patches: np.ndarray | None = None) -> TypeGate:
    """Cheap stem + global pool + affine -> simplex weights over the 3 types.
    ``patches`` is ``image_patches(image)``, built here when None."""
    feats = conv2d_relu(image, params.stem.weight, params.stem.bias, stride=2, padding=1,
                        patches=patches)
    pooled = mean_over_axes(feats, (0, 1))
    logits = pointwise_channel_map(pooled, params.proj_w, params.proj_b)
    return TypeGate(logits=logits, w=softmax_rows(logits))


def blend(v_a: Tensor, v_h: Tensor, v_c: Tensor, gate: TypeGate) -> Tensor:
    """Soft selection of encoder outputs: w1*v_a + w2*v_h + w3*v_c, elementwise."""
    return weighted_sum(gate.w, (v_a, v_h, v_c))


def spatial_map(g: int) -> Tensor:
    """8-channel cell-geometry map on the G x G grid, coordinates in [-1, 1].

    channels: [x_tl, y_tl, x_ctr, y_ctr, x_br, y_br, w, h];
    x varies with the column, y with the row; w = h = 2/G everywhere.
    """
    if g < 1:
        raise ShapeError(f"grid size must be >= 1, got {g}")
    edges = -1.0 + 2.0 * np.arange(g + 1) / g
    lo, hi = edges[:-1], edges[1:]
    cells = np.stack([lo, (lo + hi) / 2.0, hi], axis=-1)   # (G, 3): low edge, centre, high edge
    s = np.empty((g, g, 8))
    s[:, :, 0:6:2] = cells[None, :, :]   # x from the column
    s[:, :, 1:6:2] = cells[:, None, :]   # y from the row
    s[:, :, 6:] = 2.0 / g
    return Tensor(s)
