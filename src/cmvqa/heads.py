"""Prediction heads and the two multi-task loss compositions.

Answer scores come from summing F_hat + q over the word axis and feeding a
2-layer MLP; compatibility uses the same aggregation into a 2-way MLP.  The
image-understanding heads are a 3-layer MLP classifier and a small
upsampling segmentation decoder.  Loss totals follow the two compositions
total = l_vqa + alpha*l_type and total = l_spe + l_com (l_spe alone in
single-task pre-training).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .numerics import (
    ShapeError,
    Tensor,
    add,
    cross_entropy,
    mean_over_axes,
    pointwise_channel_map,
    relu,
    reshape,
    scale,
    sum_over_axes,
    uniform_init,
    upsample_nearest,
    zeros_param,
)


@dataclass
class LossReport:
    """Scalar loss components; total always equals the composition formula."""

    total: float
    l_vqa: Optional[float] = None
    l_type: Optional[float] = None
    l_spe: Optional[float] = None
    l_com: Optional[float] = None


@dataclass
class MlpParams:
    weights: List[Tensor]
    biases: List[Tensor]


def init_mlp(gen, widths: List[int]) -> MlpParams:
    """Affine stack over `widths`; ReLU is applied between layers at forward time."""
    weights, biases = [], []
    for d_in, d_out in zip(widths, widths[1:]):
        weights.append(uniform_init(gen, (d_in, d_out), d_in, d_out))
        biases.append(zeros_param(d_out))
    return MlpParams(weights=weights, biases=biases)


def mlp_forward(x: Tensor, params: MlpParams) -> Tensor:
    out = x
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        out = pointwise_channel_map(out, w, b)
        if i != last:
            out = relu(out)
    return out


def _aggregate_words(f_hat: Tensor, q: Tensor) -> Tensor:
    """Sum of F_hat_i + q_i over all word positions -> (D_q,)."""
    if f_hat.shape != q.shape:
        raise ShapeError(f"F_hat {f_hat.shape} does not match q {q.shape}")
    return sum_over_axes(add(f_hat, q), (0,))


def predict_answer(f_hat: Tensor, q: Tensor, head: MlpParams) -> Tensor:
    """2-layer MLP over the word-summed fused representation -> answer logits."""
    return mlp_forward(_aggregate_words(f_hat, q), head)


def compatibility_head(f_hat: Tensor, q: Tensor, head: MlpParams) -> Tensor:
    """Same aggregation as answer prediction, into 2 logits."""
    return mlp_forward(_aggregate_words(f_hat, q), head)


def init_answer_head(gen, d_q: int, k_answers: int) -> MlpParams:
    return init_mlp(gen, [d_q, d_q, k_answers])


def init_compatibility_head(gen, d_q: int) -> MlpParams:
    return init_mlp(gen, [d_q, max(2, d_q // 2), 2])


@dataclass
class SegmentationHead:
    """Per-position channel maps around a nearest-neighbor upsample."""

    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor
    factor: int


def init_classification_head(gen, c_v: int, k_cls: int, hidden: int = 32) -> MlpParams:
    return init_mlp(gen, [c_v, hidden, hidden, k_cls])


def init_segmentation_head(gen, c_v: int, image_size: int, g: int,
                           k_seg: int = 2, dec_channels: int = 8) -> SegmentationHead:
    if image_size % g:
        raise ShapeError(f"image size {image_size} not a multiple of grid {g}")
    return SegmentationHead(
        w1=uniform_init(gen, (c_v, dec_channels), c_v, dec_channels),
        b1=zeros_param(dec_channels),
        w2=uniform_init(gen, (dec_channels, k_seg), dec_channels, k_seg),
        b2=zeros_param(k_seg),
        factor=image_size // g,
    )


def image_task_head(features: Tensor, kind: str, params) -> Tensor:
    """Route grid features into the task decoder for `kind`."""
    if kind == "classification":
        pooled = mean_over_axes(features, (0, 1))
        return mlp_forward(pooled, params)
    if kind == "segmentation":
        x = relu(pointwise_channel_map(features, params.w1, params.b1))
        x = upsample_nearest(x, params.factor)
        return pointwise_channel_map(x, params.w2, params.b2)
    raise ValueError(f"unknown image task kind {kind!r}")


def segmentation_loss(pixel_logits: Tensor, mask: np.ndarray) -> Tensor:
    """Mean pixelwise cross-entropy; mask holds integer class ids per pixel."""
    h, w, k = pixel_logits.shape
    if mask.shape != (h, w):
        raise ShapeError(f"mask {mask.shape} does not match logits grid {(h, w)}")
    flat = reshape(pixel_logits, (h * w, k))
    return cross_entropy(flat, mask.reshape(-1).astype(int))


def image_task_loss(logits: Tensor, target) -> Tensor:
    """Loss of an image-understanding head: class logits (K,) with an integer
    target, or per-pixel logits (H, W, K) with an (H, W) mask of class ids."""
    if len(logits.shape) == 3:
        return segmentation_loss(logits, np.asarray(target))
    return cross_entropy(logits, target)


def vqa_loss(answer_logits: Tensor, answer_target: int, type_logits: Tensor,
             type_target: int, alpha: float = 0.5) -> Tuple[Tensor, LossReport]:
    """total = l_vqa + alpha * l_type."""
    l_vqa = cross_entropy(answer_logits, answer_target)
    l_type = cross_entropy(type_logits, type_target)
    total = add(l_vqa, scale(l_type, alpha))
    report = LossReport(
        total=l_vqa.item() + alpha * l_type.item(),
        l_vqa=l_vqa.item(),
        l_type=l_type.item(),
    )
    return total, report


def pretrain_loss(spe_logits: Tensor, spe_target, com_logits: Optional[Tensor],
                  com_target: int) -> Tuple[Tensor, LossReport]:
    """total = l_spe + l_com; l_spe is image_task_loss, l_com is cross-entropy
    over the 2-way compatibility logits.  Without compatibility logits (the
    single-task arm) total = l_spe."""
    l_spe = image_task_loss(spe_logits, spe_target)
    if com_logits is None:
        return l_spe, LossReport(total=l_spe.item(), l_spe=l_spe.item())
    if com_target not in (0, 1):
        raise ValueError(f"compatibility target must be 0 or 1, got {com_target}")
    l_com = cross_entropy(com_logits, com_target)
    total = add(l_spe, l_com)
    report = LossReport(
        total=l_spe.item() + l_com.item(),
        l_spe=l_spe.item(),
        l_com=l_com.item(),
    )
    return total, report
