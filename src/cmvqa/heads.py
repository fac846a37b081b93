"""Prediction heads and the two multi-task loss compositions.

Every head is an MLP.  Answer scores come from summing F_hat + q over the
word axis and feeding a 2-layer MLP; compatibility uses the same aggregation
into a 2-way MLP.  The image classifier is a 3-layer MLP on the pooled grid;
the segmentation decoder is a 2-layer MLP at each grid cell whose scores are
upsampled to pixels, as in FCN.  Loss totals follow the two compositions
total = l_vqa + alpha*l_type and total = l_spe + l_com (l_spe alone in
single-task pre-training).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .numerics import (
    ShapeError,
    Tensor,
    add,
    cross_entropy,
    mean_over_axes,
    pointwise_channel_map,
    relu,
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


def init_classification_head(gen, c_v: int, k_cls: int, hidden: int = 32) -> MlpParams:
    return init_mlp(gen, [c_v, hidden, hidden, k_cls])


def init_segmentation_head(gen, c_v: int, k_seg: int = 2, dec_channels: int = 8) -> MlpParams:
    return init_mlp(gen, [c_v, dec_channels, k_seg])


def image_task_head(features: Tensor, kind: str, params: MlpParams, factor: int) -> Tensor:
    """Task logits from (G, G, C_v) grid features: the classifier's (K,) on
    the pooled grid, or the segmentation decoder's (G * factor, G * factor, K),
    each cell's scores repeated over its factor x factor pixels."""
    if kind == "classification":
        return mlp_forward(mean_over_axes(features, (0, 1)), params)
    if kind == "segmentation":
        return upsample_nearest(mlp_forward(features, params), factor)
    raise ValueError(f"unknown image task kind {kind!r}")


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
    """total = l_spe + l_com, each a cross-entropy: l_spe over class logits
    (K,) with an integer target, or over per-pixel logits (H, W, K) with an
    (H, W) mask of class ids; l_com over the 2-way compatibility logits.
    Without compatibility logits (the single-task arm) total = l_spe."""
    l_spe = cross_entropy(spe_logits, spe_target)
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
