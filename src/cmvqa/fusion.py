"""Cross-modal self-attention fusion.

F stacks visual, spatial, and word channels at every (word, row, col)
position; each glimpse maps F to Q/K/V with per-position affine maps,
attends with A = softmax_rows(Q K^T) over all N = L_w*G*G positions, and
maps A V back to the F width.  A single residual from the original F feeds
the mean-pool over the grid, and a final affine map produces one D_q row
per word.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from .numerics import (
    NonFiniteError,
    ShapeError,
    Tensor,
    add,
    broadcast_to,
    concat_last,
    matmul,
    mean_over_axes,
    pointwise_channel_map,
    reshape,
    scale,
    softmax_rows,
    transpose2d,
    uniform_init,
    zeros_param,
)
from .question import QuestionEmbedding


@dataclass
class CmsaConfig:
    l_w: int
    g: int
    c_v: int
    d_q: int
    glimpses: int = 2
    scaled_attention: bool = False

    @property
    def d_f(self) -> int:
        return self.c_v + 8 + self.d_q

    @property
    def qkv_channels(self) -> int:
        return self.d_f // 2

    @property
    def n_positions(self) -> int:
        return self.l_w * self.g * self.g

    def __post_init__(self):
        if self.glimpses < 1:
            raise ValueError(f"glimpses must be >= 1, got {self.glimpses}")


@dataclass
class GlimpseParams:
    """Affine maps for one self-attention pass."""

    q_w: Tensor
    q_b: Tensor
    k_w: Tensor
    k_b: Tensor
    v_w: Tensor
    v_b: Tensor
    out_w: Tensor  # qkv_channels -> D_f
    out_b: Tensor


@dataclass
class CmsaParams:
    glimpses: List[GlimpseParams]
    proj_w: Tensor  # D_f -> D_q
    proj_b: Tensor


@dataclass
class CmsaState:
    """Intermediate values of one fuse pass, inspectable by tests."""

    f: Tensor
    q: List[Tensor]
    k: List[Tensor]
    v: List[Tensor]
    a: List[Tensor]
    f_prime: Tensor
    f_hat: Tensor


def init_cmsa(gen, config: CmsaConfig) -> CmsaParams:
    d_f, qkv = config.d_f, config.qkv_channels
    glimpses = []
    for _ in range(config.glimpses):
        glimpses.append(
            GlimpseParams(
                q_w=uniform_init(gen, (d_f, qkv), d_f, qkv),
                q_b=zeros_param(qkv),
                k_w=uniform_init(gen, (d_f, qkv), d_f, qkv),
                k_b=zeros_param(qkv),
                v_w=uniform_init(gen, (d_f, qkv), d_f, qkv),
                v_b=zeros_param(qkv),
                out_w=uniform_init(gen, (qkv, d_f), qkv, d_f),
                out_b=zeros_param(d_f),
            )
        )
    proj_w = uniform_init(gen, (d_f, config.d_q), d_f, config.d_q)
    proj_b = zeros_param(config.d_q)
    return CmsaParams(glimpses=glimpses, proj_w=proj_w, proj_b=proj_b)


def build_multimodal_map(v: Tensor, s: Tensor, q: QuestionEmbedding,
                         config: CmsaConfig) -> Tensor:
    """F[i, r, c, :] = concat(v[r,c], s[r,c], q[i])."""
    g, c_v, l_w, d_q = config.g, config.c_v, config.l_w, config.d_q
    if v.shape != (g, g, c_v):
        raise ShapeError(f"visual features {v.shape}, expected {(g, g, c_v)}")
    if s.shape != (g, g, 8):
        raise ShapeError(f"spatial map {s.shape}, expected {(g, g, 8)}")
    if q.q.shape != (l_w, d_q):
        raise ShapeError(f"question embedding {q.q.shape}, expected {(l_w, d_q)}")

    v_tile = broadcast_to(reshape(v, (1, g, g, c_v)), (l_w, g, g, c_v))
    s_tile = broadcast_to(reshape(s, (1, g, g, 8)), (l_w, g, g, 8))
    q_tile = broadcast_to(reshape(q.q, (l_w, 1, 1, d_q)), (l_w, g, g, d_q))
    return concat_last([v_tile, s_tile, q_tile])


def self_attention_pass(f_in: Tensor, params: GlimpseParams, config: CmsaConfig,
                        collect: CmsaState = None) -> Tensor:
    """One glimpse: Q/K/V maps, row-softmax attention over all positions, map back."""
    l_w, g, d_f, qkv = config.l_w, config.g, config.d_f, config.qkv_channels
    n = config.n_positions
    if f_in.shape != (l_w, g, g, d_f):
        raise ShapeError(f"F {f_in.shape}, expected {(l_w, g, g, d_f)}")

    q = reshape(pointwise_channel_map(f_in, params.q_w, params.q_b), (n, qkv))
    k = reshape(pointwise_channel_map(f_in, params.k_w, params.k_b), (n, qkv))
    v = reshape(pointwise_channel_map(f_in, params.v_w, params.v_b), (n, qkv))

    try:
        logits = matmul(q, transpose2d(k))
        if config.scaled_attention:
            logits = scale(logits, 1.0 / np.sqrt(qkv))
        a = softmax_rows(logits)
    except NonFiniteError as err:
        raise NonFiniteError(
            "attention logits overflowed; consider enabling scaled_attention"
        ) from err

    f_mid = matmul(a, v)
    f_out = reshape(pointwise_channel_map(f_mid, params.out_w, params.out_b), (l_w, g, g, d_f))
    if collect is not None:
        collect.q.append(q)
        collect.k.append(k)
        collect.v.append(v)
        collect.a.append(a)
    return f_out


def cmsa_fuse(v: Tensor, s: Tensor, q: QuestionEmbedding, params: CmsaParams,
              config: CmsaConfig):
    """Full fusion: glimpses in sequence, one residual from F, mean-pool, project."""
    f = build_multimodal_map(v, s, q, config)
    state = CmsaState(f=f, q=[], k=[], v=[], a=[], f_prime=None, f_hat=None)

    current = f
    for glimpse in params.glimpses:
        current = self_attention_pass(current, glimpse, config, collect=state)
    f_prime = current

    pooled = mean_over_axes(add(f_prime, f), (1, 2))          # (L_w, D_f)
    f_hat = pointwise_channel_map(pooled, params.proj_w, params.proj_b)

    state.f_prime = f_prime
    state.f_hat = f_hat
    return f_hat, state
