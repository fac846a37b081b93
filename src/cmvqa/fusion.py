"""Cross-modal self-attention fusion.

F stacks visual, spatial, and word channels at every (word, row, col)
position; each glimpse maps F to Q/K/V with per-position affine maps,
attends with A = softmax_rows(Q K^T) over all N = L_w*G*G positions, and
maps A V back to the F width.  A single residual from the original F feeds
the mean-pool over the grid, and a final affine map produces one D_q row
per word.

Each glimpse is one autodiff node, ``numerics.attention_glimpse``.  The fuse
never builds F: glimpse 0 maps its factors (v, s, q) directly, the residual's
grid mean is [mean v | mean s | q_i], and ``CmsaState.f`` is lazy.  Only the
grid mean of the last glimpse's output is read, so that glimpse runs pooled:
its attention rows are averaged over each word's grid cells before they meet
V, and V's map and the out map act on those L_w rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from .numerics import (
    ShapeError,
    Tensor,
    add,
    attention_glimpse,
    broadcast_to,
    concat_last,
    mean_over_axes,
    pointwise_channel_map,
    reshape,
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

    inputs: tuple = None  # (v, s, q, config) of the fuse; f builds F from them
    q: List[Tensor] = field(default_factory=list)
    k: List[Tensor] = field(default_factory=list)
    v: List[Tensor] = field(default_factory=list)  # (N, qkv), only for glimpses that build V
    a: List[Tensor] = field(default_factory=list)  # (N, N), one per glimpse
    f_prime: Tensor = None  # last glimpse's output pooled over the grid, (L_w, D_f)
    f_hat: Tensor = None

    @property
    def f(self) -> Tensor:
        return build_multimodal_map(*self.inputs)


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


def _check_factors(v: Tensor, s: Tensor, q: Tensor, config: CmsaConfig) -> None:
    g = config.g
    want = ((g, g, config.c_v), (g, g, 8), (config.l_w, config.d_q))
    if (v.shape, s.shape, q.shape) != want:
        raise ShapeError(f"visual, spatial and word factors {v.shape}, {s.shape}, "
                         f"{q.shape}; expected {want}")


def build_multimodal_map(v: Tensor, s: Tensor, q: QuestionEmbedding,
                         config: CmsaConfig) -> Tensor:
    """F[i, r, c, :] = concat(v[r,c], s[r,c], q[i])."""
    _check_factors(v, s, q.q, config)
    l_w, g, d_q = config.l_w, config.g, config.d_q
    return concat_last([broadcast_to(v, (l_w, g, g, config.c_v)), broadcast_to(s, (l_w, g, g, 8)),
                        broadcast_to(reshape(q.q, (l_w, 1, 1, d_q)), (l_w, g, g, d_q))])


def self_attention_pass(f_in: Tensor | tuple, params: GlimpseParams, config: CmsaConfig,
                        collect: CmsaState = None, pool: bool = False) -> Tensor:
    """One glimpse over an (L_w, G, G, D_f) map or over F's factor triple
    (v, s, q): Q/K/V maps, row-softmax attention over all positions, map back.

    With ``pool`` the (L_w, D_f) mean of the output over each word's grid is
    returned instead. P, the (L_w, N) matrix averaging each word's G*G rows,
    is applied to A first: P A V W_out + b equals the mean of A V W_out + b
    because PA's rows sum to 1 like A's. A map input X then goes through V's
    map only as the L_w rows (P A) X; V is never built."""
    l_w, g, d_f = config.l_w, config.g, config.d_f
    if isinstance(f_in, tuple):
        _check_factors(*f_in, config)
    elif f_in.shape != (l_w, g, g, d_f):
        raise ShapeError(f"F {f_in.shape}, expected {(l_w, g, g, d_f)}")
    weights = (params.q_w, params.q_b, params.k_w, params.k_b, params.v_w, params.v_b,
               params.out_w, params.out_b)
    out, (q, k, v, a) = attention_glimpse(f_in, weights, config.scaled_attention, pool)
    if collect is not None:
        collect.q.append(Tensor(q))
        collect.k.append(Tensor(k))
        if v is not None:
            collect.v.append(Tensor(v))
        collect.a.append(Tensor(a))
    return out


def cmsa_fuse(v: Tensor, s: Tensor, q: QuestionEmbedding, params: CmsaParams,
              config: CmsaConfig):
    """Full fusion: glimpses in sequence, one residual from F, mean-pool, project.
    The last glimpse returns its output already pooled over the grid."""
    state = CmsaState(inputs=(v, s, q, config))
    f_prime = (v, s, q.q)
    last = len(params.glimpses) - 1
    for i, glimpse in enumerate(params.glimpses):
        f_prime = self_attention_pass(f_prime, glimpse, config, collect=state, pool=i == last)

    # mean over the grid of F is [mean v | mean s | q_i] for word i
    grid_mean = mean_over_axes(concat_last([v, s]), (0, 1))
    f_mean = concat_last([broadcast_to(grid_mean, (config.l_w, config.c_v + 8)), q.q])
    pooled = add(f_prime, f_mean)     # (L_w, D_f)
    f_hat = pointwise_channel_map(pooled, params.proj_w, params.proj_b)

    state.f_prime = f_prime
    state.f_hat = f_hat
    return f_hat, state
