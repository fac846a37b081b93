"""Cross-modal self-attention fusion.

F stacks visual, spatial, and word channels at every (word, row, col)
position; each glimpse maps F to Q/K/V with per-position affine maps,
attends with A = softmax_rows(Q K^T) over all N = L_w*G*G positions, and
maps A V back to the F width.  A single residual from the original F feeds
the mean-pool over the grid, and a final affine map produces one D_q row
per word.

The fuse never builds F or any map over the N positions.  F has rank at most
r = L_w + G*G (one row per word, one per cell), and it is held as the pair
(B, Phi) with F = [B | 1] Phi: glimpse 0 starts from ``factor_rows`` and the
one-hot word x cell basis B_0, which is never built either (``OneHotGrid``
marks it).  A glimpse keeps that form, because its maps are affine and A's
rows sum to 1: A [B | 1] Phi W = [A B | 1] (Phi W).  So each glimpse is two
nodes, an attention node (B -> A B) and ``glimpse_values`` (Phi -> Phi'),
whose affine maps act on r + 1 rows.

Glimpse 0's logit between positions (i, p) and (j, p') is a word term plus a
cell term, so its row softmax is a word softmax times a cell softmax and
A B_0 = [alpha | beta]: ``grid_attention`` builds no (N, N) array.  Phi_0's
word rows are [0 | 0 | q_i] and its cell rows [v_rc | s_rc | 0], so glimpse
0's Q, K and V maps multiply only those two blocks, each by its rows of the
weight, with the boundary (L_w, C_v + 8) taken from the config; the key side
also takes each cell row less the first, which the cell softmax cancels, so
channels equal at every cell get exact zero weight gradients.  Only the
grid mean of the last glimpse's output is read, so that glimpse averages its
attention rows per word first and ``pooled_values`` maps those L_w rows;
``factor_readout`` adds the residual's grid mean [mean v | mean s | q_i] and
projects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from .numerics import (
    ShapeError,
    Tensor,
    attention_glimpse,
    broadcast_to,
    concat_last,
    factor_readout,
    factor_rows,
    glimpse_values,
    grid_attention,
    grid_rows,
    pooled_values,
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


@dataclass(frozen=True)
class OneHotGrid:
    """Glimpse 0's basis B_0 in its pair, never built: row (i, r, c) is one-hot
    at word i and at cell L_w + r G + c."""

    l_w: int


@dataclass
class CmsaState:
    """Intermediate values of one fuse pass, inspectable by tests.  F, each
    glimpse's Q, K and V, each (N, qkv), and glimpse 0's A are built from the
    stored factors on every read, so read them before the parameters change."""

    inputs: tuple = None  # (v, s, q, config) of the fuse; f builds F from them
    factors: list = field(default_factory=list)  # (B, Phi, GlimpseParams) per glimpse
    attention: list = field(default_factory=list)  # A, or glimpse 0's [alpha | beta]
    f_prime: Tensor = None  # last glimpse's output pooled over the grid, (L_w, D_f)
    f_hat: Tensor = None

    @property
    def f(self) -> Tensor:
        return build_multimodal_map(*self.inputs)

    @property
    def a(self) -> List[Tensor]:
        """Each glimpse's (N, N) A; glimpse 0's is alpha times beta."""
        out = []
        for (b, _, _), att in zip(self.factors, self.attention):
            if isinstance(b, OneHotGrid):
                att = (att[:, :b.l_w, None] * att[:, None, b.l_w:]).reshape(len(att), -1)
            out.append(Tensor(att))
        return out

    def _maps(self, name: str) -> List[Tensor]:
        out = []
        for b, phi, params in self.factors:
            rows = phi.data @ getattr(params, f"{name}_w").data
            rows[-1] += getattr(params, f"{name}_b").data
            out.append(Tensor(grid_rows(rows, b.l_w) if isinstance(b, OneHotGrid)
                              else b.data @ rows[:-1] + rows[-1]))
        return out

    q = property(lambda self: self._maps("q"))
    k = property(lambda self: self._maps("k"))
    v = property(lambda self: self._maps("v"))


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


def self_attention_pass(pair: tuple, params: GlimpseParams, config: CmsaConfig,
                        collect: CmsaState = None, pool: bool = False):
    """One glimpse over F = [B | 1] Phi, given as the pair (B, Phi), B a tensor
    or glimpse 0's ``OneHotGrid``: Q/K/V maps, row-softmax attention over all
    positions, map back.  Returns the output's pair (A B, Phi').

    With ``pool`` it returns the (L_w, D_f) mean of the output map over each
    word's grid, [P A B | 1] Phi': PA's rows sum to 1 like A's."""
    b, phi = pair
    qk = (params.q_w, params.q_b, params.k_w, params.k_b)
    vo = (params.v_w, params.v_b, params.out_w, params.out_b)
    blocks = None
    if isinstance(b, OneHotGrid):
        blocks = (b.l_w, config.c_v + 8)   # Phi_0's word rows and cell rows, see factor_rows
        rows, att = grid_attention(phi, qk, blocks, pool)
    else:
        rows, att = attention_glimpse(b, phi, qk, config.l_w if pool else 0)
    if collect is not None:
        collect.factors.append((b, phi, params))
        collect.attention.append(att)
    return pooled_values(rows, phi, vo) if pool else (rows, glimpse_values(phi, vo, blocks))


def cmsa_fuse(v: Tensor, s: Tensor, q: QuestionEmbedding, params: CmsaParams,
              config: CmsaConfig):
    """Full fusion: glimpses in sequence, one residual from F, mean-pool, project.
    The last glimpse returns its output already pooled over the grid."""
    _check_factors(v, s, q.q, config)
    state = CmsaState(inputs=(v, s, q, config))
    phi0 = factor_rows(v, s, q.q)
    out = (OneHotGrid(config.l_w), phi0)
    last = len(params.glimpses) - 1
    for i, glimpse in enumerate(params.glimpses):
        out = self_attention_pass(out, glimpse, config, collect=state, pool=i == last)
    state.f_prime = out
    state.f_hat = factor_readout(out, phi0, params.proj_w, params.proj_b)
    return state.f_hat, state
