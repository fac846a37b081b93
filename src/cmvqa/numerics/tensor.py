"""Minimal reverse-mode autodiff on float64 numpy arrays.

Every operation builds a node in a backward graph; calling ``backward()`` on a
scalar result accumulates gradients into the ``grad`` field of every tensor with
``requires_grad=True`` that contributed to it. The op set is exactly what the
model needs; there is no broadcasting magic beyond what each op documents.

All forward outputs are checked for NaN/Inf and a ``NonFiniteError`` naming the
producing operation is raised on violation, so numerical blow-ups surface at
their source instead of three modules later.

No op writes into the ``data`` of its inputs, in forward or in backward, and
no caller may write into the ``data`` of a node while its graph is alive: an
output may share memory with an input (``reshape`` returns a view), and
backward closures read the forward arrays as they were.  Parameters are
updated in place only between graphs (Adam, the grad check's nudges).
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import Callable, Sequence

import numpy as np


class NumericsError(Exception):
    """Base class for errors raised by the numerics core."""


class ShapeError(NumericsError):
    """Operand shapes do not satisfy an operation's contract."""


class NonFiniteError(NumericsError):
    """A forward operation produced NaN or Inf."""

    def __init__(self, op: str, detail: str = ""):
        msg = f"non-finite values produced by operation '{op}'"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)
        self.op = op


class Tensor:
    """Dense float64 array with optional gradient tracking.

    ``data`` is always a contiguous-enough float64 ndarray. ``grad`` is either
    None or an ndarray of identical shape; leaf gradients accumulate across
    backward calls until ``zero_grad()``.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_op")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], Sequence[np.ndarray | None]] | None = None
        self._op: str | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Reverse-mode sweep from a scalar root."""
        if self.data.size != 1:
            raise ShapeError(f"backward() root must be scalar, got shape {self.shape}")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))

        grads: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node._backward is None:
                # leaf: accumulate into .grad
                node.grad = g if node.grad is None else node.grad + g
                continue
            parent_grads = node._backward(g)
            for p, pg in zip(node._parents, parent_grads):
                if pg is None or not p.requires_grad:
                    continue
                if p._backward is None and p._parents == ():
                    p.grad = pg if p.grad is None else p.grad + pg
                else:
                    acc = grads.get(id(p))
                    grads[id(p)] = pg if acc is None else acc + pg

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


# Bound once: ``_node`` runs for every op, and ``ndarray.all`` adds a Python
# frame around the same logical-and reduction.
_isfinite = np.isfinite
_all_true = np.logical_and.reduce


def _node(
    data: np.ndarray,
    parents: tuple[Tensor, ...],
    back: Callable[[np.ndarray], Sequence[np.ndarray | None]],
    op: str,
) -> Tensor:
    if not _all_true(_isfinite(data), None):
        raise NonFiniteError(op)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out._op = op
    for p in parents:
        if p.requires_grad:
            out.requires_grad = True
            out._parents = parents
            out._backward = back
            return out
    out.requires_grad = False
    out._parents = ()
    out._backward = None
    return out


def _checked(data: np.ndarray, op: str, stage: str) -> np.ndarray:
    """``data``, given the check ``_node`` makes, for a value that a layer-level
    op computes on the way to its output."""
    if not _all_true(_isfinite(data), None):
        raise NonFiniteError(op, stage)
    return data


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum g down to `shape` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


# -- elementwise ------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data
    return _node(data, (a, b), lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)), "add")


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data
    return _node(
        data,
        (a, b),
        lambda g: (_unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)),
        "mul",
    )


def scale(a: Tensor, c: float) -> Tensor:
    return _node(a.data * c, (a,), lambda g: (g * c,), "scale")


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    return _node(np.where(mask, a.data, 0.0), (a,), lambda g: (g * mask,), "relu")


def logistic(x: np.ndarray) -> np.ndarray:
    """The two-branch logistic function, overflow-free for any finite x."""
    # exp(-|x|) is exp(-x) where x >= 0 and exp(x) elsewhere, so each element
    # gets the same exp and the same division as the two-branch formula.
    z = np.exp(-np.abs(x))
    d = 1.0 + z
    return np.where(x >= 0, 1.0 / d, z / d)


def sigmoid(a: Tensor) -> Tensor:
    out = logistic(a.data)
    return _node(out, (a,), lambda g: (g * out * (1.0 - out),), "sigmoid")


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)
    return _node(out, (a,), lambda g: (g * (1.0 - out * out),), "tanh")


def weighted_sum(w: Tensor, parts: Tensor) -> Tensor:
    """(w[0] * parts[0] + w[1] * parts[1]) + ... as one node: the sum, left to
    right, of the slices of the (K, ...) stack parts scaled by the entries of
    the (K,) w."""
    if parts.data.ndim < 2 or w.shape != parts.shape[:1]:
        raise ShapeError(f"weighted_sum of {parts.shape} by weights {w.shape}")
    weights = w.data
    data = None
    for k, part in enumerate(parts.data):
        term = _checked(weights[k] * part, "weighted_sum", f"term {k}")
        data = term if data is None else data + term
        if 0 < k < len(weights) - 1:   # the last sum is the node's value
            _checked(data, "weighted_sum", f"sum of terms 0-{k}")

    def back(g: np.ndarray):
        gw = np.concatenate([_unbroadcast(g * part, (1,)) for part in parts.data])
        return gw, g * weights.reshape((-1,) + (1,) * g.ndim)

    return _node(data, (w, parts), back, "weighted_sum")


# -- linear algebra ----------------------------------------------------------


def pointwise_channel_map(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map over the last axis, applied independently at every position.

    x: (..., C_in), weight: (C_in, C_out), bias: (C_out,). This is what a
    1x1(x1) convolution computes, and doubles as the plain linear layer when x
    is rank-1.
    """
    if weight.data.ndim != 2:
        raise ShapeError(f"pointwise_channel_map weight must be rank-2, got {weight.shape}")
    c_in, c_out = weight.shape
    if x.shape[-1] != c_in:
        raise ShapeError(
            f"pointwise_channel_map channel mismatch: input {x.shape} vs weight {weight.shape}"
        )
    if bias.shape != (c_out,):
        raise ShapeError(f"pointwise_channel_map bias must be ({c_out},), got {bias.shape}")
    # rank >= 3 runs as one 2-D GEMM, not np.matmul's one GEMM per leading index
    x2 = x.data if x.data.ndim <= 2 else x.data.reshape(-1, c_in)
    data = (x2 @ weight.data + bias.data).reshape(x.shape[:-1] + (c_out,))

    def back(g: np.ndarray):
        g2 = g.reshape(-1, c_out)
        gx = g.reshape(x2.shape[:-1] + (c_out,)) @ weight.data.T
        return gx.reshape(x.shape), x2.reshape(-1, c_in).T @ g2, g2.sum(axis=0)

    return _node(data, (x, weight, bias), back, "pointwise_channel_map")


# -- shape plumbing ----------------------------------------------------------


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    """A view of a's data in the new shape (see the no-write contract above)."""
    return _node(a.data.reshape(shape), (a,), lambda g: (g.reshape(a.shape),), "reshape")


def broadcast_to(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    if a.data.ndim > len(shape):
        raise ShapeError(f"cannot broadcast {a.shape} to fewer axes {tuple(shape)}")
    data = np.empty(shape)
    data[...] = a.data
    return _node(data, (a,), lambda g: (_unbroadcast(g, a.shape),), "broadcast_to")


def concat_last(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate along the last axis."""
    parts = tuple(parts)
    data = np.concatenate([p.data for p in parts], axis=-1)
    edges = list(accumulate((p.data.shape[-1] for p in parts), initial=0))

    def back(g: np.ndarray):
        return tuple(g[..., edges[i] : edges[i + 1]] for i in range(len(parts)))

    return _node(data, parts, back, "concat_last")


def slice_last(a: Tensor, start: int, stop: int) -> Tensor:
    data = a.data[..., start:stop].copy()

    def back(g: np.ndarray):
        ga = np.zeros_like(a.data)
        ga[..., start:stop] = g
        return (ga,)

    return _node(data, (a,), back, "slice_last")


def rows(table: Tensor, ids, zero_id: int | None = None) -> Tensor:
    """Gather rows of `table` along axis 0.

    When `zero_id` is given, rows selected by that id read as all-zero and
    receive no gradient, which keeps the pad row of an embedding table inert.
    """
    idx = np.asarray(ids, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError(f"rows expects a 1-D id sequence, got shape {idx.shape}")
    n = table.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise IndexError(f"row id out of range for table with {n} rows: {ids}")
    data = table.data[idx].copy()
    if zero_id is not None:
        keep = idx != zero_id
        data[~keep] = 0.0

    def back(g: np.ndarray):
        gt = np.zeros_like(table.data)
        if zero_id is None:
            np.add.at(gt, idx, g)
        else:
            np.add.at(gt, idx[keep], g[keep])
        return (gt,)

    return _node(data, (table,), back, "rows")


# -- reductions --------------------------------------------------------------


def _check_axes(a: Tensor, axes) -> tuple[int, ...]:
    axes = (axes,) if isinstance(axes, int) else tuple(axes)
    norm = []
    for ax in axes:
        if not -a.data.ndim <= ax < a.data.ndim:
            raise ShapeError(f"axis {ax} invalid for shape {a.shape}")
        norm.append(ax % a.data.ndim)
    if len(set(norm)) != len(norm):
        raise ShapeError(f"duplicate axes {axes}")
    return tuple(sorted(norm))


def mean_over_axes(a: Tensor, axes) -> Tensor:
    """Arithmetic mean over the named axes; gradient spreads 1/count to each element."""
    axes = _check_axes(a, axes)
    count = 1
    for ax in axes:
        count *= a.shape[ax]
    # the reduce and divide ndarray.mean runs, without its Python frame
    data = np.add.reduce(a.data, axis=axes) / count
    kept = tuple(1 if i in axes else n for i, n in enumerate(a.shape))

    def back(g: np.ndarray):
        return (np.broadcast_to(g.reshape(kept), a.shape) / count,)

    return _node(data, (a,), back, "mean_over_axes")


def sum_over_axes(a: Tensor, axes) -> Tensor:
    axes = _check_axes(a, axes)
    data = a.data.sum(axis=axes)
    kept = tuple(1 if i in axes else n for i, n in enumerate(a.shape))

    def back(g: np.ndarray):
        ga = np.empty(a.shape)
        ga[...] = g.reshape(kept)
        return (ga,)

    return _node(data, (a,), back, "sum_over_axes")


# -- softmax / losses --------------------------------------------------------


def softmax_rows(x: Tensor) -> Tensor:
    """Row-wise softmax of a matrix, or of a vector as one row, stable under
    large magnitudes."""
    if x.data.ndim not in (1, 2):
        raise ShapeError(f"softmax_rows needs a rank-1 or rank-2 tensor, got {x.shape}")
    if not np.isfinite(x.data).all():
        raise NonFiniteError("softmax_rows", "input contains NaN/Inf")
    out = _softmax(x.data.reshape(-1, x.shape[-1]))

    def back(g: np.ndarray):
        return (_softmax_back(out, g.reshape(out.shape)).reshape(x.shape),)

    return _node(out.reshape(x.shape), (x,), back, "softmax_rows")


def _softmax(x: np.ndarray) -> np.ndarray:
    # one fresh array, exponentiated and divided in place: a fresh temporary
    # per step costs its page faults at attention sizes
    e = x - x.max(axis=1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=1, keepdims=True)
    return e


def _softmax_back(out: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The gradient of the rows of softmax ``out`` from g, which may hold one
    row per group of consecutive rows of ``out`` that share it."""
    out3 = out.reshape(len(g), -1, out.shape[1])
    g = g[:, None]
    g_in = g - np.add.reduce(g * out3, axis=2, keepdims=True)
    g_in *= out3
    return g_in.reshape(out.shape)


def cross_entropy(logits: Tensor, target) -> Tensor:
    """Negative log softmax probability of the target class.

    Rank-1 logits with an int target give one sample's loss; logits of shape
    (..., K) with integer targets of shape (...) give the mean over positions
    (used for per-pixel losses).
    """
    z = logits.data
    if z.ndim == 1:
        t = int(target)
        k = z.shape[0]
        if not 0 <= t < k:
            raise IndexError(f"target {t} out of range for {k} classes")
        m = z.max()
        lse = m + math.log(np.exp(z - m).sum())
        data = np.asarray(lse - z[t])

        def back(g: np.ndarray):
            p = np.exp(z - lse)
            p[t] -= 1.0
            return (p * g,)

        return _node(data, (logits,), back, "cross_entropy")

    t = np.asarray(target, dtype=np.int64)
    if z.ndim == 0 or t.shape != z.shape[:-1]:
        raise ShapeError(f"target shape {t.shape} does not match logits {logits.shape}")
    z, t = z.reshape(-1, z.shape[-1]), t.reshape(-1)
    pcount, k = z.shape
    if t.size and (t.min() < 0 or t.max() >= k):
        raise IndexError(f"target out of range for {k} classes")
    m = z.max(axis=1, keepdims=True)
    lse = m + np.log(np.exp(z - m).sum(axis=1, keepdims=True))
    per = lse[:, 0] - z[np.arange(pcount), t]
    data = np.asarray(per.mean())

    def back(g: np.ndarray):
        p = np.exp(z - lse)
        p[np.arange(pcount), t] -= 1.0
        return ((p * (g / pcount)).reshape(logits.shape),)

    return _node(data, (logits,), back, "cross_entropy")


# -- convolution / resampling ------------------------------------------------


def conv2d_relu(x: Tensor, weights: Sequence[Tensor], biases: Sequence[Tensor],
                stride: int = 2, padding: int = 1) -> Tensor:
    """relu(conv2d) of E encoders as one node: E (kh, kw, C_in, C_out) kernels
    and their (C_out,) biases over an (H, W, C_in) map that every encoder
    reads or an (E, H, W, C_in) stack of a map each, as one im2col and one
    np.matmul.  Returns the (E, Ho, Wo, C_out) stack; each encoder's slice and
    its kernel and bias gradients have the bits of its own convolution and
    ReLU, and a shared map's gradient is the sum over encoders."""
    weights, biases = tuple(weights), tuple(biases)
    e, lead = len(weights), x.shape[:-3]
    kshape = weights[0].shape if weights else ()
    if (len(kshape) != 4 or len(biases) != e or x.data.ndim < 3 or lead not in ((), (e,))
            or x.shape[-1] != kshape[2] or any(w.shape != kshape for w in weights)
            or any(b.shape != kshape[3:] for b in biases)):
        raise ShapeError(f"conv2d_relu of input {x.shape} by kernels {[w.shape for w in weights]} "
                         f"and biases {[b.shape for b in biases]}")
    kh, kw, c_in, c_out = kshape
    h, w = x.shape[-3:-1]
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    if ho < 1 or wo < 1:
        raise ShapeError(f"conv2d_relu output would be empty for input {x.shape}, kernel {kshape}")
    # the (..., Ho * Wo, kh * kw * C_in) patch rows, in (Ho, Wo) and (kh, kw,
    # C_in) order: a window view over the zero-padded input, copied by the reshape
    xp = np.zeros(lead + (h + 2 * padding, w + 2 * padding, c_in))
    xp[..., padding : padding + h, padding : padding + w, :] = x.data
    *s_lead, s_r, s_c, s_ch = xp.strides
    cols = np.ndarray(lead + (ho, wo, kh, kw, c_in), np.float64, xp, 0,
                      (*s_lead, stride * s_r, stride * s_c, s_r, s_c, s_ch)
                      ).reshape(lead + (ho * wo, kh * kw * c_in))

    def kernels():   # built again in backward, so no live graph holds a copy
        return np.concatenate([wt.data for wt in weights]).reshape(e, kh * kw * c_in, c_out)

    b3 = np.concatenate([b.data for b in biases]).reshape(e, 1, c_out)
    # one GEMM per encoder, a shared map's patch rows broadcast: a GEMM over
    # the concatenated kernels is slower at desk dims and rounds differently
    pre = np.matmul(cols, kernels()) + b3
    # checked before the ReLU, which would turn NaN and -inf into 0
    mask = _checked(pre, "conv2d_relu", "convolution") > 0

    def back(g: np.ndarray):
        g3 = g.reshape(mask.shape) * mask
        grads = (tuple(np.matmul(cols.swapaxes(-1, -2), g3).reshape((e,) + kshape))
                 + tuple(np.add.reduce(g3, axis=1)))
        if not x.requires_grad:  # a raw image: skip the input-gradient GEMM and col2im
            return (None,) + grads
        gcols = np.matmul(g3, kernels().swapaxes(1, 2))
        if not lead:   # a shared map: the sum over encoders
            gcols = gcols.sum(axis=0)
        gcols = gcols.reshape(lead + (ho, wo, kh, kw, c_in))
        # col2im on the padded input seen as (row block, row phase, column
        # block, column phase): tap (i, j) adds to block offset (i // stride,
        # j // stride) at phase (i % stride, j % stride).  The taps sharing a
        # block offset hit distinct cells, so each offset is one add, and the
        # offsets run in (i, j) order, which is every cell's order in a
        # tap-by-tap loop.
        nh, nw = -(-(h + 2 * padding) // stride), -(-(w + 2 * padding) // stride)
        gxp = np.zeros(lead + (nh, stride, nw, stride, c_in))
        for i in range(0, kh, stride):
            for j in range(0, kw, stride):
                taps = gcols[..., i : i + stride, j : j + stride, :]
                gxp[..., i // stride : i // stride + ho, : taps.shape[-3],
                    j // stride : j // stride + wo, : taps.shape[-2], :] += taps.swapaxes(-4, -3)
        gx = gxp.reshape(lead + (nh * stride, nw * stride, c_in))
        return (gx[..., padding : padding + h, padding : padding + w, :],) + grads

    return _node(np.where(mask, pre, 0.0).reshape(e, ho, wo, c_out), (x,) + weights + biases,
                 back, "conv2d_relu")


def upsample_nearest(x: Tensor, factor: int) -> Tensor:
    """Nearest-neighbor upsampling of an (H, W, C) map by an integer factor."""
    if factor < 1:
        raise ShapeError(f"upsample factor must be >= 1, got {factor}")
    h, w, c = x.shape
    data = np.repeat(np.repeat(x.data, factor, axis=0), factor, axis=1)

    def back(g: np.ndarray):
        return (g.reshape(h, factor, w, factor, c).sum(axis=(1, 3)),)

    return _node(data, (x,), back, "upsample_nearest")


# -- attention in factor form --------------------------------------------------
#
# A glimpse's input is a map F = [B | 1] Phi over N positions, held as the pair
# (B, Phi): B is (N, r) and Phi is (r + 1, D), its last row the constant row.
# A channel map of F is [B | 1] (Phi W + e b^T), e the last unit row, so every
# affine map runs on the r + 1 rows of Phi and never on N rows.  Glimpse 0's
# basis B_0 is one-hot at word i and at cell L + p in row (i, p); it is never
# built, as ``grid_rows`` applies it by broadcast.

_OVERFLOW = "attention logits overflowed"


def _blocks(phi: np.ndarray, blocks: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Views of Phi_0's two nonzero blocks for ``blocks`` = (L, c): the L word
    rows' columns from c, and the cell rows' columns below c.  ``factor_rows``
    writes only these; the rest of Phi_0, its constant row too, is zero."""
    l_w, c = blocks
    return phi[:l_w, c:], phi[l_w:-1, :c]


def _check_blocks(phi: Tensor, blocks: tuple[int, int], op: str) -> None:
    l_w, c = blocks
    if not (0 < l_w < phi.shape[0] - 1 and 0 < c < phi.shape[-1]):
        raise ShapeError(f"{op} of a factor {phi.shape} in blocks {blocks}")


def _block_map(words: np.ndarray, cells: np.ndarray, weight: np.ndarray,
               out: np.ndarray) -> np.ndarray:
    """Phi_0 W on its nonzero blocks, written into ``out``'s first L + G * G
    rows: the word rows times W's last rows, the cell rows times its first."""
    l_w, c = len(words), cells.shape[1]
    np.matmul(words, weight[c:], out[:l_w])
    np.matmul(cells, weight[:c], out[l_w:l_w + len(cells)])
    return out


def _block_map_back(words: np.ndarray, cells: np.ndarray, weight: np.ndarray, g: np.ndarray,
                    g_words: np.ndarray, g_cells: np.ndarray) -> np.ndarray:
    """W's gradient of ``_block_map`` from g, written as its two row blocks;
    those of the two blocks are written into ``g_words`` and ``g_cells``."""
    l_w, c = len(words), cells.shape[1]
    r = l_w + len(cells)
    g_w = np.empty(weight.shape)
    np.matmul(words.T, g[:l_w], g_w[c:])
    np.matmul(cells.T, g[l_w:r], g_w[:c])
    np.matmul(g[:l_w], weight[c:].T, g_words)
    np.matmul(g[l_w:r], weight[:c].T, g_cells)
    return g_w


def _rows_affine(phi: np.ndarray, weight: np.ndarray, bias: np.ndarray,
                 blocks: tuple[int, int] | None = None) -> np.ndarray:
    """Phi W + e b^T: the factor of [B | 1] Phi mapped by (W, b).  With
    ``blocks``, Phi is Phi_0, mapped on its nonzero blocks only; its zero
    constant row maps to b."""
    if blocks is None:
        out = phi @ weight
        out[-1] += bias
        return out
    out = _block_map(*_blocks(phi, blocks), weight, np.empty((len(phi), len(bias))))
    out[-1] = bias
    return out


def _rows_affine_back(phi: np.ndarray, weight: np.ndarray, g: np.ndarray,
                      blocks: tuple[int, int] | None = None):
    """Gradients (Phi, W, b) of ``_rows_affine``.  With ``blocks``, Phi_0's is
    zero off its nonzero blocks, where ``factor_rows`` reads none."""
    if blocks is None:
        return g @ weight.T, phi.T @ g, g[-1]
    g_phi = np.zeros(phi.shape)
    g_w = _block_map_back(*_blocks(phi, blocks), weight, g, *_blocks(g_phi, blocks))
    return g_phi, g_w, g[-1]


def _with_ones(b: np.ndarray, m: np.ndarray) -> np.ndarray:
    """[B | 1] M."""
    return b @ m[:-1] + m[-1]


def grid_rows(m: np.ndarray, l_w: int) -> np.ndarray:
    """[B_0 | 1] M for glimpse 0's one-hot basis B_0 over L = ``l_w`` words:
    row (i, p) is M[i] + M[L + p] + M[-1], rows in (word, cell) order."""
    return (m[:l_w, None] + m[None, l_w:-1]).reshape(-1, m.shape[1]) + m[-1]


def _logit_factor(phi: Tensor, weights: Sequence[Tensor], op: str,
                  blocks: tuple[int, int] | None = None):
    """Phi_q = Phi W_q + e b_q^T, Phi_k = Phi W_k less the constant row, and
    the (r + 1, r) M = Phi_q Phi_k^T.

    With ``blocks``, Phi is Phi_0, mapped on its nonzero blocks, and the key
    side takes each cell row less the first: a shift common to all cells,
    which their softmax cancels.  A channel equal at every cell, as the cell
    width and height are, then meets W_k as an exact 0, and its rows of W_k
    get an exact zero gradient."""
    q_w, q_b, k_w, k_b = weights
    d_f, qkv = q_w.shape
    if k_w.shape != (d_f, qkv) or q_b.shape != (qkv,) or k_b.shape != (qkv,):
        raise ShapeError(f"{op} weights {[w.shape for w in weights]}")
    if phi.data.ndim != 2 or phi.shape[1] != d_f or phi.shape[0] < 2:
        raise ShapeError(f"{op} factor {phi.shape}, D = {d_f}")
    phi_q = _checked(_rows_affine(phi.data, q_w.data, q_b.data, blocks), op, "q map")
    if blocks is None:
        phi_k = phi.data[:-1] @ k_w.data
    else:
        words, cells = _blocks(phi.data, blocks)
        phi_k = _block_map(words, cells - cells[0], k_w.data, np.empty((len(phi_q) - 1, qkv)))
    phi_k = _checked(phi_k, op, "k map")
    return phi_q, phi_k, _checked(phi_q @ phi_k.T, op, _OVERFLOW)


def _logit_factor_back(phi: Tensor, weights: Sequence[Tensor], phi_q: np.ndarray,
                       phi_k: np.ndarray, g_m: np.ndarray,
                       blocks: tuple[int, int] | None = None) -> tuple:
    """Gradients (Phi, W_q, b_q, W_k, b_k) of ``_logit_factor`` from that of M.
    b_k's is zero: the logits leave K's constant row out.  With ``blocks``,
    the key side's shift gives the first cell row no term of its own: that
    term is minus the sum of the cells' key gradients, which the cell
    softmax makes zero."""
    q_w, _, k_w, _ = weights
    g_q, g_k = g_m @ phi_k, g_m.T @ phi_q
    g_phi, g_qw, g_qb = _rows_affine_back(phi.data, q_w.data, g_q, blocks)
    if blocks is None:
        g_phi[:-1] += g_k @ k_w.data.T
        g_kw = phi.data[:-1].T @ g_k
    else:
        words, cells = _blocks(phi.data, blocks)
        g_words, g_cells = np.empty(words.shape), np.empty(cells.shape)
        g_kw = _block_map_back(words, cells - cells[0], k_w.data, g_k, g_words, g_cells)
        acc_words, acc_cells = _blocks(g_phi, blocks)
        acc_words += g_words
        acc_cells += g_cells
    return g_phi, g_qw, g_qb, g_kw, np.zeros(q_w.shape[1])


def attention_glimpse(b: Tensor, phi: Tensor, weights: Sequence[Tensor],
                      pool: int = 0) -> tuple[Tensor, np.ndarray]:
    """The attention of one glimpse over F = [B | 1] Phi as one node:
    Q = [B | 1] (Phi W_q + e b_q^T), K likewise, A = softmax_rows(Q K^T), and
    the output A B, or with ``pool`` = L the (L, r) P A B, P averaging A's
    rows over L equal consecutive groups.  As A's rows sum to 1, the output
    map A F' is [A B | 1] Phi', with Phi' from ``glimpse_values``.

    The logits are [B | 1] M B_c^T, M of shape (r + 1, r), so neither Q nor K
    is built.  K's part that is equal at every position shifts each row of the
    logits by a constant, which the softmax cancels, so the key side drops it:
    B_c is B less its mean row, K's constant row is left out, and b_k gets a
    zero gradient.  Leaving out that cancellation keeps digits a nearly uniform
    attention would lose.  ``weights`` is (q_w, q_b, k_w, k_b).  Returns the
    node and A."""
    op = "attention_glimpse"
    n = b.shape[0]
    if b.data.ndim != 2 or b.shape[1] != phi.shape[0] - 1 or (pool and n % pool):
        raise ShapeError(f"{op} factors {b.shape} and {phi.shape}, pooled over {pool}")
    phi_q, phi_k, m = _logit_factor(phi, weights, op)
    bd = b.data
    bc = bd - np.add.reduce(bd, axis=0) / n
    a = _checked(_softmax(_checked(_with_ones(bd, m) @ bc.T, op, _OVERFLOW)), op, "attention")
    per = n // pool if pool else 1
    rows = np.add.reduce(a.reshape(pool, per, n), axis=1) / per if pool else a

    def back(g: np.ndarray):
        g_a = g @ bd.T   # with ``pool``, one row per group of A's rows
        if pool:
            g_a /= per
        g_l = _softmax_back(a, g_a)
        del g_a
        u = g_l @ bc   # the gradient of [B | 1] M; that of M is [B | 1]^T u
        g_m = np.concatenate((bd.T @ u, np.add.reduce(u, axis=0, keepdims=True)))
        g_b = None
        if b.requires_grad:
            g_bc = np.hstack([g_l.T @ bd, g_l.sum(axis=0)[:, None]]) @ m   # g_L^T [B | 1] M
            g_b = rows.T @ g + u @ m[:-1].T + (g_bc - np.add.reduce(g_bc, axis=0) / n)
        del g_l, u
        return (g_b,) + _logit_factor_back(phi, weights, phi_q, phi_k, g_m)

    return _node(rows @ bd, (b, phi, *weights), back, op), a


def grid_attention(phi: Tensor, weights: Sequence[Tensor], blocks: tuple[int, int],
                   pool: bool = False) -> tuple[Tensor, np.ndarray]:
    """Glimpse 0's attention over F = [B_0 | 1] Phi_0 as one node, B_0 the
    one-hot basis of ``grid_rows``: the values of ``attention_glimpse`` on
    B_0, with no (N, N) array.  The logit of positions (i, p) and (j, p') is
    T[(i, p), j] + T[(i, p), L + p'] up to a constant per row, T = [B_0 | 1] M,
    so the row softmax over the pair (j, p') is alpha(j) beta(p'), alpha the
    softmax over T's L word columns and beta that over its cell columns, and
    A B_0 = [alpha | beta].  The output is [alpha | beta], (N, r), or with
    ``pool`` its (L, r) mean over each word's cells.  Returns the node and
    [alpha | beta].

    Phi_0 is in ``factor_rows``'s layout, and ``blocks`` = (L, c) marks its
    nonzero blocks: the L word rows' columns from c and the cell rows'
    columns below c.  The Q and K maps multiply only those, and Phi_0's
    gradient is zero elsewhere."""
    op = "grid_attention"
    _check_blocks(phi, blocks, op)
    l_w = blocks[0]
    r = phi.shape[0] - 1
    cells = r - l_w
    phi_q, phi_k, m = _logit_factor(phi, weights, op, blocks)
    t = _checked(grid_rows(m, l_w), op, _OVERFLOW)
    ab = _checked(np.concatenate((_softmax(t[:, :l_w]), _softmax(t[:, l_w:])), axis=1), op,
                  "attention")
    del t

    def back(g: np.ndarray):
        g_t = np.repeat(g / cells, cells, axis=0) if pool else g.copy()
        # each block's softmax backward, ab * (g - rowsum(g * ab)), in place
        g_ab = g_t * ab
        for block in (slice(0, l_w), slice(l_w, r)):
            g_t[:, block] -= np.add.reduce(g_ab[:, block], axis=1, keepdims=True)
        g_t *= ab
        # the gradient of M is [B_0 | 1]^T g_T: sums over each word's cells,
        # over each cell's words, and over all positions
        g_3 = g_t.reshape(l_w, cells, r)
        g_m = np.concatenate((np.add.reduce(g_3, axis=1), np.add.reduce(g_3, axis=0),
                              np.add.reduce(g_t, axis=0, keepdims=True)))
        return _logit_factor_back(phi, weights, phi_q, phi_k, g_m, blocks)

    out = np.add.reduce(ab.reshape(l_w, cells, r), axis=1) / cells if pool else ab
    return _node(out, (phi, *weights), back, op), ab


def _check_values(phi: Tensor, weights: Sequence[Tensor], op: str) -> None:
    v_w, v_b, out_w, out_b = weights
    d_f, qkv = v_w.shape
    if phi.data.ndim != 2 or phi.shape[1] != d_f or v_b.shape != (qkv,) or \
            out_w.shape != (qkv, d_f) or out_b.shape != (d_f,):
        raise ShapeError(f"{op} factor {phi.shape} and weights {[w.shape for w in weights]}")


def glimpse_values(phi: Tensor, weights: Sequence[Tensor],
                   blocks: tuple[int, int] | None = None) -> Tensor:
    """The value side of a glimpse as one node: Phi' = (Phi W_v + e b_v^T) W_out
    + e b_out^T, the factor of the glimpse's output map [A B | 1] Phi'.
    ``weights`` is (v_w, v_b, out_w, out_b).  Glimpse 0 passes ``blocks`` as
    ``grid_attention`` takes them, so the V map multiplies only Phi_0's
    nonzero blocks."""
    op = "glimpse_values"
    _check_values(phi, weights, op)
    if blocks is not None:
        _check_blocks(phi, blocks, op)
    v_w, v_b, out_w, out_b = weights
    phi_v = _checked(_rows_affine(phi.data, v_w.data, v_b.data, blocks), op, "v map")

    def back(g: np.ndarray):
        g_v, g_ow, g_ob = _rows_affine_back(phi_v, out_w.data, g)
        return _rows_affine_back(phi.data, v_w.data, g_v, blocks) + (g_ow, g_ob)

    return _node(_rows_affine(phi_v, out_w.data, out_b.data), (phi, *weights), back, op)


def pooled_values(rows: Tensor, phi: Tensor, weights: Sequence[Tensor]) -> Tensor:
    """The value side of a pooled glimpse as one node, on the L rows R of its
    pooled attention: X = [R | 1] Phi, then (X W_v + b_v) W_out + b_out, the
    (L, D) map [R | 1] Phi' with Phi' from ``glimpse_values``, computed on L
    rows instead of r + 1.  ``weights`` is (v_w, v_b, out_w, out_b)."""
    op = "pooled_values"
    _check_values(phi, weights, op)
    if rows.data.ndim != 2 or rows.shape[1] != phi.shape[0] - 1:
        raise ShapeError(f"{op} rows {rows.shape} of a factor {phi.shape}")
    v_w, v_b, out_w, out_b = weights
    x = _checked(_with_ones(rows.data, phi.data), op, "pooled input")
    h = _checked(x @ v_w.data + v_b.data, op, "v map")

    def back(g: np.ndarray):
        g_h = g @ out_w.data.T
        g_x = g_h @ v_w.data.T
        g_phi = np.concatenate((rows.data.T @ g_x, np.add.reduce(g_x, axis=0, keepdims=True)))
        return (g_x @ phi.data[:-1].T, g_phi, x.T @ g_h, np.add.reduce(g_h, axis=0),
                h.T @ g, np.add.reduce(g, axis=0))

    return _node(h @ out_w.data + out_b.data, (rows, phi, *weights), back, op)


def factor_rows(v: Tensor, s: Tensor, q: Tensor) -> Tensor:
    """Phi_0 of F[i, r, c] = [v[r, c] | s[r, c] | q[i]] = [B_0 | 1] Phi_0, where
    row (i, r, c) of B_0 is one-hot at column i and at column L + r G + c:
    the (L + G * G + 1, D) rows [0 | 0 | q_i], then [v_rc | s_rc | 0], then 0."""
    if v.data.ndim != 3 or s.data.ndim != 3 or q.data.ndim != 2 or v.shape[:2] != s.shape[:2]:
        raise ShapeError(f"factor_rows of {v.shape}, {s.shape} and {q.shape}")
    l_w, c_v, c_g = q.shape[0], v.shape[2], v.shape[2] + s.shape[2]
    cells = v.shape[0] * v.shape[1]
    data = np.zeros((l_w + cells + 1, c_g + q.shape[1]))
    data[:l_w, c_g:] = q.data
    data[l_w:-1, :c_v] = v.data.reshape(cells, c_v)
    data[l_w:-1, c_v:c_g] = s.data.reshape(cells, -1)

    def back(g: np.ndarray):
        return (g[l_w:-1, :c_v].reshape(v.shape), g[l_w:-1, c_v:c_g].reshape(s.shape),
                g[:l_w, c_g:])

    return _node(data, (v, s, q), back, "factor_rows")


def factor_readout(x: Tensor, phi: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """(X + P [B_0 | 1] Phi) W + b as one node, for an (L, D) X and the
    (L + G * G + 1, D) Phi of a map [B_0 | 1] Phi: P averages each word's
    rows, which gives Phi's word row plus the mean of its cell rows and its
    constant row, so the map is never built.  For glimpse 0's Phi_0 those
    rows are [mean v | mean s | q_i]."""
    l_w = x.shape[0]
    cells = phi.shape[0] - 1 - l_w
    if x.data.ndim != 2 or phi.data.ndim != 2 or phi.shape[1] != x.shape[1] or cells < 1 or \
            weight.data.ndim != 2 or weight.shape[0] != x.shape[1] or bias.shape != weight.shape[1:]:
        raise ShapeError(f"factor_readout of {x.shape} and {phi.shape} by {weight.shape} "
                         f"and {bias.shape}")
    grid_mean = phi.data[:l_w] + np.add.reduce(phi.data[l_w:-1], axis=0) / cells + phi.data[-1]
    total = x.data + grid_mean

    def back(g: np.ndarray):
        g_total = g @ weight.data.T
        g_phi = np.empty(phi.shape)
        g_phi[:l_w] = g_total
        g_phi[-1] = np.add.reduce(g_total, axis=0)
        g_phi[l_w:-1] = g_phi[-1] / cells
        return g_total, g_phi, total.T @ g, np.add.reduce(g, axis=0)

    return _node(total @ weight.data + bias.data, (x, phi, weight, bias), back, "factor_readout")


# -- parameter construction ---------------------------------------------------


def uniform_init(gen: np.random.Generator, shape: tuple[int, ...], fan_in: int, fan_out: int) -> Tensor:
    """Trainable tensor drawn uniformly in +-sqrt(6 / (fan_in + fan_out))."""
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(gen.uniform(-limit, limit, size=shape), requires_grad=True)


def zeros_param(shape: tuple[int, ...]) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=True)
