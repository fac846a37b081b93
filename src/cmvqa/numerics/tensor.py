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


def weighted_sum(w: Tensor, parts: Sequence[Tensor]) -> Tensor:
    """(w[0] * parts[0] + w[1] * parts[1]) + ... as one node: the sum, left to
    right, of equally shaped tensors scaled by the entries of the (K,) w.

    Values and gradients equal those of mul(broadcast_to(slice_last(w, k, k + 1),
    shape), parts[k]) folded with add, for K >= 2."""
    parts = tuple(parts)
    shape = parts[0].shape
    if w.shape != (len(parts),) or any(p.shape != shape for p in parts):
        raise ShapeError(f"weighted_sum of {[p.shape for p in parts]} by weights {w.shape}")
    weights = w.data
    data = None
    for k, part in enumerate(parts):
        term = _checked(weights[k] * part.data, "weighted_sum", f"term {k}")
        data = term if data is None else data + term
        if 0 < k < len(parts) - 1:   # the last sum is the node's value
            _checked(data, "weighted_sum", f"sum of terms 0-{k}")

    def back(g: np.ndarray):
        # each weight's gradient came from slice_last's zero-filled (K,)
        # arrays, whose sum turns -0.0 into +0.0 (numpy 2's sums return +0.0
        # for all -0.0 terms, so this shows only where a sum can keep -0.0)
        gw = np.concatenate([_unbroadcast(g * p.data, (1,)) for p in parts])
        gw += 0.0
        g_parts = tuple(g * weights[k] for k in range(len(parts)))
        return g_parts[:-1] + (gw,) + g_parts[-1:]

    # The graph walk takes parents last-listed first, and the composition's
    # walk reached the last part, then w, then the other parts: listed in that
    # order, a tensor upstream of both w and a part gets its gradient terms in
    # the composition's order.
    return _node(data, parts[:-1] + (w,) + parts[-1:], back, "weighted_sum")


# -- linear algebra ----------------------------------------------------------


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
        gx, gw, gb = _affine_back(x2, weight.data, g)
        return gx.reshape(x.shape), gw, gb

    return _node(data, (x, weight, bias), back, "pointwise_channel_map")


def _affine_back(x2: np.ndarray, weight: np.ndarray, g: np.ndarray):
    """Gradients (input, weight, bias) of x2 @ weight + bias, x2 of rank <= 2."""
    c_in, c_out = weight.shape
    g2 = g.reshape(-1, c_out)
    gx = g.reshape(x2.shape[:-1] + (c_out,)) @ weight.T
    return gx, x2.reshape(-1, c_in).T @ g2, g2.sum(axis=0)


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
    data = _multimodal(cells, words.data, weight.data, bias.data)

    def back(g: np.ndarray):
        g_cell, g_word, gw, gb = _multimodal_back(cells, words.data, weight.data, g)
        return g_cell.reshape(grid.shape), g_word, gw, gb

    return _node(data, (grid, words, weight, bias), back, "multimodal_channel_map")


def _multimodal(cells: np.ndarray, words: np.ndarray, weight: np.ndarray,
                bias: np.ndarray) -> np.ndarray:
    """multimodal_channel_map's value from the (G * G, C_g) cells and (L, D) words."""
    k = cells.shape[1]
    return ((words @ weight[k:] + bias)[:, None] + cells @ weight[:k]).reshape(-1, weight.shape[1])


def _multimodal_back(cells: np.ndarray, words: np.ndarray, weight: np.ndarray, g: np.ndarray):
    """Gradients (cells, words, weight, bias) of ``_multimodal``."""
    k, c_out = cells.shape[1], weight.shape[1]
    g3 = g.reshape(words.shape[0], -1, c_out)
    g_cell, g_word = g3.sum(axis=0), g3.sum(axis=1)
    gw = np.empty(weight.shape)   # both products written in place, no concatenated copy
    np.matmul(cells.T, g_cell, out=gw[:k])
    np.matmul(words.T, g_word, out=gw[k:])
    return g_cell @ weight[:k].T, g_word @ weight[k:].T, gw, g_word.sum(axis=0)


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
    """Row-wise softmax of a matrix, stable under large magnitudes."""
    if x.data.ndim != 2:
        raise ShapeError(f"softmax_rows needs a rank-2 tensor, got {x.shape}")
    if not np.isfinite(x.data).all():
        raise NonFiniteError("softmax_rows", "input contains NaN/Inf")
    out = _softmax(x.data)
    return _node(out, (x,), lambda g: (_softmax_back(out, g),), "softmax_rows")


def _softmax(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _softmax_back(out: np.ndarray, g: np.ndarray) -> np.ndarray:
    dot = (g * out).sum(axis=1, keepdims=True)
    return out * (g - dot)


def cross_entropy(logits: Tensor, target) -> Tensor:
    """Negative log softmax probability of the target class.

    Rank-1 logits with an int target give one sample's loss; rank-2 logits of
    shape (P, K) with a length-P target vector give the mean over positions
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

    if z.ndim == 2:
        t = np.asarray(target, dtype=np.int64)
        pcount, k = z.shape
        if t.shape != (pcount,):
            raise ShapeError(f"target shape {t.shape} does not match logit rows {pcount}")
        if t.size and (t.min() < 0 or t.max() >= k):
            raise IndexError(f"target out of range for {k} classes")
        m = z.max(axis=1, keepdims=True)
        lse = m + np.log(np.exp(z - m).sum(axis=1, keepdims=True))
        per = lse[:, 0] - z[np.arange(pcount), t]
        data = np.asarray(per.mean())

        def back(g: np.ndarray):
            p = np.exp(z - lse)
            p[np.arange(pcount), t] -= 1.0
            return (p * (g / pcount),)

        return _node(data, (logits,), back, "cross_entropy")

    raise ShapeError(f"cross_entropy expects rank-1 or rank-2 logits, got {logits.shape}")


# -- convolution / resampling ------------------------------------------------


def conv2d(x: Tensor, weight: Tensor, bias: Tensor, stride: int = 2, padding: int = 1) -> Tensor:
    """2-D convolution on a single (H, W, C_in) map.

    weight: (kh, kw, C_in, C_out), bias: (C_out,). Output spatial size is
    (H + 2*padding - kh) // stride + 1 per side.
    """
    data, back = _conv2d(x, weight, bias, stride, padding)
    return _node(data, (x, weight, bias), back, "conv2d")


def conv2d_relu(x: Tensor, weight: Tensor, bias: Tensor, stride: int = 2,
                padding: int = 1) -> Tensor:
    """relu(conv2d(x, weight, bias, stride, padding)) as one node, with the
    same values and gradients as the two ops."""
    pre, conv_back = _conv2d(x, weight, bias, stride, padding)
    # checked before the ReLU, which would turn NaN and -inf into 0
    mask = _checked(pre, "conv2d_relu", "convolution") > 0
    return _node(np.where(mask, pre, 0.0), (x, weight, bias), lambda g: conv_back(g * mask),
                 "conv2d_relu")


def _conv2d(x: Tensor, weight: Tensor, bias: Tensor, stride: int, padding: int):
    """The convolution's value and its backward, (gx, gw, gb) of the upstream
    gradient; gx is None when x needs no gradient."""
    h, w, c_in = x.shape
    kh, kw, wc_in, c_out = weight.shape
    if wc_in != c_in:
        raise ShapeError(f"conv2d channel mismatch: input {x.shape} vs weight {weight.shape}")
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    if ho < 1 or wo < 1:
        raise ShapeError(f"conv2d output would be empty for input {x.shape}, kernel {weight.shape}")
    xp = np.zeros((h + 2 * padding, w + 2 * padding, c_in))
    xp[padding : padding + h, padding : padding + w] = x.data
    # im2col: a (Ho, Wo, kh, kw, C_in) window view over the padded buffer,
    # copied into patch rows by the reshape
    s_r, s_c, s_ch = xp.strides
    windows = np.ndarray((ho, wo, kh, kw, c_in), np.float64, xp, 0,
                         (stride * s_r, stride * s_c, s_r, s_c, s_ch))
    patches = windows.reshape(ho * wo, kh * kw * c_in)
    w2 = weight.data.reshape(kh * kw * c_in, c_out)
    data = (patches @ w2 + bias.data).reshape(ho, wo, c_out)

    def back(g: np.ndarray):
        g2 = g.reshape(ho * wo, c_out)
        gw = (patches.T @ g2).reshape(weight.shape)
        gb = g2.sum(axis=0)
        if not x.requires_grad:  # a raw image: skip the input-gradient GEMM and col2im
            return None, gw, gb
        gcols = (g2 @ w2.T).reshape(ho, wo, kh, kw, c_in)
        # col2im on the padded input seen as (row block, row phase, column
        # block, column phase): tap (i, j) adds to block offset (i // stride,
        # j // stride) at phase (i % stride, j % stride).  The taps sharing a
        # block offset hit distinct cells, so each offset is one add, and the
        # offsets run in (i, j) order, which is every cell's order in a
        # tap-by-tap loop.
        nh, nw = -(-xp.shape[0] // stride), -(-xp.shape[1] // stride)
        gxp = np.zeros((nh, stride, nw, stride, c_in))
        for i in range(0, kh, stride):
            for j in range(0, kw, stride):
                taps = gcols[:, :, i : i + stride, j : j + stride]
                gxp[i // stride : i // stride + ho, : taps.shape[2],
                    j // stride : j // stride + wo, : taps.shape[3]] += taps.transpose(0, 2, 1, 3, 4)
        gx = gxp.reshape(nh * stride, nw * stride, c_in)[padding : padding + h, padding : padding + w]
        return gx, gw, gb

    return data, back


def upsample_nearest(x: Tensor, factor: int) -> Tensor:
    """Nearest-neighbor upsampling of an (H, W, C) map by an integer factor."""
    if factor < 1:
        raise ShapeError(f"upsample factor must be >= 1, got {factor}")
    h, w, c = x.shape
    data = np.repeat(np.repeat(x.data, factor, axis=0), factor, axis=1)

    def back(g: np.ndarray):
        return (g.reshape(h, factor, w, factor, c).sum(axis=(1, 3)),)

    return _node(data, (x,), back, "upsample_nearest")


# -- attention ------------------------------------------------------------------


def attention_glimpse(f_in: Tensor | tuple, weights: Sequence[Tensor], scaled: bool = False,
                      pool: bool = False) -> tuple[Tensor, tuple]:
    """One self-attention glimpse as one node: Q/K/V channel maps, attention
    A = softmax_rows(Q K^T) over all N positions, and the out map of A V.

    ``f_in`` is an (L, G, G, D) map, or the factor triple (v, s, q) of the map
    F[i, r, c] = [v[r, c] | s[r, c] | q[i]], read as multimodal_channel_map
    does.  ``weights`` is (q_w, q_b, k_w, k_b, v_w, v_b, out_w, out_b), and
    ``scaled`` divides the logits by sqrt(qkv).  The output is (L, G, G, D),
    or with ``pool`` its (L, D) mean over each word's G * G positions: A's rows
    are averaged per word before they meet V, and a map input X meets V's
    map only as those L rows times X, so V is not built.

    Returns the node and the arrays (q, k, v, a), v None where V is not built.
    Values and gradients equal those of the primitive ops' graph bit for bit:
    the backward runs their backward expressions in the order the sweep took.
    """
    op = "attention_glimpse"
    q_w, q_b, k_w, k_b, v_w, v_b, out_w, out_b = weights
    d_f, qkv = q_w.shape
    if any(w.shape != (d_f, qkv) for w in (k_w, v_w)) or out_w.shape != (qkv, d_f) or \
            any(b.shape != (qkv,) for b in (q_b, k_b, v_b)) or out_b.shape != (d_f,):
        raise ShapeError(f"{op} weights {[w.shape for w in weights]}")
    factors = isinstance(f_in, tuple)
    if factors:
        v_in, s_in, words = f_in
        grid = np.concatenate([v_in.data, s_in.data], axis=-1)
        if grid.ndim != 3 or words.data.ndim != 2 or grid.shape[2] + words.shape[1] != d_f:
            raise ShapeError(f"{op} factors {v_in.shape}, {s_in.shape}, {words.shape}, D = {d_f}")
        cells = grid.reshape(-1, grid.shape[2])
        out_shape = (words.shape[0],) + grid.shape[:2] + (d_f,)
        parents = (v_in, s_in, words, words, words)   # the words feed three maps

        def channel_map(w: Tensor, b: Tensor) -> np.ndarray:
            return _multimodal(cells, words.data, w.data, b.data)
    else:
        if f_in.data.ndim != 4 or f_in.shape[3] != d_f:
            raise ShapeError(f"{op} map {f_in.shape} for D = {d_f}")
        x = f_in.data.reshape(-1, d_f)
        out_shape, parents = f_in.shape, (f_in,)

        def channel_map(w: Tensor, b: Tensor) -> np.ndarray:
            return x @ w.data + b.data

    l_w = out_shape[0]
    q = _checked(channel_map(q_w, q_b), op, "q map")
    k = _checked(channel_map(k_w, k_b), op, "k map")
    v = None if pool and not factors else _checked(channel_map(v_w, v_b), op, "v map")
    # transpose2d's copy: BLAS rounds a product by the layout of its operands
    k_t = k.T.copy()
    logits = q @ k_t
    if scaled:
        c = 1.0 / np.sqrt(qkv)
        logits = logits * c
    _checked(logits, op, "attention logits overflowed; consider enabling scaled_attention")
    a = _checked(_softmax(logits), op, "attention")
    del logits
    n = a.shape[0]
    per_word = n // l_w
    if not pool:
        mid = _checked(a @ v, op, "A V")
        out = (mid @ out_w.data + out_b.data).reshape(out_shape)
    else:
        a_bar = _checked(np.add.reduce(a.reshape(l_w, per_word, n), axis=(1,)) / per_word,
                         op, "pooled attention")
        if v is None:
            x_bar = _checked(a_bar @ x, op, "pooled input")
            mid = _checked(x_bar @ v_w.data + v_b.data, op, "v map")
        else:
            mid = _checked(a_bar @ v, op, "pooled A V")
        out = mid @ out_w.data + out_b.data

    def back(g: np.ndarray):
        g_in = None   # the gradient of the map input, or of the grid cells
        g_params = []
        if pool:
            g, g_ow, g_ob = _affine_back(mid, out_w.data, g)
            if v is None:
                g, g_vw, g_vb = _affine_back(x_bar, v_w.data, g)
                g_in, g = a_bar.T @ g, g @ x.T
            else:
                g_v, g = a_bar.T @ g, g @ v.T
            g = (np.broadcast_to(g.reshape(l_w, 1, n), (l_w, per_word, n)) / per_word).reshape(n, n)
        else:
            g, g_ow, g_ob = _affine_back(mid, out_w.data, g.reshape(n, d_f))
            g_v, g = a.T @ g, g @ v.T
        g = _softmax_back(a, g)
        if scaled:
            g = g * c
        # the maps' backwards in the sweep's order, Q's first; each map's
        # gradient is dropped once used, as the sweep pops it
        maps = [(q_w, g @ k_t.T), (k_w, (q.T @ g).T)] + ([(v_w, g_v)] if v is not None else [])
        g = g_v = None   # maps holds the only references
        g_words = []
        while maps:
            w, g_map = maps.pop(0)
            if factors:
                g_term, g_word, g_w, g_b = _multimodal_back(cells, words.data, w.data, g_map)
                g_words.append(g_word)
            else:
                g_term, g_w, g_b = _affine_back(x, w.data, g_map)
            g_in = g_term if g_in is None else g_in + g_term
            del g_map, g_term
            g_params += [g_w, g_b]
        if v is None:
            g_params += [g_vw, g_vb]
        g_params += [g_ow, g_ob]
        if not factors:
            return (g_in.reshape(f_in.shape), *g_params)
        g_in = g_in.reshape(grid.shape)
        c_v = v_in.shape[2]
        return (g_in[..., :c_v], g_in[..., c_v:], *g_words, *g_params)

    return _node(out, parents + tuple(weights), back, op), (q, k, v, a)


# -- parameter construction ---------------------------------------------------


def uniform_init(gen: np.random.Generator, shape: tuple[int, ...], fan_in: int, fan_out: int) -> Tensor:
    """Trainable tensor drawn uniformly in +-sqrt(6 / (fan_in + fan_out))."""
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(gen.uniform(-limit, limit, size=shape), requires_grad=True)


def zeros_param(shape: tuple[int, ...]) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=True)
