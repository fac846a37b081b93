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


def sigmoid(a: Tensor) -> Tensor:
    # exp(-|x|) is exp(-x) where x >= 0 and exp(x) elsewhere, so each element
    # gets the same exp and the same division as the two-branch formula.
    x = a.data
    z = np.exp(-np.abs(x))
    d = 1.0 + z
    out = np.where(x >= 0, 1.0 / d, z / d)
    return _node(out, (a,), lambda g: (g * out * (1.0 - out),), "sigmoid")


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)
    return _node(out, (a,), lambda g: (g * (1.0 - out * out),), "tanh")


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
    data = np.matmul(x.data, weight.data) + bias.data

    def back(g: np.ndarray):
        g2 = g.reshape(-1, c_out)
        x2 = x.data.reshape(-1, c_in)
        return g @ weight.data.T, x2.T @ g2, g2.sum(axis=0)

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


def stack_rows(rows_: Sequence[Tensor]) -> Tensor:
    """Stack rank-1 tensors into a matrix, one per row."""
    rows_ = tuple(rows_)
    data = np.stack([r.data for r in rows_], axis=0)
    return _node(data, rows_, lambda g: tuple(g[i] for i in range(len(rows_))), "stack_rows")


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
    data = a.data.mean(axis=axes)
    count = 1
    for ax in axes:
        count *= a.shape[ax]
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
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=1, keepdims=True)

    def back(g: np.ndarray):
        dot = (g * out).sum(axis=1, keepdims=True)
        return (out * (g - dot),)

    return _node(out, (x,), back, "softmax_rows")


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
        gcols = (g2 @ w2.T).reshape(ho, wo, kh, kw, c_in)
        gxp = np.zeros_like(xp)
        for i in range(kh):
            for j in range(kw):
                gxp[i : i + stride * ho : stride, j : j + stride * wo : stride, :] += gcols[
                    :, :, i, j, :
                ]
        gx = gxp[padding : padding + h, padding : padding + w, :]
        return gx, gw, gb

    return _node(data, (x, weight, bias), back, "conv2d")


def upsample_nearest(x: Tensor, factor: int) -> Tensor:
    """Nearest-neighbor upsampling of an (H, W, C) map by an integer factor."""
    if factor < 1:
        raise ShapeError(f"upsample factor must be >= 1, got {factor}")
    h, w, c = x.shape
    data = np.repeat(np.repeat(x.data, factor, axis=0), factor, axis=1)

    def back(g: np.ndarray):
        return (g.reshape(h, factor, w, factor, c).sum(axis=(1, 3)),)

    return _node(data, (x,), back, "upsample_nearest")


# -- parameter construction ---------------------------------------------------


def uniform_init(gen: np.random.Generator, shape: tuple[int, ...], fan_in: int, fan_out: int) -> Tensor:
    """Trainable tensor drawn uniformly in +-sqrt(6 / (fan_in + fan_out))."""
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(gen.uniform(-limit, limit, size=shape), requires_grad=True)


def zeros_param(shape: tuple[int, ...]) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=True)
