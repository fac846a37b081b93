"""The LSTM: a whole-sequence op, and the single-step cell it must match.

Gate weights are packed into one (d_in + d_h, 4 * d_h) matrix with column
blocks ordered [input, forget, candidate, output], so a step costs one affine
map plus the gate nonlinearities.  `lstm_sequence` runs every step as one
autodiff node with a closed-form backward; `lstm_step` builds one step from
the primitive ops and is the reference the sequence op agrees with, within a
relative 1e-12.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import (
    NonFiniteError,
    ShapeError,
    Tensor,
    _all_true,
    _isfinite,
    _node,
    add,
    concat_last,
    logistic,
    mul,
    pointwise_channel_map,
    sigmoid,
    slice_last,
    tanh,
    uniform_init,
)


@dataclass
class LstmParams:
    w: Tensor  # (d_in + d_h, 4 * d_h)
    b: Tensor  # (4 * d_h,)

    @property
    def hidden_size(self) -> int:
        return self.w.shape[1] // 4

    @property
    def input_size(self) -> int:
        return self.w.shape[0] - self.hidden_size


def init_lstm(gen: np.random.Generator, d_in: int, d_h: int, forget_bias: float = 1.0) -> LstmParams:
    """Uniform fan-based init; forget-gate bias starts at `forget_bias`."""
    w = uniform_init(gen, (d_in + d_h, 4 * d_h), d_in + d_h, 4 * d_h)
    b = np.zeros(4 * d_h)
    b[d_h : 2 * d_h] = forget_bias
    return LstmParams(w=w, b=Tensor(b, requires_grad=True))


def lstm_step(x_t: Tensor, h_prev: Tensor, c_prev: Tensor, params: LstmParams) -> tuple[Tensor, Tensor]:
    """One gated recurrent update; returns (h_t, c_t)."""
    d_h, d_in = params.hidden_size, params.input_size
    if x_t.shape != (d_in,) or h_prev.shape != (d_h,) or c_prev.shape != (d_h,):
        raise ShapeError(f"lstm_step shapes {x_t.shape}, {h_prev.shape}, {c_prev.shape} do not "
                         f"match params ({d_in},), ({d_h},), ({d_h},)")
    z = pointwise_channel_map(concat_last([x_t, h_prev]), params.w, params.b)
    i = sigmoid(slice_last(z, 0, d_h))
    f = sigmoid(slice_last(z, d_h, 2 * d_h))
    g = tanh(slice_last(z, 2 * d_h, 3 * d_h))
    o = sigmoid(slice_last(z, 3 * d_h, 4 * d_h))
    c_t = add(mul(f, c_prev), mul(i, g))
    h_t = mul(o, tanh(c_t))
    return h_t, c_t


def lstm_sequence(xs: Tensor, params: LstmParams) -> Tensor:
    """Run the LSTM from zero state over the rows of xs (L, d_in) and return
    every hidden state, H (L, d_h), as one autodiff node.

    The input projection X W_x + b is one product for all steps, and each
    step adds h_{t-1} W_h to its row.  The backward runs the recursion for
    each step's pre-activation gradient g_z, then takes the input, weight
    and bias gradients as one product each: G_z W_x^T, [X | H_prev]^T G_z
    and the column sums of G_z.
    """
    d_h, d_in = params.hidden_size, params.input_size
    if xs.data.ndim != 2 or xs.shape[0] < 1 or xs.shape[1] != d_in:
        raise ShapeError(f"lstm_sequence input shape {xs.shape} is not (L >= 1, {d_in})")
    w_x, w_h = params.w.data[:d_in], params.w.data[d_in:]
    steps = xs.shape[0]
    cand = slice(2 * d_h, 3 * d_h)
    zs = xs.data @ w_x + params.b.data  # checked for overflow, which the gates would hide
    acts = np.empty((steps, 4 * d_h))  # [i, f, g, o]
    hs = np.zeros((steps + 1, d_h))  # h_{-1} = 0, then H
    cs = np.zeros((steps + 1, d_h))  # c_{-1} = 0, then every c_t
    for t in range(steps):
        zs[t] += hs[t] @ w_h
        s = logistic(zs[t])
        s[cand] = np.tanh(zs[t, cand])
        acts[t] = s
        cs[t + 1] = s[d_h : 2 * d_h] * cs[t] + s[:d_h] * s[cand]
        hs[t + 1] = s[3 * d_h :] * np.tanh(cs[t + 1])
    if not _all_true(_isfinite(zs), None):
        raise NonFiniteError("lstm_sequence")

    def back(g_out: np.ndarray):
        i, f, g, o = (acts[:, k * d_h : (k + 1) * d_h] for k in range(4))
        tc = np.tanh(cs[1:])
        # g_z is [g_c, g_c, g_c, g_h] times jac: each gate's derivative times
        # what the gate multiplies in c_t = f c_{t-1} + i g or h_t = o tanh(c_t)
        jac = acts * (1.0 - acts)
        jac[:, cand] = 1.0 - g * g
        jac *= np.concatenate([g, cs[:-1], i, tc], axis=1)
        dc_dh = o * (1.0 - tc * tc)
        gzs = np.empty((steps, 4 * d_h))
        gh = gc = np.zeros(d_h)
        for t in range(steps - 1, -1, -1):
            gh = g_out[t] + gh
            gc = gh * dc_dh[t] + gc
            gzs[t] = np.concatenate([gc, gc, gc, gh]) * jac[t]
            gh = gzs[t] @ w_h.T
            gc = gc * f[t]
        hx = np.concatenate([xs.data, hs[:-1]], axis=1)
        return gzs @ w_x.T, hx.T @ gzs, np.add.reduce(gzs, axis=0)

    return _node(hs[1:], (xs, params.w, params.b), back, "lstm_sequence")
