"""The LSTM: a whole-sequence op, and the single-step cell it must match.

Gate weights are packed into one (d_in + d_h, 4 * d_h) matrix with column
blocks ordered [input, forget, candidate, output], so a step costs one affine
map plus the gate nonlinearities.  `lstm_sequence` runs every step as one
autodiff node; `lstm_step` builds one step from the primitive ops and is the
reference the sequence op reproduces bit for bit.
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
    d_h = params.hidden_size
    d_in = params.input_size
    if x_t.shape != (d_in,):
        raise ShapeError(f"lstm_step input shape {x_t.shape} does not match params ({d_in},)")
    if h_prev.shape != (d_h,) or c_prev.shape != (d_h,):
        raise ShapeError(
            f"lstm_step state shapes {h_prev.shape}/{c_prev.shape} do not match params ({d_h},)"
        )
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

    Each step evaluates the numpy expressions `lstm_step`'s ops evaluate, and
    the backward is their chain rule in the same order, so H and every
    gradient equal the per-step graph's bit for bit.  The weight and bias
    appear once per step among the node's parents and get one gradient term
    per step, latest step first, which is the order in which the per-step
    graph adds them into a shared leaf, at any batch size.
    """
    d_h, d_in = params.hidden_size, params.input_size
    if xs.data.ndim != 2 or xs.shape[0] < 1 or xs.shape[1] != d_in:
        raise ShapeError(f"lstm_sequence input shape {xs.shape} is not (L >= 1, {d_in})")
    w, b = params.w.data, params.b.data
    steps = xs.shape[0]
    cand = slice(2 * d_h, 3 * d_h)
    hxs = np.empty((steps, d_in + d_h))  # [x_t | h_{t-1}], the affine map's input
    zs = np.empty((steps, 4 * d_h))  # checked for overflow, which the gates would hide
    acts = np.empty((steps, 4 * d_h))  # [i, f, g, o]
    # what each gate's gradient is the upstream gradient times: [g, c_{t-1}, i, tanh(c_t)]
    factors = np.empty((steps, 4 * d_h))
    out = np.empty((steps, d_h))
    h = c = np.zeros(d_h)
    for t in range(steps):
        hx = np.concatenate([xs.data[t], h])
        z = hx @ w + b
        s = logistic(z)
        i, f, o = s[:d_h], s[d_h : 2 * d_h], s[3 * d_h :]
        g = np.tanh(z[cand])
        c_prev = c
        c = f * c_prev + i * g
        tc = np.tanh(c)
        h = o * tc
        hxs[t], zs[t], acts[t], out[t] = hx, z, s, h
        acts[t, cand] = g
        factors[t] = np.concatenate([g, c_prev, i, tc])
    if not _all_true(_isfinite(zs), None):
        raise NonFiniteError("lstm_sequence")

    def back(g_out: np.ndarray):
        # for upstream u, a sigmoid gate's gradient is (u * s) * (1 - s) and the
        # candidate's u * (1 - g * g): with 1 for s in the candidate's block, one
        # pair of factors serves all four blocks
        s_factor = acts.copy()
        s_factor[:, cand] = 1.0
        s_comp = 1.0 - acts
        s_comp[:, cand] = 1.0 - acts[:, cand] * acts[:, cand]
        tanh_comp = 1.0 - factors[:, 3 * d_h :] * factors[:, 3 * d_h :]
        gzs = np.empty((steps, 4 * d_h))
        gxs = np.empty((steps, d_in))
        gh = gc_carry = None
        for t in range(steps - 1, -1, -1):
            gh = g_out[t] if gh is None else g_out[t] + gh
            gc = gh * acts[t, 3 * d_h :] * tanh_comp[t]
            if gc_carry is not None:
                gc = gc + gc_carry
            gz = np.concatenate([gc, gc, gc, gh]) * factors[t] * s_factor[t] * s_comp[t]
            # the per-step graph summed the four gate gradients into zeros,
            # which turns -0.0 into +0.0
            gz += 0.0
            ghx = gz @ w.T
            gzs[t], gxs[t] = gz, ghx[:d_in]
            gh = ghx[d_in:]
            gc_carry = gc * acts[t, d_h : 2 * d_h]
        # the per-step graph's K = 1 GEMMs and row gathers also summed into zeros
        gw_steps = hxs[:, :, None] * gzs[:, None, :]
        gw_steps += 0.0
        gxs += 0.0
        return (gxs,) + tuple(gw_steps[::-1]) + tuple(gzs[::-1])

    return _node(out, (xs,) + (params.w,) * steps + (params.b,) * steps, back, "lstm_sequence")
