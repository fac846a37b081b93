"""LSTM tests: the single-step cell, and the sequence op against it."""

import numpy as np
import pytest

from cmvqa.numerics import (
    NonFiniteError,
    ShapeError,
    Tensor,
    add,
    concat_last,
    grad_check,
    init_lstm,
    lstm_sequence,
    lstm_step,
    mul,
    reshape,
    rows,
    sum_over_axes,
)


def test_zero_state_zero_input_zero_bias_gives_zero_hidden(gen):
    params = init_lstm(gen, 3, 4, forget_bias=0.0)
    params.b.data[:] = 0.0
    h, c = lstm_step(Tensor(np.zeros(3)), Tensor(np.zeros(4)), Tensor(np.zeros(4)), params)
    # gates i=f=o=1/2, candidate tanh(0)=0, so c=0 and h=o*tanh(0)=0
    assert np.allclose(h.data, np.zeros(4), atol=1e-15)
    assert np.allclose(c.data, np.zeros(4), atol=1e-15)


def test_saturated_forget_gate_preserves_cell(gen):
    params = init_lstm(gen, 3, 4, forget_bias=0.0)
    params.w.data[:] = 0.0
    params.b.data[:] = 0.0
    # forget block sits second in [i, f, g, o]
    params.b.data[4:8] = 20.0
    params.b.data[0:4] = -20.0  # shut the input gate so c_t = f * c_prev
    c_prev = gen.standard_normal(4)
    _, c = lstm_step(Tensor(np.zeros(3)), Tensor(np.zeros(4)), Tensor(c_prev), params)
    assert np.abs(c.data - c_prev).max() < 1e-6


def test_forget_bias_applied_at_init(gen):
    params = init_lstm(gen, 5, 7, forget_bias=1.0)
    assert np.array_equal(params.b.data[7:14], np.ones(7))
    assert np.array_equal(params.b.data[0:7], np.zeros(7))


def test_hidden_in_minus_one_one(gen):
    params = init_lstm(gen, 6, 8)
    h, _ = lstm_step(
        Tensor(gen.standard_normal(6) * 5),
        Tensor(gen.standard_normal(8)),
        Tensor(gen.standard_normal(8) * 5),
        params,
    )
    assert (np.abs(h.data) < 1.0).all()


def test_step_rejects_wrong_input_width(gen):
    params = init_lstm(gen, 3, 4)
    with pytest.raises(ShapeError):
        lstm_step(Tensor(np.zeros(5)), Tensor(np.zeros(4)), Tensor(np.zeros(4)), params)


def test_gradients_match_finite_differences(gen):
    params = init_lstm(gen, 3, 4)
    x = Tensor(gen.standard_normal(3), requires_grad=True)
    h0 = Tensor(gen.standard_normal(4), requires_grad=True)
    c0 = Tensor(gen.standard_normal(4), requires_grad=True)
    coeffs_h = Tensor(np.arange(1.0, 5.0))
    coeffs_c = Tensor(np.arange(2.0, 6.0))

    def objective():
        h, c = lstm_step(x, h0, c0, params)
        return add(sum_over_axes(mul(h, coeffs_h), (0,)), sum_over_axes(mul(c, coeffs_c), (0,)))

    report = grad_check(
        objective,
        {"w": params.w, "b": params.b, "x": x, "h0": h0, "c0": c0},
        h=1e-5,
        tol=1e-4,
    )
    assert report.passed, report.summary()


def test_two_steps_chain_gradient(gen):
    params = init_lstm(gen, 2, 3)
    x1 = Tensor(gen.standard_normal(2), requires_grad=True)
    x2 = Tensor(gen.standard_normal(2))
    h0 = Tensor(np.zeros(3))
    c0 = Tensor(np.zeros(3))

    def objective():
        h1, c1 = lstm_step(x1, h0, c0, params)
        h2, _ = lstm_step(x2, h1, c1, params)
        return sum_over_axes(h2, (0,))

    report = grad_check(objective, {"x1": x1, "w": params.w}, h=1e-5, tol=1e-4)
    assert report.passed, report.summary()


def _step_graph_loss(xs: Tensor, params, coeffs: np.ndarray):
    """sum_t <h_t, coeffs[t]> over a graph of lstm_step calls, each input row
    gathered by `rows`: the per-step graph lstm_sequence is checked against."""
    d_h = params.hidden_size
    h, c = Tensor(np.zeros(d_h)), Tensor(np.zeros(d_h))
    loss, hs = None, []
    for t in range(xs.shape[0]):
        h, c = lstm_step(reshape(rows(xs, [t]), (xs.shape[1],)), h, c, params)
        hs.append(h.data)
        term = sum_over_axes(mul(h, Tensor(coeffs[t])), (0,))
        loss = term if loss is None else add(loss, term)
    return loss, np.stack(hs)


def _sequence_loss(xs: Tensor, params, coeffs: np.ndarray):
    hidden = lstm_sequence(xs, params)
    return sum_over_axes(mul(hidden, Tensor(coeffs)), (0, 1)), hidden.data


def _rel(got, want):
    return np.abs(got - want).max() / max(np.abs(want).max(), 1e-300)


@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("l_w, d_in, d_h", [(6, 16, 32), (3, 6, 8), (5, 3, 7), (1, 4, 3)])
def test_sequence_matches_step_graph(batch, l_w, d_in, d_h):
    """H and every gradient within a relative 1e-12 of the per-step graph,
    with the parameters shared by `batch` sequences whose losses are summed,
    as a training batch shares them; two runs of the sequence op are
    byte-equal."""
    results = []
    for build in (_step_graph_loss, _sequence_loss, _sequence_loss):
        gen = np.random.default_rng(31 * l_w + batch)
        params = init_lstm(gen, d_in, d_h)
        params.w.data *= 3.0  # reach the saturated ends of the gates too
        tables = [Tensor(gen.standard_normal((l_w, d_in)), requires_grad=True)
                  for _ in range(batch)]
        tables[-1].data[-1] = 0.0  # a pad row
        total, hidden = None, []
        for table in tables:
            # a non-leaf input, as the embedding concat is in the model
            loss, h = build(concat_last([table]), params, gen.standard_normal((l_w, d_h)))
            total = loss if total is None else add(total, loss)
            hidden.append(h)
        total.backward()
        results.append(hidden + [t.grad for t in tables] + [params.w.grad, params.b.grad])
    want, got, again = results
    for g, w in zip(got, want):
        assert _rel(g, w) <= 1e-12
    assert [a.tobytes() for a in got] == [a.tobytes() for a in again]


@pytest.mark.parametrize("shape", [(0, 3), (4, 5), (3,)])
def test_sequence_rejects_wrong_input_shape(gen, shape):
    params = init_lstm(gen, 3, 4)
    with pytest.raises(ShapeError, match="lstm_sequence"):
        lstm_sequence(Tensor(np.zeros(shape)), params)


def test_sequence_names_itself_on_overflow(gen):
    params = init_lstm(gen, 3, 4)
    params.w.data[:] = 1e308
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match="lstm_sequence"):
        lstm_sequence(Tensor(np.ones((2, 3))), params)
