"""Adam optimizer tests against a scalar reference implementation."""

import numpy as np
import pytest

from cmvqa.numerics import OptimState, ShapeError, Tensor, adam_step


def scalar_adam_reference(p0, grads, lr=1e-3, b1=0.9, b2=0.999, eps=1e-8):
    """Textbook bias-corrected Adam on a single scalar, step by step."""
    p, m, v = p0, 0.0, 0.0
    trace = []
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1**t)
        vhat = v / (1 - b2**t)
        p = p - lr * mhat / (np.sqrt(vhat) + eps)
        trace.append(p)
    return trace


def test_first_step_is_lr_times_sign(gen):
    lr = 0.05
    g = gen.standard_normal((3, 4)) * 10 + 0.5
    params = {"p": Tensor(np.zeros((3, 4)))}
    state = OptimState(lr=lr)
    params, state = adam_step(params, {"p": g}, state)
    # bias correction makes mhat/sqrt(vhat) = sign(g) exactly on step one
    # (up to eps), so the update is -lr * sign(g).
    assert np.abs(params["p"].data + lr * np.sign(g)).max() < 1e-6
    assert state.step == 1


def test_zero_gradient_leaves_param_unchanged(gen):
    x = gen.standard_normal((2, 2))
    params = {"p": Tensor(x.copy())}
    state = OptimState()
    params, state = adam_step(params, {"p": np.zeros((2, 2))}, state)
    assert np.array_equal(params["p"].data, x)


def test_missing_grad_treated_as_zero(gen):
    x = gen.standard_normal(3)
    params = {"p": Tensor(x.copy()), "q": Tensor(np.ones(2)), "r": Tensor(x.copy())}
    params, _ = adam_step(params, {"q": np.full(2, 0.1), "r": None}, OptimState())
    assert np.array_equal(params["p"].data, x)
    assert np.array_equal(params["r"].data, x)  # None, as backward leaves it, is zero too
    assert not np.array_equal(params["q"].data, np.ones(2))


def test_two_steps_bit_identical_to_scalar_reference():
    grads = [0.3, -0.7]
    params = {"p": Tensor(np.array(2.0))}
    state = OptimState(lr=1e-3)
    for g in grads:
        params, state = adam_step(params, {"p": np.array(g)}, state)
    expected = scalar_adam_reference(2.0, grads)[-1]
    assert params["p"].data == expected  # bit-exact, same float expression


def test_moments_persist_across_steps():
    params = {"p": Tensor(np.array(0.0))}
    state = OptimState(lr=0.1)
    params, state = adam_step(params, {"p": np.array(1.0)}, state)
    first = params["p"].data.copy()
    params, state = adam_step(params, {"p": np.array(1.0)}, state)
    # with a constant gradient the second step moves further in the same direction
    assert params["p"].data < first < 0.0
    assert state.step == 2


def test_shape_mismatch_raises():
    params = {"p": Tensor(np.zeros(3))}
    with pytest.raises(ShapeError):
        adam_step(params, {"p": np.zeros(4)}, OptimState())


def test_determinism_across_runs(gen):
    def run():
        g = np.random.default_rng(9).standard_normal((4, 4))
        params = {"p": Tensor(np.zeros((4, 4)))}
        state = OptimState(lr=0.01)
        for _ in range(10):
            params, state = adam_step(params, {"p": g}, state)
        return params["p"].data.copy()

    assert np.array_equal(run(), run())
