"""Tests for the finite-difference gradient checker itself."""

import numpy as np

import pytest

from cmvqa.numerics import Tensor, add, grad_check, mul, relu, sum_over_axes
from cmvqa.numerics.tensor import _node


def test_square_at_three():
    x = Tensor(np.array(3.0), requires_grad=True)
    report = grad_check(lambda: mul(x, x), {"x": x}, h=1e-5, tol=1e-4)
    assert report.passed
    check = report.checks[0]
    assert abs(check.analytic - 6.0) < 1e-12
    assert abs(check.fd - 6.0) < 1e-7


def test_detects_wrong_gradient():
    # x goes through sin with a backward that claims twice the true slope,
    # y through a correct square
    x = Tensor(np.array(0.7), requires_grad=True)
    y = Tensor(np.array(-0.4), requires_grad=True)

    def objective():
        wrong = _node(np.sin(x.data), (x,), lambda g: (g * 2.0 * np.cos(x.data),), "sin_x2")
        return add(wrong, mul(y, y))

    report = grad_check(objective, {"x": x, "y": y}, h=1e-5, tol=1e-4)
    assert not report.passed
    assert report.worst.name == "x"
    assert abs(report.worst.analytic - 2.0 * report.worst.fd) < 1e-8
    (check_y,) = [c for c in report.checks if c.name == "y"]
    assert check_y.max_rel_err <= report.tol


def test_on_param_runs_before_each_parameters_probes():
    a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    b = Tensor(np.array(0.5), requires_grad=True)
    log = []

    def objective():
        log.append("f")
        return add(sum_over_axes(mul(a, a), (0,)), mul(b, b))

    report = grad_check(objective, {"a": a, "b": b}, h=1e-5, tol=1e-4, on_param=log.append)
    assert report.passed
    # the analytic pass, then per parameter: the hook, two probes per coordinate
    assert log == ["f", "a"] + ["f"] * 4 + ["b"] + ["f"] * 2


def test_report_names_worst_offender(gen):
    a = Tensor(gen.standard_normal((2, 3)), requires_grad=True)
    b = Tensor(gen.standard_normal((2, 3)), requires_grad=True)
    report = grad_check(
        lambda: sum_over_axes(mul(a, b), (0, 1)), {"a": a, "b": b}, h=1e-5, tol=1e-4
    )
    assert report.passed
    assert report.worst.name in {"a", "b"}
    assert "max rel err" in report.summary()


def test_relu_away_from_kink_passes(gen):
    # points are kept away from zero so the kink never sits inside the stencil
    x = Tensor(gen.standard_normal((3, 3)) + 3.0, requires_grad=True)
    report = grad_check(lambda: sum_over_axes(relu(x), (0, 1)), {"x": x}, h=1e-5, tol=1e-4)
    assert report.passed, report.summary()


def test_params_restored_after_check(gen):
    x = Tensor(gen.standard_normal(4), requires_grad=True)
    before = x.data.copy()
    grad_check(lambda: sum_over_axes(mul(x, x), (0,)), {"x": x}, h=1e-5, tol=1e-4)
    assert np.array_equal(x.data, before)


def _hinge(x: Tensor, slope: float, claimed: float) -> Tensor:
    """slope * max(x, 0), whose backward claims ``claimed`` for x > 0."""
    return _node(slope * np.maximum(x.data, 0.0), (x,),
                 lambda g: (g * claimed * (x.data > 0),), "hinge")


def test_kink_inside_the_stencil_passes_on_a_one_sided_difference():
    # x = 2e-6 is within h of the kink: the central difference reads 0.6 * 3,
    # the right one 3 and the left one 0.6
    x = Tensor(np.array(2e-6), requires_grad=True)
    report = grad_check(lambda: _hinge(x, 3.0, 3.0), {"x": x}, h=1e-5, tol=1e-4)
    assert report.passed, report.summary()
    assert report.checks[0].kinks == 1
    assert abs(report.checks[0].fd - 3.0) < 1e-9
    assert "1 coords checked at a kink" in report.summary()


@pytest.mark.parametrize("claimed", [2.0, 1.0, 0.0])
def test_wrong_gradient_next_to_a_kink_fails(claimed):
    """The claimed slope is neither the central difference (1.8) nor either
    one-sided one (3 and 0.6), so the kink rule must not pass it."""
    x = Tensor(np.array(2e-6), requires_grad=True)
    report = grad_check(lambda: _hinge(x, 3.0, claimed), {"x": x}, h=1e-5, tol=1e-4)
    assert not report.passed
    assert report.checks[0].kinks == 0


def test_smooth_wrong_gradient_is_not_taken_for_a_kink():
    # away from the kink both one-sided differences agree, so no rescue
    x = Tensor(np.array(0.5), requires_grad=True)
    report = grad_check(lambda: _hinge(x, 3.0, 2.0), {"x": x}, h=1e-5, tol=1e-4)
    assert not report.passed and report.checks[0].kinks == 0
