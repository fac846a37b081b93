"""Finite-difference gradient verification.

The oracle recomputes the scalar objective with each parameter coordinate
nudged by +-h (central differences) and compares against the analytic gradient
from the backward pass. It is deliberately independent of the graph machinery:
it only calls the objective and reads parameter arrays.

A kink of a piecewise-smooth objective (a ReLU input within h of zero) spoils
the central difference but not the one-sided ones: a coordinate that misses
tol passes "at a kink" when its two one-sided differences disagree by more
than tol and the analytic gradient matches one of them.  f at the point itself
comes from the analytic pass, so this costs no extra objective call.

The optional on_param hook tells f which parameter the next probes nudge.
The model-level check (train.run_gradcheck) uses it so that probes
recompute only the stage of VqaModel.forward the nudged parameter feeds.
The forward is deterministic, so the report is unchanged; at
configs/gradcheck.cfg, one BLAS thread, the check's wall time went from
5.11 to 2.85 s (bench gradcheck_s, medians of ten alternating pairs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .tensor import Tensor


@dataclass
class ParamCheck:
    name: str
    max_rel_err: float
    worst_index: tuple[int, ...]
    analytic: float
    fd: float
    size: int
    kinks: int = 0   # coordinates checked against a one-sided difference


@dataclass
class GradCheckReport:
    passed: bool
    tol: float
    h: float
    checks: list[ParamCheck]

    @property
    def worst(self) -> ParamCheck:
        return max(self.checks, key=lambda c: c.max_rel_err)

    def summary(self) -> str:
        kinks = sum(c.kinks for c in self.checks)
        lines = [f"grad check: {'PASS' if self.passed else 'FAIL'} (tol={self.tol}, h={self.h}, "
                 f"{kinks} coords checked at a kink)"]
        for c in sorted(self.checks, key=lambda c: -c.max_rel_err):
            at_kink = f", {c.kinks} at a kink" if c.kinks else ""
            lines.append(
                f"  {'ok ' if c.max_rel_err <= self.tol else 'BAD'} {c.name}: "
                f"max rel err {c.max_rel_err:.3e} at {c.worst_index} "
                f"(analytic {c.analytic:.6e}, fd {c.fd:.6e}, {c.size} coords{at_kink})"
            )
        return "\n".join(lines)


def _rel_err(a: float, fd: float) -> float:
    return abs(a - fd) / max(1.0, abs(a), abs(fd))


def grad_check(
    f: Callable[[], Tensor],
    params: dict[str, Tensor],
    h: float = 1e-5,
    tol: float = 1e-4,
    on_param: Callable[[str], None] | None = None,
) -> GradCheckReport:
    """Compare analytic gradients of scalar f() against central differences.

    f must rebuild its forward pass on every call and read the current
    parameter values.  A coordinate whose central difference misses tol is
    compared with both one-sided differences, as the module docstring says.
    on_param(name), if given, runs after the analytic pass and before the
    first probe of each parameter, in dict order.
    """
    for p in params.values():
        p.zero_grad()
    out = f()
    out.backward()
    f_0 = out.item()
    analytic = {
        name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
        for name, p in params.items()
    }

    checks: list[ParamCheck] = []
    for name, p in params.items():
        if on_param is not None:
            on_param(name)
        a = analytic[name]
        flat = p.data.reshape(-1)
        worst = -1.0
        worst_i = 0
        worst_an = 0.0
        worst_fd = 0.0
        kinks = 0
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            f_plus = f().item()
            flat[i] = orig - h
            f_minus = f().item()
            flat[i] = orig
            fd = (f_plus - f_minus) / (2.0 * h)
            an = a.reshape(-1)[i]
            rel = _rel_err(an, fd)
            if rel > tol:
                right, left = (f_plus - f_0) / h, (f_0 - f_minus) / h
                side = min(right, left, key=lambda d: _rel_err(an, d))
                if _rel_err(right, left) > tol and _rel_err(an, side) <= tol:
                    kinks += 1
                    fd, rel = side, _rel_err(an, side)
            if rel > worst:
                worst, worst_i, worst_an, worst_fd = rel, i, an, fd
        idx = np.unravel_index(worst_i, p.data.shape) if p.data.ndim else ()
        checks.append(
            ParamCheck(
                name=name,
                max_rel_err=worst,
                worst_index=tuple(int(j) for j in idx),
                analytic=float(worst_an),
                fd=float(worst_fd),
                size=flat.size,
                kinks=kinks,
            )
        )
    passed = all(c.max_rel_err <= tol for c in checks)
    return GradCheckReport(passed=passed, tol=tol, h=h, checks=checks)
