"""The solvers' failure contract: every stall carries the same fields."""

import math

import numpy as np
import pytest

import freesub.multiplicative as multiplicative
import freesub.opvalued as opvalued
from freesub import (CovarianceMap, NoConvergence, bernoulli_pm1,
                     circle_atoms, circle_cauchy, disk_subordination_solve,
                     free_mult_convolve_unitary, op_add_cauchy,
                     op_semicircular_cauchy, solve_subordination_F)
from freesub.additive import subordination_pairs

_ETA = CovarianceMap((np.array([[0.9, 0.3], [0.0, 0.6]]),))
_B = np.array([[0.2 + 0.5j, 0.1], [0.1, -0.3 + 0.7j]])
_CIRCLE = circle_atoms([(0.4, 0.5), (2.0, 0.3), (4.1, 0.2)])


def _line(monkeypatch):
    z = 0.5 + 1e-6j
    mu = bernoulli_pm1()
    return lambda: subordination_pairs(mu, mu, [z], max_iter=1), z


def _op(monkeypatch):
    monkeypatch.setattr(opvalued, "_CAUCHY_MAX_ITER", 1)
    return lambda: op_semicircular_cauchy(_ETA, _B), _B


def _disk(monkeypatch):
    monkeypatch.setattr(multiplicative, "_DISK_MAX_ITER", 1)
    target = complex(circle_cauchy(_CIRCLE, 0.5 - 0.2j))
    return lambda: disk_subordination_solve(_CIRCLE, target), target


def _subordination_f(monkeypatch):
    eta_y = CovarianceMap((np.array([[0.5, -0.2], [0.1, 0.7]]),))
    g_xy = op_add_cauchy(_ETA, eta_y, _B).g
    monkeypatch.setattr(opvalued, "_F_MAX_ITER", 1)
    return lambda: solve_subordination_F(
        lambda w: op_semicircular_cauchy(_ETA, w).g, g_xy, _B), g_xy


def _circle(monkeypatch):
    monkeypatch.setattr(multiplicative, "_ETA_MAX_ITER", 1)
    return lambda: free_mult_convolve_unitary(_CIRCLE, _CIRCLE), None


@pytest.mark.parametrize("stall", [_line, _op, _disk, _subordination_f,
                                   _circle],
                         ids=["line", "op", "disk", "F", "circle"])
def test_every_stall_reports_iterations_residual_and_point(monkeypatch,
                                                            stall):
    # each solver, held to one iteration, raises NoConvergence with an int
    # iteration count, a finite float residual and the failed point as
    # its caller gave it: z on the line and the circle, the target on the
    # disk, the matrix b of the Cauchy transform and the target of F(b)
    call, point = stall(monkeypatch)
    with pytest.raises(NoConvergence) as info:
        call()
    exc = info.value
    assert type(exc.iterations) is int and exc.iterations == 1
    assert type(exc.residual) is float and math.isfinite(exc.residual)
    if isinstance(point, np.ndarray):
        assert isinstance(exc.point, np.ndarray)
        assert np.array_equal(exc.point, point)
        assert not np.shares_memory(exc.point, point)
    elif point is not None:
        assert isinstance(exc.point, complex) and exc.point == point
    else:   # a node of one of the circles the eta fixed point is solved on
        assert isinstance(exc.point, complex)
        assert min(abs(abs(exc.point) - r)
                   for r in multiplicative._ETA_RADII) <= 1e-15
