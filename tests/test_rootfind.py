"""Scalar root finder behind the secular solver: Newton steps from a point where f is known."""

import numpy as np
import pytest

from edmpos.errors import NoConvergence
from edmpos.rootfind import find_root_increasing


def test_cube_root_of_two():
    result = find_root_increasing(
        lambda x: x**3 - 2.0,
        lambda x: 3.0 * x**2,
        0.0,
        2.0,
        0.0,
        -2.0,
        ftol=1e-15,
        xtol=1e-16,
    )
    assert abs(result.root - 2.0 ** (1.0 / 3.0)) <= 1e-14
    assert 0.0 < result.root < 2.0


def test_root_hiding_near_open_endpoint():
    # the search starts at the other end; the root sits 1e-13 from lo
    result = find_root_increasing(
        lambda x: x - 1e-13,
        lambda x: 1.0,
        0.0,
        1.0,
        1.0,
        1.0 - 1e-13,
        ftol=1e-20,
        xtol=1e-18,
    )
    assert abs(result.root - 1e-13) <= 1e-15


def test_steep_function_with_pole_like_growth():
    # mimics a secular function: blows up toward the right endpoint
    fun = lambda x: 1.0 / (1.0 - x) - 5.0
    dfun = lambda x: 1.0 / (1.0 - x) ** 2
    result = find_root_increasing(fun, dfun, 0.0, 1.0, 0.0, -4.0, ftol=1e-14, xtol=1e-16)
    assert abs(result.root - 0.8) <= 1e-13


def test_no_sign_change_raises():
    with pytest.raises(NoConvergence):
        find_root_increasing(
            lambda x: x**2 + 1.0,
            lambda x: 2.0 * x,
            0.0,
            1.0,
            0.0,
            1.0,
            ftol=1e-12,
            xtol=1e-14,
        )
    # negative all the way to hi: the bracket closes on hi, never evaluated
    with pytest.raises(NoConvergence):
        find_root_increasing(
            lambda x: x - 5.0,
            lambda x: 1.0,
            0.0,
            1.0,
            0.0,
            -5.0,
            ftol=1e-12,
            xtol=1e-14,
        )


def test_newton_step_onto_lo_is_taken_there():
    # from the far end, Newton lands exactly on lo, the root: f is evaluated
    # there once instead of bisection creeping down on it
    result = find_root_increasing(
        lambda x: x,
        lambda x: 1.0,
        0.0,
        1.0,
        1.0,
        1.0,
        ftol=0.0,
        xtol=1e-16,
    )
    assert result.root == 0.0
    assert result.iterations == 1


def test_empty_bracket_raises():
    with pytest.raises(NoConvergence):
        find_root_increasing(lambda x: x, lambda x: 1.0, 1.0, 1.0, 1.0, 1.0, ftol=1e-12, xtol=1e-14)


def test_iteration_budget_respected():
    calls = []

    def fun(x):
        calls.append(x)
        return np.tanh(x - 0.3)

    result = find_root_increasing(fun, lambda x: 1.0, -1.0, 1.0, -1.0, fun(-1.0), ftol=1e-15, xtol=1e-17)
    assert abs(result.root - 0.3) <= 1e-13
    assert len(calls) <= 60  # Newton steps should cut this far below bisection-only


def test_tiny_ftol_falls_back_to_width_stop():
    result = find_root_increasing(
        lambda x: x - 0.25,
        lambda x: 1.0,
        0.0,
        1.0,
        0.0,
        -0.25,
        ftol=0.0,
        xtol=1e-12,
    )
    assert abs(result.root - 0.25) <= 1e-11
