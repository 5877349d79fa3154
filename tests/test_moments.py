import math
from fractions import Fraction as F

import numpy as np
import pytest

from asep_lab.model import ModelParams, ValidityError
from asep_lab.moments import (QuadratureSpec, first_moment,
                              free_evolution_residuals, q_moment,
                              second_moment_explicit)

PARAMS = ModelParams.from_density(1, F(1, 2), F(9, 10))


def test_initial_condition_is_one_small_n():
    for x in ((2,), (1, 3), (1, 2, 4)):
        res = q_moment(0.0, x, PARAMS)
        assert abs(res.value - 1.0) < 1e-8


def test_value_equals_partition_sum():
    res = q_moment(0.8, (1, 3), PARAMS)
    assert abs(res.value - math.fsum(res.per_partition.values())) < 1e-15
    assert set(res.per_partition) == {(2,), (1, 1)}


def test_first_moment_shares_the_moment_path():
    x = 3
    assert first_moment(1.2, x, PARAMS) == q_moment(1.2, (x,), PARAMS).value


def test_second_moment_explicit_agrees():
    for (t, x1, x2) in ((0.0, 1, 2), (0.5, 1, 3), (2.0, 2, 5)):
        direct = second_moment_explicit(t, x1, x2, PARAMS)
        engine = q_moment(t, (x1, x2), PARAMS).value
        assert abs(direct - engine) < 1e-10


def test_second_moment_explicit_validates_order():
    with pytest.raises(ValidityError):
        second_moment_explicit(1.0, 3, 3, PARAMS)


def test_first_moment_decreasing_in_time():
    vals = [first_moment(t, 2, PARAMS) for t in (0.0, 0.5, 1.0, 2.0)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_first_moment_nondecreasing_in_site():
    vals = [first_moment(1.0, x, PARAMS) for x in (1, 2, 3, 5, 8)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_moment_in_unit_interval_on_chamber():
    for t in (0.3, 1.5):
        v = q_moment(t, (1, 2, 5), PARAMS).value
        assert 0 < v <= 1 + 1e-9


def test_node_doubling_stability():
    v64 = q_moment(1.0, (1, 4), PARAMS, QuadratureSpec((64, 64, 32, 32))).value
    v128 = q_moment(1.0, (1, 4), PARAMS, QuadratureSpec((128, 128, 64, 64))).value
    assert abs(v128 - v64) < 1e-9


def test_validity_gates():
    with pytest.raises(ValidityError):
        q_moment(1.0, (1,), ModelParams.from_density(1, F(1, 4), F(1, 2)))  # rho too low
    with pytest.raises(ValidityError):
        q_moment(1.0, (1,), ModelParams(1, F(1, 2), F(9, 10), F(1, 7)))  # liggett fails
    with pytest.raises(ValidityError):
        q_moment(-1.0, (1,), PARAMS)
    with pytest.raises(ValidityError):
        q_moment(1.0, (-1, 2), PARAMS)


def test_free_evolution_time_derivative_n1():
    for x in (1, 3, 5):
        rep = free_evolution_residuals(1.0, (x,), PARAMS)
        assert rep.time_derivative < 1e-8


def test_free_evolution_adjacent_pair():
    rep = free_evolution_residuals(1.0, (2, 3), PARAMS)
    assert rep.adjacent[0] < 1e-8


def test_free_evolution_boundary_relation():
    rep = free_evolution_residuals(1.0, (1, 4), PARAMS)
    assert rep.boundary < 1e-8


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec((15,))
    with pytest.raises(ValueError):
        QuadratureSpec((33, 16))
    spec = QuadratureSpec.with_1d_nodes(256)
    assert spec.nodes(1) == 256 and spec.nodes(5) == spec.nodes(4)


def test_free_evolution_reports_quad_error():
    rep = free_evolution_residuals(1.0, (2, 3), PARAMS)
    assert math.isfinite(rep.quad_error) and rep.quad_error < 1e-8


@pytest.mark.parametrize("x", [(2,), (2, 3), (1, 2, 4)])
def test_free_evolution_values_equal_q_moment(x):
    t = 0.7
    rep = free_evolution_residuals(t, x, PARAMS)
    assert x in rep.values and len(rep.values) >= 3
    for xs, value in rep.values.items():
        assert value == pytest.approx(q_moment(t, xs, PARAMS).value, rel=1e-14, abs=0)


@pytest.mark.parametrize("q, rho", [(F(1, 2), F(9, 10)), (F(2, 5), 1)])
def test_imag_residual_is_negligible_up_to_three_points(q, rho):
    params = ModelParams.from_density(1, q, rho)
    for t in (0.0, 0.5, 1.0):
        for x in ((2,), (1, 3), (1, 2, 4)):
            assert q_moment(t, x, params).imag_residual < 1e-12
