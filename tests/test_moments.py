import itertools
import math
from fractions import Fraction as F

import numpy as np
import pytest

from asep_lab import moments
from asep_lab.model import ModelParams, SegmentParams, ValidityError
from asep_lab.moments import (QuadratureSpec, _CircleValues, _diagram_terms, _eval_context,
                              _factored_operands, first_moment, free_evolution_residuals,
                              q_moment, second_moment_explicit)
from asep_lab.partitions import canonical_diagrams, partitions_of
from asep_lab.quadrature import Spares, circle_nodes
from asep_lab.residues import (DIFF, F_OVER_Z, PROD, EvalContext, Factor, Monomial,
                               ReducedIntegrand, build_phi, reduce_by_diagram)

PARAMS = ModelParams.from_density(1, F(1, 2), F(9, 10))


def test_initial_condition_is_one_small_n():
    for x in ((2,), (1, 3), (1, 2, 4)):
        res = q_moment(0.0, x, PARAMS)
        assert abs(res.value - 1.0) < 1e-8


def test_value_equals_partition_sum():
    res = q_moment(0.8, (1, 3), PARAMS)
    assert abs(res.value - math.fsum(res.per_partition.values())) < 1e-15
    assert set(res.per_partition) == {(2,), (1, 1)}


@pytest.mark.parametrize("moment", [
    lambda params: q_moment(1.0, (1, 3), params),
    lambda params: first_moment(1.0, 1, params),
    lambda params: second_moment_explicit(1.0, 1, 3, params),
    lambda params: free_evolution_residuals(1.0, (1, 3), params),
])
def test_half_line_moments_refuse_segment_params(moment):
    # q_moment used to return the half-line value 0.67964 here, against the
    # segment ODE's 0.69510
    with pytest.raises(TypeError, match="SegmentParams"):
        moment(SegmentParams.from_densities(1, F(1, 2), F(9, 10), F(1, 3), 4))


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


def test_grid_without_a_coarser_half_grid_is_refused():
    # halved() keeps 16 nodes at 16, so quad_error used to read 0.0 there:
    # at q = 9/10, rho = 1, x = (10,), t = 0 the value was 1.1995 > 1
    high_q = ModelParams.from_density(1, F(9, 10), 1)
    for spec, x in (((16,) * 4, (10,)), ((16,) * 4, (1, 3)), ((32, 16, 16, 16), (1, 3))):
        with pytest.raises(ValidityError, match="coarser grid"):
            q_moment(0.0, x, high_q, QuadratureSpec(spec))
    with pytest.raises(ValidityError, match="coarser grid"):
        free_evolution_residuals(1.0, (1, 3), PARAMS, QuadratureSpec((32, 16, 16, 16)))
    # a 1-point moment integrates over one dimension only
    res = q_moment(0.0, (10,), high_q, QuadratureSpec((32, 16, 16, 16)))
    assert res.quad_error > 0
    res = q_moment(1.0, (1, 3), PARAMS, QuadratureSpec.with_1d_nodes(40))
    assert res.nodes_by_dim == (40, 20, 20, 18) and res.quad_error > 0


def test_free_evolution_reports_quad_error():
    rep = free_evolution_residuals(1.0, (2, 3), PARAMS)
    assert math.isfinite(rep.quad_error) and rep.quad_error < 1e-8


@pytest.mark.parametrize("x", [(2,), (2, 3), (1, 2, 4)])
def test_free_evolution_values_equal_q_moment(x):
    # one pass evaluates every point, yet each value is q_moment's to the bit
    t = 0.7
    rep = free_evolution_residuals(t, x, PARAMS)
    assert x in rep.values and len(rep.values) >= 3
    for xs, value in rep.values.items():
        assert value.hex() == q_moment(t, xs, PARAMS).value.hex()


def _pass_bits(sums):
    return [(re.hex(), im.hex(), {lam: (v.real.hex(), v.imag.hex()) for lam, v in pp.items()})
            for re, im, pp in sums]


@pytest.mark.parametrize("x", [(3,), (1, 3), (1, 2, 4)])
def test_a_value_does_not_depend_on_the_points_that_share_its_pass(x):
    n = len(x)
    ctx = _eval_context(PARAMS, 0.9)
    points = [x] + [x[:i] + (x[i] + s,) + x[i + 1:] for i in range(n) for s in (-1, 1)]
    reduced, values = _diagram_terms(n), _CircleValues(ctx)
    for quad in (QuadratureSpec(), QuadratureSpec().halved()):

        def evaluate(points, time_derivative=False):
            return moments._sum_terms(reduced, values, quad, points, time_derivative)

        full = _pass_bits(evaluate(points, time_derivative=True))
        alone = [_pass_bits(evaluate([xs]))[0] for xs in points]
        assert full[:-1] == alone
        assert _pass_bits(evaluate(points[::-1])) == alone[::-1]
        assert _pass_bits(evaluate(points[2:4])) == alone[2:4]
        # the d/dt entry is the same with or without the other points
        assert _pass_bits(evaluate([x], time_derivative=True))[-1] == full[-1]
        if n == 3:
            # points that share x_3 share the 3-D step's fold, in any order; others do not
            for group in ([x, (2, 3, 4), (0, 1, 4), (1, 3, 4)],
                          [x, (1, 2, 3), (2, 3, 5), (0, 1, 6)],
                          [(1, 2, 3), x, (2, 3, 3), (1, 3, 4), (0, 1, 3)]):
                got = _pass_bits(evaluate(group, time_derivative=True))
                assert got[:-1] == [_pass_bits(evaluate([xs]))[0] for xs in group]
                assert got[-1] == _pass_bits(evaluate([group[0]], time_derivative=True))[-1]


def test_points_that_share_their_last_site_share_one_fold(monkeypatch):
    # x = (1, 2, 4) needs 7 points and 3 d/dt rows; its last-dimension
    # vectors are those of x_3 - 1, x_3, x_3 + 1 and the d/dt row of dimension 2
    folds = []
    fold_of = Spares.fold_of

    def recorded(spares, m02, m12, v2):
        key = (id(m02), id(m12), v2.tobytes())
        if not folds or folds[-1][1] != key:
            folds.append((len(m02), key))
        return fold_of(spares, m02, m12, v2)

    monkeypatch.setattr(Spares, "fold_of", recorded)
    free_evolution_residuals(0.7, (1, 2, 4), PARAMS)
    fine, coarse = QuadratureSpec().nodes(3), QuadratureSpec().halved().nodes(3)
    assert sorted(n for n, _ in folds) == [coarse] * 3 + [fine] * 4


def test_a_build_evaluates_each_kernel_argument_and_grid_once(monkeypatch):
    # one n = 3 call (both grids) used to make 66 kernel_parts calls for 17
    # distinct arguments, and 38 circle_nodes calls for 7 grids
    kernel_args, grids, node_grids = [], [], []
    kernel_parts, circle_nodes_ = EvalContext.kernel_parts, moments.circle_nodes

    def counted_kernel_parts(ctx, m):
        kernel_args.append(m.tobytes())
        return kernel_parts(ctx, m)

    def counted_circle_nodes(*args):
        grids.append(args)
        node_grids.append(circle_nodes_(*args))
        return node_grids[-1]

    monkeypatch.setattr(EvalContext, "kernel_parts", counted_kernel_parts)
    monkeypatch.setattr(moments, "circle_nodes", counted_circle_nodes)
    q_moment(0.9, (1, 2, 4), PARAMS)
    assert len(kernel_args) == len(set(kernel_args)) == 17
    assert len(grids) == len(set(grids)) == 7
    # the diagrams share these arrays, so none can write into them
    assert not any(a.flags.writeable for grid in node_grids for a in grid)


def test_q_moment_refuses_an_unknown_kernel():
    # "Scaled" used to give the plain moment, 0.81513; "scaled" gives 0.39615
    with pytest.raises(ValidityError, match="Scaled"):
        q_moment(0.5, (1, 3), PARAMS, kernel="Scaled")


def test_free_evolution_at_sites_where_no_relation_applies_is_empty():
    # x = (0, 0): no d/dt (x_1 = 0), no collision, no boundary relation (x_2 < 2)
    rep = free_evolution_residuals(0.5, (0, 0), PARAMS)
    assert rep.values == {} and rep.max_residual() == 0.0 and rep.quad_error == 0.0


@pytest.mark.parametrize("q, rho", [(F(1, 2), F(9, 10)), (F(2, 5), 1)])
def test_imag_residual_is_negligible_up_to_three_points(q, rho):
    params = ModelParams.from_density(1, q, rho)
    for t in (0.0, 0.5, 1.0):
        for x in ((2,), (1, 3), (1, 2, 4)):
            assert q_moment(t, x, params).imag_residual < 1e-12


# ---------------------------------------------------------------------------
# operands and moments against dense references on the full tensor grid

# (kind, power) of the four pair factors of build_phi
PAIR_FORMS = [(DIFF, 1), (DIFF, -1), (PROD, 1), (PROD, -1)]


def _dense_pair(f, a, b):
    """(A - B)^power or (1 - A B)^power, written out directly."""
    base = a - b if f.kind == DIFF else 1.0 - a * b
    return base if f.power == 1 else 1.0 / base


def _mesh(reduced, q, n_nodes):
    """Open-mesh nodes per free variable and the product of the weights."""
    n_dims = len(reduced.free_vars)
    assign, weight = {}, 1.0
    for d, var in enumerate(reduced.free_vars):
        z, w = circle_nodes(1 / math.sqrt(q), n_nodes, d)
        shape = [-1 if e == d else 1 for e in range(n_dims)]
        assign[var] = z.reshape(shape)
        weight = weight * w.reshape(shape)
    return assign, weight


def _dense_kernel(ctx, m, site):
    """F_site(m) for the plain or the scaled kernel, written out directly."""
    q, p, rho, t = ctx.q, ctx.p, ctx.rho, ctx.t
    x = site + 1 if ctx.kernel == "scaled" else site
    val = ((1 - q * m * m) / (1 - m) * np.exp((1 - q) ** 2 * m * p * t / ((1 - m) * (1 - q * m)))
           * ((1 - m) / (1 - q * m)) ** x * rho / (rho + (1 - rho) * m))
    if ctx.kernel == "scaled":
        val = val * math.exp((p + q * p - 1) * t) * q ** (site / 2)
    return val


def _dense_integral(reduced, ctx, n_nodes, x):
    assign, weight = _mesh(reduced, ctx.q, n_nodes)
    val = complex(reduced.sign)
    for m in reduced.prefactor_monos:
        val = val * m.value(ctx.q, assign)
    for f in reduced.factors:
        if f.kind == F_OVER_Z:
            m = f.a.value(ctx.q, assign)
            val = val * _dense_kernel(ctx, m, x[f.site]) / m
        else:
            val = val * _dense_pair(f, f.a.value(ctx.q, assign), f.b.value(ctx.q, assign))
    return complex(np.sum(val * weight))


def _dense_moment(ctx, quad, x):
    n = len(x)
    phi = build_phi(range(n))
    total = 0.0
    for lam in partitions_of(n):
        for diagram in canonical_diagrams(lam):
            reduced = reduce_by_diagram(phi, diagram)
            n_nodes = quad.nodes(len(reduced.free_vars))
            total += (-1) ** (n - len(lam)) * _dense_integral(reduced, ctx, n_nodes, x)
    return total.real


@pytest.mark.parametrize("kinds", [[k] for k in PAIR_FORMS] + [list(PAIR_FORMS)])
@pytest.mark.parametrize("vpows", list(itertools.product((1, -1), repeat=2)))
@pytest.mark.parametrize("vars_", [(1, 2), (2, 1)])
def test_circle_pair_operands_match_dense_factors(kinds, vpows, vars_):
    ctx = EvalContext(q=0.5, p=1.0, rho=0.9, t=0.7)
    (va, vb), (sa, sb) = vars_, vpows
    factors = tuple(Factor(kind, Monomial(1 + i % 2, va, sa), Monomial(2 * (i % 2), vb, sb),
                           power)
                    for i, (kind, power) in enumerate(kinds))
    reduced = ReducedIntegrand(factors, (1, 2))
    values = _CircleValues(ctx)
    _, vectors, pairs, scalar, _ = _factored_operands(reduced, values, 24)
    matrices = pairs.matrices()
    # the vectors carry the trapezoid weights; the dense factors do not
    u, v = (vectors[d] / values.grid(24, d)[1] for d in range(2))
    got = scalar * u[:, None] * matrices[(0, 1)] * v[None, :]
    assign, _ = _mesh(reduced, ctx.q, 24)
    want = 1.0
    for f in factors:
        want = want * _dense_pair(f, f.a.value(ctx.q, assign), f.b.value(ctx.q, assign))
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


SMALL_GRID = QuadratureSpec((64, 48, 32, 32))


def _quad_error_tol(fine, coarse):
    # quad_error is |fine - coarse|: a 1e-13 relative tolerance on both values
    # bounds it absolutely, and it can be far smaller than either value
    return 1e-13 * (abs(fine) + abs(coarse))


@pytest.mark.parametrize("kernel", ["plain", "scaled"])
@pytest.mark.parametrize("x", [(2,), (1, 3), (1, 2, 4)])
def test_q_moment_matches_dense_reference(kernel, x):
    t = 0.7
    ctx = EvalContext(q=0.5, p=1.0, rho=0.9, t=t, kernel=kernel)
    res = q_moment(t, x, PARAMS, SMALL_GRID, kernel=kernel)
    fine = _dense_moment(ctx, SMALL_GRID, x)
    coarse = _dense_moment(ctx, SMALL_GRID.halved(), x)
    assert res.value == pytest.approx(fine, rel=1e-13, abs=0)
    assert abs(res.quad_error - abs(fine - coarse)) <= _quad_error_tol(fine, coarse)


@pytest.mark.parametrize("x", [(2,), (2, 3), (1, 2, 4)])
def test_free_evolution_values_match_dense_reference(x):
    t = 0.7
    ctx = EvalContext(q=0.5, p=1.0, rho=0.9, t=t)
    rep = free_evolution_residuals(t, x, PARAMS, SMALL_GRID)
    errors = []
    for xs, value in rep.values.items():
        fine = _dense_moment(ctx, SMALL_GRID, xs)
        coarse = _dense_moment(ctx, SMALL_GRID.halved(), xs)
        errors.append((abs(fine - coarse), _quad_error_tol(fine, coarse)))
        assert value == pytest.approx(fine, rel=1e-13, abs=0)
    quad_error, tol = max(errors)
    assert abs(rep.quad_error - quad_error) <= tol
