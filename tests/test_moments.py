import itertools
import math
import re
from fractions import Fraction as F

import numpy as np
import pytest

from asep_lab import moments
from asep_lab.model import ModelParams, SegmentParams, ValidityError
from asep_lab.moments import (QuadratureSpec, _CircleValues, _diagram_terms, _eval_context,
                              _factored_operands, first_moment, free_evolution_residuals,
                              q_moment, second_moment_explicit)
from asep_lab.partitions import canonical_diagrams, partitions_of
from asep_lab.quadrature import Workspace, circle_nodes, line_nodes
from asep_lab.residues import (DIFF, F_OVER_Z, PROD, EvalContext, Factor, Monomial,
                               ReducedIntegrand, build_phi, reduce_by_diagram)

PARAMS = ModelParams.from_density(1, F(1, 2), F(9, 10))


def test_initial_condition_is_one_small_n():
    for x in ((2,), (1, 3), (1, 2, 4)):
        res = q_moment(0.0, x, PARAMS)
        assert abs(res.value - 1.0) < 1e-8


@pytest.mark.parametrize("t, x", [(1.0, (100000,)), (1e308, (1,))])
def test_overflow_in_a_pass_raises_arithmetic_error(t, x, recwarn):
    # the first ended in a non-finite contribution after three numpy warnings,
    # the second returned 0.0 with quad_error 0.0 after an overflow warning
    with pytest.raises(ArithmeticError, match=re.escape(f"at t = {t} on the")):
        q_moment(t, x, PARAMS)
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


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


# float.hex on the default grid at q = 1/2, rho = 9/10, t = 0.7, recorded
# when the half grid still had its own nodes: the fine grid's values do not
# depend on it.  The same at one and at two BLAS threads.
PINNED_MOMENTS = [
    ("q_moment", (2,), "0x1.de34a35a706dep-1"),
    ("q_moment", (1, 3), "0x1.836db9bf0a282p-1"),
    ("q_moment", (1, 2, 4), "0x1.77079caf3a65bp-1"),
    ("d/dt", (1, 2, 4), "-0x1.47aaf26a84092p-2"),
]


@pytest.mark.parametrize("kind, x, value", PINNED_MOMENTS)
def test_moments_pinned(kind, x, value, monkeypatch):
    if kind == "q_moment":
        assert q_moment(0.7, x, PARAMS).value.hex() == value
        return
    # the analytic d/dt of free_evolution_residuals' pass, which holds x's neighbours too
    dvdt, moment_results = [], moments._moment_results

    def recorded(*args):
        results, derivative = moment_results(*args)
        dvdt.append(derivative)
        return results, derivative

    monkeypatch.setattr(moments, "_moment_results", recorded)
    free_evolution_residuals(0.7, x, PARAMS)
    assert [d.hex() for d in dvdt] == [value]


def _pass_bits(sums):
    return [(re.hex(), im.hex(), {lam: (v.real.hex(), v.imag.hex()) for lam, v in pp.items()})
            for re, im, pp in sums]


@pytest.mark.parametrize("x", [(3,), (1, 3), (1, 2, 4)])
def test_a_value_does_not_depend_on_the_points_that_share_its_pass(x):
    n = len(x)
    ctx = _eval_context(PARAMS, 0.9)
    points = [x] + [x[:i] + (x[i] + s,) + x[i + 1:] for i in range(n) for s in (-1, 1)]
    shapes = [(d, QuadratureSpec().nodes(d)) for d in range(1, n + 1)]
    reduced, values = _diagram_terms(n), _CircleValues(ctx, shapes, len(points) + 1)

    def evaluate(points, time_derivative=False):
        # per point the bits of its fine and half-grid sums, then the d/dt entry's
        fine, half = moments._sum_terms(reduced, values, QuadratureSpec(), points,
                                        time_derivative)
        return list(zip(_pass_bits(fine), _pass_bits(half))) + _pass_bits(fine[len(points):])

    full = evaluate(points, time_derivative=True)
    alone = [evaluate([xs])[0] for xs in points]
    assert full[:-1] == alone
    assert evaluate(points[::-1]) == alone[::-1]
    assert evaluate(points[2:4]) == alone[2:4]
    # the d/dt entry is the same with or without the other points
    assert evaluate([x], time_derivative=True)[-1] == full[-1]
    if n == 3:
        # points that share x_3 share the 3-D step's fold, in any order; others do not
        for group in ([x, (2, 3, 4), (0, 1, 4), (1, 3, 4)],
                      [x, (1, 2, 3), (2, 3, 5), (0, 1, 6)],
                      [(1, 2, 3), x, (2, 3, 3), (1, 3, 4), (0, 1, 3)]):
            got = evaluate(group, time_derivative=True)
            assert got[:-1] == [evaluate([xs])[0] for xs in group]
            assert got[-1] == evaluate([group[0]], time_derivative=True)[-1]


def test_points_that_share_their_last_site_share_one_fold(monkeypatch):
    # x = (1, 2, 4) needs 7 points and 3 d/dt rows; its last-dimension
    # vectors are those of x_3 - 1, x_3, x_3 + 1 and the d/dt row of dimension 2
    folds = []
    fold = Workspace.fold

    def recorded(workspace, m02, m12, v2):
        key = (id(m02), id(m12), v2.tobytes())
        if not folds or folds[-1][1] != key:
            folds.append((len(m02), key))
        return fold(workspace, m02, m12, v2)

    monkeypatch.setattr(Workspace, "fold", recorded)
    free_evolution_residuals(0.7, (1, 2, 4), PARAMS)
    fine = QuadratureSpec().nodes(3)
    # the half grid's rows share their folds as the fine grid's do
    assert sorted(n for n, _ in folds) == [fine // 2] * 3 + [fine] * 4


def test_a_build_evaluates_each_kernel_argument_and_grid_once(monkeypatch):
    # one n = 3 call used to make 66 kernel_parts calls for 17 distinct
    # arguments, and 38 circle_nodes calls for 7 grids; its half grids are the
    # fine grids' even nodes, so each of its 11 diagrams is built once
    kernel_args, grids, node_grids, builds = [], [], [], []
    kernel_parts, circle_nodes_ = EvalContext.kernel_parts, moments.circle_nodes
    factored_operands = moments._factored_operands

    def counted_kernel_parts(ctx, m):
        kernel_args.append(m.tobytes())
        return kernel_parts(ctx, m)

    def counted_circle_nodes(*args):
        grids.append(args)
        node_grids.append(circle_nodes_(*args))
        return node_grids[-1]

    def counted_factored_operands(reduced, values, n_nodes):
        builds.append((reduced, n_nodes))
        return factored_operands(reduced, values, n_nodes)

    monkeypatch.setattr(EvalContext, "kernel_parts", counted_kernel_parts)
    monkeypatch.setattr(moments, "circle_nodes", counted_circle_nodes)
    monkeypatch.setattr(moments, "_factored_operands", counted_factored_operands)
    q_moment(0.9, (1, 2, 4), PARAMS)
    assert len(kernel_args) == len(set(kernel_args)) == 10
    assert len(grids) == len(set(grids)) == 4
    assert [red for red, _ in builds] == [red for *_, red in _diagram_terms(3)]
    assert {n for _, n in builds} == {QuadratureSpec().nodes(d) for d in (1, 2, 3)}
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


def _mesh(reduced, q, n_nodes, half=False):
    """Open-mesh nodes per free variable and the product of the weights; with
    half, of the half grid: the even-indexed nodes, each weight doubled."""
    n_dims = len(reduced.free_vars)
    assign, weight = {}, 1.0
    for d, var in enumerate(reduced.free_vars):
        z, w = circle_nodes(1 / math.sqrt(q), n_nodes, d)
        if half:
            z, w = z[::2], 2.0 * w[::2]
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


def _dense_integral(reduced, ctx, n_nodes, x, half):
    assign, weight = _mesh(reduced, ctx.q, n_nodes, half)
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


def _dense_moment(ctx, quad, x, half=False):
    n = len(x)
    phi = build_phi(range(n))
    total = 0.0
    for lam in partitions_of(n):
        for diagram in canonical_diagrams(lam):
            reduced = reduce_by_diagram(phi, diagram)
            n_nodes = quad.nodes(len(reduced.free_vars))
            total += (-1) ** (n - len(lam)) * _dense_integral(reduced, ctx, n_nodes, x, half)
    return total.real


def _dense_line_pair(f, assign):
    """(L_A - L_B)^power or (L_A + L_B - 1)^power, L = s w + e + [s < 0], written out."""
    a, b = ((m.vpow * assign[m.var] + m.qexp + (m.vpow < 0)) for m in (f.a, f.b))
    base = a - b if f.kind == DIFF else a + b - 1.0
    return base if f.power == 1 else 1.0 / base


@pytest.mark.parametrize("kinds", [[k] for k in PAIR_FORMS] + [list(PAIR_FORMS)])
@pytest.mark.parametrize("vpows", list(itertools.product((1, -1), repeat=2)))
@pytest.mark.parametrize("vars_", [(1, 2), (2, 1)])
def test_pair_operands_match_dense_factors_on_both_readings(kinds, vpows, vars_):
    # the one builder on both readings: circles, and lines read additively
    from asep_lab.kpz import KpzParams, _LineValues
    ctx = EvalContext(q=0.5, p=1.0, rho=0.9, t=0.7)
    (va, vb), (sa, sb) = vars_, vpows
    factors = tuple(Factor(kind, Monomial(1 + i % 2, va, sa), Monomial(2 * (i % 2), vb, sb),
                           power)
                    for i, (kind, power) in enumerate(kinds))
    reduced = ReducedIntegrand(factors, (1, 2))
    assign, _ = _mesh(reduced, ctx.q, 24)
    # 24 nodes on Re w = 0.25 and 1.6: no additive pair factor comes near 0
    lines = [line_nodes(r, 3.0, 0.25, d) for d, r in enumerate((0.25, 1.6))]
    line_assign = {1: lines[0][0][:, None], 2: lines[1][0][None, :]}
    for values, dense in (
            (_CircleValues(ctx, [], 1),  # its memo alone
             lambda f: _dense_pair(f, f.a.value(ctx.q, assign), f.b.value(ctx.q, assign))),
            (_LineValues(KpzParams(t=0.5, x=(0.1, 0.4), A=1.0), lines),
             lambda f: _dense_line_pair(f, line_assign))):
        _, vectors, pairs, scalar, _ = _factored_operands(reduced, values, 24)
        matrices = pairs.matrices()
        # the vectors carry the trapezoid weights; the dense factors do not
        u, v = (vectors[d] / values.grid(24, d)[1] for d in range(2))
        got = scalar * u[:, None] * matrices[(0, 1)] * v[None, :]
        want = 1.0
        for f in factors:
            want = want * dense(f)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


SMALL_GRID = QuadratureSpec((64, 48, 32, 32))


def _quad_error_tol(fine, half):
    # quad_error is |fine - half|: a 1e-13 relative tolerance on both values
    # bounds it absolutely, and it can be far smaller than either value
    return 1e-13 * (abs(fine) + abs(half))


@pytest.mark.parametrize("kernel", ["plain", "scaled"])
@pytest.mark.parametrize("x", [(2,), (1, 3), (1, 2, 4)])
def test_q_moment_matches_dense_reference(kernel, x):
    t = 0.7
    ctx = EvalContext(q=0.5, p=1.0, rho=0.9, t=t, kernel=kernel)
    res = q_moment(t, x, PARAMS, SMALL_GRID, kernel=kernel)
    fine = _dense_moment(ctx, SMALL_GRID, x)
    half = _dense_moment(ctx, SMALL_GRID, x, half=True)
    assert res.value == pytest.approx(fine, rel=1e-13, abs=0)
    assert abs(res.quad_error - abs(fine - half)) <= _quad_error_tol(fine, half)


@pytest.mark.parametrize("x", [(2,), (2, 3), (1, 2, 4)])
def test_free_evolution_values_match_dense_reference(x):
    t = 0.7
    ctx = EvalContext(q=0.5, p=1.0, rho=0.9, t=t)
    rep = free_evolution_residuals(t, x, PARAMS, SMALL_GRID)
    errors = []
    for xs, value in rep.values.items():
        fine = _dense_moment(ctx, SMALL_GRID, xs)
        half = _dense_moment(ctx, SMALL_GRID, xs, half=True)
        errors.append((abs(fine - half), _quad_error_tol(fine, half)))
        assert value == pytest.approx(fine, rel=1e-13, abs=0)
    quad_error, tol = max(errors)
    assert abs(rep.quad_error - quad_error) <= tol
