import math

import numpy as np
import pytest

from asep_lab.partitions import Diagram, canonical_diagrams, partitions_of
from asep_lab.residues import (EvalContext, ReductionError, build_phi, evaluate,
                               reduce_by_diagram, time_derivative_terms)

Q, P, RHO = 0.5, 1.0, 0.9


def F(z, x, t=0.7, q=Q, p=P, rho=RHO):
    return ((1 - q * z * z) / (1 - z)
            * np.exp((1 - q) ** 2 * z * p * t / ((1 - z) * (1 - q * z)))
            * ((1 - z) / (1 - q * z)) ** x
            * rho / (rho + (1 - rho) * z))


def ctx(t=0.7):
    return EvalContext(q=Q, p=P, rho=RHO, t=t)


def random_nodes(count, rng):
    # generic points in the annulus around the contour, away from poles
    r = 1 / math.sqrt(Q) * (0.9 + 0.2 * rng.random(count))
    theta = 2 * np.pi * rng.random(count)
    return r * np.exp(1j * theta)


def test_plus_arrow_residue_matches_explicit_form():
    reduced = reduce_by_diagram(build_phi((1, 3)), Diagram(((2, 1),)))
    rng = np.random.default_rng(0)
    z = random_nodes(100, rng)
    got = evaluate(reduced, ctx(), {1: z})
    want = -(1 - Q) * (1 - Q ** 2 * z ** 2) / (1 - Q * z ** 2) * F(z, 1) * F(Q * z, 3) / z
    assert np.max(np.abs(got / want - 1)) < 1e-12


def test_minus_arrow_residue_matches_explicit_form():
    reduced = reduce_by_diagram(build_phi((1, 3)), Diagram(((1, 2),)))
    rng = np.random.default_rng(1)
    z = random_nodes(100, rng)
    got = evaluate(reduced, ctx(), {1: z})
    want = -Q * (1 - Q) * (1 - z ** 2) / (1 - Q * z ** 2) * F(z, 1) * F(1 / z, 3) / z
    assert np.max(np.abs(got / want - 1)) < 1e-12


def test_no_arrow_diagram_is_identity():
    phi = build_phi((2, 5))
    reduced = reduce_by_diagram(phi, Diagram(((1,), (2,))))
    assert reduced.sign == 1 and not reduced.prefactor_monos
    rng = np.random.default_rng(2)
    z1, z2 = random_nodes(2, rng)
    got = evaluate(reduced, ctx(), {1: z1, 2: z2})
    want = (Q * (z1 - z2) / (Q * z1 - z2) * (1 - Q * z1 * z2) / (1 - z1 * z2)
            * F(z1, 2) * F(z2, 5) / (z1 * z2))
    assert abs(got / want - 1) < 1e-13


def test_no_arrow_diagram_is_the_full_three_point_integrand():
    # q^{n(n-1)/2} = q^3: each pair carries one q, inside its first factor
    x = (1, 2, 4)
    reduced = reduce_by_diagram(build_phi(x), Diagram(((1,), (2,), (3,))))
    assert reduced.sign == 1 and not reduced.prefactor_monos
    z = dict(zip((1, 2, 3), random_nodes(3, np.random.default_rng(3))))
    got = evaluate(reduced, ctx(), z)
    want = Q ** 3
    for i in range(1, 4):
        want *= F(z[i], x[i - 1]) / z[i]
        for j in range(i + 1, 4):
            want *= ((z[i] - z[j]) / (Q * z[i] - z[j])
                     * (1 - Q * z[i] * z[j]) / (1 - z[i] * z[j]))
    assert abs(got / want - 1) < 1e-13


def test_sequential_substitution_never_ambiguous_up_to_n5():
    for n in range(1, 6):
        phi = build_phi(tuple(range(1, n + 1)))
        for lam in partitions_of(n):
            for diagram in canonical_diagrams(lam):
                reduced = reduce_by_diagram(phi, diagram)  # raises on any ambiguity
                assert len(reduced.free_vars) == len(lam)


def test_kernel_at_t0_full_density():
    c = EvalContext(q=Q, p=P, rho=1.0, t=0.0)
    z = 0.3 + 0.4j
    want = (1 - Q * z * z) / (1 - z) * ((1 - z) / (1 - Q * z)) ** 4
    assert abs(c.f_kernel(z, 4) - want) < 1e-15


def test_evaluate_finite_at_real_contour_node():
    reduced = reduce_by_diagram(build_phi((1,)), Diagram(((1,),)))
    val = evaluate(reduced, ctx(), {1: 1 / math.sqrt(Q) + 0j})
    assert np.isfinite(val)


def test_conjugate_symmetry():
    reduced = reduce_by_diagram(build_phi((1, 3)), Diagram(((2, 1),)))
    z = 1.1 + 0.7j
    a = evaluate(reduced, ctx(), {1: z})
    b = evaluate(reduced, ctx(), {1: np.conj(z)})
    assert abs(np.conj(a) - b) < 1e-12 * abs(a)


def test_inversion_term_regular_near_one():
    # adjacent sites with the inversion substitution: the (1-z) denominators
    # cancel against the site powers, so values stay bounded approaching 1
    reduced = reduce_by_diagram(build_phi((1, 2)), Diagram(((1, 2),)))
    c = EvalContext(q=Q, p=P, rho=RHO, t=0.0)
    vals = [abs(evaluate(reduced, c, {1: 1.0 + d})) for d in (1e-3, 1e-5, 1e-7)]
    assert all(np.isfinite(v) and v < 1.0 for v in vals)


def test_pivot_swap_ratio_matches_pair_factor():
    # no-arrow diagram with equal sites: swapping the two node values
    # multiplies the value by the swapped/unswapped ratio of pair factors
    reduced = reduce_by_diagram(build_phi((3, 3)), Diagram(((1,), (2,))))
    z1, z2 = 1.2 + 0.5j, 0.8 - 0.9j
    plain = evaluate(reduced, ctx(), {1: z1, 2: z2})
    swapped = evaluate(reduced, ctx(), {1: z2, 2: z1})
    predicted = ((z2 - z1) / (Q * z2 - z1)) / ((z1 - z2) / (Q * z1 - z2))
    assert abs(swapped / plain - predicted) < 1e-12 * abs(predicted)


def test_time_derivative_multiplier_n1():
    reduced = reduce_by_diagram(build_phi((2,)), Diagram(((1,),)))
    terms = time_derivative_terms(reduced, ctx())
    z = 0.4 + 1.1j
    want = (1 - Q) ** 2 * z * P / ((1 - z) * (1 - Q * z))
    assert abs(terms[1][0](z) - want) < 1e-15


def test_time_derivative_multiplier_sums_over_kernels():
    reduced = reduce_by_diagram(build_phi((1, 3)), Diagram(((2, 1),)))
    terms = time_derivative_terms(reduced, ctx())
    z = 0.9 + 0.3j
    single = lambda w: (1 - Q) ** 2 * w * P / ((1 - w) * (1 - Q * w))
    got = sum(m(z) for m in terms[1])
    assert abs(got - (single(z) + single(Q * z))) < 1e-14
    # same multiplier regardless of t: rebuild at a different time
    terms2 = time_derivative_terms(reduced, ctx(t=3.0))
    assert abs(sum(m(z) for m in terms2[1]) - got) == 0.0


def test_mismatched_diagram_raises():
    with pytest.raises(ReductionError):
        reduce_by_diagram(build_phi((1, 2, 4)), Diagram(((2, 1),)))
