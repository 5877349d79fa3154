import math

import numpy as np
import pytest

from asep_lab.kpz import (DIRICHLET, ROBIN, KpzParams,
                          robin_halfline_first_moment_exact,
                          robin_pde_first_moment, scaled_asep_moment,
                          she_moment_nested, she_moment_residue_form,
                          _robin_heat_profile)
from asep_lab.model import ModelParams, ValidityError
from asep_lab.moments import QuadratureSpec, free_evolution_residuals, q_moment


def test_params_validation():
    with pytest.raises(ValidityError):
        KpzParams(t=1.0, x=(0.5,), A=0.0)           # Robin needs A > 0
    with pytest.raises(ValidityError):
        KpzParams(t=1.0, x=(0.7, 0.2), A=1.0)       # not increasing
    with pytest.raises(ValidityError):
        KpzParams(t=0.0, x=(0.5,), A=1.0)
    with pytest.raises(ValidityError, match="at least one point"):
        KpzParams(t=1.0, x=(), A=1.0)
    KpzParams(t=1.0, x=(0.5,), boundary=DIRICHLET)  # no A needed


def _nested_on(kpz, offsets, spacing, reach=None):
    """The nested form's integrand read (`kpz._she_value`) on `she_grids`
    lines at offsets, spaced `spacing` and cut for real parts up to reach,
    by default the last offset, as the form cuts its own lines."""
    from asep_lab.kpz import _she_value, she_grids
    from asep_lab.residues import ReducedIntegrand, build_phi
    n = kpz.n
    grids = she_grids(kpz.t, offsets, max(offsets) if reach is None else reach, spacing)
    unreduced = ReducedIntegrand(tuple(build_phi(range(n))), tuple(range(1, n + 1)))
    return _she_value(kpz, "nested", grids, [unreduced])


def _residue_on(kpz, spacing):
    """The residue form's terms read on its axis lines, spaced `spacing`."""
    from asep_lab.kpz import _reduce_additive, _she_value, she_grids
    from asep_lab.partitions import canonical_diagrams, partitions_of
    from asep_lab.residues import build_phi
    n = kpz.n
    grids = she_grids(kpz.t, (0.0,) * n, n - 1.0, spacing)
    phi = build_phi(range(n))
    terms = [_reduce_additive(diagram, phi)
             for lam in partitions_of(n) for diagram in canonical_diagrams(lam)]
    return _she_value(kpz, "residue", grids, terms)


def test_first_moment_matches_image_kernel_closed_form():
    for A, t, x in ((1.0, 1.0, 0.5), (2.0, 0.5, 0.25), (0.7, 2.0, 1.5)):
        nested = she_moment_nested(KpzParams(t=t, x=(x,), A=A))
        exact = robin_halfline_first_moment_exact(A, t, x)
        assert abs(nested - exact) < 1e-10 * abs(exact)


def test_dirichlet_first_moment_is_kernel_derivative():
    t, x = 1.0, 0.5
    nested = she_moment_nested(KpzParams(t=t, x=(x,), boundary=DIRICHLET))
    expected = 4.0 * (x / t) * math.exp(-x * x / (2 * t)) / math.sqrt(2 * math.pi * t)
    assert abs(nested - expected) < 1e-10


def test_residue_form_equals_nested():
    k1 = KpzParams(t=1.0, x=(0.5,), A=1.0)
    assert she_moment_residue_form(k1) == pytest.approx(she_moment_nested(k1), rel=1e-8)
    k2 = KpzParams(t=1.0, x=(0.2, 0.7), A=1.0)
    assert she_moment_residue_form(k2) == pytest.approx(she_moment_nested(k2), rel=1e-6)


@pytest.mark.parametrize("n, tol, xs", [(2, 1e-6, ((0.2, 0.7), (0.5, 1.2))),
                                         (3, 1e-5, ((0.1, 0.4, 0.9), (0.3, 0.8, 1.5)))])
def test_dirichlet_residue_form_equals_nested(n, tol, xs):
    # the tolerances of acceptance criterion 7, which checks the Robin kernel
    for t in (0.5, 1.0):
        for x in xs:
            kpz = KpzParams(t=t, x=x, boundary=DIRICHLET)
            assert she_moment_residue_form(kpz) == pytest.approx(she_moment_nested(kpz),
                                                                 rel=tol)


def test_contour_offset_invariance():
    k2 = KpzParams(t=1.0, x=(0.2, 0.7), A=1.0)
    base = _nested_on(k2, (0.0, 1.25), 0.05)
    moved = _nested_on(k2, (0.0, 1.35), 0.05)
    assert abs(base - moved) < 1e-8


def test_tail_truncation_controlled():
    # a reach of sqrt(1.25^2 + 2 log(100) / t) cuts the lines where the tail
    # is 100 times below TAIL_TOL
    k2 = KpzParams(t=0.5, x=(0.2, 0.7), A=1.0)
    spacing = 0.05 / math.sqrt(k2.t)
    loose = _nested_on(k2, (0.0, 1.25), spacing)
    tight = _nested_on(k2, (0.0, 1.25), spacing,
                       reach=math.sqrt(1.25 ** 2 + 2 * math.log(100) / k2.t))
    assert abs(loose - tight) < 1e-10


def test_moments_positive():
    for kpz in (KpzParams(t=0.5, x=(0.1, 0.6), A=0.5),
                KpzParams(t=1.0, x=(0.3,), boundary=DIRICHLET)):
        assert she_moment_nested(kpz) > 0


def test_axis_integrand_has_gaussian_envelope():
    # on the first contour (the axis), |kernel| <= e^{-t y^2 / 2}
    from asep_lab.kpz import _kernel
    t, x, A = 1.0, 0.5, 1.0
    y = np.linspace(-8, 8, 401)
    vals = np.abs(_kernel(1j * y, x, t, A, ROBIN))
    assert np.all(vals <= np.exp(-t * y * y / 2.0) + 1e-15)


def test_pde_oracle_against_first_moment():
    pde = robin_pde_first_moment(1.0, 1.0, 0.5)
    nested = she_moment_nested(KpzParams(t=1.0, x=(0.5,), A=1.0))
    assert abs(pde.value - nested) < 1e-4 * nested
    assert pde.grid_error < 1e-5


def test_pde_oracle_mass_conserved_when_reflecting():
    res = robin_pde_first_moment(0.0, 1.0, 0.5)
    assert abs(res.mass - 1.0) < 1e-6


def test_pde_oracle_approaches_absorbing_limit():
    vals = [robin_pde_first_moment(A, 0.7, 0.4).value for A in (1.0, 10.0, 100.0)]
    assert vals[0] > vals[1] > vals[2] > 0


def test_scaled_moment_is_the_lattice_identity():
    # same residue machinery, scaled kernel: must equal the plain moment
    # times the deterministic scaling factors
    from asep_lab.model import ModelParams
    from asep_lab.moments import q_moment
    eps, t, x, A = 0.1, 1.0, 1.0, 1.0
    kpz = KpzParams(t=t, x=(x,), A=A)
    sq = math.sqrt(eps)
    rho = 0.5 + sq * (0.25 + A / 2)
    params = ModelParams.from_density(0.5 * math.exp(sq), 0.5 * math.exp(-sq), rho)
    X = round(x / eps)
    T = t / eps ** 2
    quad = QuadratureSpec.with_1d_nodes(512)
    plain = q_moment(T, (X + 1,), params, quad).value
    outside = (eps ** -0.5 * float(params.q) ** (X / 2)
               * math.exp((float(params.p_rate) + float(params.q_rate) - 1) * T) * plain)
    bridged = scaled_asep_moment(eps, kpz, quad)
    assert abs(bridged - outside) < 1e-12 * abs(outside)


def test_scaled_moment_validates():
    with pytest.raises(ValidityError):
        # sites collide after rounding
        scaled_asep_moment(0.2, KpzParams(t=1.0, x=(0.41, 0.48), A=1.0))
    with pytest.raises(ValidityError, match="above 1"):
        # boundary density 1/2 + sqrt(0.2) (1/4 + 3/2) = 1.28
        scaled_asep_moment(0.2, KpzParams(t=1.0, x=(0.5,), A=3.0))


@pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf, 0.0, -0.1])
def test_scaled_moment_refuses_a_non_finite_or_non_positive_eps(eps):
    # nan used to pass the sign test and be refused as "not an exact rational",
    # inf as pushing the boundary density above 1
    with pytest.raises(ValidityError, match="^eps must be finite and positive$"):
        scaled_asep_moment(eps, KpzParams(t=1.0, x=(0.5,), A=1.0))


@pytest.mark.parametrize("kpz", [KpzParams(t=1.0, x=(0.5,), A=1.0),
                                 KpzParams(t=1.0, x=(0.5,), boundary=DIRICHLET)])
@pytest.mark.parametrize("eps", [1e-5, 1e-9])
def test_bridge_refuses_a_lattice_moment_past_its_error_budget(kpz, eps):
    # at A = 1 these used to return 0.47880 (1e-5) and 0.0 (1e-9) against a
    # limit of 0.34093
    with pytest.raises(ArithmeticError, match="quadrature error"):
        scaled_asep_moment(eps, kpz)


def test_dirichlet_params_refuse_a_boundary_parameter():
    # the Dirichlet kernel has no A; one given used to be accepted and ignored
    with pytest.raises(ValidityError, match="no boundary parameter"):
        KpzParams(t=1.0, x=(0.5,), A=7.0, boundary=DIRICHLET)


def test_bridge_differences_shrink():
    kpz = KpzParams(t=1.0, x=(1.0,), A=1.0)
    limit = she_moment_nested(kpz)
    diffs = [abs(scaled_asep_moment(eps, kpz) - limit) for eps in (0.2, 0.1, 0.05)]
    assert diffs[0] > diffs[1] > diffs[2]


def test_rannacher_startup_profile_is_smooth():
    xs, u = _robin_heat_profile(1.0, 0.05, 4.0, 2e-3, 2e-3, 1.6e-2)
    assert np.all(np.isfinite(u))
    # no Crank-Nicolson ringing: the profile should be monotone in the tail
    tail = u[len(u) // 2:]
    assert np.all(np.diff(tail) <= 1e-12)


# ---------------------------------------------------------------------------
# both SHE forms against a per-factor dense evaluation of every pair matrix

def _dense_nested(kpz, grids):
    from asep_lab.kpz import _kernel
    from asep_lab.quadrature import contract_factored
    n = kpz.n
    vectors = {d: wt * _kernel(w, kpz.x[d], kpz.t, kpz.A, kpz.boundary)
               for d, (w, wt) in enumerate(grids)}
    matrices = {}
    for i in range(n):
        for j in range(i + 1, n):
            wi, wj = grids[i][0][:, None], grids[j][0][None, :]
            matrices[(i, j)] = (wi - wj) / (wi - wj + 1.0) * (wi + wj) / (wi + wj - 1.0)
    pref = (2.0 if kpz.boundary == ROBIN else 4.0) ** n
    return float(contract_factored(n, vectors, matrices, pref).real)


def _additive(m, w):
    # the monomial q^e z^s read additively: s w + e + [s < 0]
    return m.vpow * w + m.qexp + (m.vpow < 0)


def _dense_factor(f, kpz, assign):
    from asep_lab.kpz import _kernel
    from asep_lab.residues import DIFF, F_OVER_Z, PROD
    a = _additive(f.a, assign[f.a.var])
    if f.kind == F_OVER_Z:
        return _kernel(a, kpz.x[f.site], kpz.t, kpz.A, kpz.boundary)
    b = _additive(f.b, assign[f.b.var])
    if f.kind == DIFF:              # (A - B)^power
        base = a - b
    else:                           # (1 - A B)^power
        assert f.kind == PROD
        base = a + b - 1.0
    return base if f.power == 1 else 1.0 / base


def _dense_residue(kpz):
    from asep_lab.kpz import _reduce_additive, _residue_grids
    from asep_lab.partitions import canonical_diagrams, partitions_of
    from asep_lab.quadrature import contract_factored
    from asep_lab.residues import build_phi
    n = kpz.n
    grids = _residue_grids(kpz)     # the grids the call builds
    phi = build_phi(range(n))
    total = 0.0
    for lam in partitions_of(n):
        for diagram in canonical_diagrams(lam):
            reduced = _reduce_additive(diagram, phi)
            # each consumed 1/(1 - A B) left a prefactor monomial -1/A; its
            # additive limit is +1
            sign = reduced.sign * (-1) ** len(reduced.prefactor_monos)
            dims = {v: d for d, v in enumerate(reduced.free_vars)}
            vectors = {d: grids[d][1].astype(complex) for d in dims.values()}
            matrices = {}
            for f in reduced.factors:
                fvars = f.vars()
                if len(fvars) == 1:
                    d = dims[fvars[0]]
                    vectors[d] = vectors[d] * _dense_factor(f, kpz, {fvars[0]: grids[d][0]})
                    continue
                v1, v2 = sorted(fvars, key=dims.get)
                d1, d2 = dims[v1], dims[v2]
                val = _dense_factor(f, kpz, {v1: grids[d1][0][:, None],
                                             v2: grids[d2][0][None, :]})
                matrices[(d1, d2)] = matrices.get((d1, d2), 1.0) * val
            total += contract_factored(len(reduced.free_vars), vectors, matrices,
                                       complex(sign)).real
    return float((2.0 if kpz.boundary == ROBIN else 4.0) ** n * total)


DENSE_X = {1: (0.5,), 2: (0.2, 0.7), 3: (0.1, 0.4, 0.9)}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_residue_form_equals_dense_pair_reference(n):
    kpz = KpzParams(t=0.5, x=DENSE_X[n], A=1.0)
    assert she_moment_residue_form(kpz) == pytest.approx(_dense_residue(kpz), rel=1e-13)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_dirichlet_residue_form_equals_dense_pair_reference(n):
    kpz = KpzParams(t=0.5, x=DENSE_X[n], boundary=DIRICHLET)
    assert she_moment_residue_form(kpz) == pytest.approx(_dense_residue(kpz), rel=1e-13)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("boundary", [ROBIN, DIRICHLET])
def test_nested_form_equals_dense_pair_reference(n, boundary):
    kpz = KpzParams(t=0.5 if boundary == ROBIN else 1.0, x=DENSE_X[n],
                    A=1.0 if boundary == ROBIN else None, boundary=boundary)
    from asep_lab.kpz import _nested_grids, she_grids
    want = _dense_nested(kpz, _nested_grids(kpz))     # the grids the call builds
    assert she_moment_nested(kpz) == pytest.approx(want, rel=1e-13)
    if n > 1:
        offsets, spacing = (0.0, 1.35, 2.7)[:n], 0.05 / math.sqrt(kpz.t)
        want = _dense_nested(kpz, she_grids(kpz.t, offsets, max(offsets), spacing))
        assert _nested_on(kpz, offsets, spacing) == pytest.approx(want, rel=1e-13)


# ---------------------------------------------------------------------------
# the residue form's grid rule (`kpz._residue_grids`)

def _affine_form(f):
    """A factor's additive reading as ({var: coefficient}, constant), and its
    power: L_A - L_B (DIFF), L_A + L_B - 1 (PROD), or for a kernel its
    argument L, a zero of both kernels (the Robin pole at L = -A is bounded
    through the kernel's shift)."""
    from asep_lab.kpz import _affine
    from asep_lab.residues import DIFF, F_OVER_Z
    sign_a, shift_a = _affine(f.a)
    coeffs = {f.a.var: sign_a}
    if f.kind == F_OVER_Z:
        return coeffs, shift_a, 1
    sign_b, shift_b = _affine(f.b)
    other = -1 if f.kind == DIFF else 1
    coeffs[f.b.var] = coeffs.get(f.b.var, 0) + other * sign_b
    return coeffs, shift_a + other * shift_b - (f.kind != DIFF), f.power


def _poles_and_kernel_shifts(reduced):
    """Each pole of a reduced term as its distance from the axis, and each
    variable's kernel shifts.

    Forms are scaled so that their first variable has coefficient 1, and
    their powers summed: a pole cancelled by a zero of the same form is
    dropped.  The scaling makes the 1/(2w) of a PROD factor at w = 0 the
    same form as the zero of a kernel at shift 0 on that variable.  A pole
    of w_a +- w_b + c or w + c lies |c| from the axis in w_a or w.
    """
    from fractions import Fraction
    from asep_lab.residues import F_OVER_Z
    net, shifts = {}, {}
    for f in reduced.factors:
        coeffs, const, power = _affine_form(f)
        if f.kind == F_OVER_Z:
            shifts.setdefault(f.a.var, []).append(const)
        live = sorted((v, c) for v, c in coeffs.items() if c)
        if not live:
            assert const != 0, f"{f} reads 0"
            continue
        lead = live[0][1]
        key = (tuple((v, Fraction(c, lead)) for v, c in live), Fraction(const, lead))
        net[key] = net.get(key, 0) + power
    poles = [abs(const) for (_, const), power in net.items() if power < 0]
    return poles, shifts


@pytest.mark.parametrize("n", [1, 2, 3])
def test_residue_terms_meet_the_grid_rules_bounds(n):
    # `_residue_grids` assumes, for every term of n <= 3: every pole at
    # least 1 from the axis, and the kernels' shifts e in 0..n-1, at most n
    # a variable, summing to at most n(n-1)/2 on a variable (its growth
    # term) and in squares to at most sum_{e<n} e^2 over the term (its
    # cancellation term), which some term attains.  The Robin kernel's pole
    # at L = -A then lies A + e >= A from the axis.  At n = 4 the same walk
    # finds poles on the axis (ROADMAP item 3's on-contour poles), so the
    # rule bounds nothing there; its n = 4 values are checked against a
    # finer spacing instead (CHANGES.md).
    from asep_lab.kpz import _reduce_additive
    from asep_lab.partitions import canonical_diagrams, partitions_of
    from asep_lab.residues import build_phi
    phi, squares = build_phi(range(n)), []
    for lam in partitions_of(n):
        for diagram in canonical_diagrams(lam):
            poles, shifts = _poles_and_kernel_shifts(_reduce_additive(diagram, phi))
            assert all(d >= 1 for d in poles), (diagram, poles)
            for es in shifts.values():
                assert len(es) <= n and all(0 <= e <= n - 1 for e in es), (diagram, shifts)
                assert sum(es) <= n * (n - 1) // 2, (diagram, shifts)
            squares.append(sum(e * e for es in shifts.values() for e in es))
    assert max(squares) == sum(e * e for e in range(n)) == (0, 1, 5)[n - 1]


def _nested_pole_distances(n, offsets, A):
    """The distance from each line to every pole of the unreduced integrand,
    with every variable but one on its line: |L(r)| for a pair factor
    1/L(w), and |L(r) + A| for the Robin kernel's pole at L = -A."""
    from asep_lab.residues import F_OVER_Z, build_phi
    distances = []
    for f in build_phi(range(n)):
        coeffs, const, power = _affine_form(f)
        assert {abs(c) for c in coeffs.values()} == {1}, f
        real = sum(c * offsets[v - 1] for v, c in coeffs.items()) + const
        if f.kind == F_OVER_Z:
            if A is not None:
                distances.append(abs(real + A))
        elif power < 0:
            distances.append(abs(real))
    return distances


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("boundary", [dict(A=0.3), dict(A=1.0), dict(boundary=DIRICHLET)])
def test_nested_lines_keep_the_rules_distance_from_every_pole(n, boundary):
    # `_line_spacing` assumes every pole of the nested integrand at least d
    # from each line, at the offsets delta k that `_nested_lines` picks
    from asep_lab.kpz import _nested_lines
    picked = set()
    for t in (0.05, 0.5, 0.7, 2.0, 10.0):
        kpz = KpzParams(t=t, x=(0.1, 0.4, 0.9, 1.2)[:n], **boundary)
        lines = _nested_lines(kpz)
        if lines is None:           # delta = 1.25 costs too much: offsets 1.25 k
            continue
        offsets, d = lines
        delta = offsets[1] if n > 1 else 0.0
        picked.add(delta)
        assert offsets == tuple(delta * k for k in range(n))
        distances = _nested_pole_distances(n, offsets, kpz.A)
        assert all(dist >= d - 1e-15 for dist in distances), (t, offsets, d, distances)
        if n > 1:   # at n = 1, d is the residue form's min(1, A), attained for A <= 1
            assert min(distances) == pytest.approx(d, abs=1e-15), (t, offsets, d, distances)
    assert n == 1 or 1.5 in picked and len(picked) > 1


# the residue form at t = 0.05, A = 0.5 on the 0.05 / sqrt(t) spacing read
# 2.7e-6 (n = 1), 2e-6 (n = 2) and 7e-4 (n = 3) off
FINE_SPACING = 0.0125
SWEEP_T = (0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0)
SWEEP_BOUNDARY = [dict(A=0.5), dict(A=1.0), dict(A=2.0), dict(boundary=DIRICHLET)]


def _against_a_finer_spacing(kpz):
    fine = _residue_on(kpz, FINE_SPACING / math.sqrt(kpz.t))
    return abs(she_moment_residue_form(kpz) - fine) / fine


@pytest.mark.parametrize("n", [1, 2, 3])
def test_residue_form_right_at_small_t(n):
    kpz = KpzParams(t=0.05, x=DENSE_X[n], A=0.5)
    assert _against_a_finer_spacing(kpz) < 1e-12


@pytest.mark.parametrize("n", [1, 2])
def test_residue_form_matches_a_finer_spacing(n):
    for t in SWEEP_T:
        for boundary in SWEEP_BOUNDARY:
            kpz = KpzParams(t=t, x=DENSE_X[n], **boundary)
            assert _against_a_finer_spacing(kpz) < 1e-12, (t, boundary)


@pytest.mark.parametrize("t, boundary", [(0.1, dict(A=1.0)), (0.2, dict(A=0.5)),
                                         (1.0, dict(boundary=DIRICHLET)), (2.0, dict(A=2.0))])
def test_three_point_residue_form_matches_a_finer_spacing(t, boundary):
    # a Tier-1-sized subset of the n = 3 sweep; from t = 5 the values sit at
    # the residue form's cancellation floor (CHANGES.md)
    assert _against_a_finer_spacing(KpzParams(t=t, x=DENSE_X[3], **boundary)) < 1e-12


@pytest.mark.parametrize("n", [1, 3])
def test_residue_form_refuses_a_grid_above_the_node_cap(n):
    # at t = 1e-12 the rule asks for about 3e17 nodes a line; n = 1 holds no
    # N x N buffer, so no workspace cap would stop it first
    with pytest.raises(ValidityError, match=r"t=1e-12 needs \d+ line nodes .* cap of 8192"):
        she_moment_residue_form(KpzParams(t=1e-12, x=DENSE_X[n], A=1.0))


# the default nested form on 0.05 / sqrt(t) with offsets 1.25 k read 2.7e-6
# (n = 1), 2.4e-3 (n = 2) and 5.1e-4 (n = 3) off a 2x finer grid at t = 0.05
NESTED_T = (0.05, 0.1, 0.2, 0.5, 1.0, 2.0)


def _nested_against_a_finer_grid(kpz):
    """The default nested value against the same lines at half its spacing."""
    from asep_lab.kpz import _nested_grids
    grids = _nested_grids(kpz)
    w = grids[0][0]
    spacing = (w[1] - w[0]).imag
    fine = _nested_on(kpz, tuple(g[0][0].real for g in grids), spacing / 2)
    return abs(she_moment_nested(kpz) - fine) / fine


@pytest.mark.parametrize("n", [1, 2])
def test_nested_form_matches_a_finer_grid(n):
    for t in NESTED_T:
        for boundary in SWEEP_BOUNDARY:
            kpz = KpzParams(t=t, x=DENSE_X[n], **boundary)
            assert _nested_against_a_finer_grid(kpz) < 1e-12, (t, boundary)


@pytest.mark.parametrize("t, boundary", [(0.05, dict(A=1.0)), (0.1, dict(boundary=DIRICHLET)),
                                         (0.2, dict(A=0.5)), (0.5, dict(A=2.0)),
                                         (1.0, dict(A=0.5)), (2.0, dict(boundary=DIRICHLET))])
def test_three_point_nested_form_matches_a_finer_grid(t, boundary):
    # a Tier-1-sized subset of the n = 3 sweep
    assert _nested_against_a_finer_grid(KpzParams(t=t, x=DENSE_X[3], **boundary)) < 1e-12


@pytest.mark.parametrize("n, t, n_nodes", [(3, 3.0, 376), (2, 14.0, 382)])
@pytest.mark.parametrize("boundary", [dict(A=1.0), dict(boundary=DIRICHLET)])
def test_nested_form_right_where_its_offsets_stay_at_one_and_a_quarter(n, t, n_nodes, boundary):
    # where delta = 1.25 already costs more than NESTED_CANCELLATION the
    # lines sit at 1.25 k on 0.05 / sqrt(t); these values sit within 3e-13
    # (Robin) and 7e-12 (Dirichlet) of a 2x finer grid
    from asep_lab.kpz import _nested_grids, _nested_lines
    kpz = KpzParams(t=t, x=DENSE_X[n], **boundary)
    assert _nested_lines(kpz) is None
    grids = _nested_grids(kpz)
    assert tuple(g[0][0].real for g in grids) == tuple(1.25 * k for k in range(n))
    assert {len(w) for w, _ in grids} == {n_nodes}
    assert she_moment_nested(kpz) == pytest.approx(she_moment_residue_form(kpz), rel=1e-10)


@pytest.mark.parametrize("A", [0.01, 0.1])
def test_nested_form_near_the_robin_pole_is_right_or_refused(A):
    # on 0.05 / sqrt(t) these read +0.56 % (A = 0.01) and 8.4e-7 (A = 0.1) off
    exact = robin_halfline_first_moment_exact(A, 1.0, 0.5)
    try:
        value = she_moment_nested(KpzParams(t=1.0, x=(0.5,), A=A))
    except ValidityError as refusal:
        assert "line nodes" in str(refusal)
        return
    assert abs(value - exact) < 1e-10 * exact


@pytest.mark.parametrize("kwargs", [dict(t=math.inf, x=(0.5,), A=1.0),
                                    dict(t=math.nan, x=(0.5,), A=1.0),
                                    dict(t=1.0, x=(math.nan,), A=1.0),
                                    dict(t=1.0, x=(0.5, math.inf), A=1.0),
                                    dict(t=1.0, x=(0.5,), A=math.nan),
                                    dict(t=1.0, x=(0.5,), A=math.inf),
                                    dict(t=1.0, x=(0.5,), A=math.nan, boundary=DIRICHLET)])
def test_params_reject_non_finite(kwargs):
    with pytest.raises(ValidityError, match="finite"):
        KpzParams(**kwargs)


@pytest.mark.parametrize("kwargs", [dict(spacing=-0.05), dict(spacing=math.inf),
                                    dict(spacing=0.0), dict(spacing=math.nan)])
def test_she_grids_refuse_a_spacing_that_is_not_positive_and_finite(kwargs):
    # a negative or infinite spacing would lay no nodes and read 0.0, and a
    # zero one would divide by zero
    from asep_lab.kpz import she_grids
    with pytest.raises(ValidityError, match="line spacing|infinitely many"):
        she_grids(1.0, (0.0,), 0.0, **kwargs)


# scaled_asep_moment values taken before the kernels were summed into one
# exponent per variable; every finite value stays put
PINNED_BRIDGE = [
    (ROBIN, (1.0,), 0.2, 0.4009016176946536),
    (ROBIN, (1.0,), 0.005, 0.30843572538178143),
    (ROBIN, (0.5, 1.0), 0.2, 0.34585843623969015),
    (ROBIN, (0.5, 1.0), 0.05, 0.353957279289161),
    (DIRICHLET, (1.0,), 0.02, 0.970739355048257),
    (DIRICHLET, (0.5, 1.0), 0.1, 1.503941832023586),
    (DIRICHLET, (0.5, 1.0), 0.05, 1.736105168923662),
]


def _bridge_params(boundary, x):
    if boundary == ROBIN:
        return KpzParams(t=1.0, x=x, A=1.0)
    return KpzParams(t=1.0, x=x, boundary=DIRICHLET)


@pytest.mark.parametrize("boundary, x, eps, value", PINNED_BRIDGE)
def test_bridge_values_pinned(boundary, x, eps, value):
    got = scaled_asep_moment(eps, _bridge_params(boundary, x))
    assert got == pytest.approx(value, rel=1e-13, abs=0)


@pytest.mark.parametrize("boundary", [ROBIN, DIRICHLET])
@pytest.mark.parametrize("eps", [0.02, 0.01, 0.005])
def test_two_point_bridge_finite_at_small_eps(boundary, eps):
    # each F-kernel's exponent alone overflows here; their sum per variable
    # has bounded real part on the contour
    value = scaled_asep_moment(eps, _bridge_params(boundary, (0.5, 1.0)))
    assert math.isfinite(value) and value > 0


# float.hex of both SHE forms taken before the residue reduction was shared
# with the lattice moments; n = 4 on a coarser node spacing to keep the test
# short (the pin checks the code path, not accuracy)
PINNED_SHE = [
    (ROBIN, (0.5,), 0.5, 0.5, 0.05, '0x1.5cddf3b6b8366p-1', '0x1.5cddf3b6b8366p-1'),
    (ROBIN, (0.5,), 0.5, 2.0, 0.05, '0x1.82f323d92d20ep-2', '0x1.82f323d92d20ep-2'),
    (DIRICHLET, (0.5,), 0.5, None, 0.05, '0x1.c1efca49a5014p+0', None),
    (ROBIN, (0.5,), 1.0, 0.5, 0.05, '0x1.e4a5c5b60cab6p-2', '0x1.e4a5c5b60cab6p-2'),
    (ROBIN, (0.5,), 1.0, 2.0, 0.05, '0x1.a45118c58bcc8p-3', '0x1.a45118c58bcc8p-3'),
    (DIRICHLET, (0.5,), 1.0, None, 0.05, '0x1.6883d022086b4p-1', None),
    (ROBIN, (0.2, 0.7), 0.5, 0.5, 0.05, '0x1.fa2e95845de42p-1', '0x1.fa2e958528358p-1'),
    (ROBIN, (0.2, 0.7), 0.5, 2.0, 0.05, '0x1.053762c929e3ep-2', '0x1.053762c97fcbep-2'),
    (DIRICHLET, (0.2, 0.7), 0.5, None, 0.05, '0x1.bbe5187aea336p+1', None),
    (ROBIN, (0.2, 0.7), 1.0, 0.5, 0.05, '0x1.9efef104cb88cp-1', '0x1.9efef104cb8dfp-1'),
    (ROBIN, (0.2, 0.7), 1.0, 2.0, 0.05, '0x1.e1beb2f26f33cp-4', '0x1.e1beb2f26f378p-4'),
    (DIRICHLET, (0.2, 0.7), 1.0, None, 0.05, '0x1.be1eed76d1104p-1', None),
    (ROBIN, (0.1, 0.4, 0.9), 0.5, 0.5, 0.05, '0x1.83a911d6c809bp+1', '0x1.83a911d82e482p+1'),
    (ROBIN, (0.1, 0.4, 0.9), 0.5, 2.0, 0.05, '0x1.5883ead0315dfp-2', '0x1.5883ead10131fp-2'),
    (DIRICHLET, (0.1, 0.4, 0.9), 0.5, None, 0.05, '0x1.67aa10aacd5f0p+3', None),
    (ROBIN, (0.1, 0.4, 0.9), 1.0, 0.5, 0.05, '0x1.847f5a4d3b984p+2', '0x1.847f5a4d3ba3bp+2'),
    (ROBIN, (0.1, 0.4, 0.9), 1.0, 2.0, 0.05, '0x1.e7e638d70b4b8p-3', '0x1.e7e638d70b511p-3'),
    (DIRICHLET, (0.1, 0.4, 0.9), 1.0, None, 0.05, '0x1.8c57b1365f5a1p+1', None),
    (ROBIN, (0.1, 0.3, 0.6, 1.0), 0.5, 0.5, 0.2, '0x1.a09738c128616p+4', '0x1.a32a914bc5605p+4'),
    (ROBIN, (0.1, 0.3, 0.6, 1.0), 0.5, 2.0, 0.2, '0x1.32b294534d20cp+0', '0x1.33cb0b6b6ec4cp+0'),
    (DIRICHLET, (0.1, 0.3, 0.6, 1.0), 0.5, None, 0.2, '0x1.45f160862f25dp+7', None),
    (ROBIN, (0.1, 0.3, 0.6, 1.0), 1.0, 0.5, 0.2, '0x1.3742042fb7211p+8', '0x1.377db02752621p+8'),
    (ROBIN, (0.1, 0.3, 0.6, 1.0), 1.0, 2.0, 0.2, '0x1.3448e777fe882p+1', '0x1.344f36035db04p+1'),
    (DIRICHLET, (0.1, 0.3, 0.6, 1.0), 1.0, None, 0.2, '0x1.4f564aca671c5p+6', None),
]


@pytest.mark.parametrize("boundary, x, t, A, spacing, nested, residue", PINNED_SHE)
def test_she_values_pinned(boundary, x, t, A, spacing, nested, residue):
    kpz = KpzParams(t=t, x=x, A=A, boundary=boundary)
    spacing /= math.sqrt(t)
    assert _nested_on(kpz, tuple(1.25 * k for k in range(len(x))), spacing).hex() == nested
    if residue is not None:
        assert _residue_on(kpz, spacing).hex() == residue


THREE_POINTS = (0.1, 0.4, 0.9)


@pytest.mark.parametrize("form, offsets, reach", [
    (she_moment_nested, (0.0, 1.5, 3.0), 3.0),
    (she_moment_residue_form, (0.0,) * 3, 2.0)])
def test_she_call_holds_one_workspace(form, offsets, reach):
    # n(n-1)/2 pair matrices and two spares at most, on the grid the call
    # builds: each term used to get new pair matrices and contraction
    # temporaries (a peak of 8.9 MiB at A = 1 on 338 nodes).  At A = 1 the
    # residue rule lays 152 nodes, where numpy's 128 KiB ufunc buffers and
    # the memo's O(N) values outweigh the one free N x N array of the bound;
    # the pole at -0.5 doubles that count
    import tracemalloc
    from asep_lab.kpz import TAIL_TOL, _nested_grids, _residue_grids
    kpz = KpzParams(t=0.5, x=THREE_POINTS, A=0.5)
    residue = form is she_moment_residue_form
    grids = (_residue_grids if residue else _nested_grids)(kpz)
    w = grids[0][0]
    y_max = math.sqrt(reach ** 2 + 2 * math.log(1e3 / TAIL_TOL) / kpz.t)
    assert tuple(g[0][0].real for g in grids) == offsets
    n_nodes = len(w)
    assert n_nodes == 2 * math.ceil(y_max / (w[1] - w[0]).imag) == (288 if residue else 308)
    tracemalloc.start()
    try:
        form(kpz)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (3 + 2) * n_nodes ** 2 * 16


@pytest.mark.parametrize("moment, arrays", [
    (lambda params: q_moment(0.5, (1, 3, 5, 6), params), 16),
    (lambda params: free_evolution_residuals(0.7, (1, 2, 4), params), 10)])
def test_moment_call_holds_one_workspace(moment, arrays):
    # a pass builds, contracts and drops one diagram at a time in one
    # workspace: eight 112^2 arrays at n = 4, five 128^2 arrays for the 3-D
    # diagram of a many-point n = 3 pass.  All diagrams of a grid used to be
    # held at once (peaks of 96 arrays of 128^2 at n = 4 and 15 at n = 3)
    import tracemalloc
    from fractions import Fraction
    params = ModelParams.from_density(1, Fraction(1, 2), Fraction(9, 10))
    n_nodes = QuadratureSpec().nodes(3)
    assert n_nodes == 128
    tracemalloc.start()
    try:
        moment(params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < arrays * n_nodes ** 2 * 16


@pytest.mark.parametrize("boundary", [{"A": 1.0}, {"boundary": DIRICHLET}])
@pytest.mark.parametrize("t", [20.0, 200.0])
def test_nested_form_refuses_a_value_that_cannot_be_a_moment(boundary, t):
    # Z > 0 off the Dirichlet wall; at t = 20 these read -9.49e12 (Robin) and
    # -6.54e13 (Dirichlet), at t = 200 nan, and were returned
    with pytest.raises(ArithmeticError, match="nested form"):
        she_moment_nested(KpzParams(t=t, x=THREE_POINTS, **boundary))


def test_residue_form_refuses_a_value_that_cannot_be_a_moment():
    # at t = 400 the residue form's sum overflows to nan
    with pytest.raises(ArithmeticError, match="residue form"):
        she_moment_residue_form(KpzParams(t=400.0, x=THREE_POINTS, A=1.0))


@pytest.mark.parametrize("t", [1.0, 10.0, 20.0])
def test_dirichlet_moment_at_the_wall_may_read_zero(t):
    # Z(t, 0) = 0, so both forms return it exactly; the nested form used to
    # read -0.0296 at t = 10 and -1.07e13 at t = 20
    kpz = KpzParams(t=t, x=(0.0, 0.4, 0.9), boundary=DIRICHLET)
    assert she_moment_residue_form(kpz) == 0.0
    assert she_moment_nested(kpz) == 0.0


def test_she_forms_refuse_more_than_four_points():
    kpz = KpzParams(t=1.0, x=(0.1, 0.2, 0.3, 0.4, 0.5), A=1.0)
    with pytest.raises(ValidityError, match="n <= 4"):
        she_moment_nested(kpz)
    with pytest.raises(ValidityError, match="n <= 4"):
        she_moment_residue_form(kpz)


def test_pde_oracle_refuses_time_zero():
    with pytest.raises(ValidityError, match="t > 0"):
        robin_pde_first_moment(1.0, 0.0, 0.5)
