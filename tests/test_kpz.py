import math

import numpy as np
import pytest

from asep_lab.kpz import (DIRICHLET, ROBIN, ContourSpec, KpzParams,
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


def test_contour_spec_ordering():
    with pytest.raises(ValidityError):
        ContourSpec((0.0, 0.9))     # gap must exceed 1
    with pytest.raises(ValidityError):
        ContourSpec((0.5, 2.0))     # first line must be the axis
    spec = ContourSpec.default(3)
    assert spec.offsets[0] == 0.0


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
    base = she_moment_nested(k2, ContourSpec((0.0, 1.25)))
    moved = she_moment_nested(k2, ContourSpec((0.0, 1.35)))
    assert abs(base - moved) < 1e-8


def test_tail_truncation_controlled():
    k2 = KpzParams(t=0.5, x=(0.2, 0.7), A=1.0)
    loose = she_moment_nested(k2, ContourSpec((0.0, 1.25), tail_tol=1e-10))
    tight = she_moment_nested(k2, ContourSpec((0.0, 1.25), tail_tol=1e-14))
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

def _dense_grids(kpz, offsets, tail_tol, spacing_factor, r_max):
    from asep_lab.kpz import she_grids
    return she_grids(kpz.t, offsets, r_max, tail_tol, spacing_factor)


def _dense_nested(kpz, contours):
    from asep_lab.kpz import _kernel
    from asep_lab.quadrature import contract_factored
    n = kpz.n
    grids = _dense_grids(kpz, contours.offsets, contours.tail_tol,
                         contours.spacing_factor, max(contours.offsets))
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
    from asep_lab.kpz import _reduce_additive
    from asep_lab.partitions import canonical_diagrams, partitions_of
    from asep_lab.quadrature import contract_factored
    from asep_lab.residues import build_phi
    n = kpz.n
    grids = _dense_grids(kpz, (0.0,) * n, 1e-12, 0.05, n - 1.0)
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
    specs = [None] + ([ContourSpec((0.0, 1.35, 2.7)[:n])] if n > 1 else [])
    for spec in specs:
        want = _dense_nested(kpz, spec or ContourSpec.default(n))
        assert she_moment_nested(kpz, spec) == pytest.approx(want, rel=1e-13)


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


@pytest.mark.parametrize("kwargs", [dict(offsets=(0.0, math.nan)),
                                    dict(offsets=(0.0, math.inf)),
                                    dict(offsets=(0.0,), tail_tol=math.nan),
                                    dict(offsets=(0.0,), tail_tol=0.0),
                                    dict(offsets=(0.0,), tail_tol=-1e-12),
                                    dict(offsets=(0.0,), tail_tol=math.inf),
                                    dict(offsets=(0.0,), spacing_factor=math.nan),
                                    dict(offsets=(0.0,), spacing_factor=0.0),
                                    dict(offsets=(0.0,), spacing_factor=-0.05),
                                    dict(offsets=(0.0,), spacing_factor=math.inf)])
def test_contour_spec_rejects_non_finite_or_non_positive(kwargs):
    with pytest.raises(ValidityError):
        ContourSpec(**kwargs)


@pytest.mark.parametrize("kwargs", [dict(spacing_factor=-0.05), dict(spacing_factor=math.inf),
                                    dict(spacing_factor=0.0), dict(spacing_factor=math.nan),
                                    dict(tail_tol=0.0), dict(tail_tol=math.nan),
                                    dict(tail_tol=1.0)])
def test_residue_form_rejects_the_grids_contour_spec_rejects(kwargs):
    # a negative or infinite spacing used to return 0.0, a zero one to divide
    # by zero, and a NaN tail to fail converting NaN to an integer
    with pytest.raises(ValidityError):
        she_moment_residue_form(KpzParams(t=1.0, x=(0.5,), A=1.0), **kwargs)


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
    contours = ContourSpec(ContourSpec.default(len(x)).offsets, spacing_factor=spacing)
    assert she_moment_nested(kpz, contours).hex() == nested
    if residue is not None:
        assert she_moment_residue_form(kpz, spacing_factor=spacing).hex() == residue


THREE_POINTS = (0.1, 0.4, 0.9)


@pytest.mark.parametrize("form, offsets, reach", [
    (she_moment_nested, ContourSpec.default(3).offsets, 2.5),
    (she_moment_residue_form, (0.0,) * 3, 2.0)])
def test_she_call_holds_one_workspace(form, offsets, reach):
    # n(n-1)/2 pair matrices and two spares at most: each term used to get
    # new pair matrices and contraction temporaries (a peak of 8.9 MiB at this input)
    import tracemalloc
    from asep_lab.kpz import SPACING_FACTOR, TAIL_TOL, she_grids
    kpz = KpzParams(t=0.5, x=THREE_POINTS, A=1.0)
    n_nodes = len(she_grids(kpz.t, offsets, reach, TAIL_TOL, SPACING_FACTOR)[0][0])
    assert n_nodes in (338, 340)
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


def test_nested_form_needs_one_contour_per_point():
    with pytest.raises(ValidityError, match="one contour offset per point"):
        she_moment_nested(KpzParams(t=1.0, x=(0.1, 0.4), A=1.0), ContourSpec.default(3))


def test_pde_oracle_refuses_time_zero():
    with pytest.raises(ValidityError, match="t > 0"):
        robin_pde_first_moment(1.0, 0.0, 0.5)
