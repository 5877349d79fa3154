from fractions import Fraction as F

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from asep_lab.duality import apply_generator, dual_moves, dual_segment_diagonal
from asep_lab.model import SegmentParams, SegmentState, ValidityError
from asep_lab.segment_ode import (build_dual_matrix, chamber,
                                  check_segment_free_evolution, solve_u,
                                  stationary_distribution)

SEG = SegmentParams.from_densities(1, F(1, 2), F(3, 4), F(1, 3), 4)


def test_chamber_enumeration_colex():
    assert chamber(4, 2) == [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4)]
    assert len(chamber(5, 2)) == 10
    with pytest.raises(ValidityError):
        chamber(3, 4)


def test_two_site_matrix_by_hand():
    sp = SegmentParams.from_densities(1, F(1, 2), F(3, 4), F(1, 3), 2)
    dm = build_dual_matrix(sp, 1)
    rows = _dense_rows(sp, 1)
    p, q = sp.p_rate, sp.q_rate
    pq = p - q
    assert dm.vectors == [(1,), (2,)]
    assert rows[0] == [-q - pq * sp.rho0, q]
    assert rows[1] == [p, -p + pq * sp.rho_ell]
    assert dm.matrix.toarray().tolist() == [[float(v) for v in row] for row in rows]


def test_matrix_equals_generator_application():
    dm = build_dual_matrix(SEG, 2)
    rows = _dense_rows(SEG, 2)
    image = dm.matrix.toarray()
    for j, y in enumerate(dm.vectors):
        indicator = lambda x, y=y: F(1) if tuple(x) == y else F(0)
        for i, x in enumerate(dm.vectors):
            applied = apply_generator(dual_moves(SEG, x, 1, SEG.ell), indicator, x,
                                      dual_segment_diagonal(SEG, x))
            assert applied == rows[i][j]
            assert float(applied) == image[i, j]


def test_closed_boundaries_zero_row_sums_and_constant_solution():
    closed = SegmentParams.from_densities(1, F(1, 2), 0, 0, 4)
    assert all(sum(row) == 0 for row in _dense_rows(closed, 2))
    assert not build_dual_matrix(closed, 2).matrix.sum(axis=1).any()
    sol = solve_u(3.0, SegmentState.empty(4), closed, 2)
    assert np.allclose(sol.values, 1.0, atol=1e-12)


def test_solve_t0_returns_initial_observable():
    initial = SegmentState((1, 0, 1), 0)
    sol = solve_u(0.0, initial, SEG, 2)
    from asep_lab.model import h_product_segment
    for x in sol.dual.vectors:
        assert sol.value(x) == float(h_product_segment(initial.eta, 0, x, float(SEG.q)))


def test_semigroup_property():
    dm = build_dual_matrix(SEG, 2)
    s1 = solve_u(0.7, SegmentState.empty(4), SEG, 2)
    mid = s1.values
    prop = scipy.linalg.expm(0.5 * dm.matrix.toarray())
    two_step = prop @ mid
    direct = solve_u(1.2, SegmentState.empty(4), SEG, 2).values
    assert np.max(np.abs(two_step - direct)) < 1e-10


def test_free_evolution_reformulation():
    for n in (1, 2):
        rep = check_segment_free_evolution(1.0, SegmentState.empty(4), SEG, n)
        assert rep.max_residual() < 1e-9
    rep = check_segment_free_evolution(0.0, SegmentState((1, 1, 0), 1), SEG, 2)
    assert rep.max_residual() < 1e-9


def test_liggett_required_for_solver():
    bad = SegmentParams(1, F(1, 2), F(3, 4), F(1, 7), ell=4, beta=F(1, 2), delta=F(1, 2))
    with pytest.raises(ValidityError):
        solve_u(1.0, SegmentState.empty(4), bad, 1)


WIDE = SegmentParams.from_densities(1, F(1, 2), F(1, 2), F(1, 2), 40)


@pytest.mark.parametrize("call", [
    lambda: build_dual_matrix(WIDE, 20),
    lambda: solve_u(1.0, SegmentState.empty(40), WIDE, 20),
    lambda: check_segment_free_evolution(1.0, SegmentState.empty(40), WIDE, 20),
], ids=["build_dual_matrix", "solve_u", "check_segment_free_evolution"])
def test_chamber_above_cap_is_refused_before_enumerating(call, monkeypatch):
    # C(40, 20) = 137,846,528,820 site vectors would exhaust memory
    import asep_lab.segment_ode as segment_ode

    calls = []
    monkeypatch.setattr(segment_ode, "chamber_vectors", lambda *args: calls.append(args) or [])
    with pytest.raises(ValidityError, match="cap of 100000"):
        call()
    assert calls == []


def test_solve_above_work_cap_is_refused_before_solving(monkeypatch):
    # t = 1e6 at C(12, 6) = 924 needs about 2.1 million sub-steps, hours of work
    import time
    import asep_lab.segment_ode as segment_ode

    calls = []
    monkeypatch.setattr(segment_ode, "expm", lambda *args: calls.append(args))
    sp = SegmentParams.from_densities(1, F(1, 2), F(1, 2), F(1, 2), 12)
    start = time.monotonic()
    with pytest.raises(ValidityError, match="sub-steps"):
        solve_u(1e6, SegmentState.empty(12), sp, 6)
    assert time.monotonic() - start < 1.0
    assert calls == []


def test_stationary_distribution_is_probability():
    pi = stationary_distribution(SEG)
    vals = np.array(list(pi.values()))
    assert abs(vals.sum() - 1) < 1e-12
    assert (vals > 0).all()


def test_simulated_time_derivative_consistent_with_generator():
    # central finite difference of the empirical E[H] across t = 1 should
    # agree statistically with the generator applied to the ODE solution
    from asep_lab.simulate import SimConfig, estimate
    x = (1, 3)
    dt = 0.25
    means, ses = [], []
    for i, t in enumerate((1.0 - dt, 1.0 + dt)):
        cfg = SimConfig(SEG, t, 30000, seed=100 + i, observables=(x,))
        est = estimate(cfg)[0]
        means.append(est.mean)
        ses.append(est.std_error)
    fd = (means[1] - means[0]) / (2 * dt)
    fd_se = (ses[0] ** 2 + ses[1] ** 2) ** 0.5 / (2 * dt)
    sol = solve_u(1.0, SegmentState.empty(4), SEG, 2)
    exact = sol.derivative[sol.dual.index[x]]
    assert abs(fd - exact) <= 4 * fd_se + 0.01  # allowance for O(dt^2) curvature


def _dense_rows(params, n):
    """Dense Fraction generator rows filled entry by entry over the chamber."""
    vectors = chamber(params.ell, n)
    index = {v: i for i, v in enumerate(vectors)}
    rows = [[F(0)] * len(vectors) for _ in vectors]
    for i, x in enumerate(vectors):
        diag = dual_segment_diagonal(params, x)
        for rate, y in dual_moves(params, x, 1, params.ell):
            rows[i][index[y]] += rate
            diag -= rate
        rows[i][i] += diag
    return rows


def test_matrix_bit_equal_to_dense_construction():
    closed = SegmentParams.from_densities(1, F(1, 2), 0, 0, 6)
    open_ = SegmentParams.from_densities(3, F(2, 7), F(5, 6), F(1, 6), 6)
    for sp in (closed, open_, SEG):
        for n in (1, 2, 3):
            rows = _dense_rows(sp, n)
            dense = np.array([[float(v) for v in row] for row in rows])
            image = build_dual_matrix(sp, n).matrix.toarray()
            assert image.dtype == dense.dtype and image.shape == dense.shape
            assert image.tobytes() == dense.tobytes()
            assert all(type(v) is F for row in rows for v in row)


@pytest.mark.parametrize("ell", range(4, 9))
def test_solve_matches_dense_exponential(ell):
    sp = SegmentParams.from_densities(1, F(1, 2), F(3, 4), F(1, 3), ell)
    initial = SegmentState(tuple(i % 2 for i in range(ell - 1)), 1)
    for n in (1, 2, 3):
        dm = build_dual_matrix(sp, n)
        dense = dm.matrix.toarray()
        u0 = solve_u(0.0, initial, sp, n).values
        for t in (0.0, 0.7, 2.0):
            sol = solve_u(t, initial, sp, n)
            assert np.max(np.abs(sol.values - scipy.linalg.expm(t * dense) @ u0)) < 1e-13
            assert sol.solver_error < 1e-13


def test_solve_is_sparse_deterministic_and_leaves_global_rng_alone():
    # at t = 20 one expm_multiply call over t would reach for onenormest,
    # which draws from numpy's global random state
    import tracemalloc
    sp = SegmentParams.from_densities(1, F(1, 2), F(3, 4), F(1, 3), 12)
    before = np.random.get_state()
    tracemalloc.start()
    try:
        first = solve_u(20.0, SegmentState.empty(12), sp, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    second = solve_u(20.0, SegmentState.empty(12), sp, 6)
    after = np.random.get_state()
    assert scipy.sparse.issparse(first.dual.matrix) and first.dual.dimension == 924
    assert peak < 924 * 924 * 8 / 2  # no dense dim x dim float array
    assert first.values.tobytes() == second.values.tobytes()
    assert first.solver_error == second.solver_error < 1e-13
    assert before[0] == after[0] and np.array_equal(before[1], after[1])
    assert before[2:] == after[2:]


@pytest.mark.parametrize("x, t", [((1, 3), 1.0), ((1, 2, 4), 0.5)])
def test_truncated_segment_reproduces_halfline_moment(x, t):
    # the half line's alpha and gamma at site 1, rho_ell = 1/2, empty start:
    # exp(tM) 1 on a long enough segment is the half-line q-moment
    from asep_lab.model import ModelParams
    from asep_lab.moments import q_moment
    half = ModelParams.from_density(1, F(1, 2), F(9, 10))
    values = []
    for ell in (16, 24):
        sp = SegmentParams.from_densities(1, F(1, 2), F(9, 10), F(1, 2), ell)
        assert (sp.alpha, sp.gamma) == (half.alpha, half.gamma)
        sol = solve_u(t, SegmentState.empty(ell), sp, len(x))
        assert np.all(solve_u(0.0, SegmentState.empty(ell), sp, len(x)).values == 1)
        values.append(sol.value(x))
    assert abs(values[0] - values[1]) < 1e-12  # the truncation at ell = 16 is confirmed
    assert abs(values[0] - q_moment(t, x, half).value) < 1e-12
