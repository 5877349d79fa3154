"""Acceptance suite: one check per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute.  Tolerances are pinned here and nowhere else.
"""

import itertools
import math
import time
from fractions import Fraction as F

import numpy as np

from asep_lab.duality import (chamber_vectors, exhaustive_states,
                              negative_control_no_liggett,
                              verify_fictitious_site, verify_fullspace_duality,
                              verify_halfline_duality, verify_segment_duality)
from asep_lab.kpz import (DIRICHLET, KpzParams, robin_pde_first_moment,
                          scaled_asep_moment, she_moment_nested,
                          she_moment_residue_form)
from asep_lab.model import ModelParams, SegmentParams, SegmentState
from asep_lab.moments import (QuadratureSpec, first_moment,
                              free_evolution_residuals, q_moment,
                              second_moment_explicit)
from asep_lab.partitions import count_diagrams, enumerate_diagrams, partitions_of
from asep_lab.segment_ode import solve_u
from asep_lab.simulate import SimConfig, dual_reweighted_estimate, estimate


def report(criterion: int, ok: bool, detail: str, started: float):
    status = "PASS" if ok else "FAIL"
    print(f"\n[acceptance {criterion:02d}] {status}  {detail}  "
          f"({time.time() - started:.1f}s)", flush=True)
    assert ok, f"criterion {criterion}: {detail}"


CHAMBERS = {
    1: [(1,), (2,), (3,), (5,), (8,)],
    2: [(1, 2), (1, 3), (2, 4), (3, 6), (1, 7)],
    3: [(1, 2, 3), (1, 3, 5), (2, 4, 6), (1, 2, 5), (3, 5, 8)],
    4: [(1, 2, 3, 4), (1, 3, 5, 6), (2, 4, 5, 7), (1, 2, 5, 8), (3, 4, 6, 9)],
}


def _quad_for(qv, x):
    """Node counts sized to the outer pole, whose order grows with max(x).

    The trapezoid error scales like sqrt(q)^N times a constant growing with
    the largest site, so slow-decay cases (q near 0.6, spread-out sites)
    get proportionally more nodes; defaults suffice elsewhere.
    """
    stretch = max(0, max(x) - 6)
    if float(qv) < 0.5 or stretch == 0:
        return None
    n3 = 128 + 22 * stretch
    n4 = 112 + 16 * stretch
    return QuadratureSpec((256, 160, n3 + n3 % 2, n4 + n4 % 2))


def test_criterion_1_initial_condition():
    t0 = time.time()
    worst = 0.0
    for qv in (F(3, 10), F(3, 5)):
        for rho in (F(85, 100), F(1)):
            params = ModelParams.from_density(1, qv, rho)
            for n in (1, 2, 3, 4):
                for x in CHAMBERS[n]:
                    dev = abs(q_moment(0.0, x, params, _quad_for(qv, x)).value - 1.0)
                    worst = max(worst, dev)
    report(1, worst < 1e-8, f"max |v_n(0) - 1| = {worst:.2e} over n<=4 (tol 1e-8)", t0)


def _independent_first_moment(t, x, params, n_nodes=256):
    """Plain-loop re-implementation of the one-dimensional integral."""
    q, p, rho = float(params.q), float(params.p_rate), float(params.rho)
    radius = 1.0 / math.sqrt(q)
    total = 0.0 + 0.0j
    for k in range(n_nodes):
        theta = 2.0 * math.pi * (k + 0.5) / n_nodes
        z = radius * complex(math.cos(theta), math.sin(theta))
        fx = ((1 - q * z * z) / (1 - z)
              * np.exp((1 - q) ** 2 * z * p * t / ((1 - z) * (1 - q * z)))
              * ((1 - z) / (1 - q * z)) ** x
              * rho / (rho + (1 - rho) * z))
        total += fx / n_nodes
    return total.real


def test_criterion_2_closed_forms():
    t0 = time.time()
    points = list(itertools.product((F(3, 10), F(1, 2), F(7, 10)),
                                    (F(8, 10), F(1)), (0.4, 1.5),
                                    ((1, 3), (2, 5))))[:20]
    assert len(points) == 20
    worst2 = 0.0
    for qv, rho, t, (x1, x2) in points:
        params = ModelParams.from_density(1, qv, rho)
        diff = abs(q_moment(t, (x1, x2), params).value
                   - second_moment_explicit(t, x1, x2, params))
        worst2 = max(worst2, diff)
    params = ModelParams.from_density(1, F(1, 2), F(9, 10))
    shared_path = all(first_moment(t, x, params) == q_moment(t, (x,), params).value
                      for t, x in ((0.5, 1), (1.0, 3)))
    worst1 = max(abs(first_moment(t, x, params) - _independent_first_moment(t, x, params))
                 for t, x in ((0.5, 1), (1.0, 3), (2.0, 2)))
    ok = worst2 < 1e-10 and shared_path and worst1 < 1e-12
    report(2, ok, f"|v_2 - explicit| <= {worst2:.2e} (tol 1e-10); "
                  f"v_1 path shared: {shared_path}; "
                  f"independent 1D integral dev {worst1:.2e} (tol 1e-12)", t0)


def test_criterion_3_ode_characterization():
    t0 = time.time()
    vectors = {1: [(2,)], 2: [(2, 3), (1, 4)], 3: [(1, 2, 4)]}
    worst = 0.0
    for rho in (F(9, 10), F(1)):
        params = ModelParams.from_density(1, F(1, 2), rho)
        for t in (0.5, 2.0):
            for n, xs in vectors.items():
                for x in xs:
                    rep = free_evolution_residuals(t, x, params)
                    worst = max(worst, rep.max_residual())
    report(3, worst < 1e-8, f"max ODE residual {worst:.2e} over n<=3 (tol 1e-8)", t0)


def _random_rational_params(rng):
    qv = F(int(rng.integers(1, 10)), 10)
    rho = F(int(rng.integers(1, 13)), 12)
    p = F(int(rng.integers(1, 4)), 1)
    return ModelParams.from_density(p, qv * p, rho)


def test_criterion_4_exact_duality():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    checks = 0
    all_zero = True
    for _ in range(3):
        params = _random_rational_params(rng)
        for eta in exhaustive_states(5):
            for n in (1, 2, 3):
                for x in chamber_vectors(1, 6, n):
                    all_zero &= verify_fullspace_duality(params, eta, x).residual == 0
                    all_zero &= verify_halfline_duality(params, eta, x).residual == 0
                    all_zero &= verify_fictitious_site(params, eta, x).residual == 0
                    checks += 3
    for _ in range(3):
        base = _random_rational_params(rng)
        rho_ell = F(int(rng.integers(1, 13)), 12)
        for ell in (2, 3, 4, 5):
            sp = SegmentParams.from_densities(base.p_rate, base.q_rate,
                                              base.rho, rho_ell, ell)
            for eta in itertools.product((0, 1), repeat=ell - 1):
                for n_ell in (0, 1):
                    for n in range(1, min(3, ell) + 1):
                        for x in chamber_vectors(1, ell, n):
                            all_zero &= verify_segment_duality(sp, eta, n_ell, x).residual == 0
                            checks += 1
    negative_ok = True
    nonzero_seen = False
    for _ in range(3):
        qv = F(int(rng.integers(1, 10)), 10)
        bad = ModelParams(1, qv, F(int(rng.integers(1, 10)), 10),
                          F(int(rng.integers(1, 10)), 10))
        if bad.liggett_ok():
            bad = ModelParams(1, qv, bad.alpha, bad.gamma + F(1, 11))
        for eta in exhaustive_states(4):
            for n in (1, 2, 3):
                for x in chamber_vectors(1, 5, n):
                    rep = negative_control_no_liggett(bad, eta, x)
                    side = rep.bulk_report if x[0] >= 2 else rep.corrected_report
                    negative_ok &= side.residual == 0
                    checks += 1
        probe = negative_control_no_liggett(bad, {1, 2}, (1, 2))
        nonzero_seen |= probe.plain_residual != 0
    ok = all_zero and negative_ok and nonzero_seen
    report(4, ok, f"{checks} exact residuals all zero; corrected no-Liggett identity "
                  f"holds; plain residual nonzero at x=(1,2): {nonzero_seen}", t0)


def test_criterion_5_monte_carlo_vs_formula():
    t0 = time.time()
    params = ModelParams.from_density(1, F(1, 2), F(9, 10))
    details = []
    ok = True
    for t in (1.0, 3.0):
        cfg = SimConfig(params, t, 100000, seed=2718, observables=((2,), (1, 4)))
        ests = estimate(cfg)
        exact = {(2,): first_moment(t, 2, params),
                 (1, 4): q_moment(t, (1, 4), params).value}
        for est in ests:
            z = abs(est.mean - exact[est.observable]) / est.std_error
            ok &= z <= 4.0
            details.append(f"t={t} x={est.observable}: z={z:.2f}")
    report(5, ok, "; ".join(details) + " (tol 4 SE, 1e5 trajectories)", t0)


def test_criterion_6_segment_ode_vs_simulation():
    t0 = time.time()
    sp = SegmentParams.from_densities(1, F(1, 2), F(3, 4), F(1, 3), 4)
    details = []
    ok = True
    sols = {n: solve_u(1.0, SegmentState.empty(4), sp, n) for n in (1, 2)}
    observables = {1: ((2,), (3,)), 2: ((1, 3), (2, 4))}
    for n in (1, 2):
        cfg = SimConfig(sp, 1.0, 100000, seed=577, observables=observables[n])
        for est in estimate(cfg):
            z = abs(est.mean - sols[n].value(est.observable)) / est.std_error
            ok &= z <= 4.0
            details.append(f"n={n} x={est.observable}: z={z:.2f}")
    dual = dual_reweighted_estimate(sp, (1, 3), 1.0, 100000, seed=809)
    zd = abs(dual.mean - sols[2].value((1, 3))) / dual.std_error
    ok &= zd <= 4.0
    details.append(f"reweighted dual (1,3): z={zd:.2f}")
    report(6, ok, "; ".join(details) + " (tol 4 SE)", t0)


def test_criterion_7_kpz_cross_form():
    t0 = time.time()
    spec = {2: (1e-6, ((0.2, 0.7), (0.5, 1.2))),
            3: (1e-5, ((0.1, 0.4, 0.9), (0.3, 0.8, 1.5)))}
    worst = {2: 0.0, 3: 0.0}
    for n, (tol, xs) in spec.items():
        for A in (0.5, 1.0, 2.0):
            for t in (0.5, 1.0):
                for x in xs:
                    kpz = KpzParams(t=t, x=x, A=A)
                    nested = she_moment_nested(kpz)
                    residue = she_moment_residue_form(kpz)
                    worst[n] = max(worst[n], abs(nested - residue) / abs(nested))
    ok = worst[2] < 1e-6 and worst[3] < 1e-5
    report(7, ok, f"rel |nested - residue|: n=2 {worst[2]:.2e} (tol 1e-6), "
                  f"n=3 {worst[3]:.2e} (tol 1e-5)", t0)


def test_criterion_8_kpz_first_moment_vs_pde():
    t0 = time.time()
    worst = 0.0
    for A in (1.0, 2.0):
        for t in (0.5, 1.0):
            for x in (0.25, 1.0):
                nested = she_moment_nested(KpzParams(t=t, x=(x,), A=A))
                pde = robin_pde_first_moment(A, t, x)
                worst = max(worst, abs(nested - pde.value) / abs(nested))
    report(8, worst < 1e-4, f"max rel |nested - Crank-Nicolson| = {worst:.2e} "
                            f"(tol 1e-4)", t0)


def test_criterion_9_weak_asymmetry_bridge():
    t0 = time.time()
    details = []
    ok = True
    for kpz in (KpzParams(t=1.0, x=(1.0,), A=1.0),
                KpzParams(t=1.0, x=(1.0,), boundary=DIRICHLET)):
        limit = she_moment_nested(kpz)
        diffs = [abs(scaled_asep_moment(eps, kpz) - limit)
                 for eps in (0.2, 0.1, 0.05)]
        ok &= diffs[0] > diffs[1] > diffs[2]
        details.append(f"{kpz.boundary}: diffs {diffs[0]:.3f} > {diffs[1]:.3f} "
                       f"> {diffs[2]:.3f}")
    report(9, ok, "; ".join(details) + " (strict decrease)", t0)


def _recursive_total(n: int) -> int:
    def rec(labels: frozenset, max_size: int) -> int:
        if not labels:
            return 1
        total = 0
        items = sorted(labels)
        for s in range(1, min(max_size, len(items)) + 1):
            for block in itertools.combinations(items, s):
                total += 2 ** (s - 1) * rec(labels - set(block), s)
        return total
    return rec(frozenset(range(1, n + 1)), n)


def test_criterion_10_combinatorics():
    t0 = time.time()
    formula_ok = all(len(enumerate_diagrams(lam)) == count_diagrams(lam)
                     for n in range(1, 9) for lam in partitions_of(n))
    totals_ok = all(sum(count_diagrams(lam) for lam in partitions_of(n))
                    == _recursive_total(n) for n in range(1, 7))
    report(10, formula_ok and totals_ok,
           f"counts match enumeration for all partitions n<=8: {formula_ok}; "
           f"totals match recursive oracle n<=6: {totals_ok}", t0)
