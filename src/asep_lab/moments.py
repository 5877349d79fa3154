"""Contour-integral q-moments of the half-line current and their ODE checks.

The n-point moment is a sum over integer partitions and valley diagrams of
residue-reduced contour integrals on the circle of radius 1/sqrt(q),
weighted by (-1)^{n - length}; permutations of equal-length rows contribute
identical integrals, so the sum runs over canonical diagram structures and
the 1/(m_1! m_2! ...) multiplicities cancel.

Quadrature is the tensor-product trapezoid rule, which converges
geometrically here; the error estimate is the Richardson difference
against the half grid, the fine grid's even-indexed nodes with doubled
weights.  A call reduces the diagrams once and makes one pass
(`_sum_terms`) that takes every site vector it needs; q_moment is the
one-point case.  The pass builds each diagram's operands once, on the
fine grid, contracts them at every site vector, reads the half grid's
value from the same operands (every other node) and drops them before
the next diagram, in the call's one `quadrature.Workspace`
(`_CircleValues`).  `_factored_operands` is the one operand builder, here
and for the SHE lines (`kpz`); `_CircleValues` is its circle reading:

* each kernel F_x(M)/M is a site-free multiplier, folded into its
  dimension's vector, times exp(E(M) + x log P(M)); only the F-kernels
  depend on the sites, and the site vectors of a diagram cost one exp
  per dimension of the stacked exponents;
* each pair factor is a per-node scale times a Toeplitz or Hankel matrix
  built from 2N - 1 values (`quadrature.PairProducts`), written into the
  workspace's buffers; the half grid's matrices are written from every
  other value (`PairProducts.half`);
* the diagrams of a call share grids and factors, so each node grid,
  monomial, kernel part and factor value is computed once per call, in
  the workspace's memo;
* each site vector is contracted on its own, with the 3-D temporaries in
  the workspace's buffers (`quadrature.Workspace.fold`).  The 3-D step's
  matrix product depends on the last dimension's vector alone, so site
  vectors that agree in it run next to each other and share that product.
  A value is bit for bit the same whichever site vectors share its pass.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .model import ModelParams, SegmentParams, ValidityError
from .partitions import Diagram, Partition, canonical_diagrams, partitions_of
from .quadrature import PairProducts, Workspace, circle_nodes, contract_factored
from .residues import (DIFF, EvalContext, F_OVER_Z, Factor, Monomial, ReducedIntegrand,
                       build_phi, factor_value, reduce_by_diagram, time_derivative_terms)

# each dimension's node count as a share of the 1D count
_NODE_SCALE = (1.0, 0.5, 0.5, 0.4375)
# the fewest nodes a grid may have, and too few for a dimension a moment
# integrates over (`_moment_results`)
_MIN_NODES = 16


def _node_table(n_1d: int) -> Tuple[int, ...]:
    return tuple(max(_MIN_NODES, 2 * round(n_1d * s / 2)) for s in _NODE_SCALE)


@dataclass(frozen=True)
class QuadratureSpec:
    """Trapezoid node counts per integral dimension.

    The defaults, `with_1d_nodes(256)`, shrink with dimension; 1e-8
    accuracy at asymmetry up to 0.6 needs about 128 nodes in 3D and 112 in
    4D, while 4D at the 1D count would be infeasible.  The error estimate's
    half grid of each dimension is its even-indexed nodes, N/2 of them, so
    the spec names one grid per dimension; a dimension a moment integrates
    over needs more than the minimum 16 nodes.
    """

    nodes_by_dim: Tuple[int, ...] = _node_table(256)

    def __post_init__(self):
        if any(n < _MIN_NODES or n % 2 for n in self.nodes_by_dim):
            raise ValidityError(f"node counts must be even and >= {_MIN_NODES}")

    @classmethod
    def with_1d_nodes(cls, n: int) -> "QuadratureSpec":
        return cls(_node_table(n))

    def nodes(self, n_dims: int) -> int:
        if n_dims <= len(self.nodes_by_dim):
            return self.nodes_by_dim[n_dims - 1]
        return self.nodes_by_dim[-1]


@dataclass
class MomentResult:
    """A q-moment with its quadrature diagnostics.

    `quad_error` is |fine - half| between the grid and its half grid, the
    even-indexed nodes with doubled weights: N/2 nodes per dimension at half
    the offset, in units of their own spacing.  It is a signal, not a bound
    (ROADMAP item 2 measures where it misses).
    `imag_residual` is |Im| of the diagram sum, whose exact value is real.
    For n <= 3 it reads 1e-17 to 1e-14 at q <= 1/2 and stays far below
    `quad_error` elsewhere (2.7e-11 against 1.1e-5 at q=3/5, rho=4/5,
    x=(1,2,4), t=0).  At n = 4 it is not an error estimate: at q=1/2,
    rho=9/10, x=(1,3,5,6) it reads 0.0531 at t=0.5 on the default grid and
    on (512, 256, 256, 160) alike, and 0.0707 at t=0, where the value is 1
    to 4e-14.  Single diagrams there keep imaginary parts that cancel only
    partly across partitions.  They trace to simple poles on the
    integration circle (ROADMAP, the item on on-contour poles): the
    measurements fit a trapezoid rule that returns a principal value plus
    an imaginary term depending on the grid offset, while the real part
    does not move.
    """

    value: float
    per_partition: Dict[Partition, float]
    nodes_by_dim: Tuple[int, ...]
    quad_error: float
    imag_residual: float = 0.0

    def __float__(self):
        return self.value


class _CircleValues(Workspace):
    """The circle reading of `_factored_operands`, and the `Workspace` of one
    moment call, whose memo holds the grids' nodes and weights, monomials
    and F-kernel parts by (node count, dimension) and monomial exponents.
    Diagrams share most of them: the 11 diagram builds of an n = 3 call
    have 33 F-factors at 10 distinct kernel arguments, and 19 dimensions on
    4 node grids.

    With A = q^e z_a^{s_a}, B = q^e' z_b^{s_b} on nodes z_d[k] = r e^{2 pi i
    (k + o_d)/N}, B/A and A B each depend on k_a - k_b alone or on k_a + k_b
    alone (`Factor.hankel`).  (A - B)^p is A^p (1 - B/A)^p: A is a DIFF
    pair's per-node scale, and 1 - B/A, or 1 - A B for (1 - A B)^p, its
    pair values.
    """

    def __init__(self, ctx: EvalContext, shapes: Sequence[Tuple[int, int]], rows: int):
        super().__init__(shapes, rows)
        self.ctx = ctx
        self.radius = 1.0 / math.sqrt(ctx.q)

    def grid(self, n_nodes: int, d: int) -> Tuple[np.ndarray, np.ndarray]:
        key = ("grid", n_nodes, d)
        return self._values.get(key) or self.store(key, circle_nodes(self.radius, n_nodes, d))

    def monomial(self, m: Monomial, n_nodes: int, d: int) -> np.ndarray:
        """m on the nodes of grid d, whatever variable m names."""
        if m.qexp == 0 and m.vpow == 1:
            return self.grid(n_nodes, d)[0]
        return self.get(("monomial", n_nodes, d, m.qexp, m.vpow),
                        lambda: m.value(self.ctx.q, {m.var: self.grid(n_nodes, d)[0]}))

    prefactor = monomial

    def kernel(self, f: Factor, n_nodes: int, d: int):
        key = ("kernel", n_nodes, d, f.a.qexp, f.a.vpow)
        return (self._values.get(key)
                or self.store(key, self.ctx.kernel_parts(self.monomial(f.a, n_nodes, d))))

    def single(self, f: Factor, n_nodes: int, d: int) -> np.ndarray:
        return factor_value(f, self.ctx, {f.a.var: self.grid(n_nodes, d)[0]})

    def scale(self, f: Factor, n_nodes: int, d: int) -> Optional[np.ndarray]:
        return self.monomial(f.a, n_nodes, d) if f.kind == DIFF else None

    def pair(self, f: Factor, n_nodes: int, da: int, db: int, ka: np.ndarray,
             kb: np.ndarray) -> np.ndarray:
        a = self.monomial(f.a, n_nodes, da)[ka]
        b = f.b.value(self.ctx.q, {f.b.var: self.grid(n_nodes, db)[0][kb]})
        return 1.0 - b / a if f.kind == DIFF else 1.0 - a * b


def _exponents(f: Factor) -> tuple:
    """A factor's kind and monomial exponents: with its dimensions (and the power of a
    single-variable factor), its values' key."""
    return (f.kind, f.a.qexp, f.a.vpow, f.b.qexp, f.b.vpow)


def _factored_operands(reduced: ReducedIntegrand, values, n_nodes: int):
    """Group the site-independent factors into per-dim vectors and pair products.

    values reads the factors on one kind of grid, the circles
    (`_CircleValues`) or the SHE lines (`kpz._LineValues`), and is the
    call's `Workspace`.  Dimension d integrates on values.grid(n_nodes, d),
    whose nodes are returned first.  Each prefactor monomial,
    single-variable factor and F-factor multiplier goes into its
    dimension's vector, in factor order.  A deferred F-factor exponent (the
    circle's) is summed per dimension, and its log step kept with its site
    slot, as kernels {dim: [summed exponent, [(slot, log step), ...]]} to be
    exponentiated once per dimension when the sites are known.  Summing
    first matters: along a diagram row the exponents telescope to a sum
    with bounded real part on the contour, while a single E reaches about
    (1-q)pt/(1-sqrt q) and overflows under weak-asymmetry scaling.  A pair
    factor's per-node scale, where its reading has one, goes into its first
    dimension's vector to its power, and its values on the 2N - 1 entries
    of its `Factor.hankel` type into a `PairProducts`, for the caller to
    write out as matrices.  Factor values are kept in values' memo.
    """
    dims, nodes, vectors = {}, {}, {}
    for d, v in enumerate(reduced.free_vars):
        dims[v] = d
        nodes[d], weights = values.grid(n_nodes, d)
        vectors[d] = weights.astype(complex)
    pairs = PairProducts(n_nodes)
    kernels: Dict[int, list] = {}
    for m in reduced.prefactor_monos:
        d = dims[m.var]
        vectors[d] *= values.prefactor(m, n_nodes, d)
    for f in reduced.factors:
        fvars = f.vars()
        d = dims[fvars[0]]
        if f.kind == F_OVER_Z:
            multiplier, exponent, log_step = values.kernel(f, n_nodes, d)
            vectors[d] *= multiplier
            if exponent is not None and d in kernels:
                kernels[d][0] = kernels[d][0] + exponent
                kernels[d][1].append((f.site, log_step))
            elif exponent is not None:
                kernels[d] = [exponent, [(f.site, log_step)]]
        elif len(fvars) == 1:
            vectors[d] *= values.get(("factor", n_nodes, d, f.power) + _exponents(f),
                                     lambda: values.single(f, n_nodes, d))
        else:
            db, hankel = dims[fvars[1]], f.hankel
            g = values.get(("pair", n_nodes, d, db) + _exponents(f),
                           lambda: values.pair(f, n_nodes, d, db, *pairs.entries(d, db, hankel)))
            scale = values.scale(f, n_nodes, d)
            if scale is not None:
                (np.multiply if f.power == 1 else np.divide)(vectors[d], scale, out=vectors[d])
            pairs.multiply(d, db, hankel, g, f.power)
    return nodes, vectors, pairs, complex(reduced.sign), kernels


def _eval_context(params: ModelParams, t: float, kernel: str = "plain") -> EvalContext:
    return EvalContext(q=float(params.q), p=float(params.p_rate),
                       rho=float(params.rho), t=float(t), kernel=kernel)


def _diagram_terms(n: int) -> List[Tuple[Partition, int, Diagram, ReducedIntegrand]]:
    """(partition, sign, diagram, reduced integrand) of every canonical diagram of n."""
    phi = build_phi(range(n))  # F-factor sites are the slots 0..n-1 of x
    return [(lam, (-1) ** (n - len(lam)), d, reduce_by_diagram(phi, d))
            for lam in partitions_of(n) for d in canonical_diagrams(lam)]


def _sum_terms(reduced: Sequence[Tuple[Partition, int, Diagram, ReducedIntegrand]],
               values: _CircleValues, quad: QuadratureSpec, points: Sequence[Tuple[int, ...]],
               time_derivative: bool = False):
    """(real part, imaginary part, per-partition sums) at each site vector of
    points, in one pass over the diagrams on quad's grids; with
    time_derivative, one more entry holds the same for d/dt at points[0].
    Then, apart, the same at each site vector on the half grids.

    Each diagram's operands are built once on quad's grids, contracted at
    every site vector and dropped before the next diagram's, in values, the
    call's workspace.  slots[j], shape (rows, 1), holds the j-th site of every
    site vector.  The F-kernels of all rows come from one exp per dimension of
    the stacked exponents E + X log P, shape (rows, N); every free variable
    keeps at least one F-kernel.  Each row is then contracted on its own (one
    `contract_factored` call on 1-D vectors), so its value does not depend on
    the other rows.  The d/dt multiplier is a sum of single-variable terms, so
    the derivative is one contraction per dimension, of the first row with
    that dimension's vector times its rate, summed in the order of
    `time_derivative_terms`.

    The half grid is the even-indexed nodes k = 2j, so a row's half-grid
    vectors are its vectors at [::2] times 2 (the weight of N/2 nodes), and
    its pair matrices the ones `PairProducts.half` reads from every other
    product; the workspace writes them after the fine rows are done.  The
    half grid adds no node, so none of its values lands on a removable
    point, and the fine values do not depend on it.

    In three dimensions the rows run grouped by their dimension-2 vector,
    which alone of the vectors enters the workspace's fold (the N^3 step), so
    rows that share it share one fold, on either grid: the site vectors of a
    free_evolution_residuals call that agree in their last site, and the
    first row's d/dt rows of dimensions 0 and 1.
    """
    if not points:  # free_evolution_residuals at x = (0, 0, ...) checks no relation
        return [], []
    slots = np.array(points, dtype=complex).T[:, :, None]  # exact; no cast per product
    n_fine = len(points) + time_derivative
    sums: List[Dict[Partition, complex]] = [{} for _ in range(n_fine + len(points))]
    for lam, sign, diagram, red in reduced:
        n_dims = len(red.free_vars)
        nodes, vectors, pairs, scalar, kernels = _factored_operands(red, values,
                                                                     quad.nodes(n_dims))
        for d, (exponent, steps) in kernels.items():
            for slot, log_step in steps:
                exponent = exponent + slots[slot] * log_step
            vectors[d] = vectors[d] * np.exp(exponent)
        rows = [{d: v[s] for d, v in vectors.items()} for s in range(len(points))]
        half = {d: 2.0 * v[:, ::2] for d, v in vectors.items()}
        if time_derivative:
            for var, mults in time_derivative_terms(red, values.ctx).items():
                d = red.free_vars.index(var)
                rate = sum(mult(nodes[d]) for mult in mults)
                rows.append({**rows[0], d: rows[0][d] * rate})
        order = range(len(rows))
        if n_dims == 3 and len(rows) > 1:
            groups: Dict[bytes, List[int]] = {}
            for i, row in enumerate(rows):
                groups.setdefault(row[2].tobytes(), []).append(i)
            order = [i for group in groups.values() for i in group]
        matrices = values.term(n_dims, pairs)
        row_values = [0j] * len(rows)
        for i in order:
            row_values[i] = contract_factored(n_dims, rows[i], matrices, scalar, values)
        if time_derivative:
            total = 0.0 + 0.0j
            for value in row_values[len(points):]:
                total += value
            row_values[len(points):] = [total]
        matrices = values.term(n_dims, pairs.half())
        half_values = [0j] * len(points)
        for i in order:
            if i < len(points):
                half_row = {d: v[i] for d, v in half.items()}
                half_values[i] = contract_factored(n_dims, half_row, matrices, scalar, values)
        for k, (per_partition, val) in enumerate(zip(sums, row_values + half_values)):
            if not cmath.isfinite(val):
                grid = "" if k < n_fine else "half of the "
                raise ArithmeticError(f"non-finite contribution from diagram {diagram.rows} "
                                      f"on the {grid}{quad.nodes_by_dim} grid")
            per_partition[lam] = per_partition.get(lam, 0.0) + sign * val
    totals = [(math.fsum(v.real for v in per_partition.values()),
               math.fsum(v.imag for v in per_partition.values()), per_partition)
              for per_partition in sums]
    return totals[:n_fine], totals[n_fine:]


def _moment_results(n: int, ctx: EvalContext, quad: QuadratureSpec,
                    points: Sequence[Tuple[int, ...]], time_derivative: bool = False):
    """MomentResult at each site vector of points, from one pass on quad's
    grids and their half grids, and the fine grid's d/dt at points[0] (None
    without time_derivative).

    The pass reduces the diagrams once and works in one `_CircleValues`, the
    call's workspace, sized for the fine grids and all rows: the call
    allocates one block of N x N buffers, and each grid, monomial, kernel
    part and factor value that diagrams share is computed once; nothing is
    kept between calls.  A dimension the moment integrates over on the
    fewest nodes a grid may have (16) raises ValidityError: its half grid
    has 8.  (Before the half grid was nested in the fine one, halving kept
    16 nodes at 16 and quad_error read 0 there; the refusal keeps those
    grids refused.)  An overflow or invalid value raises ArithmeticError,
    naming t and the grid.
    """
    reduced = _diagram_terms(n)
    dims = sorted({len(red.free_vars) for *_, red in reduced})
    for dim in dims:
        if quad.nodes(dim) <= _MIN_NODES:
            raise ValidityError(f"{quad.nodes(dim)} nodes in dimension {dim} leave too small "
                                f"a coarser grid ({quad.nodes(dim) // 2} nodes) for the error "
                                "estimate; give more nodes")
    values = _CircleValues(ctx, [(d, quad.nodes(d)) for d in dims],
                           len(points) + time_derivative)
    try:
        with np.errstate(over="raise", invalid="raise"):
            fine_sums, half_sums = _sum_terms(reduced, values, quad, points, time_derivative)
    except FloatingPointError as exc:
        raise ArithmeticError(f"{exc} at t = {ctx.t} on the {quad.nodes_by_dim} grid") from None
    results = [MomentResult(value=value,
                            per_partition={lam: v.real for lam, v in per_part.items()},
                            nodes_by_dim=quad.nodes_by_dim,
                            quad_error=abs(value - half_value),
                            imag_residual=abs(imag))
               for (value, imag, per_part), (half_value, _, _) in zip(fine_sums, half_sums)]
    return results, (fine_sums[-1][0] if time_derivative else None)


def _validate(params: ModelParams, t: float, x: Sequence[int]):
    if isinstance(params, SegmentParams):
        raise TypeError("half-line moments need ModelParams, not SegmentParams")
    if not (math.isfinite(t) and t >= 0):
        raise ValidityError("time must be finite and nonnegative")
    if not params.liggett_ok():
        raise ValidityError("boundary rates must satisfy alpha/p + gamma/q = 1")
    if not params.formula_ok():
        raise ValidityError(
            f"density {params.rho} outside the validity region (1/(1+sqrt(q)), 1]")
    try:
        sites = all(int(v) == v >= 0 for v in x)
    except (ValueError, OverflowError):     # int() of nan or inf
        sites = False
    if len(x) < 1 or not sites:
        raise ValidityError("sites must be integers >= 0")


def q_moment(t: float, x: Sequence[int], params: ModelParams,
             quad: Optional[QuadratureSpec] = None,
             kernel: str = "plain") -> MomentResult:
    """E[prod_i q^{N_{x_i}(t)}] for half-line open ASEP from the empty state.

    x need not be an ordered chamber vector (boundary-condition checks
    evaluate the formula at shifted arguments), but the probabilistic
    meaning requires strictly increasing x with x_1 >= 1.
    """
    _validate(params, t, x)
    x = tuple(int(v) for v in x)
    ctx = _eval_context(params, t, kernel)
    results, _ = _moment_results(len(x), ctx, quad or QuadratureSpec(), [x])
    return results[0]


def first_moment(t: float, x: int, params: ModelParams) -> float:
    """E[q^{N_x(t)}] on the default grid, the n = 1 case of q_moment (same code path)."""
    return q_moment(t, (x,), params).value


def second_moment_explicit(t: float, x1: int, x2: int, params: ModelParams) -> float:
    """E[q^{N_{x1}+N_{x2}}] by the explicit three-integral form, engine-free.

    The double contour integral of the two-point integrand plus the two
    one-dimensional residue corrections

        (1-q)   oint (1-q^2 z^2)/(1-q z^2) F_{x1}(z) F_{x2}(qz) dz/(2 pi i z)
      + q(1-q)  oint (1-z^2)/(1-q z^2)     F_{x1}(z) F_{x2}(1/z) dz/(2 pi i z)

    implemented directly on the default trapezoid grid as an independent
    check of the reduction engine.
    """
    if not (1 <= x1 < x2):
        raise ValidityError("need 1 <= x1 < x2")
    _validate(params, t, (x1, x2))
    spec = QuadratureSpec()
    q = float(params.q)
    p = float(params.p_rate)
    rho = float(params.rho)
    radius = 1.0 / math.sqrt(q)

    def F(z, site):
        return ((1 - q * z * z) / (1 - z)
                * np.exp((1 - q) ** 2 * z * p * t / ((1 - z) * (1 - q * z)))
                * ((1 - z) / (1 - q * z)) ** site
                * rho / (rho + (1 - rho) * z))

    z1, w1 = circle_nodes(radius, spec.nodes(2), 0)
    z2, w2 = circle_nodes(radius, spec.nodes(2), 1)
    zz1, zz2 = z1[:, None], z2[None, :]
    phi = (q * (zz1 - zz2) / (q * zz1 - zz2)
           * (1 - q * zz1 * zz2) / (1 - zz1 * zz2)
           * F(zz1, x1) * F(zz2, x2) / (zz1 * zz2))
    term1 = np.sum(phi * w1[:, None] * w2[None, :])
    z, w = circle_nodes(radius, spec.nodes(1), 0)
    g2 = ((1 - q) * (1 - q ** 2 * z ** 2) / (1 - q * z ** 2)
          * F(z, x1) * F(q * z, x2) / z)
    g3 = (q * (1 - q) * (1 - z ** 2) / (1 - q * z ** 2)
          * F(z, x1) * F(1 / z, x2) / z)
    return float((term1 + np.sum(g2 * w) + np.sum(g3 * w)).real)


@dataclass
class FreeEvolutionReport:
    """Residuals of the lattice ODE characterization at one site vector.

    values holds every moment the relations used, by site vector, and
    quad_error the largest Richardson estimate (fine minus half grid) among
    them.
    """

    x: Tuple[int, ...]
    time_derivative: Optional[float] = None
    adjacent: Dict[int, float] = field(default_factory=dict)
    boundary: Optional[float] = None
    values: Dict[Tuple[int, ...], float] = field(default_factory=dict)
    quad_error: float = 0.0

    def max_residual(self) -> float:
        vals = list(self.adjacent.values())
        vals += [v for v in (self.time_derivative, self.boundary) if v is not None]
        return max(vals) if vals else 0.0


def free_evolution_residuals(t: float, x: Sequence[int], params: ModelParams,
                             quad: Optional[QuadratureSpec] = None) -> FreeEvolutionReport:
    """Check the three lattice relations satisfied by the moment formula.

    (1) d/dt v = sum_i [p v(x_i - 1) + q v(x_i + 1)] - n(p+q) v, with the
        derivative computed analytically, requires all x_i >= 1;
    (2) p v(..., x_i, x_i, ...) + q v(..., x_i+1, x_i+1, ...) = (p+q) v(x)
        whenever x_{i+1} = x_i + 1;
    (3) v(0, x_2, ...) = (rho q + 1 - rho) v(1, x_2, ...).

    Each relation is one list of (coefficient, site vector) terms whose sum
    is 0 (for (1), dv/dt).  The pass's points are the terms' site vectors,
    without repeats and in the relations' order, so x comes first when (1)
    applies; they are evaluated in one pass, on the fine grids and their
    half grids, the d/dt of (1) on the fine grids alone.  Each value is bit for bit the one
    q_moment gives at that point: a point is contracted on its own,
    whatever shares its pass.  A residual is the absolute sum of its
    terms, less dv/dt for (1).
    """
    _validate(params, t, x)
    x = tuple(int(v) for v in x)
    report = FreeEvolutionReport(x=x)
    p, qr, n = float(params.p_rate), float(params.q_rate), len(x)

    def shifted(i, site):
        return x[:i] + (site,) + x[i + 1:]

    lattice = [(-n * (p + qr), x)] + [(c, shifted(i, x[i] + step)) for i in range(n)
                                      for c, step in ((p, -1), (qr, 1))]
    if min(x) < 1:
        lattice = []
    adjacent = {i: [(p, shifted(i + 1, x[i])), (qr, shifted(i, x[i] + 1)), (-(p + qr), x)]
                for i in range(n - 1) if x[i + 1] == x[i] + 1}
    c_left = float(params.rho) * float(params.q) + 1.0 - float(params.rho)
    boundary = [(1.0, (0,) + x[1:]), (-c_left, (1,) + x[1:])] if n == 1 or x[1] >= 2 else []
    relations = [lattice, *adjacent.values(), boundary]
    points = list(dict.fromkeys(xs for terms in relations for _, xs in terms))
    results, dvdt = _moment_results(n, _eval_context(params, t), quad or QuadratureSpec(),
                                    points, bool(lattice))
    for xs, res in zip(points, results):
        report.values[xs] = res.value
        report.quad_error = max(report.quad_error, res.quad_error)

    def total(terms):
        return sum(c * report.values[xs] for c, xs in terms)

    if lattice:
        report.time_derivative = abs(total(lattice) - dvdt)
    report.adjacent = {i: abs(total(terms)) for i, terms in adjacent.items()}
    if boundary:
        report.boundary = abs(total(boundary))
    return report
