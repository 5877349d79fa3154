"""Contour-integral q-moments of the half-line current and their ODE checks.

The n-point moment is a sum over integer partitions and valley diagrams of
residue-reduced contour integrals on the circle of radius 1/sqrt(q),
weighted by (-1)^{n - length}; permutations of equal-length rows contribute
identical integrals, so the sum runs over canonical diagram structures and
the 1/(m_1! m_2! ...) multiplicities cancel.

Quadrature is the tensor-product trapezoid rule, which converges
geometrically here; the error estimate is the Richardson difference
against the half-resolution grid.  A call reduces the diagrams once and
makes one pass per grid (`_sum_terms`) that takes every site vector it
needs; q_moment is the one-point case.  A pass builds each diagram's
operands, contracts them at every site vector and drops them before the
next diagram, in one `quadrature.Workspace`:

* each kernel F_x(M)/M is a site-free multiplier, folded into its
  dimension's vector, times exp(E(M) + x log P(M)); only the F-kernels
  depend on the sites, and the site vectors of a diagram cost one exp
  per dimension of the stacked exponents (`_factored_operands`);
* each pair factor is a per-node scale times a Toeplitz or Hankel matrix
  built from 2N - 1 values (`_circle_pair`, `quadrature.PairProducts`),
  written into the workspace's buffers;
* the diagrams of a call share grids and factors, so each node grid,
  monomial, kernel part and factor value is computed once per call and
  grid (`_CircleValues`);
* each site vector is contracted on its own, with the 3-D temporaries in
  the workspace's spares (`quadrature.Spares`).  The 3-D step's matrix
  product depends on the last dimension's vector alone, so site vectors
  that agree in it run next to each other and share that product.  A
  value is bit for bit the same whichever site vectors share its pass.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .model import ModelParams, SegmentParams, ValidityError
from .partitions import Diagram, Partition, canonical_diagrams, partitions_of
from .quadrature import GridValues, PairProducts, Workspace, circle_nodes, contract_factored
from .residues import (DIFF, EvalContext, F_OVER_Z, Factor, Monomial, ReducedIntegrand,
                       build_phi, factor_value, reduce_by_diagram, time_derivative_terms)

# each dimension's node count as a share of the 1D count
_NODE_SCALE = (1.0, 0.5, 0.5, 0.4375)


def _node_table(n_1d: int) -> Tuple[int, ...]:
    return tuple(max(16, 2 * round(n_1d * s / 2)) for s in _NODE_SCALE)


@dataclass(frozen=True)
class QuadratureSpec:
    """Trapezoid node counts per integral dimension.

    The defaults, `with_1d_nodes(256)`, shrink with dimension; 1e-8
    accuracy at asymmetry up to 0.6 needs about 128 nodes in 3D and 112 in
    4D, while 4D at the 1D count would be infeasible.
    """

    nodes_by_dim: Tuple[int, ...] = _node_table(256)

    def __post_init__(self):
        if any(n < 16 or n % 2 for n in self.nodes_by_dim):
            raise ValidityError("node counts must be even and >= 16")

    @classmethod
    def with_1d_nodes(cls, n: int) -> "QuadratureSpec":
        return cls(_node_table(n))

    def nodes(self, n_dims: int) -> int:
        if n_dims <= len(self.nodes_by_dim):
            return self.nodes_by_dim[n_dims - 1]
        return self.nodes_by_dim[-1]

    def halved(self) -> "QuadratureSpec":
        return QuadratureSpec(tuple(2 * max(8, n // 4) for n in self.nodes_by_dim))


@dataclass
class MomentResult:
    """A q-moment with its quadrature diagnostics.

    `quad_error` is |fine - coarse| between the grid and its halved() grid.
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


class _CircleValues(GridValues):
    """`GridValues` on the circle grids of one moment call: nodes and
    weights, monomials and F-kernel parts, by (node count, dimension) and
    monomial exponents.  Diagrams share most of them: the 22 diagram builds
    of an n = 3 call (fine and half-resolution) have 66 F-factors at 17
    distinct kernel arguments, and 38 dimensions on 7 node grids.
    """

    def __init__(self, ctx: EvalContext):
        super().__init__()
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

    def kernel_parts(self, m: Monomial, n_nodes: int, d: int):
        key = ("kernel", n_nodes, d, m.qexp, m.vpow)
        return (self._values.get(key)
                or self.store(key, self.ctx.kernel_parts(self.monomial(m, n_nodes, d))))


def _exponents(f: Factor) -> tuple:
    """A factor's kind and monomial exponents: with its dimensions (and the power of a
    single-variable factor), its values' key."""
    return (f.kind, f.a.qexp, f.a.vpow, f.b.qexp, f.b.vpow)


def _factored_operands(reduced: ReducedIntegrand, values: _CircleValues, n_nodes: int):
    """Group the site-independent factors into per-dim vectors and pair products.

    Each dimension d integrates on values.grid(n_nodes, d), whose nodes are
    returned first.  Each F-factor's site-free multiplier goes into its
    dimension's vector.  Its exponent is summed per dimension, and its log
    step kept with its site slot, as kernels {dim: [summed exponent,
    [(slot, log step), ...]]} to be exponentiated once per dimension when
    the sites are known.  Summing
    first matters: along a diagram row the exponents telescope to a sum
    with bounded real part on the contour, while a single E reaches about
    (1-q)pt/(1-sqrt q) and overflows under weak-asymmetry scaling.  Pair
    factors are built from 2N - 1 values each (see `_circle_pair`) into a
    `PairProducts`, for the caller to write out as matrices.  Every array of
    one grid that another factor or diagram could share comes from values.
    """
    ctx = values.ctx
    dims, nodes, vectors = {}, {}, {}
    for d, v in enumerate(reduced.free_vars):
        dims[v] = d
        nodes[d], weights = values.grid(n_nodes, d)
        vectors[d] = weights.astype(complex)
    pairs = PairProducts(n_nodes)
    kernels: Dict[int, list] = {}
    for m in reduced.prefactor_monos:
        d = dims[m.var]
        vectors[d] *= values.monomial(m, n_nodes, d)
    for f in reduced.factors:
        fvars = f.vars()
        if f.kind == F_OVER_Z:
            d = dims[fvars[0]]
            multiplier, exponent, log_step = values.kernel_parts(f.a, n_nodes, d)
            vectors[d] *= multiplier
            if d in kernels:
                kernels[d][0] = kernels[d][0] + exponent
                kernels[d][1].append((f.site, log_step))
            else:
                kernels[d] = [exponent, [(f.site, log_step)]]
        elif len(fvars) == 1:
            d = dims[fvars[0]]
            vectors[d] *= values.get(
                ("factor", n_nodes, d, f.power) + _exponents(f),
                lambda: factor_value(f, ctx, {fvars[0]: values.grid(n_nodes, d)[0]}))
        else:
            _circle_pair(f, dims, values, n_nodes, vectors, pairs)
    return nodes, vectors, pairs, complex(reduced.sign), kernels


def _circle_pair(f: Factor, dims: Dict[int, int], values: _CircleValues, n_nodes: int,
                 vectors: Dict[int, np.ndarray], pairs: PairProducts):
    """Split a two-variable factor into a per-node scale and 2N - 1 pair values.

    With A = q^e z_a^{s_a}, B = q^e' z_b^{s_b} on nodes z_d[k] = r e^{2 pi i
    (k + o_d)/N}, B/A and A B each depend on k_a - k_b alone or on k_a + k_b
    alone (`Factor.hankel`).  (A - B)^p is A^p (1 - B/A)^p, and A^p scales
    vectors[a].  1 - B/A, or 1 - A B for (1 - A B)^p, is evaluated on the
    2N - 1 entries of `PairProducts`, once per grid pair and exponents
    (values), and multiplied in to the power p.
    """
    da, db = dims[f.a.var], dims[f.b.var]
    hankel = f.hankel
    a_nodes = values.monomial(f.a, n_nodes, da)

    def pair_values():
        ka, kb = pairs.entries(da, db, hankel)
        b = f.b.value(values.ctx.q, {f.b.var: values.grid(n_nodes, db)[0][kb]})
        return 1.0 - b / a_nodes[ka] if f.kind == DIFF else 1.0 - a_nodes[ka] * b

    g = values.get(("pair", n_nodes, da, db) + _exponents(f), pair_values)
    if f.kind == DIFF:
        if f.power == 1:
            vectors[da] *= a_nodes
        else:
            vectors[da] /= a_nodes
    pairs.multiply(da, db, hankel, g, f.power)


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

    Each diagram's operands are built, contracted at every site vector and
    dropped before the next diagram's, in one `Workspace` for the pass.
    slots[j], shape (rows, 1), holds the j-th site of every site vector.
    The F-kernels of all rows come from one exp per dimension of the
    stacked exponents E + X log P, shape (rows, N); every free variable
    keeps at least one F-kernel.  Each row is then contracted on its own
    (one `contract_factored` call on 1-D vectors), so its value does not
    depend on the other rows.  The d/dt multiplier is a sum of
    single-variable terms, so the derivative is one contraction per
    dimension, of the first row with that dimension's vector times its
    rate, summed in the order of `time_derivative_terms`.

    In three dimensions the rows run grouped by their dimension-2 vector,
    which alone of the vectors enters the spares' fold (the N^3 step), so
    rows that share it share one fold: the site vectors of a
    free_evolution_residuals call that agree in their last site, and the
    first row's d/dt rows of dimensions 0 and 1.
    """
    if not points:  # free_evolution_residuals at x = (0, 0, ...) checks no relation
        return []
    slots = np.array(points, dtype=complex).T[:, :, None]  # exact; no cast per product
    dims = {len(red.free_vars) for *_, red in reduced}
    sums: List[Dict[Partition, complex]] = [{} for _ in range(len(points) + time_derivative)]
    workspace = Workspace([(d, quad.nodes(d)) for d in dims], len(sums))
    for lam, sign, diagram, red in reduced:
        n_dims = len(red.free_vars)
        nodes, vectors, pairs, scalar, kernels = _factored_operands(red, values,
                                                                     quad.nodes(n_dims))
        for d, (exponent, steps) in kernels.items():
            for slot, log_step in steps:
                exponent = exponent + slots[slot] * log_step
            vectors[d] = vectors[d] * np.exp(exponent)
        rows = [{d: v[s] for d, v in vectors.items()} for s in range(len(points))]
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
        matrices, spares = workspace.term(n_dims, pairs)
        row_values = [0j] * len(rows)
        for i in order:
            row_values[i] = contract_factored(n_dims, rows[i], matrices, scalar, spares)
        if time_derivative:
            total = 0.0 + 0.0j
            for value in row_values[len(points):]:
                total += value
            row_values[len(points):] = [total]
        for per_partition, val in zip(sums, row_values):
            if not cmath.isfinite(val):
                raise ArithmeticError(f"non-finite contribution from diagram {diagram.rows} "
                                      f"on the {quad.nodes_by_dim} grid")
            per_partition[lam] = per_partition.get(lam, 0.0) + sign * val
    return [(math.fsum(v.real for v in per_partition.values()),
             math.fsum(v.imag for v in per_partition.values()), per_partition)
            for per_partition in sums]


def _moment_results(n: int, ctx: EvalContext, quad: QuadratureSpec,
                    points: Sequence[Tuple[int, ...]], time_derivative: bool = False):
    """MomentResult at each site vector of points, from one pass on quad and
    one on its half-resolution grid, and the fine grid's d/dt at points[0]
    (None without time_derivative).

    Both passes share one reduction and one `_CircleValues`, so each grid,
    monomial, kernel part and factor value that diagrams share is computed
    once; nothing is kept between calls.  A dimension whose halved grid is
    quad's own (16 nodes stay 16) would make quad_error read 0 whatever the
    error, so it raises ValidityError.
    """
    reduced = _diagram_terms(n)
    coarse = quad.halved()
    for dim in sorted({len(red.free_vars) for *_, red in reduced}):
        if coarse.nodes(dim) >= quad.nodes(dim):
            raise ValidityError(f"{quad.nodes(dim)} nodes in dimension {dim} leave no "
                                "coarser grid for the error estimate; give more nodes")
    values = _CircleValues(ctx)
    fine_sums = _sum_terms(reduced, values, quad, points, time_derivative)
    coarse_sums = _sum_terms(reduced, values, coarse, points)
    results = [MomentResult(value=value,
                            per_partition={lam: v.real for lam, v in per_part.items()},
                            nodes_by_dim=quad.nodes_by_dim,
                            quad_error=abs(value - coarse_value),
                            imag_residual=abs(imag))
               for (value, imag, per_part), (coarse_value, _, _) in zip(fine_sums, coarse_sums)]
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
    if len(x) < 1 or any(int(v) != v or v < 0 for v in x):
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
    quad_error the largest Richardson estimate (fine minus half-resolution
    grid) among them.
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

    The points are listed first (x, its 2n neighbours, the collision pairs
    and the boundary pair, without repeats) and evaluated in one fine and
    one half-resolution pass, the d/dt of (1) in the fine pass.  Each value is bit for bit the one q_moment gives at
    that point: a point is contracted on its own, whatever shares its pass.
    """
    _validate(params, t, x)
    x = tuple(int(v) for v in x)
    report = FreeEvolutionReport(x=x)
    p = float(params.p_rate)
    qr = float(params.q_rate)
    n = len(x)
    time_derivative = all(v_ >= 1 for v_ in x)
    collisions = [i for i in range(n - 1) if x[i + 1] == x[i] + 1]
    boundary = n == 1 or x[1] >= 2

    def shifted(i, site):
        return x[:i] + (site,) + x[i + 1:]

    points = []
    if time_derivative:
        points.append(x)
        for i in range(n):
            points += [shifted(i, x[i] - 1), shifted(i, x[i] + 1)]
    for i in collisions:
        points += [shifted(i + 1, x[i]), shifted(i, x[i] + 1), x]
    if boundary:
        points += [(0,) + x[1:], (1,) + x[1:]]
    points = list(dict.fromkeys(points))
    results, dvdt = _moment_results(n, _eval_context(params, t), quad or QuadratureSpec(),
                                    points, time_derivative)
    for xs, res in zip(points, results):
        report.values[xs] = res.value
        report.quad_error = max(report.quad_error, res.quad_error)
    v = report.values.__getitem__

    if time_derivative:
        lattice = -n * (p + qr) * v(x)
        for i in range(n):
            lattice += p * v(shifted(i, x[i] - 1)) + qr * v(shifted(i, x[i] + 1))
        report.time_derivative = abs(dvdt - lattice)

    for i in collisions:
        report.adjacent[i] = abs(p * v(shifted(i + 1, x[i])) + qr * v(shifted(i, x[i] + 1))
                                 - (p + qr) * v(x))

    if boundary:
        c_left = float(params.rho) * float(params.q) + 1.0 - float(params.rho)
        report.boundary = abs(v((0,) + x[1:]) - c_left * v((1,) + x[1:]))

    return report
