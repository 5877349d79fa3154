"""Spans around asep_lab's module boundaries, installed from outside the package.

Each probe replaces one module attribute (a public function or a named
helper) with a wrapper that opens a span, calls the original and closes
the span.  Callers inside asep_lab look those names up in their module's
globals at call time, so patching the attribute of the *calling* module
is what routes the call through the wrapper; a function imported by name
into several modules gets one probe per importing module.

Spans carry a name, start, end, parent span and op id, and are kept in
memory.  Probes on calls made thousands of times per op (per trajectory,
per identity, per grid) are aggregated by name instead of kept, so that
the trace stays small; they are leaves, so self time stays exact.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "op", "child_s", "attrs")

    def __init__(self, sid: int, name: str, parent: Optional[int], op: Optional[int]):
        self.id = sid
        self.name = name
        self.parent = parent
        self.op = op
        self.child_s = 0.0
        self.attrs: Optional[dict] = None
        self.start = perf_counter()
        self.end = self.start

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    def __init__(self):
        self.kept: List[Span] = []
        self.stack: List[Span] = []
        self.op: Optional[int] = None
        # name -> [count, total_s, self_s] over every span, kept or not
        self.totals: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.exp_draws = 0
        self._next_id = 0

    def open(self, name: str) -> Span:
        parent = self.stack[-1].id if self.stack else None
        span = Span(self._next_id, name, parent, self.op)
        self._next_id += 1
        self.stack.append(span)
        return span

    def close(self, span: Span, keep: bool):
        span.end = perf_counter()
        popped = self.stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        if self.stack:
            self.stack[-1].child_s += span.duration
        tot = self.totals[span.name]
        tot[0] += 1
        tot[1] += span.duration
        tot[2] += span.self_s
        if keep:
            self.kept.append(span)

    def write(self, path):
        """Kept spans as JSON lines, then one line of aggregated totals."""
        with open(path, "w") as fh:
            for s in self.kept:
                fh.write(json.dumps({"id": s.id, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent, "op": s.op,
                                     "attrs": s.attrs}) + "\n")
            fh.write(json.dumps({"aggregated": {k: v for k, v in self.totals.items()},
                                 "exp_draws": self.exp_draws}) + "\n")


@dataclass
class Probe:
    """One patched module attribute.  attrs(args, kwargs, result) -> dict."""

    module: str
    attr: str
    name: str
    keep: bool = True
    attrs: Optional[Callable] = None
    fired: int = 0
    original: object = field(default=None, repr=False)

    @property
    def site(self) -> str:
        return f"{self.module}.{self.attr}"


def _wrap(tracer: Tracer, probe: Probe, fn):
    def traced(*args, **kwargs):
        probe.fired += 1
        span = tracer.open(probe.name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span, probe.keep)
        if probe.attrs is not None:
            span.attrs = probe.attrs(args, kwargs, result)
        return result
    return traced


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _q_moment_attrs(args, kwargs, result):
    return {"n": len(_arg(args, kwargs, 1, "x"))}


def _sum_terms_attrs(args, kwargs, result):
    return {"nodes": list(_arg(args, kwargs, 2, "quad").nodes_by_dim)}


def _reduce_attrs(args, kwargs, result):
    diagram = _arg(args, kwargs, 1, "diagram")
    return {"key": [diagram.n, [list(r) for r in diagram.rows]]}


def _contract_attrs(kind):
    def attrs(args, kwargs, result):
        n_dims = _arg(args, kwargs, 0, "n_dims")
        vectors = _arg(args, kwargs, 1, "vectors")
        matrices = _arg(args, kwargs, 2, "matrices")
        points = math.prod(len(vectors[d]) for d in range(n_dims))
        nbytes = (sum(v.nbytes for v in vectors.values())
                  + sum(m.nbytes for m in matrices.values()))
        return {"kind": kind, "d": n_dims, "points": points, "bytes": nbytes}
    return attrs


def _kpz_attrs(args, kwargs, result):
    return {"n": _arg(args, kwargs, 0, "kpz").n}


def _dual_attrs(args, kwargs, result):
    return {"trajectories": _arg(args, kwargs, 3, "trajectories")}


def _build_attrs(args, kwargs, result):
    return {"dim": result.dimension}


def _expm_attrs(args, kwargs, result):
    return {"dim": int(result.shape[0])}


MOMENT_PROBES = [
    Probe("moments", "partitions_of", "partitions.partitions_of"),
    Probe("moments", "canonical_diagrams", "partitions.canonical_diagrams"),
    Probe("residues", "substitution_steps", "partitions.substitution_steps"),
    Probe("moments", "build_phi", "residues.build_phi"),
    Probe("moments", "reduce_by_diagram", "residues.reduce_by_diagram", attrs=_reduce_attrs),
    Probe("moments", "q_moment", "moments.q_moment", attrs=_q_moment_attrs),
    Probe("moments", "_sum_terms", "moments._sum_terms", attrs=_sum_terms_attrs),
    Probe("moments", "_factored_operands", "moments._factored_operands"),
    Probe("moments", "contract_factored", "quadrature.contract_factored",
          attrs=_contract_attrs("circle")),
    Probe("moments", "circle_nodes", "quadrature.circle_nodes", keep=False),
]

LOWDIM_PROBES = [
    Probe("moments", "time_derivative_terms", "residues.time_derivative_terms"),
    Probe("moments", "free_evolution_residuals", "moments.free_evolution_residuals"),
    Probe("moments", "second_moment_explicit", "moments.second_moment_explicit"),
    Probe("kpz", "q_moment", "moments.q_moment", attrs=_q_moment_attrs),
    Probe("kpz", "partitions_of", "partitions.partitions_of"),
    Probe("kpz", "canonical_diagrams", "partitions.canonical_diagrams"),
    Probe("kpz", "substitution_steps", "partitions.substitution_steps"),
    Probe("kpz", "she_moment_nested", "kpz.she_moment_nested", attrs=_kpz_attrs),
    Probe("kpz", "she_moment_residue_form", "kpz.she_moment_residue_form",
          attrs=_kpz_attrs),
    Probe("kpz", "_reduce_additive", "kpz._reduce_additive"),
    Probe("kpz", "scaled_asep_moment", "kpz.scaled_asep_moment"),
    Probe("kpz", "robin_halfline_first_moment_exact", "kpz.robin_halfline_first_moment_exact"),
    Probe("kpz", "contract_factored", "quadrature.contract_factored",
          attrs=_contract_attrs("line")),
    Probe("kpz", "line_nodes", "quadrature.line_nodes", keep=False),
]

SIMULATE_PROBES = [
    Probe("simulate", "estimate", "simulate.estimate"),
    Probe("simulate", "dual_reweighted_estimate", "simulate.dual_reweighted_estimate",
          attrs=_dual_attrs),
    Probe("simulate", "_rng_for", "simulate._rng_for", keep=False),
    Probe("simulate", "_Draws", "simulate._Draws", keep=False),
    Probe("simulate", "_run_halfline", "simulate._run_halfline", keep=False),
    Probe("simulate", "_run_segment", "simulate._run_segment", keep=False),
]

DUALITY_MODES = {
    "halfline": "verify_halfline_duality",
    "fullspace": "verify_fullspace_duality",
    "fictitious": "verify_fictitious_site",
    "segment": "verify_segment_duality",
    "no-liggett": "negative_control_no_liggett",
}

EXACT_PROBES = [
    *(Probe("duality", fn, f"duality.{fn}", keep=False) for fn in DUALITY_MODES.values()),
    Probe("duality", "apply_generator", "duality.apply_generator", keep=False),
    Probe("segment_ode", "check_segment_free_evolution",
          "segment_ode.check_segment_free_evolution"),
    Probe("segment_ode", "build_dual_matrix", "segment_ode.build_dual_matrix",
          attrs=_build_attrs),
    Probe("segment_ode", "solve_u", "segment_ode.solve_u"),
    Probe("segment_ode", "expm", "segment_ode.expm", attrs=_expm_attrs),
]


class Installation:
    """Patches the probes into the library modules; restore() undoes it."""

    def __init__(self, lib, tracer: Tracer, probes: List[Probe]):
        self.lib = lib
        self.probes = [Probe(p.module, p.attr, p.name, p.keep, p.attrs) for p in probes]
        for probe in self.probes:
            module = getattr(lib, probe.module)
            if not hasattr(module, probe.attr):
                raise LookupError(f"trace probe target asep_lab.{probe.site} is missing; "
                                  "update the probe list in perfbench/tracing.py")
            probe.original = getattr(module, probe.attr)
            fn = probe.original
            if probe.site == "simulate._Draws":
                fn = _counting_draws(fn, tracer)
            setattr(module, probe.attr, _wrap(tracer, probe, fn))

    def restore(self):
        for probe in reversed(self.probes):
            setattr(getattr(self.lib, probe.module), probe.attr, probe.original)

    def silent(self) -> List[str]:
        """Probe sites that never fired: a renamed or bypassed helper."""
        return [p.site for p in self.probes if p.fired == 0]


def _counting_draws(base, tracer: Tracer):
    """Subclass of the simulator's draw buffer that counts exponential-clock draws."""

    class CountingDraws(base):
        def exponential(self):
            tracer.exp_draws += 1
            return base.exponential(self)

    return CountingDraws


def layer_metrics(tracer: Tracer) -> Dict[str, tuple]:
    """Per-layer metrics as name -> (value, unit) from one traced phase."""
    totals = tracer.totals
    out: Dict[str, tuple] = {}

    def count(name):
        return totals[name][0] if name in totals else 0

    def total(name):
        return totals[name][1] if name in totals else 0.0

    def layer_self(layer):
        return sum(v[2] for k, v in totals.items() if k.split(".")[0] == layer)

    def layer_count(layer):
        return sum(v[0] for k, v in totals.items() if k.split(".")[0] == layer)

    def rate(num, den):
        return num / den if den > 0 else 0.0

    by_name: Dict[str, List[Span]] = defaultdict(list)
    for span in tracer.kept:
        by_name[span.name].append(span)

    out["partitions.calls"] = (layer_count("partitions"), "count")
    out["partitions.self_s"] = (layer_self("partitions"), "s")

    reductions = by_name["residues.reduce_by_diagram"]
    distinct = {json.dumps(s.attrs["key"]) for s in reductions}
    out["residues.reductions"] = (len(reductions), "count")
    out["residues.self_s"] = (layer_self("residues"), "s")
    out["residues.distinct_ratio"] = (rate(len(distinct), len(reductions)), "ratio")

    moments = by_name["moments.q_moment"]
    for n in range(1, 5):
        out[f"moments.calls.n{n}"] = (sum(1 for s in moments if s.attrs["n"] == n), "count")
    out["moments.operand_calls"] = (count("moments._factored_operands"), "count")
    out["moments.operand_s"] = (total("moments._factored_operands"), "s")
    # a q_moment's passes on the largest grid are fine, the others coarse
    passes: Dict[Optional[int], List[Span]] = defaultdict(list)
    for s in by_name["moments._sum_terms"]:
        passes[s.parent].append(s)
    fine = coarse = 0.0
    for group in passes.values():
        largest = max(math.prod(s.attrs["nodes"]) for s in group)
        for s in group:
            if math.prod(s.attrs["nodes"]) == largest:
                fine += s.duration
            else:
                coarse += s.duration
    out["moments.fine_s"] = (fine, "s")
    out["moments.coarse_s"] = (coarse, "s")
    out["moments.coarse_share"] = (rate(coarse, fine + coarse), "ratio")
    out["moments.self_s"] = (layer_self("moments"), "s")

    contractions = by_name["quadrature.contract_factored"]
    for kind, dims in (("circle", range(1, 5)), ("line", range(1, 4))):
        for d in dims:
            group = [s for s in contractions if s.attrs["kind"] == kind and s.attrs["d"] == d]
            secs = sum(s.duration for s in group)
            points = sum(s.attrs["points"] for s in group)
            key = f"quadrature.{kind}.d{d}"
            out[f"{key}.calls"] = (len(group), "count")
            out[f"{key}.s"] = (secs, "s")
            out[f"{key}.grid_points"] = (points, "points")
            out[f"{key}.points_per_s"] = (rate(points, secs), "points/s")
            out[f"{key}.operand_bytes"] = (sum(s.attrs["bytes"] for s in group), "bytes")

    dual_spans = by_name["simulate.dual_reweighted_estimate"]
    dual_s = sum(s.duration for s in dual_spans)
    busy = total("simulate.estimate") + dual_s
    trajectories = count("simulate._rng_for")
    rng_s = total("simulate._rng_for") + total("simulate._Draws")
    loop_s = (total("simulate._run_halfline") + total("simulate._run_segment")
              + sum(s.self_s for s in dual_spans))
    out["simulate.trajectories"] = (trajectories, "count")
    out["simulate.trajectories_per_s"] = (rate(trajectories, busy), "1/s")
    out["simulate.events"] = (tracer.exp_draws, "count")
    out["simulate.events_per_s"] = (rate(tracer.exp_draws, busy), "1/s")
    out["simulate.rng_setup_s"] = (rng_s, "s")
    out["simulate.event_loop_s"] = (loop_s, "s")
    out["simulate.rng_share"] = (rate(rng_s, busy), "ratio")
    out["simulate.dual.trajectories_per_s"] = (
        rate(sum(s.attrs["trajectories"] for s in dual_spans), dual_s), "1/s")

    for mode, fn in DUALITY_MODES.items():
        name = f"duality.{fn}"
        out[f"duality.identities.{mode}"] = (count(name), "count")
        out[f"duality.identities_per_s.{mode}"] = (rate(count(name), total(name)), "1/s")
    out["duality.apply_generator_calls"] = (count("duality.apply_generator"), "count")

    for d in (70, 252, 924):
        out[f"segment_ode.build_s.dim{d}"] = (
            sum(s.duration for s in by_name["segment_ode.build_dual_matrix"]
                if s.attrs["dim"] == d), "s")
        out[f"segment_ode.expm_s.dim{d}"] = (
            sum(s.duration for s in by_name["segment_ode.expm"] if s.attrs["dim"] == d), "s")
    out["segment_ode.check_s"] = (
        totals["segment_ode.check_segment_free_evolution"][2]
        if "segment_ode.check_segment_free_evolution" in totals else 0.0, "s")

    for label, name in (("nested_s", "kpz.she_moment_nested"),
                        ("residue_s", "kpz.she_moment_residue_form")):
        for n in range(1, 4):
            out[f"kpz.{label}.n{n}"] = (
                sum(s.duration for s in by_name[name] if s.attrs["n"] == n), "s")
    out["kpz.reduce_s"] = (total("kpz._reduce_additive"), "s")
    out["kpz.bridge_s"] = (total("kpz.scaled_asep_moment"), "s")
    return out
