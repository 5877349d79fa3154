"""Command-line front end with reproducible CSV/JSON output.

Every output embeds the run manifest (subcommand, parameters, seed,
versions, node counts); re-running with the same manifest reproduces the
output bytes exactly, so wall time goes to the log stream instead of the
file.  Exit codes: 0 success, 2 validation error, 3 numerical failure,
4 verification failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import time
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from . import __version__
from .duality import (DualityReport, chamber_vectors, exhaustive_states,
                      negative_control_no_liggett, verify_fictitious_site,
                      verify_fullspace_duality, verify_halfline_duality,
                      verify_segment_duality)
from .kpz import (DIRICHLET, ROBIN, KpzParams, she_moment_nested,
                  she_moment_residue_form, scaled_asep_moment)
from .model import (ChamberError, ModelParams, SegmentParams, SegmentState, ValidityError,
                    check_chamber)
from .moments import QuadratureSpec, q_moment
from .residues import ReductionError
from .segment_ode import solve_u
from .simulate import SimConfig, estimate

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_VERIFICATION = 4

# the widest line window of `verify`: its 2^16 states list in 0.23 s and 47 MB
# (2^18: 1.2 s, 190 MB) on 2 cores, and one point checks 55 million identities
MAX_VERIFY_SITE = 16


def _versions() -> Dict[str, str]:
    import scipy
    # the kpz values contract in BLAS, so their last bits depend on its build
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "asep_lab": __version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": ".".join(map(str, sys.version_info[:3])),
    }


def _manifest(subcommand: str, args: argparse.Namespace, extra: Optional[dict] = None) -> dict:
    skip = {"func", "output", "config", "subcommand"}
    params = {k: v for k, v in sorted(vars(args).items())
              if k not in skip and v is not None and not callable(v)}
    man = {"subcommand": subcommand, "parameters": params, "versions": _versions()}
    if extra:
        man.update(extra)
    return man


def _emit(args, manifest: dict, columns: Sequence[str], rows: List[dict],
          json_extra: Optional[dict] = None):
    out = sys.stdout if args.output is None else open(args.output, "w")
    try:
        if args.format == "json":
            doc = {"manifest": manifest, "rows": rows}
            if json_extra:
                doc.update(json_extra)
            out.write(json.dumps(doc, sort_keys=True, indent=2, default=str) + "\n")
        else:
            for line in json.dumps(manifest, sort_keys=True, default=str).splitlines():
                out.write(f"# {line}\n")
            out.write(",".join(columns) + "\n")
            for row in rows:
                out.write(",".join(str(row.get(c, "")) for c in columns) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()


def _check_output(path: Optional[str]):
    """Refuse an --output path that cannot be written, before any work is done."""
    if path is None:
        return
    folder = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(folder) or not os.access(folder, os.W_OK):
        raise ValidityError(f"cannot write --output {path}: no writable directory {folder}")
    if os.path.isdir(path):
        raise ValidityError(f"cannot write --output {path}: it is a directory")


def _parse_sites(text: str) -> tuple:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError as exc:
        raise ValidityError(f"bad site list {text!r}: {exc}")


def _parse_floats(text: str) -> tuple:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise ValidityError(f"bad number list {text!r}: {exc}")


def _model_params(args) -> ModelParams:
    if args.rho is not None:
        if args.alpha is not None or args.gamma is not None:
            raise ValidityError("give either --rho or --alpha/--gamma, not both")
        return ModelParams.from_density(args.p, args.q, args.rho)
    if args.alpha is None or args.gamma is None:
        raise ValidityError("give either --rho or both --alpha and --gamma")
    return ModelParams(args.p, args.q, args.alpha, args.gamma)


def _segment_params(args) -> SegmentParams:
    densities = (args.rho0, args.rho_ell)
    rates = (args.alpha, args.gamma, args.beta, args.delta)
    if None not in densities and all(v is None for v in rates):
        return SegmentParams.from_densities(args.p, args.q, args.rho0, args.rho_ell, args.ell)
    if densities == (None, None) and None not in rates:
        return SegmentParams(args.p, args.q, args.alpha, args.gamma, ell=args.ell,
                             beta=args.beta, delta=args.delta)
    raise ValidityError("give both --rho0/--rho-ell or all of --alpha/--gamma/--beta/--delta, "
                        "not a mix")


def _quad(args) -> QuadratureSpec:
    if args.nodes is None:
        return QuadratureSpec()
    return QuadratureSpec.with_1d_nodes(args.nodes)


def cmd_moments(args) -> int:
    params = _model_params(args)
    x = check_chamber(_parse_sites(args.x))
    quad = _quad(args)
    res = q_moment(args.t, x, params, quad)
    row = {"n": len(x), "t": args.t, "value": repr(res.value), "quad_err": repr(res.quad_error)}
    for i, xi in enumerate(x):
        row[f"x{i + 1}"] = xi
    columns = ["n", "t"] + [f"x{i + 1}" for i in range(len(x))] + ["value", "quad_err"]
    manifest = _manifest("moments", args, {"nodes_by_dim": list(res.nodes_by_dim)})
    breakdown = {"+".join(map(str, lam)): v for lam, v in res.per_partition.items()}
    _emit(args, manifest, columns, [row],
          {"per_partition": breakdown, "imag_residual": res.imag_residual})
    return EXIT_OK


def cmd_simulate(args) -> int:
    if args.ell is not None:
        if args.rho is not None:
            raise ValidityError("--rho is the half-line density; with --ell give --rho0/--rho-ell")
        params = _segment_params(args)
    elif any(v is not None for v in (args.beta, args.delta, args.rho0, args.rho_ell)):
        raise ValidityError("--beta, --delta, --rho0 and --rho-ell set segment rates; "
                            "they need --ell")
    else:
        params = _model_params(args)
    observables = tuple(_parse_sites(s) for s in args.observable) or ((1,),)
    config = SimConfig(params, args.t, args.trajectories, args.seed, observables)
    ests = estimate(config, threads=args.threads)
    rows = [{"observable": " ".join(map(str, e.observable)), "mean": repr(e.mean),
             "std_error": repr(e.std_error), "trajectories": e.trajectories,
             "seed": args.seed} for e in ests]
    _emit(args, _manifest("simulate", args),
          ["observable", "mean", "std_error", "trajectories", "seed"], rows)
    return EXIT_OK


def _no_liggett_report(params: ModelParams, eta, x) -> DualityReport:
    rep = negative_control_no_liggett(params, eta, x)
    return rep.bulk_report or rep.corrected_report


# every mode but "segment" checks one identity per (eta, x) on the line window
_LINE_VERIFIERS = {
    "fullspace": verify_fullspace_duality,
    "halfline": verify_halfline_duality,
    "no-liggett": _no_liggett_report,
    "fictitious": verify_fictitious_site,
}


def _verify_reports(args) -> Iterator[DualityReport]:
    rng = np.random.default_rng(args.seed)

    def rand_fraction(lo_num=1, hi_num=9, den=10):
        return Fraction(int(rng.integers(lo_num, hi_num + 1)), den)

    for _ in range(args.points):
        qv = rand_fraction(1, 9)          # q in (0,1)
        rho = rand_fraction(1, 10)        # in (0,1]
        if args.mode == "segment":
            ell = args.ell
            sp = SegmentParams.from_densities(1, qv, rho, rand_fraction(1, 10), ell)
            yield from (verify_segment_duality(sp, eta, n_ell, x)
                        for eta in itertools.product((0, 1), repeat=ell - 1)
                        for n_ell in (0, 1)
                        for n in range(1, min(args.max_n, ell) + 1)
                        for x in chamber_vectors(1, ell, n))
            continue
        if args.mode == "no-liggett":
            params = ModelParams(1, qv, rand_fraction(1, 9), rand_fraction(1, 9))
            if params.liggett_ok():
                params = ModelParams(1, qv, params.alpha, params.gamma + Fraction(1, 7))
        else:
            params = ModelParams.from_density(1, qv, rho)
        verify = _LINE_VERIFIERS[args.mode]
        yield from (verify(params, eta, x)
                    for eta in exhaustive_states(args.max_site)
                    for n in range(1, args.max_n + 1)
                    for x in chamber_vectors(1, args.max_site + 1, n))


def cmd_verify(args) -> int:
    # the segment mode reads --ell (default 4), the others --max-site (default
    # 5); the default goes into args so that the manifest records it
    if args.mode == "segment":
        if args.max_site is not None:
            raise ValidityError("--max-site sets the line window; --mode segment takes --ell")
        args.ell = 4 if args.ell is None else args.ell
    else:
        if args.ell is not None:
            raise ValidityError(f"--ell sets the segment length; --mode {args.mode} "
                                "takes --max-site")
        args.max_site = 5 if args.max_site is None else args.max_site
        if args.max_site > MAX_VERIFY_SITE:
            raise ValidityError(f"--max-site {args.max_site} lists 2^{args.max_site} states, "
                                f"above the cap of {MAX_VERIFY_SITE}")
    out = sys.stdout if args.output is None else open(args.output, "w")
    checked = failed = 0
    try:
        man = json.dumps(_manifest("verify", args), sort_keys=True, default=str)
        out.write(json.dumps({"manifest": json.loads(man)}, sort_keys=True) + "\n")
        for checked, rep in enumerate(_verify_reports(args), 1):
            out.write(rep.to_json() + "\n")
            failed += 0 if rep.ok else 1
    finally:
        if out is not sys.stdout:
            out.close()
    print(f"checked {checked} identities, {failed} failures", file=sys.stderr)
    return EXIT_OK if failed == 0 else EXIT_VERIFICATION


def cmd_segment(args) -> int:
    params = _segment_params(args)
    sol = solve_u(args.t, SegmentState.empty(params.ell), params, args.n)
    rows = []
    for x in sol.dual.vectors:
        row = {"t": args.t, "value": repr(sol.value(x)), "solver_err": repr(sol.solver_error)}
        for i, xi in enumerate(x):
            row[f"x{i + 1}"] = xi
        rows.append(row)
    columns = ["t"] + [f"x{i + 1}" for i in range(args.n)] + ["value", "solver_err"]
    _emit(args, _manifest("segment", args), columns, rows)
    return EXIT_OK


def cmd_kpz(args) -> int:
    x = _parse_floats(args.x)
    boundary = DIRICHLET if args.boundary == "dirichlet" else ROBIN
    kpz = KpzParams(t=args.t, x=x, A=args.A, boundary=boundary)
    rows = []
    if args.eps:
        if args.form == "residue":
            raise ValidityError("--eps compares against the nested form; drop --form residue")
        limit = she_moment_nested(kpz)
        for eps in _parse_floats(args.eps):
            val = scaled_asep_moment(eps, kpz)
            rows.append({"eps": eps, "value": repr(val), "limit": repr(limit),
                         "abs_diff": repr(abs(val - limit))})
        columns = ["eps", "value", "limit", "abs_diff"]
    else:
        if args.form == "residue":
            val = she_moment_residue_form(kpz)
        else:
            val = she_moment_nested(kpz)
        row = {"t": args.t, "form": args.form, "value": repr(val)}
        for i, xi in enumerate(x):
            row[f"x{i + 1}"] = xi
        rows.append(row)
        columns = ["t"] + [f"x{i + 1}" for i in range(len(x))] + ["form", "value"]
    _emit(args, _manifest("kpz", args), columns, rows)
    return EXIT_OK


def _add_output(sub):
    sub.add_argument("--format", choices=["csv", "json"], default="csv")
    sub.add_argument("--output", default=None, help="write to a file instead of stdout")


def _add_rates(sub, rho=True):
    sub.add_argument("--p", default="1", help="right jump rate (exact rational)")
    sub.add_argument("--q", default="1/2", help="left jump rate (exact rational)")
    sub.add_argument("--alpha", default=None)
    sub.add_argument("--gamma", default=None)
    if rho:
        sub.add_argument("--rho", default=None,
                         help="boundary density; fills alpha, gamma via Liggett's relation")


def _int_at_least(low: int):
    """argparse type: an integer >= low, so a run cannot check nothing."""
    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return convert


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line in one line, exit code 2."""

    def error(self, message):
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="asep-lab",
        description="q-moments, dualities and KPZ-limit moments for open ASEP")
    parser.add_argument("--config", default=None,
                        help="key=value file supplying flag defaults")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    m = subs.add_parser("moments", help="contour-integral q-moments")
    _add_output(m)
    _add_rates(m)
    m.add_argument("--t", type=float, required=True)
    m.add_argument("--x", required=True, help="comma-separated sites")
    m.add_argument("--nodes", type=int, default=None, help="1D trapezoid node count")
    m.set_defaults(func=cmd_moments)

    s = subs.add_parser("simulate", help="Monte Carlo estimates of the observables")
    _add_output(s)
    _add_rates(s)
    # a string default goes through type at parse time, so a malformed
    # ASEP_LAB_THREADS is reported like a malformed --threads
    s.add_argument("--threads", type=_int_at_least(1),
                   default=os.environ.get("ASEP_LAB_THREADS", "1"))
    s.add_argument("--t", type=float, required=True)
    s.add_argument("--trajectories", type=int, default=10000)
    s.add_argument("--seed", type=int, default=1)
    s.add_argument("--observable", action="append", default=[],
                   help="comma-separated sites; repeatable")
    s.add_argument("--ell", type=int, default=None, help="simulate the segment model")
    s.add_argument("--beta", default=None)
    s.add_argument("--delta", default=None)
    s.add_argument("--rho0", default=None)
    s.add_argument("--rho-ell", dest="rho_ell", default=None)
    s.set_defaults(func=cmd_simulate)

    v = subs.add_parser("verify", help="exact duality residuals as JSON lines")
    v.add_argument("--output", default=None, help="write to a file instead of stdout")
    v.add_argument("--mode", required=True,
                   choices=["fullspace", "halfline", "segment", "no-liggett", "fictitious"])
    v.add_argument("--seed", type=_int_at_least(0), default=0)
    v.add_argument("--points", type=_int_at_least(1), default=3,
                   help="random rational parameter points")
    v.add_argument("--max-site", dest="max_site", type=_int_at_least(0), default=None,
                   help="line window of the other modes (default 5)")
    v.add_argument("--max-n", dest="max_n", type=_int_at_least(1), default=3)
    v.add_argument("--ell", type=_int_at_least(2), default=None,
                   help="segment length of --mode segment (default 4)")
    v.set_defaults(func=cmd_verify)

    g = subs.add_parser("segment", help="dual-generator ODE solution on the segment")
    _add_output(g)
    _add_rates(g, rho=False)
    g.add_argument("--ell", type=int, required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--t", type=float, required=True)
    g.add_argument("--beta", default=None)
    g.add_argument("--delta", default=None)
    g.add_argument("--rho0", default=None)
    g.add_argument("--rho-ell", dest="rho_ell", default=None)
    g.set_defaults(func=cmd_segment)

    k = subs.add_parser("kpz", help="stochastic-heat-equation moments")
    _add_output(k)
    k.add_argument("--A", type=float, default=None, help="Robin boundary parameter")
    k.add_argument("--t", type=float, required=True)
    k.add_argument("--x", required=True, help="comma-separated positions")
    k.add_argument("--boundary", choices=["robin", "dirichlet"], default="robin")
    k.add_argument("--form", choices=["nested", "residue"], default="nested")
    k.add_argument("--eps", default=None,
                   help="comma-separated asymmetries for the scaling bridge to the nested form")
    k.set_defaults(func=cmd_kpz)
    return parser


def _apply_config(argv: List[str]) -> List[str]:
    """Inject key=value pairs from --config as flags before the explicit ones.

    Explicit command-line flags win because argparse keeps the last
    occurrence; injected flags pass through the normal type converters.
    """
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    if idx + 1 == len(argv):
        raise ValidityError("--config needs a file path")
    path = argv[idx + 1]
    rest = argv[:idx] + argv[idx + 2:]
    inject: List[str] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, val = line.partition("=")
            flag = "--" + key.strip().replace("_", "-")
            if flag not in rest:
                inject.extend([flag, val.strip()])
    if not rest:
        return rest
    return rest[:1] + inject + rest[1:]


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _apply_config(argv)
        args = parser.parse_args(argv)
    except (OSError, ValidityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    start = time.monotonic()
    try:
        _check_output(args.output)
        code = args.func(args)
    except (ValidityError, ChamberError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ArithmeticError, ReductionError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    print(f"wall_time_s={time.monotonic() - start:.3f}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
