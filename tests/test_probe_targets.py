"""Every perfbench trace probe names an attribute that exists in asep_lab.

perfbench/tracing.py patches module attributes by name and raises
LookupError for a missing one, so a rename inside asep_lab would break
`perfbench/run.py --trace 1`.  The probe lists are read from the file
itself; it imports nothing from asep_lab.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
PROBE_LISTS = ("MOMENT_PROBES", "LOWDIM_PROBES", "SIMULATE_PROBES", "EXACT_PROBES")


def _load_tracing():
    name = "_perfbench_tracing"
    spec = importlib.util.spec_from_file_location(name, TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up while decorating
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return module


@pytest.mark.parametrize("list_name", PROBE_LISTS)
def test_probe_targets_exist(list_name):
    probes = getattr(_load_tracing(), list_name)
    assert probes
    missing = [p.site for p in probes
               if not hasattr(importlib.import_module(f"asep_lab.{p.module}"), p.attr)]
    assert not missing, f"{list_name} names missing attributes: {missing}"


def test_simulate_probes_fire_and_restore():
    # the probes patch module attributes; a helper captured elsewhere would leave one silent
    from fractions import Fraction as F

    import asep_lab
    from asep_lab import simulate
    from asep_lab.model import ModelParams, SegmentParams

    tracing = _load_tracing()
    originals = {p.attr: getattr(simulate, p.attr) for p in tracing.SIMULATE_PROBES}
    installation = tracing.Installation(asep_lab, tracing.Tracer(), tracing.SIMULATE_PROBES)
    try:
        halfline = ModelParams.from_density(1, F(1, 2), F(3, 4))
        segment = SegmentParams.from_densities(1, F(1, 2), F(3, 4), F(1, 3), 4)
        for params, obs in ((halfline, (2,)), (segment, (1, 3))):
            simulate.estimate(simulate.SimConfig(params, 1.0, 20, seed=3, observables=(obs,)))
        simulate.dual_reweighted_estimate(segment, (1, 3), 1.0, 20, seed=3)
        assert installation.silent() == []
    finally:
        installation.restore()
    assert {attr: getattr(simulate, attr) for attr in originals} == originals


def test_moment_probes_see_every_three_dimensional_contraction():
    # each 3-D row goes through contract_factored on 1-D grid vectors, so the
    # traced quadrature.circle.d3 layer counts it with its N^3 grid points
    from fractions import Fraction as F

    import asep_lab
    from asep_lab import moments
    from asep_lab.model import ModelParams

    tracing = _load_tracing()
    tracer = tracing.Tracer()
    installation = tracing.Installation(asep_lab, tracer, tracing.MOMENT_PROBES)
    try:
        moments.free_evolution_residuals(0.7, (1, 2, 4), ModelParams.from_density(1, F(1, 2),
                                                                                 F(9, 10)))
    finally:
        installation.restore()
    points = [s.attrs["points"] for s in tracer.kept
              if s.name == "quadrature.contract_factored" and s.attrs["d"] == 3]
    fine = moments.QuadratureSpec().nodes(3)
    # 7 site vectors and 3 d/dt rows on the fine grid, the 7 site vectors on its
    # half grid of every other node
    assert sorted(points) == [(fine // 2) ** 3] * 7 + [fine ** 3] * 10
