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
