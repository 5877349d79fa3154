"""Importing asep_lab loads numpy and no scipy submodule.

scipy's sparse and special modules cost about 0.25-0.40 s to import, and
only the segment dual ODE and the Robin heat-kernel oracle use them; each
imports them inside the function that calls them.  Both checks run in a
fresh interpreter, since this test process may already hold scipy.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HEAVY = ("scipy.sparse", "scipy.linalg", "scipy.special")


def _benchmark_modules() -> tuple:
    """perfbench/run.py's MODULES, read from the file without running it."""
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "MODULES"
                                                for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError("perfbench/run.py defines no MODULES")


def _fresh(code: str) -> str:
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_loads_no_scipy_submodule():
    imports = "; ".join(["import asep_lab"]
                        + [f"import asep_lab.{m}" for m in _benchmark_modules()]
                        + ["import asep_lab.cli"])
    loaded = sorted(m for m in _fresh(f"import sys; {imports}; print(*sys.modules)").split()
                    if any(m == h or m.startswith(h + ".") for h in HEAVY))
    assert not loaded, f"importing asep_lab loaded {loaded}"


def test_segment_solve_loads_scipy_when_called():
    out = _fresh("import sys\n"
                 "from fractions import Fraction as F\n"
                 "from asep_lab import segment_ode\n"
                 "from asep_lab.model import SegmentParams, SegmentState\n"
                 "assert 'scipy.sparse.linalg' not in sys.modules\n"
                 "sol = segment_ode.solve_u(1.0, SegmentState.empty(4), SegmentParams."
                 "from_densities(1, F(1, 2), F(3, 4), F(1, 3), 4), 2)\n"
                 "print(sol.values.shape[0], 'scipy.sparse.linalg' in sys.modules)")
    assert out.split() == ["6", "True"]
