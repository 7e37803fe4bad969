"""The package's public names and the call sites the benchmark tracer rebinds.

``perfbench/spans.py`` wraps entry points by rebinding module attributes, and
the test suite does not collect ``perfbench/``; a renamed or deleted name would
otherwise surface only in a traced benchmark run.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import ltll
from ltll.distribution import Sample
from ltll.mle import fit_mle

MODULES = ("datasets", "distribution", "mcmc", "mle", "numerics", "simulation")
SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    mod = importlib.import_module(f"ltll.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing


def test_package_reexports_public_names():
    tree = ast.parse(Path(ltll.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        public = importlib.import_module(f"ltll.{node.module}").__all__
        for alias in node.names:
            assert hasattr(ltll, alias.name)
            assert alias.name in public, f"ltll.{node.module}.{alias.name} is not in __all__"


def test_tracer_call_sites_resolve():
    spans = _load_spans()
    missing = [(target, attr) for target, attr, _, _ in spans.CALL_SITES
               if not hasattr(spans.resolve(target), attr)]
    assert not missing


def test_fit_info_has_definiteness_flag():
    # The tracer's fit hook counts fits whose information is not positive definite.
    fit = fit_mle(Sample(np.array([2.0, 3.0, 5.0, 8.0, 13.0]), 1.0))
    assert not fit.boundary
    assert fit.info.is_positive_definite
