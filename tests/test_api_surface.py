"""The package's public names, the call sites the benchmark tracer rebinds,
the demos, and the imports each module uses.

``perfbench/spans.py`` wraps entry points by rebinding module attributes, and
the test suite does not collect ``perfbench/``; a renamed or deleted name would
otherwise surface only in a traced benchmark run.  The demos' imports and
keyword arguments are checked statically, and each demo also runs to the end
from a copy in a temporary directory against this checkout's ``src``.
"""

import ast
import importlib
import importlib.util
import inspect
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ltll
from ltll.distribution import Sample
from ltll.mle import fit_mle

MODULES = ("datasets", "distribution", "mcmc", "mle", "numerics", "simulation")
ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
DEMOS = sorted((ROOT / "demos").glob("*.py"))


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


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_uses_existing_api(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    compile(tree, str(path), "exec")
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ltll":
            mod = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(mod, alias.name), f"{node.module}.{alias.name}"
                imported[alias.asname or alias.name] = getattr(mod, alias.name)
    assert imported
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in imported):
            continue
        params = inspect.signature(imported[node.func.id]).parameters
        if any(p.kind is p.VAR_KEYWORD for p in params.values()):
            continue
        unknown = [kw.arg for kw in node.keywords if kw.arg and kw.arg not in params]
        assert not unknown, f"{path.name}:{node.lineno} {node.func.id}({unknown})"


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, tmp_path):
    # A demo writes output/ beside its own file, so the copy keeps the checkout clean.
    demo = tmp_path / path.name
    shutil.copy(path, demo)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"),
                                                       os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr


def _unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_modules_use_what_they_import():
    # The tracer rebinds some imported names, so those may go unused.
    rebound = {(target, attr) for target, attr, _, _ in _load_spans().CALL_SITES}
    unused = sorted(f"{path.stem}.{name}"
                    for path in Path(ltll.__file__).parent.glob("*.py")
                    if path.name != "__init__.py"
                    for name in _unused_imports(path)
                    if (f"ltll.{path.stem}", name) not in rebound)
    assert not unused


@pytest.mark.parametrize("sweep, values", [("truncation_sweep", (0.5, 1.0)),
                                            ("sample_size_sweep", (40, 60))])
def test_sweep_records_pass_through_run_scenario(monkeypatch, sweep, values):
    # The benchmark counts a sweep's replicates by rebinding
    # ltll.simulation.run_scenario with a recorder like this one, so a sweep
    # must return every level's records through that module global.
    import ltll.simulation as sim

    records = []

    def capture(fn):
        def run_scenario(*args, **kwargs):
            out = fn(*args, **kwargs)
            records.extend(out)
            return out
        return run_scenario

    monkeypatch.setattr(sim, "run_scenario", capture(sim.run_scenario))
    cfg = sim.McmcConfig(iterations=300, burn_in=100, thin=2)
    base = sim.Scenario(true_params=sim.LTLLParams(2.0, 3.0, 1.0), n=40, replicates=3,
                        mcmc=cfg, master_seed=5)
    levels = getattr(sim, sweep)(base, values)
    assert len(levels) == len(values)
    assert len(records) == len(values) * base.replicates


def test_fit_info_has_definiteness_flag():
    # The tracer's fit hook counts fits whose information is not positive definite.
    fit = fit_mle(Sample(np.array([2.0, 3.0, 5.0, 8.0, 13.0]), 1.0))
    assert not fit.boundary
    assert fit.info.is_positive_definite


def test_cli_import_leaves_out_scipy_optimize_and_stats():
    # Either subpackage adds about a tenth of a second to every CLI start.
    code = ("import sys, ltll.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[:2] in (['scipy', 'optimize'], ['scipy', 'stats'])))")
    src = str(Path(ltll.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
