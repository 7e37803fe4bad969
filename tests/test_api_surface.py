"""The package's public names, the call sites the benchmark tracer rebinds,
the demos, and the imports each module uses.

``perfbench/spans.py`` wraps entry points by rebinding module attributes.  The
suite also collects the benchmark's smoke tests (``pyproject.toml``
``testpaths`` lists ``perfbench/``), which run each workload traced at toy
size; the checks here name a renamed or deleted entry point directly, without
running a workload.  The demos' imports and
keyword arguments are checked statically, and each demo also runs to the end
from a copy in a temporary directory against this checkout's ``src``.
"""

import ast
import importlib
import importlib.util
import inspect
import json
import os
import shutil
import subprocess
import sys
import textwrap
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


# Every public name, pinned: a change to the public surface shows as a diff here.
PUBLIC = {
    "datasets": ["BUNDLED_DATASETS", "DatasetFile", "apply_truncation",
                 "load_bladder_cancer", "load_csv"],
    "distribution": ["DegenerateSampleError", "ExistenceStats", "LTLLParams", "Sample",
                     "draw_ltll", "existence_stats", "ll_cdf", "ll_pdf", "log_likelihood",
                     "ltll_cdf", "ltll_logpdf", "ltll_pdf", "ltll_quantile", "mc_moments",
                     "phi_objective", "score_gradient"],
    "mcmc": ["McmcConfig", "PosteriorResult", "PriorSpec", "credible_ellipse",
             "credible_intervals", "log_posterior", "log_prior", "marginal_beta_log_kernel",
             "posterior_density_grid", "run_chain", "summarize_draws"],
    "mle": ["BoundaryFitError", "EllipsePoints", "MleFit", "confidence_ellipse", "fit_mle",
            "observed_information", "wald_intervals"],
    "numerics": ["RngStream", "SymMatrix2", "chi2_quantile_2dof", "normal_quantile"],
    "simulation": ["ErrorMetrics", "MethodMetrics", "ReplicateResult", "Scenario", "SweepLevel",
                   "error_metrics", "run_replicate", "run_scenario",
                   "sample_size_sweep", "sample_size_trends", "table1_csv", "table2_csv",
                   "table3_csv", "truncation_sweep", "truncation_trends"],
}
PACKAGE = [
    "BoundaryFitError", "DegenerateSampleError", "EllipsePoints", "ExistenceStats", "LTLLParams",
    "McmcConfig", "MleFit", "PosteriorResult", "PriorSpec", "RngStream", "Sample", "Scenario",
    "SymMatrix2", "apply_truncation", "chi2_quantile_2dof", "confidence_ellipse",
    "credible_ellipse", "credible_intervals", "draw_ltll", "error_metrics", "existence_stats",
    "fit_mle", "ll_cdf", "ll_pdf", "load_bladder_cancer", "load_csv", "log_likelihood",
    "log_posterior", "log_prior", "ltll_cdf", "ltll_logpdf", "ltll_pdf", "ltll_quantile",
    "marginal_beta_log_kernel", "mc_moments", "normal_quantile", "observed_information",
    "phi_objective", "posterior_density_grid", "run_chain", "run_replicate", "run_scenario",
    "sample_size_sweep", "score_gradient", "truncation_sweep", "wald_intervals",
]


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


@pytest.mark.parametrize("name", MODULES)
def test_module_all_is_pinned(name):
    assert sorted(importlib.import_module(f"ltll.{name}").__all__) == PUBLIC[name]


def test_package_exports_are_pinned():
    exported = sorted(name for name, value in vars(ltll).items()
                      if not name.startswith("_") and not inspect.ismodule(value))
    assert exported == PACKAGE


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
    cfg = sim.McmcConfig(iterations=300, burn_in=100, thin=2, seed=5)
    base = sim.Scenario(true_params=sim.LTLLParams(2.0, 3.0, 1.0), n=40, replicates=3,
                        mcmc=cfg)
    levels = getattr(sim, sweep)(base, values)
    assert len(levels) == len(values)
    assert len(records) == len(values) * base.replicates


def test_fit_info_has_definiteness_flag():
    # The tracer's fit hook counts fits whose information is not positive definite.
    fit = fit_mle(Sample(np.array([2.0, 3.0, 5.0, 8.0, 13.0]), 1.0))
    assert not fit.boundary
    assert fit.info.is_positive_definite


def test_cli_runtime_imports_no_scipy(tmp_path):
    # The runtime needs numpy and the standard library only: importing
    # scipy.special alone took about 65% of a cold CLI start.  One process
    # imports the CLI, then fits with two chains and runs a 2-replicate sweep
    # through ltll.cli.main, and lists the scipy modules loaded after each.
    code = textwrap.dedent("""
        import json, sys
        import ltll.cli

        def scipy_modules():
            return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

        chain = ["--iters", "600", "--burnin", "100", "--thin", "1"]
        seen = {"import": scipy_modules()}
        seen["fit"] = (ltll.cli.main(["fit", "--data", "bladder_cancer", "--xl", "1",
                                      "--method", "both", "--chains", "2", "--out", "fit.json",
                                      *chain]), scipy_modules())
        seen["simulate"] = (ltll.cli.main(["simulate", "--sweep", "n", "--sizes", "50",
                                           "--n", "50", "--replicates", "2", "--out", "tables",
                                           *chain]), scipy_modules())
        print(json.dumps(seen))
    """)
    src = str(Path(ltll.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                         capture_output=True, text=True, check=True)
    seen = json.loads(out.stdout.splitlines()[-1])
    assert seen == {"import": [], "fit": [0, []], "simulate": [0, []]}
    assert (tmp_path / "fit.json").is_file() and (tmp_path / "tables").is_dir()
