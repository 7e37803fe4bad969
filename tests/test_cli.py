import contextlib
import io
import json
import math
import os
import tempfile
import warnings
from importlib import resources

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from jsonschema import Draft7Validator

import ltll.cli
import ltll.mcmc
import ltll.simulation
from ltll.cli import EXIT_BOUNDARY, EXIT_ERROR, EXIT_OK, main
from ltll.datasets import apply_truncation, load_bladder_cancer, load_csv
from ltll.distribution import DegenerateSampleError, LTLLParams, draw_ltll
from ltll.numerics import RngStream


@pytest.fixture(scope="module")
def fit_validator():
    ref = resources.files("ltll").joinpath("schemas/fit_result.schema.json")
    schema = json.loads(ref.read_text())
    Draft7Validator.check_schema(schema)
    return Draft7Validator(schema)


def write(tmp_path, name, text):
    path = os.path.join(tmp_path, name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


class TestLoadCsv:
    def test_bundled_dataset(self):
        d = load_bladder_cancer()
        assert d.n == 128
        assert d.values.min() > 0
        assert d.provenance is not None

    def test_skips_non_numeric_with_count(self, tmp_path):
        path = write(tmp_path, "mixed.csv", "1.0\nx\n2.0\n")
        d = load_csv(path)
        assert list(d.values) == [1.0, 2.0]
        assert d.n_skipped == 1
        assert "non-numeric" in d.warnings[0]

    def test_comment_lines_counted_separately(self, tmp_path):
        path = write(tmp_path, "c.csv", "# provenance\n# more\n3.5\n4.5\n")
        d = load_csv(path)
        assert d.n_comments == 2
        assert d.n_skipped == 0

    def test_named_column(self, tmp_path):
        path = write(tmp_path, "cols.csv", "site,precip_mm\nberlin,512.5\nberlin,601.0\n")
        d = load_csv(path, column="precip_mm")
        assert list(d.values) == [512.5, 601.0]

    def test_indexed_column(self, tmp_path):
        path = write(tmp_path, "cols.csv", "a,b\n1.0,10.0\n2.0,20.0\n")
        d = load_csv(path, column=1)
        assert list(d.values) == [10.0, 20.0]
        assert d.n_skipped == 1  # header row is non-numeric

    @pytest.mark.parametrize("column", [-1, -5])
    def test_negative_column_index_refused(self, tmp_path, capsys, column):
        # -1 would quietly read the last column, -5 raise a stray IndexError.
        path = write(tmp_path, "cols.csv", "1.0,10.0\n2.0,20.0\n3.0,30.0\n")
        with pytest.raises(ValueError, match="non-negative"):
            load_csv(path, column=column)
        args = ["fit", "--data", path, "--column", str(column), "--method", "mle"]
        assert main(args) == EXIT_ERROR
        assert "non-negative" in capsys.readouterr().err

    def test_nonpositive_rejected_with_rows(self, tmp_path):
        path = write(tmp_path, "bad.csv", "1.0\n-3.0\n2.0\n0.0\n")
        with pytest.raises(ValueError) as err:
            load_csv(path)
        assert "rows [2, 4]" in str(err.value)

    def test_missing_file(self):
        with pytest.raises(OSError):
            load_csv("/nonexistent/file.csv")

    def test_empty_after_filtering(self, tmp_path):
        path = write(tmp_path, "empty.csv", "# only comments\n")
        with pytest.raises(ValueError):
            load_csv(path)

    @pytest.mark.parametrize("column, text", [("time", "time\n1.5\n2.5\n"),
                                               (None, "1.5\n2.5\n")])
    def test_byte_order_mark_is_dropped(self, tmp_path, column, text):
        path = os.path.join(tmp_path, "bom.csv")
        with open(path, "wb") as fh:
            fh.write(b"\xef\xbb\xbf" + text.encode())
        d = load_csv(path, column=column)
        assert d.values.tolist() == [1.5, 2.5]
        assert d.n_skipped == 0 and d.warnings == ()

    def test_missing_header_column(self, tmp_path):
        path = write(tmp_path, "cols.csv", "a,b\n1.0,2.0\n")
        with pytest.raises(ValueError):
            load_csv(path, column="nope")


class TestApplyTruncation:
    def test_zero_keeps_all(self):
        d = load_bladder_cancer()
        s = apply_truncation(d, 0.0)
        assert s.n == d.n == 128

    def test_filter_contract(self):
        d = load_bladder_cancer()
        s = apply_truncation(d, 6.0)
        assert s.n < d.n == 128
        assert s.values.min() > 6.0 and s.x_l == 6.0
        assert s.n + int(np.sum(d.values <= 6.0)) == 128

    def test_too_few_left(self, tmp_path):
        path = write(tmp_path, "three.csv", "1\n2\n3\n")
        d = load_csv(path)
        with pytest.raises(DegenerateSampleError):
            apply_truncation(d, 2.0)


class TestFitCommand:
    def test_mle_json_schema_and_determinism(self, tmp_path, fit_validator):
        out1 = os.path.join(tmp_path, "fit1.json")
        out2 = os.path.join(tmp_path, "fit2.json")
        args = ["fit", "--data", "bladder_cancer", "--xl", "0.25", "--method", "mle",
                "--seed", "5"]
        assert main(args + ["--out", out1]) == EXIT_OK
        assert main(args + ["--out", out2]) == EXIT_OK
        assert open(out1, "rb").read() == open(out2, "rb").read()
        doc = json.load(open(out1))
        fit_validator.validate(doc)
        assert doc["method"] == "mle"
        assert doc["n"] == 126

    def test_both_methods_json(self, tmp_path, fit_validator):
        out = os.path.join(tmp_path, "fit.json")
        code = main(["fit", "--data", "bladder_cancer", "--xl", "0", "--method", "both",
                     "--iters", "3000", "--burnin", "500", "--thin", "2",
                     "--seed", "5", "--units", "months", "--out", out])
        assert code == EXIT_OK
        docs = json.load(open(out))
        fit_validator.validate(docs)
        assert [d["method"] for d in docs] == ["mle", "bayes"]
        assert docs[1]["ess"][0] > 50
        assert docs[0]["units"] == "months"
        # n = 128 from its MLE: walk/independence chains, which report the
        # independence-step acceptance per chain.
        assert len(docs[1]["independence_acceptance"]) == 1
        assert 0.0 < docs[1]["independence_acceptance"][0] < 1.0

    def test_walk_only_fit_has_no_independence_field(self, tmp_path, fit_validator):
        # beta0/beta_C = 1.0031 < the margin: the chains only walk.
        rows = "\n".join(repr(float(v)) for v in
                         draw_ltll(39, LTLLParams(2.0, 3.0, 3.0), RngStream(7, 27)).values)
        path = write(tmp_path, "near_boundary.csv", rows + "\n")
        out = os.path.join(tmp_path, "fit.json")
        assert main(["fit", "--data", path, "--xl", "3.0", "--method", "bayes", "--chains", "2",
                     "--iters", "3000", "--burnin", "500", "--thin", "2", "--out", out]) == EXIT_OK
        doc = json.load(open(out))
        fit_validator.validate(doc)
        assert "independence_acceptance" not in doc

    def test_csv_format(self, tmp_path):
        out = os.path.join(tmp_path, "fit.csv")
        assert main(["fit", "--data", "bladder_cancer", "--method", "mle",
                     "--out", out, "--format", "csv"]) == EXIT_OK
        lines = open(out).read().strip().split("\n")
        assert lines[0].startswith("method,alpha,beta,alpha_ci_l")
        assert lines[1].startswith("mle,")

    def test_boundary_exit_code(self, tmp_path, capsys):
        rows = "\n".join(["1.01"] * 9 + [format(math.exp(60.0), ".6g")])
        path = write(tmp_path, "boundary.csv", rows + "\n")
        out = os.path.join(tmp_path, "fit.json")
        code = main(["fit", "--data", path, "--xl", "1.0", "--method", "mle", "--out", out])
        assert code == EXIT_BOUNDARY
        assert "Pareto" in capsys.readouterr().err
        doc = json.load(open(out))
        assert doc["boundary"] is True
        assert doc["alpha"] is None

    def test_error_exit_code(self, capsys):
        assert main(["fit", "--data", "/does/not/exist.csv"]) == EXIT_ERROR
        assert "error" in capsys.readouterr().err

    def test_env_seed_ignored(self, tmp_path, monkeypatch):
        # --seed is the only seed source: the environment cannot change a result.
        out1 = os.path.join(tmp_path, "a.json")
        out2 = os.path.join(tmp_path, "b.json")
        base = ["fit", "--data", "bladder_cancer", "--method", "bayes",
                "--iters", "2000", "--burnin", "400", "--thin", "2"]
        monkeypatch.setenv("LTLL_SEED", "99")
        assert main(base + ["--out", out1]) == EXIT_OK
        monkeypatch.delenv("LTLL_SEED")
        assert main(base + ["--seed", str(ltll.cli.DEFAULT_SEED), "--out", out2]) == EXIT_OK
        assert open(out1).read() == open(out2).read()
        assert json.load(open(out1))["seed"] == ltll.cli.DEFAULT_SEED

    def test_both_methods_fit_once(self, tmp_path, monkeypatch):
        calls = []

        def counting(fit):
            def wrapped(sample):
                calls.append(sample.n)
                return fit(sample)
            return wrapped

        monkeypatch.setattr(ltll.cli, "fit_mle", counting(ltll.cli.fit_mle))
        monkeypatch.setattr(ltll.mcmc, "fit_mle", counting(ltll.mcmc.fit_mle))
        out = os.path.join(tmp_path, "fit.json")
        assert main(["fit", "--data", "bladder_cancer", "--xl", "1.0", "--method", "both",
                     "--iters", "600", "--burnin", "100", "--thin", "1", "--out", out]) == EXIT_OK
        assert calls == [json.load(open(out))[0]["n"]]

    @pytest.mark.parametrize("command, method", [("fit", "bayes"), ("fit", "both"),
                                                 ("ellipse", "credible")])
    def test_too_few_draws_refused(self, tmp_path, capsys, command, method):
        args = [command, "--data", "bladder_cancer", "--xl", "1.0", "--method", method,
                "--iters", "2", "--burnin", "1", "--thin", "1",
                "--out", os.path.join(tmp_path, "out")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(args) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("ltll: error:") and "100" in err
        assert os.listdir(tmp_path) == []

    def test_draw_minimum_counts_all_chains(self, tmp_path):
        # 2 chains x 49 retained draws is still short; 2 x 50 is enough.
        short = ["fit", "--data", "bladder_cancer", "--xl", "1.0", "--method", "bayes",
                 "--chains", "2", "--burnin", "50", "--thin", "1"]
        assert main(short + ["--iters", "99"]) == EXIT_ERROR
        assert main(short + ["--iters", "100", "--out", os.path.join(tmp_path, "ok")]) == EXIT_OK

    def test_config_file_mirrors_flags(self, tmp_path):
        cfg = write(tmp_path, "cfg.json",
                    json.dumps({"data": "bladder_cancer", "method": "mle", "xl": 1.0}))
        out1 = os.path.join(tmp_path, "c.json")
        out2 = os.path.join(tmp_path, "d.json")
        assert main(["fit", "--config", cfg, "--out", out1]) == EXIT_OK
        assert main(["fit", "--data", "bladder_cancer", "--method", "mle", "--xl", "1.0",
                     "--out", out2]) == EXIT_OK
        assert open(out1).read() == open(out2).read()

    def test_config_equals_spelling_is_read(self, tmp_path):
        cfg = write(tmp_path, "cfg.json", json.dumps({"data": "bladder_cancer", "method": "mle"}))
        out = os.path.join(tmp_path, "c.json")
        assert main(["fit", f"--config={cfg}", "--out", out]) == EXIT_OK
        assert json.load(open(out))["method"] == "mle"

    @pytest.mark.parametrize("spelling", [["--seed=5"], ["--seed", "5"]])
    def test_explicit_flag_beats_config_in_any_spelling(self, tmp_path, spelling):
        cfg = write(tmp_path, "cfg.json",
                    json.dumps({"data": "bladder_cancer", "method": "mle", "seed": 7}))
        out = os.path.join(tmp_path, "c.json")
        assert main(["fit", "--config", cfg, *spelling, "--out", out]) == EXIT_OK
        assert json.load(open(out))["seed"] == 5

    def test_config_list_matches_comma_flag(self, tmp_path):
        # 500 iterations, 100 burn-in, thin 4: exactly 100 retained draws.
        flags = ["--sweep", "truncation", "--replicates", "3", "--n", "80", "--iters", "500",
                 "--burnin", "100", "--thin", "4", "--seed", "9"]
        cfg = write(tmp_path, "sim.json", json.dumps({"levels": [0.5, 1.0]}))
        tables = []
        for extra, sub in ((["--config", cfg], "cfg"), (["--levels", "0.5,1.0"], "flag")):
            out = os.path.join(tmp_path, sub)
            assert main(["simulate", *extra, *flags, "--out", out]) == EXIT_OK
            tables.append({name: open(os.path.join(out, name)).read()
                           for name in sorted(os.listdir(out))})
        assert tables[0] == tables[1]
        assert "table1_truncation.csv" in tables[0]
        assert tables[0]["table1_truncation.csv"].count("\n0.5,") == 2

    def test_malformed_prior_refused(self, tmp_path, capsys):
        out = os.path.join(tmp_path, "fit.json")
        assert main(["fit", "--data", "bladder_cancer", "--prior", "1,0.01,,1,0.01",
                     "--iters", "600", "--burnin", "100", "--thin", "1",
                     "--out", out]) == EXIT_ERROR
        assert capsys.readouterr().err == (
            "ltll: error: --prior has an empty item in '1,0.01,,1,0.01'\n")
        assert not os.path.exists(out)

    def test_nested_config_key_refused(self, tmp_path, capsys):
        # A "config" key would name a second file that nothing opens.
        cfg = write(tmp_path, "cfg.json", json.dumps({"config": "missing.json", "method": "mle"}))
        out = os.path.join(tmp_path, "fit.json")
        assert main(["fit", "--data", "bladder_cancer", "--config", cfg,
                     "--out", out]) == EXIT_ERROR
        assert capsys.readouterr().err == (
            'ltll: error: --config file must not hold a "config" key\n')
        assert not os.path.exists(out)

    def test_column_with_bundled_data_refused(self, tmp_path, capsys):
        out = os.path.join(tmp_path, "fit.json")
        assert main(["fit", "--data", "bladder_cancer", "--column", "nosuch", "--method", "mle",
                     "--out", out]) == EXIT_ERROR
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("ltll: error: --column")
        assert not os.path.exists(out)

    def test_missing_out_directory_named_as_given(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["fit", "--data", "bladder_cancer", "--method", "mle",
                     "--out", os.path.join("nodir", "x.json")]) == EXIT_ERROR
        assert capsys.readouterr().err == (
            "ltll: error: [Errno 2] No such file or directory: "
            f"{os.path.join('nodir', 'x.json')!r}\n")
        assert os.listdir(tmp_path) == []

    def test_config_without_path_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--data", "bladder_cancer", "--config"])
        assert exc.value.code == EXIT_ERROR
        assert "--config" in capsys.readouterr().err


class TestSimulateCommand:
    def test_truncation_outputs(self, tmp_path, capsys):
        args = ["simulate", "--sweep", "truncation", "--replicates", "6", "--n", "120",
                "--levels", "0.5,1.0", "--iters", "1500", "--burnin", "300", "--thin", "2",
                "--seed", "11", "--out", str(tmp_path)]
        assert main(args) == EXIT_OK
        t1 = open(os.path.join(tmp_path, "table1_truncation.csv")).read()
        t2 = open(os.path.join(tmp_path, "table2_truncation.csv")).read()
        assert t1.startswith("x_L,method,alpha_hat,beta_hat,alpha_ci_l,alpha_ci_u,beta_ci_l,beta_ci_u\n")
        assert t2.startswith("x_L,method,alpha_hat,bias_alpha,var_alpha,beta_hat,bias_beta,var_beta\n")
        summary = capsys.readouterr().out
        assert "Var(alpha)" in summary and "win rate" in summary  # trend lines printed

        # byte-identical rerun, also under parallel workers
        before = (t1, t2)
        assert main(args + ["--workers", "2"]) == EXIT_OK
        after = (open(os.path.join(tmp_path, "table1_truncation.csv")).read(),
                 open(os.path.join(tmp_path, "table2_truncation.csv")).read())
        assert after == before

    def test_small_n_boundary_sweep_worker_invariant(self, tmp_path, capsys):
        # n = 50 above x_L = 3: some replicates hit the boundary and walk,
        # the others take independence steps; tables and report lines are
        # byte-identical under one and two workers.
        args = ["simulate", "--sweep", "truncation", "--levels", "3.0", "--n", "50",
                "--replicates", "24", "--iters", "600", "--burnin", "200", "--thin", "2",
                "--seed", "5", "--out", str(tmp_path)]
        outputs = []
        for workers in ("1", "2"):
            assert main(args + ["--workers", workers]) == EXIT_OK
            captured = capsys.readouterr()
            assert "hit the Pareto boundary" in captured.err
            outputs.append((captured.out,
                            open(os.path.join(tmp_path, "table1_truncation.csv"), "rb").read(),
                            open(os.path.join(tmp_path, "table2_truncation.csv"), "rb").read()))
        assert outputs[0] == outputs[1]

    def test_sample_size_outputs(self, tmp_path):
        args = ["simulate", "--sweep", "n", "--replicates", "5", "--sizes", "50,100",
                "--iters", "1500", "--burnin", "300", "--thin", "2", "--seed", "12",
                "--out", str(tmp_path)]
        assert main(args) == EXIT_OK
        t3 = open(os.path.join(tmp_path, "table3_sample_size.csv")).read()
        assert t3.startswith("n,method,bias_alpha,var_alpha,rmse_alpha,bias_beta,var_beta,rmse_beta\n")
        assert main(args) == EXIT_OK
        assert open(os.path.join(tmp_path, "table3_sample_size.csv")).read() == t3

    @pytest.mark.parametrize("flags, reason", [
        # One retained draw; the hint must not offer --chains, which simulate lacks.
        (["--iters", "2", "--burnin", "1", "--thin", "1"], "below the 100 draws"),
        (["--chains", "2"], "unrecognized arguments: --chains"),
        # Walk scales are no flag, so an old --steps fails loudly in either spelling.
        (["--steps", "0.1,0.1"], "unrecognized arguments: --steps 0.1,0.1"),
        (["--workers", "0"], "--workers must be >= 1"),
        (["--config", {"steps": [0.1, 0.1]}], "unrecognized arguments: --steps 0.1,0.1"),
        (["--prior", "1,2,3"], "--prior needs 4 comma-separated values, got 3"),
        (["--truth", "2"], "--truth needs 2 comma-separated values, got 1"),
        (["--sizes", ","], "need at least one sample size"),
        (["--sweep", "truncation", "--levels", ","], "need at least one truncation level"),
        (["--sizes", ""], "need at least one sample size"),
        (["--sweep", "truncation", "--levels", ""], "need at least one truncation level"),
        (["--sizes", "50.9"], "--sizes needs integers, got '50.9'"),
        (["--sizes", "50,1e3"], "--sizes needs integers, got '50,1e3'"),
        (["--prior", "1,0.01,,1,0.01"], "--prior has an empty item in '1,0.01,,1,0.01'"),
        (["--truth", "2,"], "--truth has an empty item in '2,'"),
        (["--sweep", "truncation", "--levels", "0.1,,1.0"],
         "--levels has an empty item in '0.1,,1.0'"),
        (["--sweep", "truncation", "--levels", "0.5,x"], "--levels needs numbers, got '0.5,x'"),
    ])
    def test_refused(self, tmp_path, capsys, flags, reason):
        # A dict stands for a --config file holding it.
        flags = [write(tmp_path, "cfg.json", json.dumps(f)) if isinstance(f, dict) else f
                 for f in flags]
        out = os.path.join(tmp_path, "out")
        args = ["simulate", "--sweep", "n", "--replicates", "2", "--sizes", "50",
                "--out", out, *flags]
        try:
            code = main(args)
        except SystemExit as exc:  # usage errors leave through argparse
            code = exc.code
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.count("ltll: error: ") == 1 and reason in err
        assert err.count("--chains") == flags.count("--chains")
        assert not os.path.exists(out)

    def test_bad_level_refused_before_any_chain_runs(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(ltll.simulation, "_mh_chains", lambda *args: calls.append(args))
        out = os.path.join(tmp_path, "out")
        code = main(["simulate", "--sweep", "truncation", "--replicates", "2", "--n", "50",
                     "--levels", "1,nan", "--out", out])
        assert code == EXIT_ERROR
        assert "x_l must be finite" in capsys.readouterr().err
        assert calls == []
        assert not os.path.exists(out)


class TestEllipseCommand:
    def test_both_files_and_quadratic_form(self, tmp_path):
        stem = os.path.join(tmp_path, "bc")
        code = main(["ellipse", "--data", "bladder_cancer", "--xl", "0.25",
                     "--method", "both", "--npoints", "64", "--iters", "3000",
                     "--burnin", "600", "--thin", "2", "--seed", "9", "--out", stem])
        assert code == EXIT_OK
        for method in ("wald", "credible"):
            rows = open(f"{stem}_{method}.csv").read().strip().split("\n")
            assert rows[0] == "alpha,beta"
            assert len(rows) == 1 + 64
            side = json.load(open(f"{stem}_{method}.json"))
            m = side["matrix"]
            cx, cy = side["center"]
            for line in rows[1:]:
                a, b = map(float, line.split(","))
                q = (m["a11"] * (a - cx) ** 2 + 2 * m["a12"] * (a - cx) * (b - cy)
                     + m["a22"] * (b - cy) ** 2)
                assert q == pytest.approx(side["threshold"], rel=1e-6)

    def test_diamond_with_four_points(self, tmp_path):
        stem = os.path.join(tmp_path, "d")
        assert main(["ellipse", "--data", "bladder_cancer", "--method", "wald",
                     "--npoints", "4", "--out", stem]) == EXIT_OK
        rows = np.loadtxt(f"{stem}_wald.csv", delimiter=",", skiprows=1)
        assert rows.shape == (4, 2)
        # opposite vertices mirror through the center
        center = rows.mean(axis=0)
        assert np.allclose(rows[0] + rows[2], 2 * center, rtol=1e-8)
        assert np.allclose(rows[1] + rows[3], 2 * center, rtol=1e-8)

    def test_boundary_is_named(self, tmp_path, capsys):
        rows = "\n".join(["1.01"] * 9 + [format(math.exp(60.0), ".6g")])
        path = write(tmp_path, "boundary.csv", rows + "\n")
        code = main(["ellipse", "--data", path, "--xl", "1.0", "--out",
                     os.path.join(tmp_path, "e")])
        assert code == EXIT_BOUNDARY
        assert "Pareto" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, reason", [
        (["--level", "1.5"], "--level must lie in (0, 1), got 1.5"),
        (["--level", "0"], "--level must lie in (0, 1), got 0.0"),
        (["--npoints", "2"], "--npoints must be at least 3, got 2"),
    ])
    def test_bad_level_refused_before_any_chain_runs(self, tmp_path, capsys, monkeypatch,
                                                     flags, reason):
        calls = []
        monkeypatch.setattr(ltll.mcmc, "_mh_chains", lambda *args: calls.append("chain"))
        monkeypatch.setattr(ltll.datasets, "load_csv", lambda *args: calls.append("read"))
        code = main(["ellipse", "--data", "bladder_cancer", "--xl", "1", "--method", "credible",
                     "--out", os.path.join(tmp_path, "e"), *flags])
        assert code == EXIT_ERROR
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert errors == [f"ltll: error: {reason}"]
        assert calls == []
        assert os.listdir(tmp_path) == []


class TestMomentsCommand:
    def test_surface_and_determinism(self, tmp_path):
        out1 = os.path.join(tmp_path, "m1.csv")
        out2 = os.path.join(tmp_path, "m2.csv")
        args = ["moments", "--alpha-grid", "1.0:3.0:3", "--beta-grid", "2.0:4.0:2",
                "--xl", "0.7", "--draws", "20000", "--seed", "4"]
        assert main(args + ["--out", out1]) == EXIT_OK
        assert main(args + ["--out", out2]) == EXIT_OK
        assert open(out1, "rb").read() == open(out2, "rb").read()
        rows = np.loadtxt(out1, delimiter=",", skiprows=1)
        header = open(out1).readline().strip()
        assert header == "alpha,beta,mean,variance,skewness,kurtosis"
        # mean increases in alpha at each beta
        for beta in np.unique(rows[:, 1]):
            sub = rows[rows[:, 1] == beta]
            means = sub[np.argsort(sub[:, 0]), 2]
            assert np.all(np.diff(means) > 0)

    def test_untruncated_anchor_cell(self, tmp_path):
        out = os.path.join(tmp_path, "m.csv")
        assert main(["moments", "--alpha-grid", "2:2:1", "--beta-grid", "3:3:1",
                     "--xl", "0", "--draws", "100000", "--seed", "6",
                     "--out", out]) == EXIT_OK
        row = np.loadtxt(out, delimiter=",", skiprows=1)
        mean_exact = 2.0 * (math.pi / 3.0) / math.sin(math.pi / 3.0)
        assert abs(row[2] - mean_exact) < 3 * math.sqrt(3.825 / 100000)

    @pytest.mark.parametrize("flags, reason", [
        (["--alpha-grid", "1:2"], "--alpha-grid needs lo:hi:count, got '1:2'"),
        (["--beta-grid", "1:2:3:4"], "--beta-grid needs lo:hi:count"),
        (["--alpha-grid", "1:2:0"], "--alpha-grid needs a count of at least 1, got 0"),
    ])
    def test_bad_grid_refused(self, tmp_path, capsys, flags, reason):
        out = os.path.join(tmp_path, "m.csv")
        assert main(["moments", "--draws", "100", "--out", out, *flags]) == EXIT_ERROR
        assert reason in capsys.readouterr().err
        assert not os.path.exists(out)


def test_usage_error_is_exit_code_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fit"])  # missing required --data
    assert exc.value.code == EXIT_ERROR


# Each command with an empty path flag, run in an empty working directory.
_EMPTY_PATH_ARGS = {
    "fit --out": ["fit", "--data", "bladder_cancer", "--method", "mle", "--out", ""],
    "simulate --out": ["simulate", "--sweep", "n", "--replicates", "2", "--sizes", "50",
                       "--iters", "200", "--burnin", "50", "--thin", "1", "--out", ""],
    "ellipse --out": ["ellipse", "--data", "bladder_cancer", "--method", "wald", "--out", ""],
    "fit --data": ["fit", "--data", "", "--method", "mle", "--out", "fit.json"],
    "fit --config": ["fit", "--data", "bladder_cancer", "--config", "", "--out", "fit.json"],
    "fit --units": ["fit", "--data", "bladder_cancer", "--units", "", "--method", "mle",
                    "--out", "fit.json"],
    "fit --column": ["fit", "--data", "data.csv", "--column", "", "--method", "mle",
                     "--out", "fit.json"],
}


@pytest.mark.parametrize("case", list(_EMPTY_PATH_ARGS))
def test_empty_path_refused(tmp_path, monkeypatch, capsys, case):
    # An empty path names no file: the command must neither fall back to a
    # default location nor write beside the working directory.
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    try:
        code = main(_EMPTY_PATH_ARGS[case])
    except SystemExit as exc:  # usage errors leave through argparse
        code = exc.code
    assert code == EXIT_ERROR
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    flag = case.split()[1]
    assert errors == [f"ltll: error: argument {flag}: must not be empty"]
    assert os.listdir(work) == [] and os.listdir(tmp_path) == ["work"]


# The argv contract sweep.  Per command: flags every call starts with (tiny
# chains and sweeps; a flag drawn into the --config file leaves them, so that
# the file's value is read), then candidate values of the flags a call may
# add, valid, empty and malformed alike; ``None`` marks a bare flag.  Every
# call also names an --out among the command's first two candidates.
_ARGV_SWEEP = {
    "fit": ({"--data": "bladder_cancer", "--iters": "300", "--burnin": "100", "--thin": "1"}, {
        "--out": ["fit.json", "res/fit.json", ""],
        "--data": ["bladder_cancer", "", "missing.csv"],
        "--xl": ["1.0", "6", "", "-1", "x", "500"],
        "--method": ["mle", "bayes", "both", "", "nope"],
        "--format": ["json", "csv", ""],
        "--column": ["0", "-1", "x", ""],
        "--prior": ["1,0.01,1,0.01", "", ",", "1,2", "1,,2,3", "a,b,c,d", "0,1,1,1"],
        "--chains": ["2", "0", ""],
        "--iters": ["400", "2", "", "x"],
        "--thin": ["2", "0", ""],
        "--seed": ["5", "", "x"],
        "--steps": ["0.1,0.1"],
        "--config": ["", "missing.json"],
    }),
    "simulate": ({"--sweep": "n", "--replicates": "2", "--n": "50", "--sizes": "50",
                  "--levels": "1.0", "--iters": "300", "--burnin": "100", "--thin": "1"}, {
        "--out": ["tables", "res/tables", ""],
        "--sweep": ["truncation", "n", ""],
        "--truth": ["2,3", "", "2", "2,", "a,3"],
        "--prior": ["1,0.01,1,0.01", "", "1,,2,3"],
        "--levels": ["0.5,1.0", "", ",", "0.1,,1.0", "nan", "x"],
        "--sizes": ["30,50", "", ",", "50.9", "50,,60", "0"],
        "--replicates": ["3", "0", ""],
        "--n": ["40", "0", "x"],
        "--xl": ["0.5", "-1", ""],
        "--workers": ["1", "0", ""],
        "--iters": ["2", ""],
        "--fast": [None],
        "--steps": ["0.1,0.1"],
    }),
    "ellipse": ({"--data": "bladder_cancer", "--npoints": "8", "--iters": "300",
                 "--burnin": "100", "--thin": "1"}, {
        "--out": ["ell", "res/ell", ""],
        "--method": ["wald", "credible", "both", ""],
        "--xl": ["1.0", "", "500"],
        "--level": ["0.9", "0", "1.5", ""],
        "--npoints": ["4", "0", "-3", ""],
        "--prior": ["", "1,2"],
        "--chains": ["2", "0"],
        "--steps": ["0.1,0.1"],
    }),
    "moments": ({"--alpha-grid": "1:2:2", "--beta-grid": "2:3:2", "--draws": "200"}, {
        "--out": ["m.csv", "res/m.csv", ""],
        "--alpha-grid": ["1:2:1", "", "1:2", "1:2:0", "a:b:c"],
        "--beta-grid": ["2:4:2", "", "2:4:x"],
        "--xl": ["0", "-1", ""],
        "--draws": ["0", "-5", "", "x"],
        "--seed": ["3", ""],
    }),
}


def _under(path, outs):
    """Whether ``path`` is an --out in ``outs``, inside one, a file of its
    stem (``<out>_wald.csv``), or a directory leading to one."""
    return any(path == o or path.startswith((o + os.sep, o + "_")) or o.startswith(path + os.sep)
               for o in outs if o)


@pytest.mark.parametrize("command", list(_ARGV_SWEEP))
def test_argv_contract(tmp_path, command):
    base, options = _ARGV_SWEEP[command]
    pairs = [(flag, value) for flag, values in options.items() for value in values]

    @settings(max_examples=40, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(out=st.sampled_from(options["--out"][:2]),
           extra=st.lists(st.tuples(st.sampled_from(pairs), st.booleans()), max_size=4))
    @example(out="", extra=[])
    @example(out=options["--out"][0], extra=[(("--out", ""), True)])
    def check(out, extra):
        config = {flag[2:]: True if value is None else value
                  for (flag, value), via_config in extra if via_config}
        argv = [command, "--out", out]
        argv += [a for flag, value in base.items() if flag[2:] not in config for a in (flag, value)]
        for (flag, value), via_config in extra:
            if not via_config:
                argv += [flag] if value is None else [flag, value]
        with tempfile.TemporaryDirectory(dir=tmp_path) as work, contextlib.chdir(work):
            if config:
                argv += ["--config", write(work, "cfg.json", json.dumps(config))]
            stderr = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                try:
                    code = main(argv)
                except SystemExit as exc:  # usage errors leave through argparse
                    code = exc.code
            errors = [line for line in stderr.getvalue().splitlines()
                      if line.startswith("ltll: error:")]
            assert code in (EXIT_OK, EXIT_ERROR, EXIT_BOUNDARY), (argv, config)
            assert len(errors) == (code == EXIT_ERROR), (argv, config, errors)
            outs = [out] + [v for (f, v), _ in extra if f == "--out"]
            made = [os.path.relpath(os.path.join(root, name), work)
                    for root, dirs, files in os.walk(work) for name in dirs + files]
            assert [p for p in made if p != "cfg.json" and not _under(p, outs)] == [], argv

    check()
