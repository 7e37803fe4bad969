import os

import numpy as np
import pytest

from ltll.distribution import LTLLParams
from ltll.mcmc import _SCREEN_MIN_N, McmcConfig, PriorSpec
from ltll.simulation import (
    Scenario,
    atomic_write_text,
    error_metrics,
    run_replicate,
    run_scenario,
    sample_size_sweep,
    table1_csv,
    table2_csv,
    table3_csv,
    truncation_sweep,
)

TINY_MCMC = McmcConfig(iterations=2500, burn_in=500, thin=2, seed=1)


def tiny_scenario(replicates=8, n=150, x_l=1.0, master_seed=314):
    return Scenario(
        true_params=LTLLParams(2.0, 3.0, x_l), n=n, replicates=replicates,
        prior=PriorSpec.diffuse(), mcmc=TINY_MCMC, master_seed=master_seed,
    )


class TestErrorMetrics:
    def test_hand_example(self):
        m = error_metrics([2.1, 1.9, 2.0], 2.0)
        assert m.bias == pytest.approx(0.0, abs=1e-12)
        assert m.variance == pytest.approx(0.01)
        assert m.rmse == pytest.approx(0.1)

    def test_exact_estimates(self):
        m = error_metrics([2.0, 2.0, 2.0], 2.0)
        assert (m.bias, m.variance, m.rmse) == (0.0, 0.0, 0.0)

    def test_constant_offset(self):
        m = error_metrics([3.0, 3.0, 3.0, 3.0], 2.0)
        assert (m.bias, m.variance, m.rmse) == (1.0, 0.0, 1.0)

    def test_rmse_identity(self):
        rng = np.random.default_rng(0)
        est = rng.normal(2.3, 0.4, size=57)
        m = error_metrics(est, 2.0)
        assert m.rmse ** 2 == pytest.approx(m.bias ** 2 + m.variance, abs=1e-10)

    def test_needs_two(self):
        with pytest.raises(ValueError):
            error_metrics([2.0], 2.0)


class TestReplicates:
    def test_replicate_is_pure_function_of_seed_and_index(self):
        sc = tiny_scenario()
        assert run_replicate(sc, 3) == run_replicate(sc, 3)

    def test_replicates_differ(self):
        sc = tiny_scenario()
        assert run_replicate(sc, 0) != run_replicate(sc, 1)

    def test_index_validation(self):
        with pytest.raises(ValueError):
            run_replicate(tiny_scenario(), 99)

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            tiny_scenario(replicates=1)
        with pytest.raises(ValueError):
            tiny_scenario(n=5)

    def test_replicate_matches_its_chunk(self):
        # A replicate recomputed alone equals the one its 50-replicate chunk
        # produced, also at n where chains run the delayed-acceptance screen:
        # whether a chain is screened depends on its own sample, never on
        # the bank.  r = 7 sits in the full chunk 0..49, r = 51 in the
        # trailing chunk 50..52.
        sc = Scenario(
            true_params=LTLLParams(2.0, 3.0, 1.0), n=_SCREEN_MIN_N, replicates=53,
            prior=PriorSpec.diffuse(), mcmc=McmcConfig(iterations=400, burn_in=100, thin=2),
            master_seed=271,
        )
        recs = run_scenario(sc)
        for r in (7, 51):
            assert run_replicate(sc, r) == recs[r]

    def test_estimates_near_truth(self):
        rec = run_replicate(tiny_scenario(n=400), 0)
        assert not rec.boundary
        assert abs(rec.mle_alpha - 2.0) < 0.5
        assert abs(rec.bayes_beta - 3.0) < 1.0
        assert 0.0 < rec.acceptance_rate < 1.0


class TestScenario:
    def test_scenario_deterministic_and_worker_invariant(self):
        sc = tiny_scenario(replicates=6)
        seq = run_scenario(sc, workers=1)
        par = run_scenario(sc, workers=2)
        assert seq == par
        assert seq == run_scenario(sc, workers=1)

    def test_records_in_replicate_order(self):
        recs = run_scenario(tiny_scenario(replicates=5))
        assert [r.r for r in recs] == list(range(5))


@pytest.fixture(scope="module")
def trunc_levels():
    return truncation_sweep(tiny_scenario(replicates=6), x_l_list=(0.5, 1.0))


class TestSweeps:
    def test_table1_schema(self, trunc_levels):
        text = table1_csv(trunc_levels)
        lines = text.strip().split("\n")
        assert lines[0] == "x_L,method,alpha_hat,beta_hat,alpha_ci_l,alpha_ci_u,beta_ci_l,beta_ci_u"
        assert len(lines) == 1 + 2 * len(trunc_levels)
        assert lines[1].startswith("0.5,MLE,")
        assert lines[2].startswith("0.5,Bayesian,")

    def test_table2_schema(self, trunc_levels):
        lines = table2_csv(trunc_levels).strip().split("\n")
        assert lines[0] == "x_L,method,alpha_hat,bias_alpha,var_alpha,beta_hat,bias_beta,var_beta"
        assert len(lines) == 1 + 2 * len(trunc_levels)

    def test_table3_schema(self):
        levels = sample_size_sweep(tiny_scenario(replicates=4), n_list=(50, 100))
        lines = table3_csv(levels).strip().split("\n")
        assert lines[0] == "n,method,bias_alpha,var_alpha,rmse_alpha,bias_beta,var_beta,rmse_beta"
        assert lines[1].startswith("50,MLE,")
        assert lines[-1].startswith("100,Bayesian,")

    def test_sweep_reruns_identical(self, trunc_levels):
        again = truncation_sweep(tiny_scenario(replicates=6), x_l_list=(0.5, 1.0))
        assert table1_csv(again) == table1_csv(trunc_levels)
        assert table2_csv(again) == table2_csv(trunc_levels)

    def test_common_random_numbers_across_levels(self, trunc_levels):
        # same master seed -> the same uniform stream feeds every level, so
        # estimates move smoothly with x_L instead of resampling
        a0 = trunc_levels[0].metrics.mle.alpha.mean
        a1 = trunc_levels[1].metrics.mle.alpha.mean
        assert abs(a0 - a1) < 0.2

    def test_scale_equivariance_of_pipeline(self):
        lo = truncation_sweep(tiny_scenario(replicates=5), x_l_list=(1.0,))[0]
        sc10 = Scenario(true_params=LTLLParams(20.0, 3.0, 10.0), n=150, replicates=5,
                        prior=PriorSpec.diffuse(), mcmc=TINY_MCMC, master_seed=314)
        hi = truncation_sweep(sc10, x_l_list=(10.0,))[0]
        # MLE columns scale exactly; Bayes within Monte Carlo noise (the
        # prior does not rescale, so allow 2 combined standard errors)
        assert hi.metrics.mle.alpha.mean == pytest.approx(10 * lo.metrics.mle.alpha.mean, rel=1e-7)
        assert hi.metrics.mle.beta.mean == pytest.approx(lo.metrics.mle.beta.mean, rel=1e-7)
        se = 2.0 * np.sqrt(hi.metrics.bayes.alpha.variance / 5 + lo.metrics.bayes.alpha.variance * 100 / 5)
        assert abs(hi.metrics.bayes.alpha.mean - 10 * lo.metrics.bayes.alpha.mean) < max(se, 0.5)
        assert hi.metrics.bayes.beta.mean == pytest.approx(lo.metrics.bayes.beta.mean, abs=0.2)


def test_all_boundary_replicates_report_instead_of_aborting():
    # Aggregation must not crash when (almost) every MLE degenerated.
    from ltll.simulation import ReplicateResult, _aggregate_level

    recs = [
        ReplicateResult(
            r=r, boundary=True, converged=True, mle_alpha=None, mle_beta=0.2,
            mle_ci_alpha=None, mle_ci_beta=None, bayes_alpha=2.0 + 0.01 * r,
            bayes_beta=3.0 - 0.01 * r, bayes_ci_alpha=(1.8, 2.2),
            bayes_ci_beta=(2.7, 3.3), acceptance_rate=0.3, ess_alpha=500.0,
            ess_beta=500.0,
        )
        for r in range(4)
    ]
    lv = _aggregate_level(1.0, tiny_scenario(replicates=4), recs)
    assert lv.metrics.mle.failures == 4
    assert np.isnan(lv.metrics.mle.alpha.bias)
    assert np.isnan(lv.win_rate)
    assert lv.metrics.bayes.alpha.mean == pytest.approx(2.015)


def test_atomic_write(tmp_path):
    path = os.path.join(tmp_path, "out.csv")
    atomic_write_text(path, "a,b\n1,2\n")
    with open(path) as fh:
        assert fh.read() == "a,b\n1,2\n"
    leftovers = [f for f in os.listdir(tmp_path) if f.startswith(".tmp-")]
    assert leftovers == []
