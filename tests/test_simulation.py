import os
from dataclasses import replace

import numpy as np
import pytest

import ltll.mcmc
import ltll.simulation
from ltll.cli import _atomic_write
from ltll.distribution import LTLLParams
from ltll.mcmc import _SCREEN_MIN_N, McmcConfig, PriorSpec
from ltll.simulation import (
    _BANK,
    Scenario,
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


def tiny_scenario(replicates=8, n=150, x_l=1.0, seed=314):
    return Scenario(
        true_params=LTLLParams(2.0, 3.0, x_l), n=n, replicates=replicates,
        prior=PriorSpec.diffuse(), mcmc=replace(TINY_MCMC, seed=seed),
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
        with pytest.raises(ValueError, match="one chain per replicate"):
            replace(tiny_scenario(), mcmc=replace(TINY_MCMC, chains=2))

    def test_replicate_matches_its_chunk(self):
        # A replicate recomputed alone equals the one its bank produced, also
        # at n where chains run the delayed-acceptance screen: whether a
        # chain is screened depends on its own sample, never on the bank.
        # _BANK + 1 replicates make two banks, 0..99 and 100..200.
        sc = Scenario(
            true_params=LTLLParams(2.0, 3.0, 1.0), n=_SCREEN_MIN_N, replicates=_BANK + 1,
            prior=PriorSpec.diffuse(),
            mcmc=McmcConfig(iterations=400, burn_in=100, thin=2, seed=271),
        )
        recs = run_scenario(sc)
        for r in (7, _BANK):
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

    def test_two_chunk_pool_matches_sequential(self):
        # workers=2 cuts the 53 replicates into two banks, so a real process
        # pool runs them.
        sc = replace(tiny_scenario(replicates=53, n=40),
                     mcmc=McmcConfig(iterations=300, burn_in=100, thin=2))
        assert run_scenario(sc, workers=2) == run_scenario(sc, workers=1)

    @pytest.mark.parametrize("size, workers, banks", [
        (6, 1, [6]),
        (6, 8, [1] * 6),
        (200, 1, [200]),
        (201, 1, [100, 101]),
        (600, 2, [150, 150, 150, 150]),
        (601, 2, [150, 150, 150, 151]),
        (601, 5, [120, 120, 120, 120, 121]),
        (1000, 2, [166, 167, 167, 166, 167, 167]),
    ])
    def test_bank_rule(self, size, workers, banks):
        # The fewest near-equal banks of at most _BANK chains, rounded up to
        # a multiple of workers so each worker runs as many, but never more
        # banks than chains; banks cover the pool in order.
        assert _BANK == 200
        pool = list(range(size))
        got = ltll.simulation._banks(pool, workers)
        assert [len(b) for b in got] == banks
        assert [j for b in got for j in b] == pool

    def test_workers_capped_at_chunk_count(self, inline_pool):
        # 6 replicates make at least min(8, 6) banks, one chain each, and the
        # pool is capped at that bank count; one worker starts no pool.
        cfg = McmcConfig(iterations=150, burn_in=50, thin=1)
        sc = replace(tiny_scenario(replicates=6, n=40), mcmc=cfg)
        assert run_scenario(sc, workers=8) == run_scenario(sc)
        assert inline_pool == [6]

    def test_scenarios_share_banks_yet_keep_their_records(self, inline_pool):
        # All levels, x_L = 0 among them, pool into one bank (two at
        # workers=2), yet every level's records equal that level run alone,
        # under any worker count.
        cfg = McmcConfig(iterations=300, burn_in=100, thin=2)
        base = replace(tiny_scenario(replicates=5, n=40), mcmc=cfg)
        scs = [replace(base, true_params=LTLLParams(2.0, 3.0, x_l)) for x_l in (1.0, 0.0, 0.5)]
        seq = run_scenario(scs)
        alone = [rec for sc in scs for rec in run_scenario(sc)]
        assert seq == alone
        assert run_scenario(scs, workers=2) == seq
        assert inline_pool == [2]

    def test_pool_takes_a_rebound_chunk_runner(self, monkeypatch):
        # A wrapper rebound over _run_chunk, as the benchmark's tracer
        # installs, is a closure that does not pickle; the pool still runs
        # every bank, and through the wrapper the records stay the same.
        calls = []

        def wrap(fn):
            def traced(jobs):
                calls.append(len(jobs))
                return fn(jobs)
            return traced

        sc = replace(tiny_scenario(replicates=4, n=40),
                     mcmc=McmcConfig(iterations=300, burn_in=100, thin=2, seed=3))
        monkeypatch.setattr(ltll.simulation, "_run_chunk", wrap(ltll.simulation._run_chunk))
        seq = run_scenario(sc, workers=1)
        assert calls == [4]
        assert run_scenario(sc, workers=2) == seq

    def test_empty_scenario_list_refused(self):
        with pytest.raises(ValueError, match="at least one scenario"):
            run_scenario([])

    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_below_one_refused(self, workers):
        sc = tiny_scenario(replicates=2)
        with pytest.raises(ValueError, match="workers"):
            run_scenario(sc, workers=workers)
        with pytest.raises(ValueError, match="workers"):
            truncation_sweep(sc, [0.5, 1.0], workers=workers)
        with pytest.raises(ValueError, match="workers"):
            sample_size_sweep(sc, [50], workers=workers)


@pytest.fixture
def inline_pool(monkeypatch):
    """An inline stand-in for the process pool: records each pool's size and
    runs every bank in this process."""
    sizes = []

    class InlinePool:
        def __init__(self, max_workers, mp_context=None):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    # run_scenario opens its pool through the one pool helper, in ltll.mcmc.
    monkeypatch.setattr(ltll.mcmc, "ProcessPoolExecutor", InlinePool)
    return sizes


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

    def test_levels_pooled_in_one_call_equal_levels_run_alone(self, monkeypatch):
        # At n >= _SCREEN_MIN_N the screened chains of every level, x_L = 0
        # among them, share one bank.  Each level's records equal that
        # level's scenario run alone.
        base = Scenario(
            true_params=LTLLParams(2.0, 3.0, 1.0), n=_SCREEN_MIN_N, replicates=3,
            prior=PriorSpec.diffuse(),
            mcmc=McmcConfig(iterations=400, burn_in=100, thin=2, seed=17),
        )
        calls = []
        real = ltll.simulation.run_scenario

        def recorder(scenarios, workers=1):
            out = real(scenarios, workers=workers)
            calls.append((scenarios, out))
            return out

        monkeypatch.setattr(ltll.simulation, "run_scenario", recorder)
        levels = truncation_sweep(base, x_l_list=(0.0, 0.5, 1.0))
        [(scs, records)] = calls
        assert [sc.true_params.x_l for sc in scs] == [0.0, 0.5, 1.0]
        assert len(ltll.simulation._pools(scs)) == 1
        for k, (lv, sc) in enumerate(zip(levels, scs)):
            assert lv.scenario == sc
            assert records[3 * k:3 * k + 3] == real(sc)

    @pytest.mark.parametrize("sweep, values, reason", [
        (truncation_sweep, (), "at least one truncation level"),
        (truncation_sweep, (1.0, float("nan")), "x_l must be finite"),
        (truncation_sweep, (1.0, -0.5), "x_l must be finite"),
        (sample_size_sweep, (), "at least one sample size"),
        (sample_size_sweep, (100, 5), "sample size >= 10"),
    ])
    def test_bad_levels_refused_before_any_chain_runs(self, monkeypatch, sweep, values,
                                                     reason):
        def no_chains(*args):
            raise AssertionError("a chain ran before every level was validated")

        monkeypatch.setattr(ltll.simulation, "_mh_chains", no_chains)
        with pytest.raises(ValueError, match=reason):
            sweep(tiny_scenario(replicates=2), values)

    def test_common_random_numbers_across_levels(self, trunc_levels):
        # same seed -> the same uniform stream feeds every level, so
        # estimates move smoothly with x_L instead of resampling
        a0 = trunc_levels[0].mle.alpha.mean
        a1 = trunc_levels[1].mle.alpha.mean
        assert abs(a0 - a1) < 0.2

    def test_scale_equivariance_of_pipeline(self):
        lo = truncation_sweep(tiny_scenario(replicates=5), x_l_list=(1.0,))[0]
        sc10 = Scenario(true_params=LTLLParams(20.0, 3.0, 10.0), n=150, replicates=5,
                        prior=PriorSpec.diffuse(), mcmc=replace(TINY_MCMC, seed=314))
        hi = truncation_sweep(sc10, x_l_list=(10.0,))[0]
        # MLE columns scale exactly; Bayes within Monte Carlo noise (the
        # prior does not rescale, so allow 2 combined standard errors)
        assert hi.mle.alpha.mean == pytest.approx(10 * lo.mle.alpha.mean, rel=1e-7)
        assert hi.mle.beta.mean == pytest.approx(lo.mle.beta.mean, rel=1e-7)
        se = 2.0 * np.sqrt(hi.bayes.alpha.variance / 5 + lo.bayes.alpha.variance * 100 / 5)
        assert abs(hi.bayes.alpha.mean - 10 * lo.bayes.alpha.mean) < max(se, 0.5)
        assert hi.bayes.beta.mean == pytest.approx(lo.bayes.beta.mean, abs=0.2)


def test_small_n_with_boundary_replicates_is_bank_and_worker_invariant():
    # At n = 50 the chains of interior replicates past the beta0/beta_C
    # margin take independence steps, while boundary replicates walk; a
    # replicate recomputed alone equals its bank's record, and two worker
    # processes give the same records as one.
    from ltll import mcmc
    from ltll.distribution import draw_ltll
    from ltll.mle import fit_mle

    sc = Scenario(true_params=LTLLParams(2.0, 3.0, 3.0), n=50, replicates=24,
                  prior=PriorSpec.diffuse(),
                  mcmc=McmcConfig(iterations=600, burn_in=200, thin=2, seed=5))
    seq = run_scenario(sc)
    boundary = [rec.r for rec in seq if rec.boundary]
    assert 0 < len(boundary) < sc.replicates
    fits = [fit_mle(draw_ltll(sc.n, sc.true_params, ltll.simulation._data_stream(sc, r)))
            for r in range(sc.replicates)]
    gated = [r for r, f in enumerate(fits) if not f.boundary
             and f.stats.beta0 >= mcmc._MIX_MIN_RATIO * f.stats.beta_c]
    assert gated
    for r in (boundary[0], gated[0]):
        assert run_replicate(sc, r) == seq[r]
    assert run_scenario(sc, workers=2) == seq


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
    assert lv.mle.failures == 4
    assert np.isnan(lv.mle.alpha.bias)
    assert np.isnan(lv.win_rate)
    assert lv.bayes.alpha.mean == pytest.approx(2.015)


def _hand_record(r, mle=(2.1, 3.2), mle_ci=((1.6, 2.7), (2.3, 4.1)), boundary=False,
                 bayes=(2.05, 3.1), bayes_ci=((1.7, 2.5), (2.4, 3.9))):
    from ltll.simulation import ReplicateResult

    return ReplicateResult(
        r=r, boundary=boundary, converged=True,
        mle_alpha=None if boundary else mle[0], mle_beta=mle[1],
        mle_ci_alpha=None if boundary else mle_ci[0],
        mle_ci_beta=None if boundary else mle_ci[1],
        bayes_alpha=bayes[0], bayes_beta=bayes[1],
        bayes_ci_alpha=bayes_ci[0], bayes_ci_beta=bayes_ci[1],
        acceptance_rate=0.3, ess_alpha=400.0, ess_beta=410.0,
    )


def _hand_levels():
    """Two levels of hand-made records: the first has two interior MLEs with
    Wald intervals, one interior MLE without an interval (left out of the
    win rate and counted) and one boundary replicate; the second has a
    single usable MLE, so its MLE aggregates, interval endpoints included,
    are undefined."""
    from ltll.simulation import _aggregate_level

    first = [
        _hand_record(0),
        _hand_record(1, mle=(1.85, 2.9), mle_ci=((1.3, 2.45), (2.05, 3.8)),
                     bayes=(1.9, 2.95), bayes_ci=((1.45, 2.4), (2.2, 3.75))),
        _hand_record(2, mle=(2.3, 3.45), mle_ci=(None, None),
                     bayes=(2.2, 3.3), bayes_ci=((1.8, 2.65), (2.6, 4.2))),
        _hand_record(3, mle=(None, 0.75), boundary=True,
                     bayes=(2.6, 2.4), bayes_ci=((1.9, 3.6), (1.5, 3.3))),
    ]
    second = [
        _hand_record(0, mle=(2.4, 3.7), mle_ci=((1.5, 3.3), (2.2, 5.2)),
                     bayes=(2.25, 3.5), bayes_ci=((1.6, 3.0), (2.5, 4.6))),
        _hand_record(1, mle=(None, 1.1), boundary=True,
                     bayes=(2.7, 2.6), bayes_ci=((1.95, 3.8), (1.7, 3.6))),
    ]
    return [_aggregate_level(0.5, tiny_scenario(replicates=4, x_l=0.5), first),
            _aggregate_level(1.0, tiny_scenario(replicates=2), second)]


TABLE1_HAND = (
    "x_L,method,alpha_hat,beta_hat,alpha_ci_l,alpha_ci_u,beta_ci_l,beta_ci_u\n"
    "0.5,MLE,2.083333333,3.183333333,1.45,2.575,2.175,3.95\n"
    "0.5,Bayesian,2.1875,2.9375,1.7125,2.7875,2.175,3.7875\n"
    "1,MLE,nan,nan,nan,nan,nan,nan\n"
    "1,Bayesian,2.475,3.05,1.775,3.4,2.1,4.1\n"
)
TABLE2_HAND = (
    "x_L,method,alpha_hat,bias_alpha,var_alpha,beta_hat,bias_beta,var_beta\n"
    "0.5,MLE,2.083333333,0.08333333333,0.08236616993,3.183333333,0.1833333333,0.2050409198\n"
    "0.5,Bayesian,2.1875,0.1875,0.07520743121,2.9375,-0.0625,0.1692167202\n"
    "1,MLE,nan,nan,nan,nan,nan,nan\n"
    "1,Bayesian,2.475,0.475,0.1718504039,3.05,0.05,0.2603177716\n"
)
TABLE3_HAND = (
    "n,method,bias_alpha,var_alpha,rmse_alpha,bias_beta,var_beta,rmse_beta\n"
    "0.5,MLE,0.08333333333,0.05083333333,0.240370085,0.1833333333,0.07583333333,0.3308238874\n"
    "0.5,Bayesian,0.1875,0.090625,0.354656524,-0.0625,0.1489583333,0.3909790063\n"
    "1,MLE,nan,nan,nan,nan,nan,nan\n"
    "1,Bayesian,0.475,0.10125,0.5717298313,0.05,0.405,0.6383572667\n"
)
TRENDS_HAND = [
    ("x_L=0.5: Bayes Var(alpha) < MLE Var(alpha)", True, "0.07521 vs 0.08237"),
    ("x_L=1: Bayes Var(alpha) < MLE Var(alpha)", False, "0.1719 vs nan"),
    ("MLE |bias(beta)| nondecreasing in x_L", False, "0.1833 -> nan"),
    ("x_L=0.5: credible <= Wald width in >= 60% of replicates", True,
     "win rate 1.000, 1 without a Wald interval excluded"),
    ("x_L=1: credible <= Wald width in >= 60% of replicates", True, "win rate 1.000"),
]

# The RMSE columns of TABLE3_HAND at 4 significant digits, level by level.
SIZE_TRENDS_HAND = [
    ("RMSE(alpha) strictly decreasing in n [mle]", False, "0.2404 -> nan"),
    ("RMSE(beta) strictly decreasing in n [mle]", False, "0.3308 -> nan"),
    ("RMSE(alpha) strictly decreasing in n [bayes]", False, "0.3547 -> 0.5717"),
    ("RMSE(beta) strictly decreasing in n [bayes]", False, "0.391 -> 0.6384"),
]


def test_tables_exact_text_from_hand_built_records():
    levels = _hand_levels()
    assert [lv.no_wald for lv in levels] == [1, 0]
    assert [lv.n_replicates for lv in levels] == [4, 2]
    assert table1_csv(levels) == TABLE1_HAND
    assert table2_csv(levels) == TABLE2_HAND
    assert table3_csv(levels) == TABLE3_HAND
    assert ltll.simulation.truncation_trends(levels) == TRENDS_HAND
    assert ltll.simulation.sample_size_trends(levels) == SIZE_TRENDS_HAND


def test_atomic_write(tmp_path):
    path = os.path.join(tmp_path, "out.csv")
    _atomic_write(path, "a,b\n1,2\n")
    with open(path) as fh:
        assert fh.read() == "a,b\n1,2\n"
    leftovers = [f for f in os.listdir(tmp_path) if f.startswith(".tmp-")]
    assert leftovers == []


def test_atomic_write_into_missing_directory_names_the_path(tmp_path):
    # The error names the path the caller gave, not the random temp file.
    path = os.path.join(tmp_path, "nodir", "out.csv")
    with pytest.raises(FileNotFoundError) as exc:
        _atomic_write(path, "a,b\n")
    assert exc.value.filename == path and ".tmp-" not in str(exc.value)
    assert os.listdir(tmp_path) == []
