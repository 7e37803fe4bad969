"""Small Monte Carlo comparison of the two estimators.

Replicates draw data from a known truth, fit by both methods, and aggregate
bias/variance/RMSE plus interval widths.  The chain settings' seed is the
scenario's only seed: replicate r draws its data from stream (mcmc.seed, 2r)
and its chain from (mcmc.seed, 2r + 1), so reruns and worker counts cannot
change the tables.
The full-size protocol behind the shipped tables uses replicates=200..1000
with the default chain settings; this demo shrinks everything to run in
about a minute.
"""

import os

from ltll import LTLLParams, McmcConfig, PriorSpec, Scenario, sample_size_sweep, truncation_sweep
from ltll.simulation import sample_size_trends, table1_csv, table2_csv, table3_csv, truncation_trends

OUT = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(OUT, exist_ok=True)

base = Scenario(
    true_params=LTLLParams(2.0, 3.0, 1.0),
    n=300,
    replicates=24,
    prior=PriorSpec.diffuse(),
    mcmc=McmcConfig(iterations=4000, burn_in=1000, thin=3, seed=20240),
)

print("truncation sweep (true alpha=2, beta=3, n=300, 24 replicates)")
levels = truncation_sweep(base, x_l_list=(0.1, 0.5, 1.0), workers=2)
for lv in levels:
    print(f"  x_L={lv.key:3.1f}: MLE ({lv.mle.alpha.mean:.3f}, {lv.mle.beta.mean:.3f})  "
          f"Bayes ({lv.bayes.alpha.mean:.3f}, {lv.bayes.beta.mean:.3f})  "
          f"boundary fits: {lv.mle.failures}")
with open(os.path.join(OUT, "demo_table1.csv"), "w") as fh:
    fh.write(table1_csv(levels))
with open(os.path.join(OUT, "demo_table2.csv"), "w") as fh:
    fh.write(table2_csv(levels))

print("\nsample-size sweep at x_L = 1")
sizes = sample_size_sweep(base, n_list=(50, 200, 800), workers=2)
for lv in sizes:
    print(f"  n={lv.key:4.0f}: RMSE(alpha) MLE {lv.mle.alpha.rmse:.4f} vs Bayes {lv.bayes.alpha.rmse:.4f}; "
          f"RMSE(beta) MLE {lv.mle.beta.rmse:.4f} vs Bayes {lv.bayes.beta.rmse:.4f}")
with open(os.path.join(OUT, "demo_table3.csv"), "w") as fh:
    fh.write(table3_csv(sizes))

print("\ntrend checks (noisy at this replicate count):")
for name, ok, detail in truncation_trends(levels) + sample_size_trends(sizes):
    print(f"  {'PASS' if ok else 'FAIL'}  {name}  [{detail}]")
print(f"\ntables written to {OUT}/demo_table[123].csv")
