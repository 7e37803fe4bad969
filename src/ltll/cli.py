"""Command-line surface: fit, simulate, ellipse, and moments commands.

Every command is deterministic given its flags, seed, and input files.  The
seed comes from --seed alone (directly or through a --config key), with a
fixed default.  Output files are written atomically (temp file plus rename).
Exit codes: 0 success, 1 error, 2 boundary-degenerate fit.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import tempfile

import numpy as np

from .datasets import BUNDLED_DATASETS, DatasetFile, apply_truncation, load_csv
from .distribution import LTLLParams, log_likelihood, mc_moments
from .mcmc import MIN_DRAWS, McmcConfig, PriorSpec, credible_ellipse, run_chain
from .mle import confidence_ellipse, fit_mle
from .numerics import RngStream
from .simulation import (
    SAMPLE_SIZE_GRID,
    TRUNCATION_GRID,
    Scenario,
    sample_size_sweep,
    sample_size_trends,
    table1_csv,
    table2_csv,
    table3_csv,
    truncation_sweep,
    truncation_trends,
)

DEFAULT_SEED = 20240

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_BOUNDARY = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; 2 is reserved for
    # boundary fits here, so remap usage problems onto the error code, with
    # the error line every other failure prints.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"ltll: error: {message}\n")


def _nonempty(text: str) -> str:
    """A text flag's value: a path, a column or a label, never the empty string."""
    if not text:
        raise argparse.ArgumentTypeError("must not be empty")
    return text


def _values(text: str, flag: str, count: int | None = None, kind=float,
            noun: str = "value") -> list:
    """A list flag's comma-separated values, each read by ``kind``.

    Refused, with a message that names the flag: a value without items
    (``""`` or ``","``), an empty item (``1,,2``), an item that ``kind``
    does not read (``--sizes 50.9``), and, given ``count``, any other
    number of items.
    """
    items = [v.strip() for v in text.split(",")]
    if not any(items):
        raise ValueError(f"{flag} needs {count} comma-separated values, got 0" if count
                         else f"{flag}: need at least one {noun}")
    if "" in items:
        raise ValueError(f"{flag} has an empty item in {text!r}")
    if count and len(items) != count:
        raise ValueError(f"{flag} needs {count} comma-separated values, got {len(items)}")
    try:
        return [kind(v) for v in items]
    except ValueError:
        raise ValueError(f"{flag} needs {'integers' if kind is int else 'numbers'}, "
                         f"got {text!r}") from None


def _grid_spec(text: str, flag: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"{flag} needs lo:hi:count, got {text!r}")
    lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    if count < 1:
        raise ValueError(f"{flag} needs a count of at least 1, got {count}")
    return lo, hi, count


def build_parser() -> _Parser:
    parser = _Parser(prog="ltll", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                       help="RNG master seed (default %d)" % DEFAULT_SEED)
        p.add_argument("--out", type=_nonempty, default=None,
                       help="output path (default: stdout where sensible)")
        p.add_argument("--config", type=_nonempty, default=None,
                       help="JSON file whose keys mirror the long flags; explicit flags win")

    def add_data(p):
        p.add_argument("--data", type=_nonempty, required=True,
                       help="CSV path, or a bundled dataset name: %s" % ", ".join(BUNDLED_DATASETS))
        p.add_argument("--column", type=_nonempty, default=None,
                       help="column header name or 0-based index, >= 0 (default: first column)")
        p.add_argument("--xl", type=float, default=0.0, help="left-truncation point (default 0)")
        p.add_argument("--units", type=_nonempty, default=None,
                       help="opaque unit label echoed into outputs")

    def add_mcmc(p):
        p.add_argument("--prior", default="1.0,0.01,1.0,0.01",
                       help="Gamma prior hyperparameters a1,b1,a2,b2")
        p.add_argument("--iters", type=int, default=20000)
        p.add_argument("--burnin", type=int, default=5000)
        p.add_argument("--thin", type=int, default=5)

    p_fit = sub.add_parser("fit", help="fit the distribution to a dataset")
    add_data(p_fit)
    add_mcmc(p_fit)
    p_fit.add_argument("--method", choices=["mle", "bayes", "both"], default="both")
    p_fit.add_argument("--format", choices=["json", "csv"], default="json")
    add_common(p_fit)

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo study and emit table CSVs")
    p_sim.add_argument("--sweep", choices=["truncation", "n"], required=True)
    p_sim.add_argument("--truth", default="2.0,3.0", help="true alpha,beta")
    p_sim.add_argument("--xl", type=float, default=1.0,
                       help="truncation point for the sample-size sweep (default 1.0)")
    p_sim.add_argument("--n", type=int, default=1000, help="sample size per replicate")
    p_sim.add_argument("--replicates", type=int, default=1000)
    p_sim.add_argument("--levels", default=None,
                       help="truncation levels, e.g. 0.1,0.3,0.5,0.7,1.0")
    p_sim.add_argument("--sizes", default=None, help="sample sizes, e.g. 50,100,500,1000")
    p_sim.add_argument("--workers", type=int, default=1)
    add_mcmc(p_sim)
    add_common(p_sim)

    p_ell = sub.add_parser("ellipse", help="emit joint 95%% region polylines for a dataset fit")
    add_data(p_ell)
    add_mcmc(p_ell)
    p_ell.add_argument("--method", choices=["wald", "credible", "both"], default="both")
    p_ell.add_argument("--level", type=float, default=0.95, help="confidence/credibility level")
    p_ell.add_argument("--npoints", type=int, default=256)
    add_common(p_ell)

    # Sweeps run one chain per replicate; only the dataset commands take --chains.
    for p in (p_fit, p_ell):
        p.add_argument("--chains", type=int, default=1)

    p_mom = sub.add_parser("moments", help="Monte Carlo moment surfaces over a parameter grid")
    p_mom.add_argument("--alpha-grid", default="1.0:4.0:7", help="lo:hi:count")
    p_mom.add_argument("--beta-grid", default="1.5:5.0:8", help="lo:hi:count")
    p_mom.add_argument("--xl", type=float, default=0.70)
    p_mom.add_argument("--draws", type=int, default=20000)
    add_common(p_mom)

    return parser


def _apply_config(argv):
    """Insert the flags of a --config JSON file right after the command word.

    A list value becomes one comma-separated flag value, as --levels 0.5,1.0.
    argparse keeps the last occurrence of a flag, so explicit flags win in
    either spelling (``--seed 5`` or ``--seed=5``).
    """
    pre = _Parser(prog="ltll", usage=argparse.SUPPRESS, add_help=False)
    pre.add_argument("--config", type=_nonempty)
    path = pre.parse_known_args(argv)[0].config
    if path is None:
        return argv
    with open(path, encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("--config file must hold a JSON object")
    if "config" in cfg:
        raise ValueError("--config file must not hold a \"config\" key")
    extra = []
    for key, value in cfg.items():
        flag = "--" + str(key).replace("_", "-")
        if isinstance(value, bool):
            if value:
                extra.append(flag)
        elif isinstance(value, list):
            extra.extend([flag, ",".join(str(v) for v in value)])
        else:
            extra.extend([flag, str(value)])
    return argv[:1] + extra + argv[1:]


def _load_dataset(args) -> DatasetFile:
    if args.data in BUNDLED_DATASETS:
        if args.column is not None:
            raise ValueError(f"--column does not apply to the bundled dataset {args.data}")
        return BUNDLED_DATASETS[args.data]()
    column = args.column
    if isinstance(column, str) and column.lstrip("-").isdigit():
        column = int(column)
    return load_csv(args.data, column)


def _mcmc_config(args) -> McmcConfig:
    """Chain settings for a posterior summary, refused when it keeps too few draws."""
    cfg = McmcConfig(iterations=args.iters, burn_in=args.burnin, thin=args.thin, seed=args.seed,
                     chains=getattr(args, "chains", 1))
    if cfg.chains * cfg.retained < MIN_DRAWS:
        raise ValueError(
            f"{cfg.chains} chain(s) x {cfg.retained} retained draws is below the "
            f"{MIN_DRAWS} draws posterior intervals need; raise --iters, "
            "or lower --burnin or --thin")
    return cfg


def _prior(args) -> PriorSpec:
    a1, b1, a2, b2 = _values(args.prior, "--prior", 4)
    return PriorSpec(a1, b1, a2, b2)


def _atomic_write(path: str, text: str) -> None:
    """Write via a temp file in the same directory, then rename into place."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    except OSError as exc:  # it would name the temp file, which the caller never gave
        raise OSError(exc.errno, exc.strerror, path) from exc
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        _atomic_write(out, text)


def _pareto_note(fit) -> str:
    return (
        "fit degenerated to the Pareto boundary (beta0 <= beta_C): "
        f"density f(x) = (b/x_L) * (x/x_L)^-(b+1) for x > x_L = {fit.x_l:g}, "
        f"with b = beta0 = {fit.beta:.6g}; the scale alpha is not identified."
    )


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_fit(args) -> int:
    prior = _prior(args)
    data = _load_dataset(args)
    sample = apply_truncation(data, args.xl)
    cfg = None if args.method == "mle" else _mcmc_config(args)
    tail = {"x_L": sample.x_l, "n": sample.n, "seed": args.seed, "data": data.path}
    if args.units:
        tail["units"] = args.units

    # One MLE serves the mle document and the chains: their start and Laplace record.
    fit = fit_mle(sample)
    results = []
    if args.method != "bayes":
        results.append({
            "method": "mle", "alpha": fit.alpha, "beta": fit.beta,
            "ci_alpha": list(fit.ci_alpha) if fit.ci_alpha else None,
            "ci_beta": list(fit.ci_beta) if fit.ci_beta else None,
            "boundary": fit.boundary, "loglik": fit.loglik, **tail,
        })
        if fit.boundary:
            print(_pareto_note(fit), file=sys.stderr)
    if args.method != "mle":
        res = run_chain(sample, prior=prior, cfg=cfg, fit=fit)
        doc = {
            "method": "bayes", "alpha": res.mean[0], "beta": res.mean[1],
            "ci_alpha": list(res.ci_alpha), "ci_beta": list(res.ci_beta), "boundary": False,
            "loglik": log_likelihood(sample, res.mean[0], res.mean[1]),
            "acceptance_rate": res.acceptance_rate, "ess": [res.ess_alpha, res.ess_beta],
        }
        independence = res.independence_acceptance
        if np.isfinite(independence).any():
            doc["independence_acceptance"] = [float(v) if np.isfinite(v) else None
                                              for v in independence]
        results.append(doc | tail)

    payload = results[0] if len(results) == 1 else results
    if args.format == "json":
        _emit(json.dumps(payload, indent=2, allow_nan=False) + "\n", args.out)
    else:
        _emit(_fit_csv(results), args.out)
    # A boundary MLE is the whole answer only when no posterior summary goes with it.
    return EXIT_BOUNDARY if args.method == "mle" and fit.boundary else EXIT_OK


# The columns of a fit document's two-element lists.
_FIT_CSV_PAIRS = {"ci_alpha": ("alpha_ci_l", "alpha_ci_u"), "ci_beta": ("beta_ci_l", "beta_ci_u"),
                  "ess": ("ess_alpha", "ess_beta")}


def _fit_csv(results) -> str:
    """The fit documents as CSV rows: a column per scalar key, in document
    order, and two per interval or ESS pair; per-chain lists stay in the JSON."""
    def cell(v):
        if isinstance(v, bool):
            return str(v).lower()
        return format(v, ".10g") if isinstance(v, float) else v

    rows = []
    for doc in results:
        row = {}
        for key, value in doc.items():
            if key in _FIT_CSV_PAIRS:
                row.update(zip(_FIT_CSV_PAIRS[key], value or (None, None)))
            elif not isinstance(value, list):
                row[key] = value
        rows.append({key: cell(value) for key, value in row.items()})
    out = io.StringIO()
    writer = csv.DictWriter(out, list(dict.fromkeys(k for row in rows for k in row)),
                            lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return out.getvalue()


def cmd_simulate(args) -> int:
    if args.workers < 1:
        raise ValueError(f"--workers must be >= 1, got {args.workers}")
    alpha, beta = _values(args.truth, "--truth", 2)
    levels = (list(TRUNCATION_GRID) if args.levels is None
              else _values(args.levels, "--levels", noun="truncation level"))
    sizes = (list(SAMPLE_SIZE_GRID) if args.sizes is None
             else _values(args.sizes, "--sizes", kind=int, noun="sample size"))
    base = Scenario(
        true_params=LTLLParams(alpha, beta, args.xl), n=args.n, replicates=args.replicates,
        prior=_prior(args), mcmc=_mcmc_config(args),
    )
    if args.sweep == "truncation":
        res = truncation_sweep(base, levels, workers=args.workers)
        tables = {"table1_truncation.csv": table1_csv(res),
                  "table2_truncation.csv": table2_csv(res)}
        checks = truncation_trends(res)
    else:
        res = sample_size_sweep(base, sizes, workers=args.workers)
        tables = {"table3_sample_size.csv": table3_csv(res)}
        checks = sample_size_trends(res)
    out_dir = "." if args.out is None else args.out
    os.makedirs(out_dir, exist_ok=True)
    for name, text in tables.items():
        _atomic_write(os.path.join(out_dir, name), text)

    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name}  [{detail}]")
    boundary_total = sum(lv.mle.failures for lv in res)
    if boundary_total:
        print(f"note: {boundary_total} replicate(s) hit the Pareto boundary "
              "and were excluded from MLE aggregates", file=sys.stderr)
    no_wald = sum(lv.no_wald for lv in res)
    if no_wald:
        print(f"note: {no_wald} interior MLE(s) had no Wald interval (information not "
              "positive-definite) and were excluded from the win rate", file=sys.stderr)
    return EXIT_OK


def cmd_ellipse(args) -> int:
    if not 0.0 < args.level < 1.0:
        raise ValueError(f"--level must lie in (0, 1), got {args.level}")
    if args.npoints < 3:
        raise ValueError(f"--npoints must be at least 3, got {args.npoints}")
    prior = _prior(args)
    data = _load_dataset(args)
    sample = apply_truncation(data, args.xl)
    gamma = 1.0 - args.level
    methods = ["wald", "credible"] if args.method == "both" else [args.method]
    stem = "ellipse" if args.out is None else args.out
    cfg = _mcmc_config(args) if "credible" in methods else None

    fit = fit_mle(sample)
    if fit.boundary:
        print(_pareto_note(fit), file=sys.stderr)
        return EXIT_BOUNDARY

    for method in methods:
        if method == "wald":
            ell = confidence_ellipse(fit, gamma, args.npoints)
        else:
            res = run_chain(sample, prior=prior, cfg=cfg, fit=fit)
            ell = credible_ellipse(res, gamma, args.npoints)
        rows = "\n".join(f"{p[0]:.10g},{p[1]:.10g}" for p in ell.points)
        _atomic_write(f"{stem}_{method}.csv", "alpha,beta\n" + rows + "\n")
        sidecar = {
            "method": method,
            "center": [ell.center[0], ell.center[1]],
            "level": ell.level,
            "threshold": ell.threshold,
            "matrix": {"a11": ell.matrix.a11, "a12": ell.matrix.a12, "a22": ell.matrix.a22},
            "area": ell.area,
            "n": sample.n,
            "x_L": sample.x_l,
            "seed": args.seed,
        }
        if args.units:
            sidecar["units"] = args.units
        _atomic_write(f"{stem}_{method}.json", json.dumps(sidecar, indent=2) + "\n")
    return EXIT_OK


def cmd_moments(args) -> int:
    a_lo, a_hi, a_n = _grid_spec(args.alpha_grid, "--alpha-grid")
    b_lo, b_hi, b_n = _grid_spec(args.beta_grid, "--beta-grid")
    alphas = np.linspace(a_lo, a_hi, a_n)
    betas = np.linspace(b_lo, b_hi, b_n)
    lines = ["alpha,beta,mean,variance,skewness,kurtosis"]
    cell = 0
    for a in alphas:
        for b in betas:
            m = mc_moments(LTLLParams(float(a), float(b), args.xl), args.draws,
                           RngStream(args.seed, cell))
            lines.append(",".join(format(v, ".10g") for v in (a, b, *m)))
            cell += 1
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


_COMMANDS = {
    "fit": cmd_fit,
    "simulate": cmd_simulate,
    "ellipse": cmd_ellipse,
    "moments": cmd_moments,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_apply_config(argv))
        return _COMMANDS[args.command](args)
    except SystemExit:
        raise
    except BrokenPipeError:
        return EXIT_ERROR
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"ltll: error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
