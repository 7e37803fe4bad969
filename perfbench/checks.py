"""Correctness checks on ltll outputs, independent of the code under test.

Likelihoods are recomputed with scipy.stats (fisk is the log-logistic,
pareto the boundary density), the fit schema is checked by a validator
written here (so the benchmark does not import the test suite's helper),
and sweep tables are parsed with the csv module.  Every check
returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np
from scipy import stats

# Relative perturbations of (alpha, beta) around a reported MLE; no point of
# the grid may score higher than the estimate itself.
MLE_GRID = (-1e-2, -1e-3, 0.0, 1e-3, 1e-2)
LOGLIK_RTOL = 1e-8

_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool, "null": type(None)}


def _type_ok(value, name: str) -> bool:
    if name in ("integer", "number"):
        if isinstance(value, bool):
            return False
        return isinstance(value, int) if name == "integer" else isinstance(value, (int, float))
    return isinstance(value, _TYPES[name])


def schema_errors(doc, schema, root=None, path="$") -> list[str]:
    """Validate against the JSON-schema subset fit_result.schema.json uses."""
    root = schema if root is None else root
    if "$ref" in schema:
        target = root
        for part in schema["$ref"].lstrip("#/").split("/"):
            target = target[part]
        return schema_errors(doc, target, root, path)
    if "oneOf" in schema:
        ok = sum(not schema_errors(doc, sub, root, path) for sub in schema["oneOf"])
        return [] if ok == 1 else [f"{path}: matches {ok} oneOf branches"]
    kinds = schema.get("type")
    if kinds is not None:
        kinds = kinds if isinstance(kinds, list) else [kinds]
        if not any(_type_ok(doc, k) for k in kinds):
            return [f"{path}: not of type {kinds}"]
    errors = []
    if "enum" in schema and doc not in schema["enum"]:
        errors.append(f"{path}: {doc!r} not in {schema['enum']}")
    if isinstance(doc, dict):
        errors += [f"{path}: missing {k}" for k in schema.get("required", []) if k not in doc]
        props = schema.get("properties", {})
        for key, value in doc.items():
            if key in props:
                errors += schema_errors(value, props[key], root, f"{path}.{key}")
            elif schema.get("additionalProperties") is False:
                errors.append(f"{path}: unexpected key {key}")
    if isinstance(doc, list):
        if len(doc) < schema.get("minItems", 0) or len(doc) > schema.get("maxItems", math.inf):
            errors.append(f"{path}: {len(doc)} items")
        if "items" in schema:
            for i, item in enumerate(doc):
                errors += schema_errors(item, schema["items"], root, f"{path}[{i}]")
    if _type_ok(doc, "number"):
        if doc < schema.get("minimum", -math.inf):
            errors.append(f"{path}: {doc} below minimum")
        if doc <= schema.get("exclusiveMinimum", -math.inf):
            errors.append(f"{path}: {doc} not above exclusiveMinimum")
        if doc >= schema.get("exclusiveMaximum", math.inf):
            errors.append(f"{path}: {doc} not below exclusiveMaximum")
    return errors


def fisk_loglik(x: np.ndarray, x_l: float, alpha: float, beta: float) -> float:
    """Left-truncated log-logistic log-likelihood: logpdf - logsf(x_L)."""
    ll = float(np.sum(stats.fisk.logpdf(x, beta, scale=alpha)))
    if x_l > 0.0:
        ll -= x.size * float(stats.fisk.logsf(x_l, beta, scale=alpha))
    return ll


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= LOGLIK_RTOL * (1.0 + abs(b))


def _inside(value, interval) -> bool:
    return interval is not None and interval[0] <= value <= interval[1]


def fit_problems(exit_code: int, text: str, schema: dict, x: np.ndarray, x_l: float) -> list[str]:
    """Check one `ltll fit --method both` result against the kept data x > x_L."""
    if exit_code not in (0, 2):
        return [f"exit code {exit_code}"]
    try:
        docs = json.loads(text)
    except ValueError as exc:
        return [f"stdout is not JSON: {exc}"]
    problems = schema_errors(docs, schema)
    if problems:
        return problems
    docs = docs if isinstance(docs, list) else [docs]
    x = x[x > x_l]
    for doc in docs:
        label = doc["method"]
        if doc["n"] != x.size:
            problems.append(f"{label}: n={doc['n']} but {x.size} values lie above x_L")
            continue
        if label == "mle" and doc["boundary"]:
            beta0 = x.size / float(np.sum(np.log(x / x_l)))
            ll = float(np.sum(stats.pareto.logpdf(x, beta0, scale=x_l)))
            if not _close(doc["beta"], beta0):
                problems.append(f"boundary beta {doc['beta']} != beta0 {beta0}")
            if not _close(doc["loglik"], ll):
                problems.append(f"boundary loglik {doc['loglik']} != pareto {ll}")
            continue
        a, b = doc["alpha"], doc["beta"]
        ll = fisk_loglik(x, x_l, a, b)
        if not _close(doc["loglik"], ll):
            problems.append(f"{label} loglik {doc['loglik']} != fisk {ll}")
        if label == "bayes":
            if not (_inside(a, doc["ci_alpha"]) and _inside(b, doc["ci_beta"])):
                problems.append("posterior mean outside its credible interval")
            if "ess" not in doc:
                problems.append("posterior result carries no ess")
            continue
        best = max(fisk_loglik(x, x_l, a * (1 + da), b * (1 + db))
                   for da in MLE_GRID for db in MLE_GRID if da or db)
        if best > ll + LOGLIK_RTOL * (1.0 + abs(ll)):
            problems.append(f"grid point scores {best} above the MLE's {ll}")
        for ci, v in ((doc["ci_alpha"], a), (doc["ci_beta"], b)):
            if ci is not None and not _inside(v, ci):
                problems.append("MLE outside its Wald interval")
    return problems


def table_problems(name: str, data: bytes, n_rows: int) -> list[str]:
    """A sweep table parses, has n_rows rows, and its Bayesian rows are finite."""
    try:
        rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    except (UnicodeDecodeError, csv.Error) as exc:
        return [f"{name}: {exc}"]
    if len(rows) != n_rows + 1:
        return [f"{name}: {len(rows) - 1} rows, expected {n_rows}"]
    width = len(rows[0])
    problems = []
    for row in rows[1:]:
        if len(row) != width or row[1] not in ("MLE", "Bayesian"):
            problems.append(f"{name}: malformed row {row}")
            continue
        try:
            values = [float(v) for v in [row[0]] + row[2:]]
        except ValueError:
            problems.append(f"{name}: non-numeric cell in {row}")
            continue
        if row[1] == "Bayesian" and not all(math.isfinite(v) for v in values):
            problems.append(f"{name}: non-finite Bayesian row {row}")
    return problems


def replicate_problems(records) -> list[str]:
    """Per-replicate posterior summaries from a sweep are coherent."""
    problems = []
    for rec in records:
        if not (_inside(rec.bayes_alpha, rec.bayes_ci_alpha)
                and _inside(rec.bayes_beta, rec.bayes_ci_beta)):
            problems.append(f"replicate {rec.r}: posterior mean outside its credible interval")
        if not (rec.ess_alpha > 0.0 and rec.ess_beta > 0.0):
            problems.append(f"replicate {rec.r}: non-positive ESS")
    return problems
