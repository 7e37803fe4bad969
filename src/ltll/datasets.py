"""Dataset ingestion: CSV parsing, validation, and the bundled case study.

Input files are UTF-8 CSV, with or without a byte-order mark, with optional
header, ``#`` comment lines, and one value per row in the selected column.
Comment lines and non-numeric rows are skipped (and counted); non-positive
values are a hard error that reports the offending row numbers, since every
downstream quantity needs strictly positive data.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from importlib import resources

import numpy as np

from .distribution import DegenerateSampleError, Sample

__all__ = [
    "BUNDLED_DATASETS",
    "DatasetFile",
    "apply_truncation",
    "load_bladder_cancer",
    "load_csv",
]


@dataclass(frozen=True)
class DatasetFile:
    """Parsed positive-valued observations plus parse diagnostics."""

    path: str
    column: str | int | None
    values: np.ndarray
    n_comments: int
    n_skipped: int
    warnings: tuple[str, ...]
    provenance: str | None = None

    @property
    def n(self) -> int:
        return self.values.size


def _resolve_column(header_row: list[str], column: str) -> int:
    names = [c.strip() for c in header_row]
    if column in names:
        return names.index(column)
    raise ValueError(f"column {column!r} not found in header {names}")


def load_csv(path: str, column: str | int | None = None) -> DatasetFile:
    """Parse one numeric column of a CSV file into a validated DatasetFile.

    ``column`` may be a 0-based index or a header name; with a name, the
    first non-comment row is consumed as the header.  Row order is preserved.
    A negative index is refused rather than counted from the end.
    """
    if isinstance(column, int) and column < 0:
        raise ValueError(f"column index must be 0-based and non-negative, got {column}")
    comments = 0
    skipped = 0
    warnings: list[str] = []
    values: list[float] = []
    nonpositive: list[int] = []

    col_idx = column if isinstance(column, int) else None
    header_pending = isinstance(column, str)

    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        for row_no, row in enumerate(reader, start=1):
            if not row or not "".join(row).strip():
                continue
            if row[0].lstrip().startswith("#"):
                comments += 1
                continue
            if header_pending:
                col_idx = _resolve_column(row, column)
                header_pending = False
                continue
            idx = col_idx if col_idx is not None else 0
            if idx >= len(row):
                skipped += 1
                warnings.append(f"row {row_no}: no column {idx}")
                continue
            cell = row[idx].strip()
            try:
                v = float(cell)
            except ValueError:
                skipped += 1
                warnings.append(f"row {row_no}: non-numeric value {cell!r}")
                continue
            if not np.isfinite(v) or v <= 0.0:
                nonpositive.append(row_no)
                continue
            values.append(v)

    if header_pending:
        raise ValueError(f"{path}: no header row found for column {column!r}")
    if nonpositive:
        raise ValueError(
            f"{path}: non-positive values at rows {nonpositive}; "
            "observations must be strictly positive"
        )
    if not values:
        raise ValueError(f"{path}: no numeric values remain after filtering")
    return DatasetFile(
        path=str(path), column=column, values=np.asarray(values, dtype=np.float64),
        n_comments=comments, n_skipped=skipped, warnings=tuple(warnings),
    )


def apply_truncation(d: DatasetFile, x_l: float) -> Sample:
    """The values strictly above x_l, as a Sample truncated at x_l.

    The filter keeps ``sample.n`` values and drops ``d.n - sample.n``.
    """
    if not (np.isfinite(x_l) and x_l >= 0.0):
        raise ValueError(f"x_l must be finite and >= 0, got {x_l}")
    kept = d.values[d.values > x_l]
    if np.unique(kept).size < 2:
        raise DegenerateSampleError(
            f"truncation at {x_l} keeps {kept.size} value(s); "
            "need at least two distinct observations"
        )
    return Sample(kept, x_l)


def load_bladder_cancer() -> DatasetFile:
    """The bundled 128 remission times (months) of bladder cancer patients.

    The file is parsed by ``load_csv``; only its path and provenance are
    replaced, by the dataset's name and source.
    """
    ref = resources.files("ltll").joinpath("data/bladder_cancer.csv")
    with resources.as_file(ref) as p:
        parsed = load_csv(str(p), column="remission_months")
    return replace(parsed, path="bladder_cancer (bundled)",
                   provenance="Lee & Wang (2003), remission times of 128 bladder cancer patients")


BUNDLED_DATASETS = {
    "bladder_cancer": load_bladder_cancer,
}
