"""Order-insensitive aggregation of result columns into a JSON-ready summary.

A table maps each column name to an equal-length column: a numpy array
(numbers or strings) or a list of cells of any type.  Int, float and bool
cells are metrics; other cells (``None``, strings) are skipped.
"""

from __future__ import annotations

import math
from typing import Any, Mapping, Optional, Union

import numpy as np

_Z95 = 1.959963984540054

_QUANTILES = np.array([0.5, 0.90, 0.95, 0.99])

Column = Union[np.ndarray, list]


class SummaryError(ValueError):
    """Rows cannot be aggregated (no rows, invalid counts)."""


def wilson_interval(successes: int, trials: int, z: float = _Z95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials < 1 or not 0 <= successes <= trials:
        raise SummaryError(f"invalid counts: {successes}/{trials}")
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def _metric(values: np.ndarray) -> dict:
    """count, mean and quantiles of one metric's values, plus a Wilson 95% CI if all are 0 or 1."""
    arr = np.sort(values)
    median, q90, q95, q99 = np.quantile(arr, _QUANTILES).tolist()
    entry = {"count": arr.size, "mean": float(arr.mean()), "median": median, "q90": q90, "q95": q95, "q99": q99}
    if np.all((arr == 0.0) | (arr == 1.0)):
        entry["wilson_low"], entry["wilson_high"] = wilson_interval(int(arr.sum()), arr.size)
    return entry


def _numeric(column: Column) -> tuple[np.ndarray, Any]:
    """The metric cells of a column as floats, and the rows they come from."""
    if isinstance(column, np.ndarray):
        rows = slice(None) if column.dtype.kind in "biuf" else slice(0)
        return column[rows].astype(float), rows
    rows = [k for k, v in enumerate(column) if isinstance(v, (int, float))]
    return np.array([column[k] for k in rows], dtype=float), rows


def _aggregate(columns: Mapping[str, Column], codes: np.ndarray, count: int) -> list[dict]:
    """The metrics of each of ``count`` row groups; row ``r`` is in group ``codes[r]``."""
    metrics = [{} for _ in range(count)]
    for key in sorted(columns):
        values, rows = _numeric(columns[key])
        member = codes[rows]
        # a stable order keeps each group's values in row order
        ends = np.cumsum(np.bincount(member, minlength=count))[:-1]
        for out, group in zip(metrics, np.split(values[np.argsort(member, kind="stable")], ends)):
            if group.size:
                out[key] = _metric(group)
    return metrics


def _groups(column: Column) -> tuple[list, np.ndarray]:
    """The distinct values of a ``group_by`` column in sorted order, and each row's index among them.

    Equal values form one group, named by the value's first occurrence.
    """
    keys = column
    if not isinstance(column, np.ndarray):
        keys = np.array(column, dtype=None if all(isinstance(v, str) for v in column) else float)
    _, first, codes = np.unique(keys, return_index=True, return_inverse=True)
    return [column[k] for k in first.tolist()], codes


def summarize_columns(columns: Mapping[str, Column], group_by: Optional[str] = None) -> dict:
    """Per-metric mean/median/q90/q95/q99 (plus Wilson 95% CI for 0/1 metrics) of a table.

    With ``group_by`` the same aggregation is also computed per value of
    that column; each metric is sorted once per group.  The result is
    independent of row order.
    """
    n = len(next(iter(columns.values()), ()))
    if not n:
        raise SummaryError("cannot summarize zero rows")
    out = {"rows": n, "metrics": _aggregate(columns, np.zeros(n, dtype=np.intp), 1)[0]}
    if group_by is not None:
        values, codes = _groups(columns[group_by])
        metrics = _aggregate(columns, codes, len(values))
        out["groups"] = {str(value): group for value, group in zip(values, metrics)}
        out["group_by"] = group_by
    return out
