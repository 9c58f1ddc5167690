"""Summary statistics and the regression verdict shared by run.py and compare.py."""

from __future__ import annotations

import statistics


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(parent, change, *, bound: float, better: str, pairs=None) -> tuple[str, float]:
    """Judge *change* runs against *parent* runs of one metric.

    Returns ``(verdict, win_fraction)``.  A run "wins" when the change reads
    better than the parent in its pair; *pairs* defaults to zipping the
    two lists in order, and ties count for neither side.  The rules:

    * either side's spread is wider than *bound*: ``unresolved``, unless
      every change run reads better than every parent run (``better``);
    * the change wins at least nine pairs in ten and the medians differ by
      more than the parent's inter-quartile distance: ``better``;
    * the change's median is worse than the parent's by more than *bound*
      (a share of the parent's median): ``regressed``;
    * otherwise ``no worse``.
    """
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change)) if pairs is None else list(pairs)
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    win_fraction = wins / len(pairs) if pairs else 0.0
    p_q1, p_median, p_q3 = quartiles(parent)
    c_median = statistics.median(change)
    gain = sign * (c_median - p_median) / abs(p_median) if p_median else 0.0
    if spread(parent) > bound or spread(change) > bound:
        worst_change = min(change) if sign > 0 else max(change)
        best_parent = max(parent) if sign > 0 else min(parent)
        clear_win = sign * (worst_change - best_parent) > 0
        return ("better" if clear_win else "unresolved"), win_fraction
    if win_fraction >= 0.9 and gain > 0 and abs(c_median - p_median) > p_q3 - p_q1:
        return "better", win_fraction
    if gain < -bound:
        return "regressed", win_fraction
    return "no worse", win_fraction
