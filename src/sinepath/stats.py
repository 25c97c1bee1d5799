"""Paired significance testing and mean-rank aggregation for run sets.

Wilcoxon signed-rank, two-sided: zero differences are dropped, absolute
differences get average ranks, and the statistic is the smaller signed rank
sum.  Up to 25 effective pairs the p-value comes from the exact null
distribution (a count convolution over doubled ranks, so tied half-ranks
stay integral); beyond that, a normal approximation with continuity and tie
correction.  Verdicts compare at the fixed 0.05 level.

Friedman-style mean ranks: within each instance the algorithms are ranked by
mean metric ascending (ties share the average rank), then ranks are averaged
across instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_SIGNIFICANCE = 0.05
EXACT_PAIR_LIMIT = 25


@dataclass(frozen=True)
class WilcoxonResult:
    statistic: float
    w_plus: float
    w_minus: float
    n_effective: int
    p_value: float
    verdict: str  # "better" | "worse" | "equal", judged for the first sample


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """Ranks 1..n of ``x`` ascending, each run of equal values sharing its
    mean rank (the "average" tie method).  ``x`` must hold no NaN, which
    this would rank last instead of refusing.
    """
    order = np.argsort(x, kind="stable")
    s = x[order]
    starts = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
    ends = np.r_[starts[1:], len(s)]  # one past each run
    ranks = np.empty(len(s))
    ranks[order] = np.repeat((starts + ends + 1) / 2, ends - starts)
    return ranks


def _exact_two_sided_p(ranks2: np.ndarray, w_obs2: int) -> float:
    """P over all 2^n sign assignments, doubled-rank integer arithmetic.

    Returns min(1, 2 * P(W+ <= w_obs)); the null is symmetric, so this is
    the usual doubled single tail.
    """
    total = int(ranks2.sum())
    counts = np.zeros(total + 1, dtype=np.int64)
    counts[0] = 1
    for r in ranks2:
        r = int(r)
        shifted = np.zeros_like(counts)
        shifted[r:] = counts[: total + 1 - r]
        counts = counts + shifted
    tail = int(counts[: w_obs2 + 1].sum())
    p = 2.0 * tail / float(2 ** len(ranks2))
    return min(1.0, p)


def _normal_two_sided_p(ranks: np.ndarray, w_min: float) -> float:
    n = len(ranks)
    mean = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0
    # Tie correction: each group of t equal ranks removes (t^3 - t) / 48, all
    # groups together at most (n^3 - n) / 48, so var stays positive.
    _, tie_counts = np.unique(ranks, return_counts=True)
    var -= float(((tie_counts**3 - tie_counts) / 48.0).sum())
    z = (w_min - mean + 0.5) / math.sqrt(var)
    # 2 * Phi(z) for the lower tail, via the complementary error function.
    p = math.erfc(-z / math.sqrt(2.0))
    return min(1.0, p)


def wilcoxon_signed_rank(a, b) -> WilcoxonResult:
    """Two-sided paired test; verdict says whether ``a`` is significantly
    lower ("better", for minimised metrics), higher ("worse"), or neither."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("paired samples must be 1-d and equally long")
    if len(a) < 5:
        raise ValueError(f"need at least 5 pairs, got {len(a)}")

    with np.errstate(invalid="ignore"):  # inf - inf, refused just below
        diff = a - b
    if np.isnan(diff).any():
        raise ValueError("paired samples contain NaN (a NaN value or inf - inf)")
    diff = diff[diff != 0.0]
    n = len(diff)

    ranks = _average_ranks(np.abs(diff))
    w_plus = float(ranks[diff > 0].sum())
    w_minus = float(ranks[diff < 0].sum())
    w_min = min(w_plus, w_minus)

    if n <= EXACT_PAIR_LIMIT:
        ranks2 = np.rint(2.0 * ranks).astype(np.int64)
        w_obs2 = int(round(2.0 * w_min))
        p = _exact_two_sided_p(ranks2, w_obs2)
    else:
        p = _normal_two_sided_p(ranks, w_min)

    if p < DEFAULT_SIGNIFICANCE:
        verdict = "better" if w_plus < w_minus else "worse"
    else:
        verdict = "equal"
    return WilcoxonResult(w_min, w_plus, w_minus, n, p, verdict)


@dataclass(frozen=True)
class RankTable:
    """Mean ranks per algorithm plus the per-instance detail."""

    algorithms: tuple[str, ...]
    mean_ranks: dict[str, float]
    per_instance: dict[str, dict[str, float]]

    def ordering(self) -> tuple[str, ...]:
        """Algorithms from best (lowest mean rank) to worst; ties by name."""
        return tuple(sorted(self.algorithms, key=lambda a: (self.mean_ranks[a], a)))


def friedman_mean_ranks(means: dict[str, dict[str, float]]) -> RankTable:
    """Rank algorithms within each instance by mean metric, then average.

    ``means`` maps instance -> algorithm -> mean metric (lower is better).
    An instance missing any algorithm and a NaN mean are refused by name.
    Within one instance the ranks always sum to A(A+1)/2 for A algorithms.
    """
    algorithms: set[str] = set()
    for per_alg in means.values():
        algorithms.update(per_alg)
    algs = tuple(sorted(algorithms))
    if len(algs) < 2:
        raise ValueError("mean ranks need at least 2 algorithms")

    per_instance: dict[str, dict[str, float]] = {}
    for inst_name in sorted(means):
        per_alg = means[inst_name]
        missing = [a for a in algs if a not in per_alg]
        if missing:
            names = ", ".join(map(repr, missing))
            raise ValueError(f"instance {inst_name!r} lacks algorithm {names}")
        for alg in algs:
            if math.isnan(per_alg[alg]):
                raise ValueError(f"instance {inst_name!r}, algorithm {alg!r}: mean is NaN")
        ranks = _average_ranks(np.array([per_alg[a] for a in algs]))
        per_instance[inst_name] = {a: float(r) for a, r in zip(algs, ranks)}
    if len(per_instance) < 2:
        raise ValueError("mean ranks need at least 2 complete instances")

    mean_ranks = {
        a: float(np.mean([ranks[a] for ranks in per_instance.values()]))
        for a in algs
    }
    return RankTable(algs, mean_ranks, per_instance)
