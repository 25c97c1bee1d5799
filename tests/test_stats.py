"""Signed-rank test and mean-rank tables against independent oracles."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from oracles import wilcoxon_enumerated
from sinepath.stats import (
    RankTable,
    _average_ranks,
    friedman_mean_ranks,
    wilcoxon_signed_rank,
)

# Signed zeros, infinities, scales from 1e-300 to 1e300 and any finite float.
_RANKED_VALUE = st.one_of(
    st.sampled_from([0.0, -0.0, np.inf, -np.inf]),
    st.builds(lambda k, e: k * 10.0**e, st.integers(-3, 3), st.integers(-300, 300)),
    st.floats(allow_nan=False),
)


@st.composite
def _tied_vectors(draw):
    """Lengths 1-59 drawn from a pool of at most six values, so ties are heavy."""
    pool = draw(st.lists(_RANKED_VALUE, min_size=1, max_size=6))
    return np.array(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=59)))


@settings(max_examples=500, deadline=None)
@given(_tied_vectors())
@example(np.array([0.0, -0.0, 0.0]))
@example(np.array([np.inf, -np.inf, 1e300, np.inf, 1e-300, -0.0]))
def test_average_ranks_equal_rankdata_bit_for_bit(x):
    want = rankdata(x, method="average")
    got = _average_ranks(x)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def test_wilcoxon_matches_enumeration_small_n():
    rng = np.random.default_rng(91)
    for trial in range(60):
        n = int(rng.integers(5, 11))
        a = rng.normal(10.0, 2.0, size=n)
        b = a + rng.normal(0.0, 1.5, size=n)
        got = wilcoxon_signed_rank(a, b)
        w_plus, w_minus, n_eff, p_ref = wilcoxon_enumerated(a, b)
        assert got.w_plus == pytest.approx(w_plus, abs=1e-12)
        assert got.w_minus == pytest.approx(w_minus, abs=1e-12)
        assert got.n_effective == int(n_eff)
        assert got.p_value == pytest.approx(p_ref, abs=1e-12)


def test_wilcoxon_with_tied_magnitudes():
    # repeated |difference| values force average ranks
    a = np.array([10.0, 10.0, 10.0, 10.0, 10.0, 10.0])
    b = np.array([11.0, 9.0, 11.0, 12.0, 8.0, 12.0])
    got = wilcoxon_signed_rank(a, b)
    _, _, _, p_ref = wilcoxon_enumerated(a, b)
    assert got.p_value == pytest.approx(p_ref, abs=1e-12)
    assert got.w_plus + got.w_minus == pytest.approx(21.0)  # 6*7/2


def test_wilcoxon_identical_samples():
    a = np.array([3.0, 4.0, 5.0, 6.0, 7.0])
    res = wilcoxon_signed_rank(a, a.copy())
    assert res.verdict == "equal"
    assert res.p_value == 1.0
    assert res.n_effective == 0
    assert res.statistic == 0.0


def test_wilcoxon_preconditions():
    with pytest.raises(ValueError, match="at least 5"):
        wilcoxon_signed_rank([1.0] * 4, [2.0] * 4)
    with pytest.raises(ValueError, match="equally long"):
        wilcoxon_signed_rank([1.0] * 6, [2.0] * 5)


@pytest.mark.parametrize(
    "a, b",
    [
        ([1.0, 2.0, 3.0, 4.0, np.nan], [0.0] * 5),
        ([0.0] * 5, [1.0, np.nan, 3.0, 4.0, 5.0]),
        ([np.inf, 2.0, 3.0, 4.0, 5.0], [np.inf, 0.0, 0.0, 0.0, 0.0]),  # inf - inf
    ],
)
def test_wilcoxon_refuses_nan(a, b):
    # NaN used to crash as "cannot convert float NaN to integer" after a
    # numpy RuntimeWarning; ranking must never see it.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="NaN"):
            wilcoxon_signed_rank(a, b)


def test_wilcoxon_ranks_infinite_differences_last():
    res = wilcoxon_signed_rank([np.inf, 2.0, 3.0, 4.0, 5.0], [0.0] * 5)
    assert (res.w_plus, res.w_minus) == (15.0, 0.0)
    res = wilcoxon_signed_rank([-np.inf, 2.0, 3.0, 4.0, 5.0], [0.0] * 5)
    assert (res.w_plus, res.w_minus) == (10.0, 5.0)


def test_wilcoxon_strict_dominance_20_pairs():
    rng = np.random.default_rng(92)
    b = rng.uniform(50.0, 100.0, size=20)
    a = b - rng.uniform(1.0, 5.0, size=20)  # a strictly lower everywhere
    res = wilcoxon_signed_rank(a, b)
    assert res.w_plus == 0.0
    # doubled lower tail of W+ = 0 over 2^20 equally likely sign vectors
    assert res.p_value == pytest.approx(2.0 / 2.0**20, rel=1e-12)
    assert res.p_value < 0.05
    assert res.verdict == "better"
    flipped = wilcoxon_signed_rank(b, a)
    assert flipped.verdict == "worse"
    assert flipped.p_value == res.p_value


@pytest.mark.parametrize("n, least_p, verdict", [(5, 0.0625, "equal"), (6, 0.03125, "better")])
def test_wilcoxon_needs_six_non_zero_pairs_for_a_verdict(n, least_p, verdict):
    # a lower on every pair gives the smallest exact two-sided p, 2 / 2^n:
    # above the 0.05 level at 5 pairs, so 5 repeats can only read "equal"
    b = np.arange(10.0, 10.0 + n)
    res = wilcoxon_signed_rank(b - np.arange(1.0, n + 1.0), b)
    assert res.w_plus == 0.0
    assert res.p_value == least_p
    assert res.verdict == verdict


def test_wilcoxon_normal_approximation_branch():
    rng = np.random.default_rng(93)
    b = rng.uniform(50.0, 100.0, size=30)
    a = b - rng.uniform(1.0, 5.0, size=30)
    res = wilcoxon_signed_rank(a, b)  # n=30 > exact limit
    assert res.verdict == "better"
    assert 0.0 < res.p_value < 1e-4

    # near the exact/approx boundary the two branches should agree closely
    b24 = rng.uniform(50.0, 100.0, size=24)
    a24 = b24 + rng.normal(0.0, 3.0, size=24)
    exact = wilcoxon_signed_rank(a24, b24)
    from sinepath.stats import _normal_two_sided_p

    diff = a24 - b24
    diff = diff[diff != 0]
    ranks = rankdata(np.abs(diff))
    w_min = min(ranks[diff > 0].sum(), ranks[diff < 0].sum())
    approx = _normal_two_sided_p(ranks, w_min)
    assert approx == pytest.approx(exact.p_value, rel=0.2)


@st.composite
def _normal_path_differences(draw):
    """26-80 non-zero differences whose magnitudes come from 1-80 distinct
    values, so every tie pattern, all magnitudes equal included, comes up."""
    n = draw(st.integers(26, 80))
    values = draw(st.integers(1, 80))
    magnitudes = draw(st.lists(st.integers(1, values), min_size=n, max_size=n))
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n))
    return np.array(signs) * np.array(magnitudes, dtype=float)


@settings(max_examples=300, deadline=None)
@given(_normal_path_differences())
@example(np.ones(26))
@example(np.ones(80))
@example(np.r_[np.ones(40), -np.ones(40)])
def test_normal_path_p_is_a_probability(diff):
    # the tie-corrected variance stays positive: the tie groups remove at
    # most (n^3 - n) / 48 of n(n + 1)(2n + 1) / 24
    res = wilcoxon_signed_rank(diff, np.zeros(len(diff)))
    assert res.n_effective == len(diff) > 25
    assert math.isfinite(res.p_value) and 0.0 < res.p_value <= 1.0


def test_friedman_always_best():
    means = {
        f"inst{i}": {"a": 1.0, "b": 2.0 + i, "c": 3.0 + i} for i in range(10)
    }
    table = friedman_mean_ranks(means)
    assert table.mean_ranks["a"] == 1.0
    assert table.ordering() == ("a", "b", "c")


def test_friedman_ties_average():
    means = {"i1": {"a": 5.0, "b": 5.0}, "i2": {"a": 7.0, "b": 7.0}}
    table = friedman_mean_ranks(means)
    assert table.mean_ranks == {"a": 1.5, "b": 1.5}
    assert table.ordering() == ("a", "b")  # tie broken by name


def test_friedman_rank_sums():
    rng = np.random.default_rng(94)
    for _ in range(20):
        n_alg = int(rng.integers(2, 6))
        algs = [f"alg{k}" for k in range(n_alg)]
        means = {
            f"inst{i}": {a: float(rng.uniform(1, 10)) for a in algs}
            for i in range(int(rng.integers(2, 8)))
        }
        table = friedman_mean_ranks(means)
        expected_sum = n_alg * (n_alg + 1) / 2
        for ranks in table.per_instance.values():
            assert sum(ranks.values()) == pytest.approx(expected_sum, abs=1e-12)
        for a in algs:
            assert 1.0 <= table.mean_ranks[a] <= n_alg


def test_friedman_incomplete_instance_refused():
    # an instance lacking an algorithm used to be skipped with a warning
    means = {
        "full1": {"a": 1.0, "b": 2.0},
        "full2": {"a": 2.0, "b": 1.0},
        "partial": {"a": 1.0},
    }
    with pytest.raises(ValueError, match=r"'partial' lacks algorithm 'b'"):
        friedman_mean_ranks(means)


def test_friedman_preconditions():
    with pytest.raises(ValueError, match="2 algorithms"):
        friedman_mean_ranks({"i1": {"a": 1.0}, "i2": {"a": 2.0}})
    with pytest.raises(ValueError, match="2 complete instances"):
        friedman_mean_ranks({"i1": {"a": 1.0, "b": 2.0}})


def test_friedman_refuses_nan_mean():
    # a NaN mean used to come back as NaN mean ranks
    means = {"i1": {"a": 1.0, "b": float("nan")}, "i2": {"a": 2.0, "b": 1.0}}
    with pytest.raises(ValueError, match=r"'i1'.*'b'.*NaN"):
        friedman_mean_ranks(means)


def test_friedman_ranks_infinite_means():
    means = {"i1": {"a": np.inf, "b": 1.0, "c": np.inf}, "i2": {"a": -np.inf, "b": 1.0, "c": 2.0}}
    table = friedman_mean_ranks(means)
    assert table.per_instance == {"i1": {"a": 2.5, "b": 1.0, "c": 2.5},
                                  "i2": {"a": 1.0, "b": 2.0, "c": 3.0}}


def test_rank_table_ordering():
    table = RankTable(
        algorithms=("x", "y", "z"),
        mean_ranks={"x": 2.0, "y": 1.2, "z": 2.8},
        per_instance={},
    )
    assert table.ordering() == ("y", "x", "z")
