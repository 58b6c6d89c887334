"""Tuple reduction, pairing counts, theta extraction, and square-value counts."""

import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charwin import (
    count_square_values,
    evertse_bound,
    gaussian_moment,
    is_perfect_square,
    paired_count_bruteforce,
    paired_count_exact,
    paired_count_theta,
    product_is_square,
    reduce_tuple,
    square_iff_reduced,
    square_pair_solutions,
)


def test_reduce_tuple_examples():
    assert reduce_tuple(()).survivors == ()
    assert reduce_tuple((1, 1)).survivors == ()
    assert reduce_tuple((1, 2, 1, 2)).survivors == ()
    assert reduce_tuple((1, 2, 2, 3)).survivors == (1, 3)
    assert reduce_tuple((5,)).survivors == (5,)
    # triple: one copy survives
    assert reduce_tuple((1, 1, 1)).survivors == (1,)


@given(st.lists(st.integers(min_value=1, max_value=6), max_size=12))
def test_reduce_tuple_survivors_are_odd_multiplicity(entries):
    survivors = reduce_tuple(entries).survivors
    odd = {v for v, c in Counter(entries).items() if c % 2}
    assert set(survivors) == odd
    assert len(survivors) == len(odd)  # each odd value survives exactly once


@given(
    st.integers(min_value=1, max_value=500),
    st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=6),
)
@settings(max_examples=150)
def test_product_is_square_matches_isqrt(m, offsets):
    product = math.prod(m + c for c in offsets)
    assert product_is_square(m, offsets) == is_perfect_square(product)


@given(
    st.integers(min_value=1, max_value=300),
    st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=6),
)
@settings(max_examples=150)
def test_square_iff_reduced_always_equal(m, alpha):
    full, reduced = square_iff_reduced(m, alpha)
    assert full == reduced


def test_paired_count_spot_values():
    assert paired_count_exact(1, 5) == 5  # pairs (a, a)
    assert paired_count_exact(2, 3) == 21
    assert paired_count_exact(2, 4) == 40
    assert paired_count_exact(3, 4) == 544
    assert paired_count_exact(2, 1) == 1  # everything equal


def test_paired_count_exact_matches_bruteforce():
    for r in range(1, 3):
        for h in range(1, 6):
            assert paired_count_exact(r, h) == paired_count_bruteforce(r, h)


def test_paired_count_exact_is_cached():
    first = paired_count_exact(3, 17)
    hits = paired_count_exact.cache_info().hits
    assert paired_count_exact(3, 17) == first == paired_count_exact.__wrapped__(3, 17)
    assert paired_count_exact.cache_info().hits == hits + 1
    with pytest.raises(ValueError):
        paired_count_exact(0, 5)


def test_paired_count_exact_matches_rademacher_moments():
    # K(r, h) is E[(e_1 + ... + e_h)^(2r)] for independent signs e_i = +-1:
    # expanding the power, a tuple's expectation is 1 if it is fully paired
    # and 0 otherwise.  Summing over the k signs equal to -1 gives
    # 2^h K(r, h) = sum_k C(h, k) (h - 2k)^(2r), far past brute force.
    for h in range(1, 301):
        terms = [math.comb(h, k) for k in range(h + 1)]
        squares = [(h - 2 * k) ** 2 for k in range(h + 1)]
        for r in range(1, 13):
            terms = [t * s for t, s in zip(terms, squares)]
            assert paired_count_exact(r, h) << h == sum(terms), (r, h)


def test_paired_count_bruteforce_budget():
    with pytest.raises(ValueError):
        paired_count_bruteforce(10, 10)


def test_double_factorial_odd():
    # (2r-1)!! is the Gaussian moment of order 2r, the mu_2r of theta.
    assert gaussian_moment(0) == 1  # (-1)!!
    assert gaussian_moment(2) == 1  # 1!!
    assert gaussian_moment(4) == 3  # 3!!
    assert gaussian_moment(6) == 15  # 5!!
    assert gaussian_moment(8) == 105  # 7!!
    assert gaussian_moment(24) == math.prod(range(1, 24, 2))
    with pytest.raises(ValueError):
        gaussian_moment(-2)


def test_theta_spot_values():
    # K(1, h) = h = 1 * (h - 0)^1, so theta = 0 for r = 1
    for h in (1, 2, 10, 50):
        assert paired_count_theta(1, h).theta == 0.0
    # K(2, 3) = 21 = 3 (3 - 2 theta)^2 => theta = (3 - sqrt(7)) / 2
    assert paired_count_theta(2, 3).theta == pytest.approx((3 - math.sqrt(7)) / 2)
    # large h: theta(2, h) -> 1/6 (three-pairings correction)
    assert paired_count_theta(2, 100).theta == pytest.approx(1 / 6, abs=2e-3)


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=120))
@settings(max_examples=120)
def test_theta_in_unit_interval(r, h):
    if r > h:
        return
    pc = paired_count_theta(r, h)
    assert 0.0 <= pc.theta <= 1.0
    # the definition inverts exactly: K = mu_2r * (h - theta r)^r
    mu = gaussian_moment(2 * r)
    assert mu * (h - pc.theta * r) ** r == pytest.approx(pc.count, rel=1e-9)


def test_paired_count_theta_validation():
    with pytest.raises(ValueError):
        paired_count_theta(3, 2)  # r > h
    with pytest.raises(ValueError):
        paired_count_theta(0, 5)


def test_count_square_values_spot():
    count, witnesses = count_square_values((), 10)
    assert (count, witnesses) == (10, list(range(1, 11)))
    count, witnesses = count_square_values((0,), 50)
    assert witnesses == [1, 4, 9, 16, 25, 36, 49]
    count, witnesses = count_square_values((0, 3), 100)
    assert witnesses == [1]  # 1 * 4 = 2^2
    with pytest.raises(ValueError):
        count_square_values((1, 1), 10)


def test_square_pair_solutions_spot():
    assert square_pair_solutions(1, 10**4) == []  # consecutive product never square
    assert square_pair_solutions(3, 100) == [1]
    # d(d+8): d=1 -> 9 = 3^2
    assert square_pair_solutions(8, 100) == [1]


@given(st.integers(min_value=1, max_value=25), st.integers(min_value=1, max_value=2000))
@settings(max_examples=80)
def test_square_pair_solutions_matches_bruteforce(gap, limit):
    brute = [d for d in range(1, limit + 1) if is_perfect_square(d * (d + gap))]
    assert square_pair_solutions(gap, limit) == brute


def test_evertse_bound_spot():
    rec = evertse_bound((0, 1, 2, 3))
    # pairwise differences 1,2,3,1,2,1 -> distinct primes {2, 3}
    assert rec.omega == 2
    assert rec.log7_exponent == 13 + 9 * 2
    assert rec.bound == 7**31
    assert rec.discriminant == (1 * 2 * 3 * 1 * 2 * 1) ** 2


def test_evertse_bound_validation():
    with pytest.raises(ValueError):
        evertse_bound((0, 1, 2))  # need at least 4 offsets
    with pytest.raises(ValueError):
        evertse_bound((0, 1, 2, 2))


def test_evertse_bound_dominates_observed_counts():
    # the ceiling is astronomically above any observed count, but check the
    # inequality it asserts on a real instance anyway
    count, _ = count_square_values((0, 2, 4, 6), 2000)
    assert count <= evertse_bound((0, 2, 4, 6)).bound
