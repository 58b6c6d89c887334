"""Sieve weight construction and the indicator-domination properties."""

import math
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charwin import (
    SieveVerificationError,
    abs_weight_sum,
    build_selberg,
    indicator_value,
    interval_weight_sum,
    verify_indicator,
)
from charwin import selberg


def _indicator_oracle(system, n_max):
    """(rough_count, min_value, None) n by n, or (None, None, message) at the first bad n."""
    rough, values = 0, []
    for n in range(1, n_max + 1):
        value = indicator_value(system, n)
        values.append(value)
        if value < 0:
            return None, None, f"negative weight sum {value} at n={n}"
        if all(n % p for p in system.sifting_primes):
            rough += 1
            if value != 1:
                return None, None, f"rough n={n} has weight sum {value} != 1"
    return rough, min(values), None


def _check_against_oracle(system, n_max):
    rough, low, message = _indicator_oracle(system, n_max)
    if message is not None:
        with pytest.raises(SieveVerificationError) as info:
            verify_indicator(system, n_max)
        assert str(info.value) == message
        return
    report = verify_indicator(system, n_max)
    assert report == {"n_max": n_max, "rough_count": rough, "min_value": low, "ok": True}
    assert type(report["rough_count"]) is int
    assert type(report["min_value"].numerator) is int


def test_single_prime_system():
    system = build_selberg(4, 4)  # sifting set {3}
    assert system.sifting_primes == (3,)
    assert system.lambda_base == {1: Fraction(1), 3: Fraction(-1)}
    assert system.rho == {1: Fraction(1), 3: Fraction(-1)}
    assert abs_weight_sum(system) == 2


def test_lambda_classical_properties():
    for z in (10, 20, 30):
        system = build_selberg(z, z)
        assert system.lambda_base[1] == 1
        for value in system.lambda_base.values():
            assert abs(value) <= 1


def test_frozen_weights_z10_level9():
    system = build_selberg(10, 9)
    assert system.lambda_base == {
        1: Fraction(1),
        3: Fraction(-18, 23),
        5: Fraction(-15, 23),
        7: Fraction(-14, 23),
    }
    assert abs_weight_sum(system) == Fraction(3410, 529)


def test_square_identity_exact():
    # sum_{e|n} rho_e == (sum_{d|n} lambda_d)^2 for every n: the expanded
    # weights are literally the square of the base weights
    system = build_selberg(10, 9)
    for n in range(1, 10**4 + 1):
        base = sum(v for d, v in system.lambda_base.items() if n % d == 0)
        assert indicator_value(system, n) == base * base


def test_rho_support_capped_by_level_squared():
    for z, level in ((10, 9), (10, 10), (30, 30)):
        system = build_selberg(z, level)
        assert max(system.rho) <= level * level


def test_verify_indicator_frozen_counts():
    system = build_selberg(10, 10)
    report = verify_indicator(system, 10**5)
    assert report["ok"]
    # z-rough below 10^5: no factor of 3, 5, or 7; density 48/105
    assert report["rough_count"] == 45714
    assert report["min_value"] >= 0


def test_verify_indicator_rejects_tampered_weights():
    system = build_selberg(10, 10)
    system.rho_scaled[3] -= 3 * system.scale**2  # break nonnegativity
    with pytest.raises(SieveVerificationError):
        verify_indicator(system, 1000)


def test_indicator_is_one_on_rough_numbers():
    system = build_selberg(12, 12)
    sifting = set(system.sifting_primes)
    for n in range(1, 2000):
        if all(n % p for p in sifting):
            assert indicator_value(system, n) == 1
        else:
            assert indicator_value(system, n) >= 0


def test_interval_weight_sum_matches_direct():
    system = build_selberg(10, 9)
    q_start, delta = 1000, 500
    direct = sum(
        indicator_value(system, q) for q in range(q_start + 1, q_start + delta + 1) if q % 2
    )
    rec = interval_weight_sum(system, q_start, delta)
    assert rec["total"] == direct
    assert rec["comparator"] == pytest.approx(delta / math.log(q_start))
    assert rec["ratio"] == pytest.approx(float(direct) / rec["comparator"])


def test_interval_weight_sum_all_moduli():
    system = build_selberg(10, 9)
    direct = sum(indicator_value(system, q) for q in range(101, 201))
    rec = interval_weight_sum(system, 100, 100, odd_only=False)
    assert rec["total"] == direct


def test_interval_weight_sum_dominates_prime_count():
    # the sieve is engineered so the weighted count dominates the primes in
    # the interval (every odd prime > z is rough, hence weight exactly 1)
    system = build_selberg(10, 10)
    from charwin import primes_in_interval

    q_start, delta = 10**4, 10**4
    rec = interval_weight_sum(system, q_start, delta)
    prime_count = len([p for p in primes_in_interval(q_start + 1, q_start + delta) if p % 2])
    assert float(rec["total"]) >= prime_count


def test_build_validation():
    with pytest.raises(ValueError):
        build_selberg(2, 10)
    with pytest.raises(ValueError):
        build_selberg(10, 2)


@given(
    st.integers(3, 30),
    st.integers(3, 40),
    st.integers(1, 3000),
    st.none() | st.tuples(st.integers(0, 10**3), st.sampled_from((-2, -1, 1, 2)),
                          st.booleans()),
)
@settings(max_examples=40, deadline=None)
def test_verify_indicator_matches_per_n_oracle(z, level, n_max, tamper):
    system = build_selberg(z, level)
    if tamper is not None:
        # shift one weight by a unit or by a whole 1 (scale**2): the first
        # breaks exactness on rough n, the second can also make sums negative
        index, step, whole = tamper
        e = sorted(system.rho_scaled)[index % len(system.rho_scaled)]
        system.rho_scaled[e] += step * (system.scale**2 if whole else 1)
    _check_against_oracle(system, n_max)


@pytest.mark.parametrize("z, fits_int64", [(40, True), (60, False)])
def test_verify_indicator_both_dtypes(z, fits_int64):
    # the sum of |rho_e| bounds every partial sum: int64 below 2**63, objects above
    system = build_selberg(z, z)
    assert (sum(abs(v) for v in system.rho_scaled.values()) < 2**63) == fits_int64
    _check_against_oracle(system, 3000)


@pytest.mark.parametrize("z, rough_prime", [(10, 11), (60, 61)])
def test_verify_indicator_reports_the_smallest_bad_n(z, rough_prime):
    sq = build_selberg(z, z).scale ** 2
    cases = [
        # negative at the sifted n = 5 before the rough miss at rough_prime
        ({5: -5 * sq, rough_prime: 1}, "negative weight sum {} at n=5", 5),
        # rough miss at rough_prime before the negative sum at 3 * rough_prime
        ({rough_prime: 1, 3 * rough_prime: -5 * sq},
         f"rough n={rough_prime} has weight sum {{}} != 1", rough_prime),
        # both at rough_prime: the negative-sum message wins
        ({rough_prime: -2 * sq}, f"negative weight sum {{}} at n={rough_prime}", rough_prime),
    ]
    for tamper, message, n in cases:
        system = build_selberg(z, z)
        for e, delta in tamper.items():
            system.rho_scaled[e] = system.rho_scaled.get(e, 0) + delta
        with pytest.raises(SieveVerificationError) as info:
            verify_indicator(system, 5 * rough_prime)
        assert str(info.value) == message.format(indicator_value(system, n))
        _check_against_oracle(system, 5 * rough_prime)


@pytest.mark.parametrize("z, dtype", [(10, "int64"), (60, "object")])
def test_verify_indicator_over_budget_raises_before_allocating(z, dtype):
    # n_max + 1 = 2**28 + 1 entries: about 2.4 GB of int64 sums and bool mask
    system = build_selberg(z, z)
    n_max = 2**28
    tracemalloc.start()
    try:
        started = time.perf_counter()
        with pytest.raises(ValueError) as info:
            verify_indicator(system, n_max)
        seconds = time.perf_counter() - started
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert seconds < 1 and peak < 2**20
    message = f"n_max={n_max} needs about {9 * (n_max + 1)} bytes for its {dtype} sums"
    assert message in str(info.value)


def test_verify_indicator_budget_edge(monkeypatch):
    monkeypatch.setattr(selberg, "MAX_SEGMENT", 1000)
    system = build_selberg(10, 10)
    assert verify_indicator(system, 999)["ok"]
    with pytest.raises(ValueError, match="MAX_SEGMENT = 1000 entries"):
        verify_indicator(system, 1000)
