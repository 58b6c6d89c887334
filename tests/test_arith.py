"""Symbol arithmetic, factorization, and prime counting."""

import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from charwin import (
    euler_criterion,
    is_perfect_square,
    is_prime,
    jacobi,
    jacobi_array,
    omega,
    prime_density_check,
    primes_in_interval,
    squarefree_part,
    tau,
)
from charwin import arith
from charwin.arith import (
    _factorization,
    _prime_mask,
    odd_exponent_primes,
    prime_modulus,
)

PRIMES_TO_300 = primes_in_interval(3, 300)


def test_is_prime_small():
    known = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
    for n in range(-2, 31):
        assert is_prime(n) == (n in known)


def test_is_prime_large_spot_values():
    assert is_prime(10000019)
    assert not is_prime(10000018)
    assert is_prime(2**61 - 1)  # Mersenne
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2,3,5,7


# psi_k: the smallest strong pseudoprime to each of the first k prime bases
# (OEIS A014233), for the distinct values below 2**63
PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
       341550071728321, 3825123056546413051)


def _is_prime_all_witnesses(n: int) -> bool:
    """Miller-Rabin over all twelve bases, with no early stop: the oracle."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_is_prime_rejects_every_psi_k():
    for psi in PSI:
        assert not is_prime(psi)
        assert not _is_prime_all_witnesses(psi)


def test_is_prime_matches_sieve():
    sieved = np.zeros(2 * 10**6 + 1, dtype=bool)
    sieved[primes_in_interval(2, 2 * 10**6)] = True
    assert [is_prime(n) for n in range(2 * 10**6 + 1)] == sieved.tolist()
    for psi in PSI:
        lo, hi = max(2, psi - 10**4), psi + 10**4
        got = [n for n in range(lo, hi + 1) if is_prime(n)]
        if psi < 10**15:
            assert got == primes_in_interval(lo, hi)
        else:
            # near psi_9, sqrt(hi) ~ 2e9 exceeds MAX_SEGMENT, so the sieve
            # refuses the window and the all-witness loop is the oracle
            with pytest.raises(ValueError):
                primes_in_interval(lo, hi)
            assert got == [n for n in range(lo, hi + 1) if _is_prime_all_witnesses(n)]


@given(
    st.one_of(
        st.integers(0, 2**63 - 1),
        st.sampled_from(PSI).flatmap(lambda psi: st.integers(psi - 10**6, psi + 10**6)),
        st.integers(0, 2**31).map(lambda k: 2 * k + 1),
    )
)
@settings(max_examples=500)
def test_is_prime_matches_all_witnesses(n):
    assert is_prime(n) == _is_prime_all_witnesses(n)


def test_prime_modulus_validation():
    assert prime_modulus(7) == 7
    assert prime_modulus(1000000007) == 1000000007
    for bad in (1, 2, 4, 9, 15, 10**6, 2**62, 2**63 + 29, -7):
        with pytest.raises(ValueError):
            prime_modulus(bad)
    with pytest.raises(TypeError):
        prime_modulus(7.0)


def test_jacobi_keeps_composite_denominators():
    # (n|15) = (n|3)(n|5): 2 is a nonresidue mod 3 and mod 5, so (2|15) = 1
    # although 2 is no square mod 15; the prime check must not reach jacobi
    assert jacobi(2, 15) == 1
    for n in range(-15, 45):
        assert jacobi(n, 15) == jacobi(n, 3) * jacobi(n, 5)
    assert jacobi(7, 1) == 1


def _odd_exponent_primes_oracle(n: int) -> tuple[int, ...]:
    """Primes p <= n whose exponent in n is odd, each found by division."""
    odd = []
    for p in range(2, n + 1):
        e = 0
        while n % p ** (e + 1) == 0:
            e += 1
        if e % 2 and is_prime(p):
            odd.append(p)
    return tuple(odd)


def test_odd_exponent_primes():
    assert odd_exponent_primes(1) == ()
    assert odd_exponent_primes(360) == (2, 5)  # 2^3 * 3^2 * 5
    assert odd_exponent_primes(49) == ()
    for n in range(1, 500):
        primes = odd_exponent_primes(n)
        assert primes == _odd_exponent_primes_oracle(n)
        assert math.prod(primes) == squarefree_part(n)


def test_jacobi_spot_values():
    # chi_7: residues {1, 2, 4}
    assert [jacobi(n, 7) for n in range(7)] == [0, 1, 1, -1, 1, -1, -1]
    # chi_11: residues {1, 3, 4, 5, 9}
    assert [jacobi(n, 11) for n in range(11)] == [0, 1, -1, 1, 1, 1, -1, -1, -1, 1, -1]
    assert jacobi(0, 3) == 0
    assert jacobi(14, 7) == 0


@given(st.sampled_from(PRIMES_TO_300), st.integers(min_value=0, max_value=10**6))
def test_jacobi_matches_euler_criterion(q, n):
    assert jacobi(n, q) == euler_criterion(n, q)


@given(
    st.sampled_from(PRIMES_TO_300),
    st.integers(min_value=0, max_value=10**4),
    st.integers(min_value=0, max_value=10**4),
)
def test_jacobi_multiplicative(q, a, b):
    assert jacobi(a * b, q) == jacobi(a, q) * jacobi(b, q)


@given(st.sampled_from(PRIMES_TO_300), st.integers(min_value=0, max_value=10**4))
def test_jacobi_periodic(q, n):
    assert jacobi(n, q) == jacobi(n + q, q)


# the largest prime below 2**63, and composite odd denominators near it
NEAR_2_63 = 9223372036854775783


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=-(2**63), max_value=2**63 - 1),
            st.integers(min_value=0, max_value=2**62 - 1).map(lambda k: 2 * k + 1),
        ),
        min_size=1,
        max_size=40,
    )
)
def test_jacobi_array_matches_jacobi(pairs):
    a, b = zip(*pairs)
    assert jacobi_array(list(a), list(b)).tolist() == [jacobi(x, y) for x, y in pairs]


# operands within 2**10 of 2**31, on both sides, and anywhere below 2**63:
# the passes narrow to int32 once every live denominator is below 2**31
NEAR_2_31 = st.integers(min_value=2**31 - 2**10, max_value=2**31 + 2**10)
OPERAND = st.one_of(NEAR_2_31, st.integers(min_value=0, max_value=2**63 - 1))


@given(
    st.lists(
        st.tuples(st.one_of(OPERAND, OPERAND.map(lambda n: -n)), OPERAND.map(lambda n: n | 1)),
        min_size=1,
        max_size=40,
    )
)
@example([(2**31 - 1, 2**31 + 1), (2**31 + 1, 2**31 - 1), (-(2**31), 2**31 - 1), (2**31 - 2, 2**31 + 11)])
def test_jacobi_array_across_2_31(pairs):
    a, b = zip(*pairs)
    assert jacobi_array(list(a), list(b)).tolist() == [jacobi(x, y) for x, y in pairs]


def test_jacobi_array_largest_primes_below_2_63():
    # the five largest primes below 2**63, over numerators of every size and
    # sign, and the prime columns a one-row chi_block reads at each
    dens = []
    for d in range(2**63 - 1, 0, -2):
        if len(dens) == 5:
            break
        if is_prime(d):
            dens.append(d)
    assert dens[0] == NEAR_2_63
    nums = [-(2**63), -(2**31) - 1, -(2**31), -7, -1, 0, 1, 2, 2**31 - 1, 2**31, 2**62 + 1, 2**63 - 1]
    nums += [d - 1 for d in dens] + primes_in_interval(10**6, 10**6 + 200)
    got = jacobi_array(np.array(nums)[:, None], np.array(dens)[None, :])
    assert got.tolist() == [[jacobi(n, d) for d in dens] for n in nums]
    assert got[-1].tolist() == [euler_criterion(nums[-1], d) for d in dens]


def test_jacobi_array_unit_denominator_and_shapes():
    nums = [-(2**63), -1, 0, 1, 2**31, 2**63 - 1]
    assert jacobi_array(nums, 1).tolist() == [1] * len(nums)
    for a, b, shape in [([], [], (0,)), (np.zeros((0, 3), dtype=np.int64), 7, (0, 3)), (5, 7, ()),
                        (np.arange(4)[:, None], [1, 3, 5], (4, 3)), (np.arange(-3, 3), [[9], [2**63 - 1]], (2, 6))]:
        got = jacobi_array(a, b)
        assert got.dtype == np.int8 and got.shape == shape
        a, b = np.broadcast_arrays(np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64))
        assert got.ravel().tolist() == [jacobi(x, y) for x, y in zip(a.ravel().tolist(), b.ravel().tolist())]


@given(st.sampled_from(PRIMES_TO_300), st.lists(st.integers(0, 10**6), min_size=1, max_size=30))
def test_jacobi_array_matches_euler_criterion(q, ns):
    assert jacobi_array(ns, q).tolist() == [euler_criterion(n, q) for n in ns]


def test_jacobi_array_near_2_63_and_composite_denominators():
    assert is_prime(NEAR_2_63) and not is_prime(NEAR_2_63 - 2)
    dens = [NEAR_2_63, NEAR_2_63 - 2, 2**63 - 1, 15, 9, 1, 3 * 5 * 7 * 11 * 13]
    nums = [-(2**63), -1, 0, 1, 2, 3, 2**62, 2**63 - 1, NEAR_2_63 - 1, 123456789012345678]
    got = jacobi_array(np.array(nums)[:, None], np.array(dens)[None, :])
    assert got.dtype == np.int8 and got.shape == (len(nums), len(dens))
    assert got.tolist() == [[jacobi(n, d) for d in dens] for n in nums]
    for n in nums[4:]:
        assert jacobi_array(n, NEAR_2_63) == euler_criterion(n, NEAR_2_63)


def test_jacobi_array_rejects_bad_denominators():
    for bad in ([3, 4], [0], [-7]):
        with pytest.raises(ValueError):
            jacobi_array([1] * len(bad), bad)


def test_jacobi_sign_of_minus_one():
    for q in PRIMES_TO_300:
        expected = 1 if q % 4 == 1 else -1
        assert jacobi(q - 1, q) == expected


def test_jacobi_negative_argument_reduces_mod_q():
    for q in (7, 11, 13):
        assert jacobi(-1, q) == jacobi(q - 1, q)
        assert jacobi(-5, q) == jacobi(q - 5, q)


@given(st.integers(min_value=0, max_value=10**9))
def test_is_perfect_square_matches_isqrt(n):
    assert is_perfect_square(n) == (math.isqrt(n) ** 2 == n)


def test_factor_table_spot():
    assert _factorization(2) == [(2, 1)]
    assert _factorization(9) == [(3, 2)]
    assert _factorization(97) == [(97, 1)]
    assert _factorization(1) == []
    assert _factorization(360) == [(2, 3), (3, 2), (5, 1)]
    assert _factorization(100) == [(2, 2), (5, 2)]
    assert _factorization(2**80) == [(2, 80)]
    for bad in (0, -12):
        with pytest.raises(ValueError):
            _factorization(bad)


EDGE = 1 << 20
# the two smallest primes above 2**20: trial division must pass 2**20 to find them
P_ABOVE, Q_ABOVE = [n for n in range(EDGE, EDGE + 100) if is_prime(n)][:2]


@given(
    st.one_of(
        st.integers(1, 4 * EDGE),
        st.integers(EDGE - 2000, EDGE + 2000),
        # both primes above 2**20: trial division past d = 2**20
        st.sampled_from((P_ABOVE * Q_ABOVE, P_ABOVE**2, 2 * P_ABOVE * Q_ABOVE)),
        # a cofactor below 2**20 times the largest power of p that
        # keeps n below 2**62
        st.builds(
            lambda k, p: k * p ** int((62 - k.bit_length()) / math.log2(p)),
            st.integers(1, EDGE - 1),
            st.sampled_from((2, 3, 5, 7)),
        ),
    )
)
@example(EDGE - 1)
@example(EDGE)
@example(EDGE + 1)
@example(P_ABOVE * Q_ABOVE)
@example(2**62)
@example(3**39)
@settings(max_examples=300)
def test_factorization_reconstructs(n):
    pairs = _factorization(n)
    assert math.prod(p**e for p, e in pairs) == n
    assert all(is_prime(p) and e >= 1 for p, e in pairs)
    assert [p for p, _ in pairs] == sorted({p for p, _ in pairs})


def test_factorization_beyond_limit_falls_back():
    # 20011 is prime; P_ABOVE is a prime above 2**20
    assert _factorization(20011) == [(20011, 1)]
    assert _factorization(2 * 20011) == [(2, 1), (20011, 1)]
    assert _factorization(P_ABOVE) == [(P_ABOVE, 1)]
    assert _factorization(2 * P_ABOVE) == [(2, 1), (P_ABOVE, 1)]
    assert _factorization(P_ABOVE * Q_ABOVE) == [(P_ABOVE, 1), (Q_ABOVE, 1)]
    assert _factorization(P_ABOVE**2 * 6) == [(2, 1), (3, 1), (P_ABOVE, 2)]


def test_table_primes_match_sieve():
    # windows.chi_block reads its prime columns off the mask that
    # primes_in_interval reads, as an array; below 2 it holds no prime
    primes = (np.flatnonzero(_prime_mask(2, 20000)) + 2).tolist()
    assert primes[:10] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert primes == primes_in_interval(2, 20000) == [n for n in range(20001) if is_prime(n)]
    assert (np.flatnonzero(_prime_mask(2, EDGE - 1)) + 2).tolist() == primes_in_interval(2, EDGE - 1)
    mask = _prime_mask(EDGE - 2000, EDGE + 2000)
    assert mask.tolist() == [is_prime(n) for n in range(EDGE - 2000, EDGE + 2001)]
    assert _prime_mask(2, 1).size == _prime_mask(2, 0).size == 0


@given(st.integers(min_value=1, max_value=10**5))
@settings(max_examples=200)
def test_squarefree_part_property(n):
    s = squarefree_part(n)
    assert n % s == 0
    assert is_perfect_square(n // s)
    assert all(e == 1 for _, e in _factorization(s))


def test_multiplicative_functions_spot():
    assert squarefree_part(1) == 1
    assert squarefree_part(12) == 3
    assert squarefree_part(360) == 10
    assert omega(1) == 0
    assert omega(12) == 2
    assert tau(12) == 6
    assert tau(97) == 2


def test_primes_in_interval_matches_trial_division():
    naive = [n for n in range(2, 1000) if all(n % d for d in range(2, math.isqrt(n) + 1))]
    assert primes_in_interval(2, 999) == naive
    assert primes_in_interval(100, 100) == []
    assert primes_in_interval(89, 97) == [89, 97]
    with pytest.raises(ValueError):
        primes_in_interval(1, 10)


def _two_loop_sieve(lo: int, hi: int) -> list[int]:
    """Segmented sieve with its own bool base sieve of isqrt(hi) + 1 entries
    and a second marking loop over it: the independent reference."""
    root = math.isqrt(hi)
    base = np.ones(root + 1, dtype=bool)
    base[:2] = False
    for p in range(2, math.isqrt(root) + 1):
        if base[p]:
            base[p * p :: p] = False
    seg = np.ones(hi - lo + 1, dtype=bool)
    for p in np.nonzero(base)[0]:
        p = int(p)
        start = max(p * p, ((lo + p - 1) // p) * p)
        if start <= hi:
            seg[start - lo :: p] = False
    return (np.nonzero(seg)[0] + lo).tolist()


PRIMES_TO_10_6 = _two_loop_sieve(2, 10**6)


@given(
    st.one_of(
        # windows below 10^12 of length 1..10^4
        st.tuples(st.integers(2, 10**12 - 10**4), st.integers(1, 10**4)).map(
            lambda t: (t[0], t[0] + t[1] - 1)
        ),
        # prefixes from lo = 2
        st.integers(2, 10**5).map(lambda hi: (2, hi)),
        # windows ending at p^2 or p^2 - 1, where p first becomes a base prime
        st.tuples(st.sampled_from(PRIMES_TO_10_6), st.integers(0, 1), st.integers(1, 10**4)).map(
            lambda t: (max(2, t[0] ** 2 - t[1] - t[2] + 1), t[0] ** 2 - t[1])
        ),
    )
)
@example((2, 2))
@example((2, 3))
@example((2, 4))
@example((4, 4))
@example((2, 48))
@example((2, 49))
@example((10**12 - 1, 10**12))
@settings(max_examples=100, deadline=None)
def test_primes_in_interval_matches_two_loop_sieve(window):
    lo, hi = window
    assert primes_in_interval(lo, hi) == _two_loop_sieve(lo, hi)


def test_primes_in_interval_refuses_windows_past_2_63():
    # int64 offsets past 2**63 would wrap to negative "primes"
    for lo, hi in ((2**63 - 100, 2**63 + 100), (9223372036854775800, 9223372036854775900),
                   (2**63 - 1, 2**63), (2**63, 2**63), (2**64, 2**64 + 10)):
        with pytest.raises(ValueError, match=r"hi < 2\*\*63"):
            primes_in_interval(lo, hi)


def test_primes_in_interval_checks_its_base_before_allocating():
    hi = 2**62 + 10**4
    tracemalloc.start()
    started = time.perf_counter()
    try:
        with pytest.raises(ValueError) as info:
            primes_in_interval(2**62, hi)
        elapsed = time.perf_counter() - started
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0
    assert peak < 2**20
    assert str(math.isqrt(hi)) in str(info.value)
    assert str(arith.MAX_SEGMENT) in str(info.value)
    # the smallest hi whose base [2, sqrt(hi)] is one entry over the budget
    hi = (arith.MAX_SEGMENT + 2) ** 2
    with pytest.raises(ValueError, match="sqrt"):
        primes_in_interval(hi, hi)
    with pytest.raises(ValueError, match="segment length"):
        primes_in_interval(2, arith.MAX_SEGMENT + 2)


def test_primes_in_interval_large_offset():
    # [10^6, 10^6 + 100]: 1000003, 1000033, 1000037, 1000039, 1000081, 1000099
    assert primes_in_interval(10**6, 10**6 + 100) == [
        1000003, 1000033, 1000037, 1000039, 1000081, 1000099,
    ]


def test_prime_density_check_frozen():
    rec = prime_density_check(10**6, 0.525)
    assert rec["length"] == 1412
    assert rec["count"] == 111
    assert rec["comparator"] == pytest.approx((10**6) ** 0.525 / math.log(10**6))
    assert rec["ratio"] == pytest.approx(111 / rec["comparator"])


def test_prime_density_check_validation():
    with pytest.raises(ValueError):
        prime_density_check(1, 0.5)
    with pytest.raises(ValueError):
        prime_density_check(100, 0.0)
    with pytest.raises(ValueError):
        prime_density_check(100, 1.5)
    # x**eta used to overflow the float conversion with an OverflowError
    for x in (2**63, 10**400):
        with pytest.raises(ValueError, match=f"x={x}"):
            prime_density_check(x, 0.5)
    # x itself fits, the interval's end does not
    with pytest.raises(ValueError, match=r"x=9223372036854775000, eta=1\.0"):
        prime_density_check(9223372036854775000, 1.0)

