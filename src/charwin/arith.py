"""Exact integer primitives: quadratic symbols, primality, sieves, factorization.

Everything here is plain integer arithmetic.  Python integers are unbounded,
so intermediate products never overflow; moduli are still capped below 2**63
to keep the bulk numpy paths in other modules safe.
"""

from __future__ import annotations

import itertools
import math
import operator

import numpy as np

MAX_MODULUS = 1 << 63

# The first twelve prime bases, each with psi_k: the smallest strong
# pseudoprime to all of the first k bases (Jaeschke 1993; Jiang and Deng
# 2014; OEIS A014233).  An n < psi_k that passes the first k witnesses is
# prime, and psi_12 > 3.1e23 covers the whole 64-bit range.
_MR_WITNESSES = (
    (2, 2047),
    (3, 1373653),
    (5, 25326001),
    (7, 3215031751),
    (11, 2152302898747),
    (13, 3474749660383),
    (17, 341550071728321),
    (19, 341550071728321),
    (23, 3825123056546413051),
    (29, 3825123056546413051),
    (31, 3825123056546413051),
    (37, 318665857834031151167461),
)


class ExperimentWarning(UserWarning):
    """Non-fatal contract warnings (degenerate ranges, relaxed-mode use)."""


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test, exact for n < 2**64.

    Stops after the first k witnesses once n < psi_k (see _MR_WITNESSES).
    """
    if n < 2:
        return False
    for p, _ in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a, psi in _MR_WITNESSES:
        x = pow(a, d, n)
        if x != 1 and x != n - 1:
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        if n < psi:
            return True
    return True


def prime_modulus(q: int) -> int:
    """q as an int if it is an odd prime with 3 <= q < 2**63; raises otherwise.

    The one prime-modulus check of the package: every entry point that takes
    a prime modulus (the windows functions and the CLI) calls it once.  It
    reads q through operator.index: any integral type, never a float.
    """
    q = operator.index(q)
    if not 3 <= q < MAX_MODULUS:
        raise ValueError(f"modulus must satisfy 3 <= q < 2**63, got {q}")
    if not is_prime(q):
        raise ValueError(f"modulus must be an odd prime, got {q}")
    return q


def jacobi(n: int, q: int) -> int:
    """Jacobi symbol (n|q) for odd q > 0, by the binary algorithm.

    Strips factors of two (second supplement: flip when q = 3,5 mod 8),
    then swaps by quadratic reciprocity (flip when both = 3 mod 4) and
    reduces.  For prime q this is the Legendre symbol; euler_criterion
    is the slow independent oracle used in tests.
    """
    if q <= 0 or q % 2 == 0:
        raise ValueError(f"jacobi denominator must be positive odd, got {q}")
    a, b = n % q, q
    result = 1
    while a:
        tz = (a & -a).bit_length() - 1
        if tz & 1 and b % 8 in (3, 5):
            result = -result
        a >>= tz
        if a & 2 and b & 2:
            result = -result
        a, b = b % a, a
    return result if b == 1 else 0


def jacobi_array(a, b) -> np.ndarray:
    """Jacobi symbols (a|b) elementwise over broadcast int64 arrays, as int8.

    The binary algorithm of jacobi() run on whole arrays: each pass strips
    the twos of every live numerator, applies the same two sign rules as
    one bit pass on a 0/1 sign, and swaps by reciprocity; an entry leaves
    once its numerator is 0, the live entries gathered by index, which
    numpy does faster than by a boolean mask.  Only shifts, masks and %
    touch the operands, so every denominator below 2**63 is safe in int64.
    The numerator stays below the denominator, so once every live
    denominator is below 2**31 the passes finish in int32, the lowest set
    bits read as float32; for numerators below 2**31, as chi_block's prime
    columns are, that is after the first swap.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64))
    if b.size and (b.min() <= 0 or not (b & 1).all()):
        raise ValueError("jacobi denominators must be positive odd")
    shape = a.shape
    x = np.mod(a, b).ravel()
    y = b.ravel()
    real = np.float64
    sign = np.zeros(x.size, dtype=np.int8)  # 1 for a -1 symbol
    idx = np.arange(x.size)
    out = np.zeros(x.size, dtype=np.int8)
    while True:
        # compact by index arrays, only on a pass where some entry finished
        if np.count_nonzero(x) < x.size:
            live = x != 0
            done = np.flatnonzero(~live)
            out[idx[done]] = (y[done] == 1) * (1 - 2 * sign[done])
            live = np.flatnonzero(live)
            idx, x, y, sign = idx[live], x[live], y[live], sign[live]
        if not x.size:
            return out.reshape(shape)
        if real is np.float64 and y.max() < 2**31:
            x, y, real = x.astype(np.int32), y.astype(np.int32), np.float32
        tz = np.frexp((x & -x).astype(real))[1].astype(x.dtype, copy=False)
        tz -= 1
        x >>= tz
        # flip when tz is odd and y = 3, 5 (mod 8), i.e. bits 1 and 2 of y
        # differ; then flip when x = y = 3 (mod 4)
        flip = y >> 1
        flip ^= y >> 2
        flip &= tz
        both = x & y
        both >>= 1
        flip ^= both
        flip &= 1
        np.bitwise_xor(sign, flip, out=sign, casting="unsafe")
        x, y = y % x, x


def euler_criterion(n: int, q: int) -> int:
    """Legendre symbol via n**((q-1)/2) mod q.  Slow; test oracle only."""
    r = pow(n % q, (q - 1) // 2, q)
    if r == 0:
        return 0
    return 1 if r == 1 else -1


def is_perfect_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def _factorization(n: int) -> list[tuple[int, int]]:
    """Ascending (prime, exponent) pairs of n >= 1, exact for every n.

    Trial division by 2, then by odd d while d * d <= the cofactor; a
    cofactor above 1 at the end is prime.
    """
    if n < 1:
        raise ValueError(f"cannot factor n={n}")
    out = []
    for d in itertools.chain((2,), itertools.count(3, 2)):
        if d * d > n:
            break
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
    if n > 1:
        out.append((n, 1))
    return out


def odd_exponent_primes(n: int) -> tuple[int, ...]:
    """Primes dividing n >= 1 to an odd power, ascending.

    Their product is the squarefree part of n, f(n) for a completely
    multiplicative +-1 function is the product of their signs, and a product
    of integers is a square iff these sets cancel in pairs.
    """
    return tuple(p for p, e in _factorization(n) if e % 2)


def squarefree_part(n: int) -> int:
    """Largest squarefree s with n = s * (perfect square)."""
    if n < 1:
        raise ValueError(f"squarefree part needs n >= 1, got {n}")
    return math.prod(odd_exponent_primes(n))


def omega(n: int) -> int:
    """Number of distinct prime factors."""
    if n < 1:
        raise ValueError(f"omega needs n >= 1, got {n}")
    return len(_factorization(n))


def tau(n: int) -> int:
    """Number of divisors."""
    if n < 1:
        raise ValueError(f"tau needs n >= 1, got {n}")
    t = 1
    for _, e in _factorization(n):
        t *= e + 1
    return t


MAX_SEGMENT = 1 << 28


def fit_budget(what: str, units: int, per_unit: int, cap: int, cap_name: str, unit="bytes", parts="") -> int:
    """How many units of per_unit each fit cap: the one budget check of the package.
    Fewer than units raise the ValueError (exit 2) naming the estimate and the cap."""
    if cap // per_unit < units:
        parts = f" for {parts}" if parts else ""
        raise ValueError(f"{what} needs about {units * per_unit} {unit}{parts}, over {cap_name} = {cap} {unit}")
    return cap // per_unit


def primes_in_interval(lo: int, hi: int) -> list[int]:
    """All primes in [lo, hi], read off _prime_mask."""
    if not 2 <= lo <= hi < MAX_MODULUS:
        raise ValueError(f"need 2 <= lo <= hi < 2**63, got [{lo}, {hi}]")
    return (np.flatnonzero(_prime_mask(lo, hi)) + lo).tolist()


def _prime_mask(lo: int, hi: int) -> np.ndarray:
    """Bool mask of [lo, hi], for 2 <= lo and hi < 2**63: entry i is True
    exactly when lo + i is prime.  Empty when hi < lo.

    The one sieve of the package, a segmented sieve of Eratosthenes whose
    sieving primes up to sqrt(hi) come from primes_in_interval (Crandall and
    Pomerance, Prime Numbers, 3.2).  Before any allocation it checks that
    the segment and the base [2, sqrt(hi)] each fit MAX_SEGMENT entries.
    """
    length = max(0, hi - lo + 1)
    fit_budget(f"segment length {length}", length, 1, MAX_SEGMENT, "MAX_SEGMENT", "entries")
    root = math.isqrt(hi)
    fit_budget(f"base sieve to sqrt(hi) = {root}", root - 1, 1, MAX_SEGMENT, "MAX_SEGMENT", "entries")
    seg = np.ones(length, dtype=bool)
    for p in primes_in_interval(2, root) if root >= 2 else ():
        start = max(p * p, ((lo + p - 1) // p) * p)
        if start <= hi:
            seg[start - lo :: p] = False
    return seg


def prime_density_check(x: int, eta: float) -> dict:
    """Count primes in (x, x + floor(x**eta)] against the x**eta / log x heuristic."""
    if not 3 <= x < 2**63:
        raise ValueError(f"need 3 <= x < 2**63, got x={x}")
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"need 0 < eta <= 1, got {eta}")
    length = math.floor(x**eta)
    if length < 1:
        raise ValueError(f"interval (x, x + x**eta] is empty for x={x}, eta={eta}")
    if x + length >= 2**63:
        raise ValueError(f"interval (x, x + x**eta] ends at {x + length} >= 2**63 for x={x}, eta={eta}")
    try:
        count = len(primes_in_interval(x + 1, x + length))
    except ValueError as exc:  # a sieve budget, checked before allocation
        raise ValueError(f"{exc} for x={x}, eta={eta}") from exc
    comparator = x**eta / math.log(x)
    return {
        "x": x,
        "eta": eta,
        "length": length,
        "count": count,
        "comparator": comparator,
        "ratio": count / comparator,
    }
