"""Square structure of shifted products: tuple reduction and pairing counts.

A product prod_i (m + a_i) is a perfect square exactly when the offsets that
appear an odd number of times still leave a square; deleting matched pairs
of equal offsets (left to right, deterministically) preserves that property.
The number of fully-paired offset tuples K(r, h) = #{a in [1,h]^(2r) : every
value appears an even number of times} controls the even moments; it is
computed exactly two independent ways (enumeration, and a sum over the
partitions of the 2r slots into blocks of even size), and normalized by the
Gaussian moment mu_2r = (2r-1)!! of gaussian_moment.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass

from .arith import _factorization, fit_budget, odd_exponent_primes

BRUTE_FORCE_BUDGET = 10**8


@dataclass(frozen=True)
class TupleReduction:
    """Survivors of pair deletion, in original order."""

    survivors: tuple[int, ...]

    @property
    def k(self) -> int:
        return len(self.survivors) // 2


def reduce_tuple(entries) -> TupleReduction:
    """Delete matched pairs of equal values, leftmost first.

    Starting from the leftmost live entry, scan right for the first live
    equal value; if found, delete both and move on to the next live entry,
    otherwise keep the entry.  Survivors are exactly the values of odd
    multiplicity, in their original order.
    """
    values = [int(v) for v in entries]
    alive = [True] * len(values)
    i = 0
    while i < len(values):
        if not alive[i]:
            i += 1
            continue
        for j in range(i + 1, len(values)):
            if alive[j] and values[j] == values[i]:
                alive[i] = alive[j] = False
                break
        i += 1
    return TupleReduction(survivors=tuple(v for v, a in zip(values, alive) if a))


def product_is_square(m: int, offsets) -> bool:
    """Whether prod_i (m + offsets_i) is a perfect square.

    Tested via exponent-parity vectors of the factors; the (possibly huge)
    product itself is never formed.  Empty offset tuples give the empty
    product 1, a square.
    """
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    parity: set[int] = set()
    for off in offsets:
        parity.symmetric_difference_update(odd_exponent_primes(m + off))
    return not parity


def square_iff_reduced(m: int, alpha) -> tuple[bool, bool]:
    """(full product square?, reduced product square?) - always equal."""
    full = product_is_square(m, alpha)
    reduced = product_is_square(m, reduce_tuple(alpha).survivors)
    return full, reduced


def paired_count_bruteforce(r: int, h: int) -> int:
    """K(r, h) by direct enumeration of [1,h]^(2r).  Independent oracle."""
    if r < 1 or h < 1:
        raise ValueError(f"need r >= 1 and h >= 1, got r={r}, h={h}")
    fit_budget(f"[1, {h}]^{2 * r}", h ** (2 * r), 1, BRUTE_FORCE_BUDGET, "BRUTE_FORCE_BUDGET", "tuples")
    count = 0
    for tup in itertools.product(range(1, h + 1), repeat=2 * r):
        if all(c % 2 == 0 for c in Counter(tup).values()):
            count += 1
    return count


@functools.lru_cache(maxsize=1024)
def paired_count_exact(r: int, h: int) -> int:
    """K(r, h) = sum over j of h (h-1) ... (h-j+1) * E(2r, j), in integers.

    A fully-paired tuple partitions its 2r slots into j blocks of even size
    with a distinct value on each block, and math.perm(h, j) counts the
    values (0 for j > h).  E(2m, j), the partitions of 2m slots into j even
    blocks, sums C(2m-1, 2s-1) E(2m-2s, j-1) over the size 2s of the block
    holding slot 1.  Cached: an interval run asks for the same few (r, h) at
    every prime.
    """
    if r < 1 or h < 1:
        raise ValueError(f"need r >= 1 and h >= 1, got r={r}, h={h}")
    blocks = [[1]]  # blocks[m][j] = E(2m, j)
    for m in range(1, r + 1):
        blocks.append([0] + [
            sum(math.comb(2 * m - 1, 2 * s - 1) * blocks[m - s][j - 1] for s in range(1, m - j + 2))
            for j in range(1, m + 1)
        ])
    return sum(math.perm(h, j) * e for j, e in enumerate(blocks[r]))


def gaussian_moment(j: int) -> int:
    """j-th moment of the standard Gaussian: (j-1)!! for even j, 0 for odd."""
    if not 0 <= j <= 24:
        raise ValueError(f"gaussian moment order capped at 24, got {j}")
    if j % 2:
        return 0
    return math.factorial(j) // (2 ** (j // 2) * math.factorial(j // 2))


@dataclass(frozen=True)
class PairedCount:
    """Exact pairing count and its normalized form K = mu_2r * (h - theta*r)^r."""

    r: int
    h: int
    count: int
    theta: float


def paired_count_theta(r: int, h: int) -> PairedCount:
    """Exact K(r, h) plus theta in [0, 1] with K = (2r-1)!! * (h - theta*r)^r.

    The integer sandwich mu * h*(h-1)*...*(h-r+1) <= K <= mu * h^r is checked
    exactly; a violation is a hard failure (it would falsify theta's range).
    """
    if not 1 <= r <= h:
        raise ValueError(f"need 1 <= r <= h, got r={r}, h={h}")
    k = paired_count_exact(r, h)
    mu = gaussian_moment(2 * r)
    lower = mu * math.prod(range(h - r + 1, h + 1))
    upper = mu * h**r
    if not lower <= k <= upper:
        raise AssertionError(f"pairing-count sandwich violated at r={r}, h={h}: {lower} <= {k} <= {upper}")
    root = (k / mu) ** (1.0 / r) if r > 1 else k / mu
    theta = (h - root) / r
    if not -1e-9 <= theta <= 1 + 1e-9:
        raise AssertionError(f"theta = {theta} outside [0, 1] at r={r}, h={h}")
    return PairedCount(r=r, h=h, count=k, theta=min(max(theta, 0.0), 1.0))


def count_square_values(gamma, m_max: int) -> tuple[int, list[int]]:
    """#(and list of) m in [1, m_max] with prod (m + gamma_i) a perfect square."""
    gamma = tuple(int(c) for c in gamma)
    if len(set(gamma)) != len(gamma):
        raise ValueError(f"offsets must be distinct: {gamma}")
    if m_max < 1:
        raise ValueError(f"need m_max >= 1, got {m_max}")
    if not gamma:
        return m_max, list(range(1, m_max + 1))
    if any(c < 0 for c in gamma):
        raise ValueError(f"offsets must be nonnegative: {gamma}")
    witnesses = [m for m in range(1, m_max + 1) if product_is_square(m, gamma)]
    return len(witnesses), witnesses


def _square_divisors(n: int) -> list[int]:
    """Divisors of n**2, ascending, from the factorization of n."""
    divs = [1]
    for p, e in _factorization(n):
        divs = [d * p**i for d in divs for i in range(2 * e + 1)]
    return sorted(divs)


def square_pair_solutions(gap: int, limit: int) -> list[int]:
    """All d in [1, limit] with d * (d + gap) a perfect square, via divisors.

    d*(d+gap) = y^2 rewrites as gap^2 = (2d + gap - 2y)(2d + gap + 2y); each
    divisor u of gap^2 with u <= gap, u = gap^2/u (mod 2), and
    u + gap^2/u + 2*gap = 0 (mod 4) yields d = (u + gap^2/u - 2*gap) / 4.
    The list length is bounded by tau(gap^2).
    """
    if gap < 1:
        raise ValueError(f"need gap >= 1, got {gap}")
    if limit < 1:
        raise ValueError(f"need limit >= 1, got {limit}")
    gap_sq = gap * gap
    out = []
    for u in _square_divisors(gap):
        if u > gap:
            break
        v = gap_sq // u
        if (u - v) % 2:
            continue
        if (u + v + 2 * gap) % 4:
            continue
        d, rem = divmod(u + v - 2 * gap, 4)
        assert rem == 0 and (v - u) % 4 == 0
        if 1 <= d <= limit:
            out.append(d)
    return sorted(out)


@dataclass(frozen=True)
class SquareCountBound:
    """Discriminant data and the 7^(13 + 9*omega) ceiling on square values."""

    discriminant: int
    omega: int
    log7_exponent: int
    bound: int


def evertse_bound(gamma) -> SquareCountBound:
    """Uniform bound on #{m : prod (m + gamma_i) is a square} from the offsets.

    Requires at least 4 distinct offsets (degree >= 4, where square values
    are genuinely scarce).  The discriminant is the exact product of squared
    offset differences; its distinct prime count is collected factor by
    factor, and the bound 7^(13 + 9*omega) is returned as an exact integer
    alongside the exponent.
    """
    gamma = tuple(int(c) for c in gamma)
    if len(gamma) < 4:
        raise ValueError(f"need at least 4 offsets, got {len(gamma)}")
    if len(set(gamma)) != len(gamma):
        raise ValueError(f"offsets must be distinct: {gamma}")
    disc = 1
    prime_set: set[int] = set()
    for a, b in itertools.combinations(gamma, 2):
        diff = abs(a - b)
        disc *= diff * diff
        prime_set.update(p for p, _ in _factorization(diff))
    om = len(prime_set)
    exponent = 13 + 9 * om
    return SquareCountBound(discriminant=disc, omega=om, log7_exponent=exponent, bound=7**exponent)
