"""Selberg sieve weights with exact rational arithmetic.

Base weights lam_d live on squarefree products of the odd primes below z,
truncated at the level; lam_1 = 1 and |lam_d| <= 1.  Expanding the square
(sum over d | n of lam_d)^2 gives weights rho_e on e = lcm(d1, d2), so that
sum over e | n of rho_e is nonnegative for every n and exactly 1 when n has
no odd prime factor below z.  All weights are Fractions; scans use the
equivalent common-denominator integer form for speed.  verify_indicator
accumulates that integer form over all n <= n_max in one numpy array: int64
when the sum of |rho_e| (a bound on every partial sum) is below 2**63, so
int64 is exact, and Python-int objects otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import MAX_SEGMENT, fit_budget, primes_in_interval


@dataclass
class SieveSystem:
    """Exact sieve weights for sifting odd primes below z at a given level."""

    z: int
    level: int
    sifting_primes: tuple[int, ...]
    lambda_base: dict[int, Fraction]
    scale: int
    rho_scaled: dict[int, int]

    @property
    def rho(self) -> dict[int, Fraction]:
        return {e: Fraction(v, self.scale**2) for e, v in self.rho_scaled.items()}


class SieveVerificationError(AssertionError):
    """The expanded weights failed a property they are constructed to have."""


def build_selberg(z: int, level: int) -> SieveSystem:
    """Optimized Selberg weights: lam_d = mu(d) (d/phi(d)) G_d(level/d) / G(level).

    G(x) sums 1/phi(m) over squarefree m <= x supported on the sifting
    primes, and G_d restricts to m coprime to d.  This is the classical
    minimizer of the main-term quadratic form subject to lam_1 = 1, and it
    satisfies |lam_d| <= 1 exactly (asserted here).  A level below z simply
    truncates the support; the expanded weights stay valid.
    """
    if z < 3:
        raise ValueError(f"need z >= 3, got {z}")
    if level < 3:
        raise ValueError(f"need level >= 3, got {level}")
    sifting = tuple(p for p in primes_in_interval(3, max(3, z - 1)) if p < z)
    # Support: squarefree products of sifting primes, capped at the level.
    support = [1]
    for p in sifting:
        support += [d * p for d in support if d * p <= level]
    support.sort()
    sign = {1: 1}
    phi = {1: 1}
    for d in support:
        if d > 1:
            ps = [p for p in sifting if d % p == 0]
            sign[d] = -1 if len(ps) % 2 else 1
            phi[d] = math.prod(p - 1 for p in ps)

    g_total = sum(Fraction(1, phi[m]) for m in support)
    lam: dict[int, Fraction] = {}
    for d in support:
        cap = level // d
        g_d = sum(Fraction(1, phi[m]) for m in support if m <= cap and math.gcd(m, d) == 1)
        lam[d] = sign[d] * Fraction(d, phi[d]) * g_d / g_total
        if not abs(lam[d]) <= 1:
            raise SieveVerificationError(f"|lambda_{d}| = {lam[d]} exceeds 1")
    if lam[1] != 1:
        raise SieveVerificationError(f"lambda_1 = {lam[1]} != 1")

    scale = math.lcm(*(f.denominator for f in lam.values()))
    lam_scaled = {d: int(f * scale) for d, f in lam.items()}
    rho_scaled: dict[int, int] = {}
    for d1, l1 in lam_scaled.items():
        for d2, l2 in lam_scaled.items():
            e = d1 * d2 // math.gcd(d1, d2)
            rho_scaled[e] = rho_scaled.get(e, 0) + l1 * l2
    rho_scaled = {e: v for e, v in sorted(rho_scaled.items()) if v}
    if max(rho_scaled) > level * level:
        raise SieveVerificationError("expanded support exceeds level**2")
    return SieveSystem(
        z=z,
        level=level,
        sifting_primes=sifting,
        lambda_base=lam,
        scale=scale,
        rho_scaled=rho_scaled,
    )


def indicator_value(system: SieveSystem, n: int) -> Fraction:
    """sum over e | n of rho_e, as an exact rational."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    total = sum(v for e, v in system.rho_scaled.items() if n % e == 0)
    return Fraction(total, system.scale**2)


def verify_indicator(system: SieveSystem, n_max: int) -> dict:
    """Check sum_{e|n} rho_e >= 0 for all n <= n_max, and == 1 on rough n.

    Rough means no odd prime factor below z (the sifted set); the value
    there must be exactly lambda_1^2 = 1.  Any violation raises - these are
    construction guarantees, so a failure is a bug, not a finding.  The
    smallest violating n is reported, as a negative sum if it is one.

    One scan: acc[e::e] += rho_e over the support, a sifted mask from the
    sifting primes, then one search for violations, marked in place of that
    mask, so that acc and the mask are all the scan holds.  acc is int64
    when the sum of |rho_e|, which bounds every partial sum, is below 2**63,
    and an array of Python ints otherwise; the same lines serve both.
    Before any allocation, n_max + 1 must fit the MAX_SEGMENT entries of a
    prime sieve.
    """
    if n_max < 1:
        raise ValueError(f"need n_max >= 1, got {n_max}")
    sq = system.scale**2
    exact_int64 = sum(abs(v) for v in system.rho_scaled.values()) < 2**63
    dtype = np.dtype(np.int64 if exact_int64 else object)
    per = dtype.itemsize + 1
    fit_budget(f"indicator scan to n_max={n_max}", n_max + 1, per, per * MAX_SEGMENT,
               f"MAX_SEGMENT = {MAX_SEGMENT} entries of {per} bytes",
               parts=f"its {dtype} sums and bool mask")
    acc = np.zeros(n_max + 1, dtype=dtype)
    for e, v in system.rho_scaled.items():
        acc[e::e] += v
    sifted = np.zeros(n_max + 1, dtype=bool)
    for p in system.sifting_primes:
        sifted[p::p] = True
    body, mask = acc[1:], sifted[1:]
    rough_count = n_max - int(np.count_nonzero(mask))
    # the violations in place of the sifted mask, a chunk of 2**16 at a time,
    # so that the scan holds no more than its budget: a rough n (a & ~b is
    # a > b on bools) whose sum is not 1, or a negative sum
    chunk = 1 << 16
    for lo in range(0, n_max, chunk):
        sums, part = body[lo : lo + chunk], mask[lo : lo + chunk]
        np.greater(sums != sq, part, out=part)
        part |= sums < 0
    first = int(mask.argmax())
    if mask[first]:
        n = first + 1
        value = Fraction(int(acc[n]), sq)
        if value < 0:
            raise SieveVerificationError(f"negative weight sum {value} at n={n}")
        raise SieveVerificationError(f"rough n={n} has weight sum {value} != 1")
    return {
        "n_max": n_max,
        "rough_count": rough_count,
        "min_value": Fraction(int(body.min()), sq),
        "ok": True,
    }


def interval_weight_sum(
    system: SieveSystem, q_start: int, delta: int, odd_only: bool = True
) -> dict:
    """sum over q in (q_start, q_start + delta] of sum_{e|q} rho_e, exactly.

    Counts multiples of each support element in the interval in closed form;
    odd_only restricts to odd q (the sifted weights are built for odd
    moduli).  The comparator delta / log(q_start) is the prime count the
    sieve is engineered to dominate.
    """
    if q_start < 3 or delta < 1:
        raise ValueError(f"need q_start >= 3 and delta >= 1, got {q_start}, {delta}")
    hi = q_start + delta
    total_scaled = 0
    for e, v in system.rho_scaled.items():
        if odd_only:
            # odd multiples t*e, t odd, in (q_start, hi]: e is odd by construction
            count = (hi // e + 1) // 2 - (q_start // e + 1) // 2
        else:
            count = hi // e - q_start // e
        total_scaled += v * count
    total = Fraction(total_scaled, system.scale**2)
    comparator = delta / math.log(q_start)
    return {
        "total": total,
        "comparator": comparator,
        "ratio": float(total) / comparator,
        "odd_only": odd_only,
    }


def abs_weight_sum(system: SieveSystem) -> Fraction:
    """sum over e of |rho_e|, exactly."""
    return Fraction(sum(abs(v) for v in system.rho_scaled.values()), system.scale**2)
