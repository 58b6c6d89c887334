"""Random completely multiplicative +-1 functions and their second moments.

The model: independent fair signs f(p) on primes, extended completely
multiplicatively, so f(n) depends only on the squarefree part s(n).  The
exact second moment of sum a_n f(n) is the sum of |group sums|^2 where
coefficients are grouped by s(n); Monte Carlo and full sign enumeration
provide independent estimates of the same quantity.

Prime signs are derived from a keyed 64-bit hash (splitmix64 finalizer with
its published constants), so an ensemble is a pure function of (seed, p):
deterministic, order-independent, and safe to evaluate from any worker.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .arith import fit_budget, odd_exponent_primes, squarefree_part

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _mix64(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def _prime_sign(seed: int, p: int) -> int:
    digest = _mix64(_mix64(seed ^ _GOLDEN) ^ (p * _GOLDEN))
    return 1 if digest >> 63 == 0 else -1


@dataclass
class CoefficientVector:
    """Finite coefficient vector a_1..a_n (real or complex entries)."""

    values: tuple

    def __post_init__(self) -> None:
        vals = tuple(complex(v) if isinstance(v, complex) else float(v) for v in self.values)
        if not vals:
            raise ValueError("coefficient vector must be nonempty")
        for v in vals:
            if not math.isfinite(abs(v)):
                raise ValueError(f"coefficients must be finite, got {v}")
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)


def _coeffs(a) -> tuple:
    if isinstance(a, CoefficientVector):
        return a.values
    return CoefficientVector(tuple(a)).values


@dataclass
class RmfEnsemble:
    """One sampled random multiplicative function, lazy in the primes."""

    seed: int
    limit: int
    _signs: dict[int, int] = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.limit < 1:
            raise ValueError(f"need limit >= 1, got {self.limit}")

    def sign(self, p: int) -> int:
        s = self._signs.get(p)
        if s is None:
            s = self._signs[p] = _prime_sign(self.seed, p)
        return s

    def value(self, n: int) -> int:
        """f(n) = product of f(p) over primes with odd exponent in n."""
        if not 1 <= n <= self.limit:
            raise ValueError(f"n={n} outside ensemble range [1, {self.limit}]")
        return math.prod(self.sign(p) for p in odd_exponent_primes(n))


def rmf_sample(seed: int, limit: int) -> RmfEnsemble:
    """Ensemble whose prime signs are a pure function of (seed, p)."""
    return RmfEnsemble(seed=seed, limit=limit)


def _support(vals: tuple) -> list[tuple[int, complex | float]]:
    """The (n, a_n) with a_n != 0, in order of n: a zero coefficient adds
    only a +-0.0 term to every sum below, so it changes no bit."""
    return [(n, c) for n, c in enumerate(vals, 1) if c != 0]


def _squarefree_parts(ns) -> dict[int, int]:
    """s(n) of each distinct n, factored once."""
    return {n: squarefree_part(n) for n in set(ns)}


def _second_moment(support, parts: dict[int, int]) -> float:
    # each group sums its terms in order of n; the groups add in order of s,
    # the order in which a loop over every n from 1 first meets them (at n = s)
    groups: dict[int, complex] = {}
    for n, coeff in support:
        s = parts[n]
        groups[s] = groups.get(s, 0) + coeff
    return float(sum(abs(groups[s]) ** 2 for s in sorted(groups)))


def _variance_rhs(support, parts: dict[int, int], interval_len: int) -> float:
    weighted = sum(abs(c) * math.sqrt(parts[n]) for n, c in support)
    return _second_moment(support, parts) + weighted**2 / math.sqrt(interval_len)


def exact_second_moment(a) -> float:
    """E |sum_n a_n f(n)|^2 = sum over squarefree s of |sum_{s(n)=s} a_n|^2.

    Terms with the same squarefree part are perfectly correlated (f agrees
    on them); distinct squarefree parts are orthogonal.  Only the indices
    of nonzero coefficients are factored.
    """
    support = _support(_coeffs(a))
    return _second_moment(support, _squarefree_parts(n for n, _ in support))


def enumerate_second_moment(a) -> float:
    """E |sum a_n f(n)|^2 by exhausting all sign patterns.  Test oracle.

    Enumerates all 2^k assignments of the k primes <= n; exponential, so
    guarded to k <= 20.
    """
    vals = _coeffs(a)
    profiles = [odd_exponent_primes(n) for n in range(1, len(vals) + 1)]
    primes = sorted({p for prof in profiles for p in prof})
    fit_budget(f"enumerating {len(primes)} primes", 2 ** len(primes), 1, 2**20, "2**20", "sign patterns")
    index = {p: i for i, p in enumerate(primes)}
    masks = [sum(1 << index[p] for p in prof) for prof in profiles]
    total = 0.0
    for pattern in range(1 << len(primes)):
        acc = 0j
        for coeff, mask in zip(vals, masks):
            parity = (pattern & mask).bit_count() & 1
            acc += -coeff if parity else coeff
        total += abs(acc) ** 2
    return total / (1 << len(primes))


def mc_second_moment(a, trials: int, seed: int) -> dict:
    """Monte Carlo estimate of E |sum a_n f(n)|^2 with its standard error.

    Trial t draws signs from the keyed hash at sub-seed mix(seed, t), so the
    estimate is reproducible and independent of evaluation order.
    """
    if trials < 2:
        raise ValueError(f"need trials >= 2, got {trials}")
    vals = _coeffs(a)
    profiles = [odd_exponent_primes(n) for n in range(1, len(vals) + 1)]
    primes = sorted({p for prof in profiles for p in prof})
    acc = 0.0
    acc_sq = 0.0
    for t in range(trials):
        sub_seed = _mix64(seed ^ _mix64(t + 1))
        signs = {p: _prime_sign(sub_seed, p) for p in primes}
        total = 0j
        for coeff, prof in zip(vals, profiles):
            s = 1
            for p in prof:
                s *= signs[p]
            total += s * coeff
        sample = abs(total) ** 2
        acc += sample
        acc_sq += sample * sample
    mean = acc / trials
    var = max(acc_sq / trials - mean * mean, 0.0)
    return {
        "estimate": mean,
        "standard_error": math.sqrt(var / trials),
        "trials": trials,
        "seed": seed,
    }


def rmf_variance_rhs(a, interval_len: int) -> float:
    """E |sum a_n f(n)|^2 + (1/sqrt(interval_len)) * (sum |a_n| sqrt(s(n)))^2.

    The right-hand side of the prime-average comparison: the model second
    moment plus a correction shrinking with the prime-interval length.
    """
    if interval_len < 1:
        raise ValueError(f"need interval_len >= 1, got {interval_len}")
    support = _support(_coeffs(a))
    return _variance_rhs(support, _squarefree_parts(n for n, _ in support), interval_len)
