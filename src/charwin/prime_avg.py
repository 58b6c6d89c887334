"""Averages over primes in short intervals: character variances and
moment deviations with their exceptional sets.

Two experiment families live here.  The first averages |sum a_n (n|q)|^2
over primes q in [Q, Q+delta] and compares against the random-multiplicative
model bound.  The second takes every prime's value histogram from
window_histograms, reads its moment deviations from exact integer power
sums, one matrix product for all the primes that share a window length,
flags primes whose deviation exceeds g^(-1/8) (a Chebyshev-style
exceptional set), and reports the exceptional fractions.
"""

from __future__ import annotations

import functools
import math
import random
import warnings
from dataclasses import dataclass

import numpy as np

from . import windows
from .arith import ExperimentWarning, fit_budget, primes_in_interval
from .rmf import _coeffs, _squarefree_parts, _support, _variance_rhs
from .windows import WindowConfig, _deviations, _window_histograms, chi_block


@dataclass(frozen=True)
class IntervalSpec:
    """Prime interval [q_start, q_start + delta], with q_start >= 3."""

    q_start: int
    delta: int

    def __post_init__(self) -> None:
        if self.q_start < 3:
            raise ValueError(f"interval must start at >= 3, got {self.q_start}")
        if self.delta < 1:
            raise ValueError(f"need delta >= 1, got {self.delta}")


def interval_primes(spec: IntervalSpec) -> list[int]:
    primes = primes_in_interval(spec.q_start, spec.q_start + spec.delta)
    if len(primes) < 50:
        warnings.warn(
            f"only {len(primes)} primes in [{spec.q_start}, {spec.q_start + spec.delta}]; "
            "averages will be statistically weak",
            ExperimentWarning,
            stacklevel=2,
        )
    return primes


def avg_character_variance(spec: IntervalSpec, a) -> float:
    """(log Q / delta) * sum over primes q in the interval of |sum_n a_n (n|q)|^2."""
    vals = _coeffs(a)
    return _battery_lhs(spec, [vals], [_support(vals)], interval_primes(spec))[0]


def _battery_lhs(spec: IntervalSpec, vectors: list[tuple], supports: list[list], primes: list[int]) -> list[float]:
    """The scaled prime sums of each vector, read off its support (rmf._support);
    primes come from the sieve and are not checked."""
    for vec in vectors:
        if len(vec) > spec.delta:
            warnings.warn(
                f"coefficient length {len(vec)} exceeds interval length {spec.delta}",
                ExperimentWarning,
                stacklevel=3,
            )
    n_max = max((len(vec) for vec in vectors), default=0)
    # 2 bytes per cell within BLOCK_BYTES, and no more rows than a chi_block holds
    what = f"battery symbol row to n_max={n_max}"
    rows = min(fit_budget(what, 1, 2 * (n_max + 1), windows.BLOCK_BYTES, "BLOCK_BYTES"),
               windows._block_rows(what, n_max, 1, "chi_block's"))
    per_vector = [[] for _ in vectors]
    for lo in range(0, len(primes), rows):
        block = chi_block(primes[lo : lo + rows], n_max)
        for i, sup in enumerate(supports):
            # term by term, left to right, as sum() over the support would
            inner = np.zeros(block.shape[0])
            for n, c in sup:
                inner = inner + c * block[:, n]
            per_vector[i].extend(_squared_magnitudes(inner))
    scale = math.log(spec.q_start) / spec.delta
    return [scale * math.fsum(terms) for terms in per_vector]


def _squared_magnitudes(x: np.ndarray) -> list[float]:
    """[abs(v) ** 2 for v in x.tolist()], bit for bit: libm hypot for a
    complex abs, as Python's, where np.abs differs in the last bit, and libm
    pow for the square, as Python's float ** takes it.  A finite value whose
    magnitude or square overflows raises, as there, though as
    FloatingPointError."""
    with np.errstate(over="raise"):
        magnitude = np.hypot(x.real, x.imag) if np.iscomplexobj(x) else np.abs(x)
        return np.float_power(magnitude, 2.0).tolist()


def variance_ratio(spec: IntervalSpec, a) -> dict:
    """Prime-average variance over the random-multiplicative-model bound."""
    return variance_ratio_battery(spec, [a])[0]


def variance_ratio_battery(spec: IntervalSpec, vectors) -> list[dict]:
    """variance_ratio for many coefficient vectors, sharing the prime sweep
    and the squarefree part of each index that any vector's support holds.

    A nonzero vector whose model bound underflows to 0.0, as tiny
    coefficients' squares do, has no ratio: ValueError, before the sweep."""
    coeff_vecs = [_coeffs(a) for a in vectors]
    supports = [_support(vec) for vec in coeff_vecs]
    parts = _squarefree_parts(n for sup in supports for n, _ in sup)
    rhs_values = [_variance_rhs(sup, parts, spec.delta) if sup else 0.0 for sup in supports]
    for i, (sup, rhs) in enumerate(zip(supports, rhs_values)):
        if sup and rhs == 0.0:
            raise ValueError(f"vector {i} is nonzero but its model bound underflows to 0.0: no variance ratio")
    lhs_values = _battery_lhs(spec, coeff_vecs, supports, interval_primes(spec))
    return [{"lhs": lhs, "rhs": rhs, "ratio": lhs / rhs} if sup else {"lhs": 0.0, "rhs": 0.0, "ratio": 0.0}
            for sup, lhs, rhs in zip(supports, lhs_values, rhs_values)]


def random_sparse_vectors(count: int, length: int, seed: int, support: int = 8) -> list[tuple[float, ...]]:
    """Seeded battery of sparse +-1 coefficient vectors of a fixed length.

    Each vector places `support` nonzero entries (signs +-1) at distinct
    positions, at least one of them always nonzero so the trivial all-zero
    vector never enters a ratio battery.
    """
    if count < 1 or length < 1 or not 1 <= support <= length:
        raise ValueError("need count >= 1 and 1 <= support <= length")
    rng = random.Random(seed)
    battery = []
    for _ in range(count):
        positions = rng.sample(range(length), support)
        vec = [0.0] * length
        for pos in positions:
            vec[pos] = rng.choice((-1.0, 1.0))
        battery.append(tuple(vec))
    return battery


@dataclass(frozen=True)
class DeviationRecord:
    """One prime's distance from the Gaussian moment target at order r."""

    q: int
    r: int
    parity: str
    deviation: float
    threshold: float
    exceptional: bool


@dataclass
class ExceptionalReport:
    """All deviation records over a prime interval plus exceptional fractions.

    columns holds the records column by column: one list per DeviationRecord
    field, in field order, each entry one record, the records in prime order
    and within a prime by r, even before odd.  records builds the
    DeviationRecord list from them on first read.
    A prime counts as exceptional for a parity if any order r <= r_max trips
    the threshold there; fraction_union merges both parities.
    mean_sq_deviation averages the raw deviation squared per (r, parity);
    the normalized variant first divides each deviation by h**(j/2) (j the
    moment order), putting it on the scale of the moments of S/sqrt(h).
    """

    columns: dict[str, list]
    prime_count: int
    fraction_even: float
    fraction_odd: float
    fraction_union: float
    mean_sq_deviation: dict[str, float]
    mean_sq_deviation_normalized: dict[str, float]

    @functools.cached_property
    def records(self) -> list[DeviationRecord]:
        return list(map(DeviationRecord, *self.columns.values()))


def exceptional_sets(
    spec: IntervalSpec,
    g_schedule,
    h_schedule,
    r_max: int,
    mode: str = "relaxed",
    per_prime_inner: bool = False,
    threshold_scale: float = 1.0,
    m_start: int = 1,
) -> ExceptionalReport:
    """Deviation records for every prime in the interval, r = 1..r_max.

    The inner moment average runs over m <= g(q_start) by default (the
    interval-wide sample count); per_prime_inner=True uses g(q) instead.
    Thresholds always use the per-prime g(q), which must be positive,
    scaled by threshold_scale, which must be finite and positive.  Each prime's record of order r and
    parity holds summary.deviation(2r) (even) or summary.deviation(2r - 1)
    (odd) of its empirical_summary.  Strict mode enforces the narrow-window
    hypothesis h <= g(q)^(1/(2500 r^2)) and fails loudly; relaxed mode
    accepts any h <= g(q)^(1/4) and warns beyond that.

    The moduli come from the sieve, so none is tested prime again.  The
    primes that share an h share one exact reduction, windows._deviations,
    the kernel of deviation(j), and from there the flags, the fractions and
    the mean squares are taken on that group's deviation matrix: the
    thresholds by np.float_power, which is libm pow as Python's float **
    is, and each mean square as math.fsum of the squares, whose order does
    not change the correctly rounded sum.
    """
    if mode not in ("strict", "relaxed"):
        raise ValueError(f"mode must be 'strict' or 'relaxed', got {mode!r}")
    if r_max < 1:
        raise ValueError(f"need r_max >= 1, got {r_max}")
    if not (math.isfinite(threshold_scale) and threshold_scale > 0):
        raise ValueError(f"threshold scale must be finite and > 0, got {threshold_scale}")
    primes = interval_primes(spec)
    if not primes:
        raise ValueError(f"no odd primes in [{spec.q_start}, {spec.q_start + spec.delta}]")
    # each note in the order of its first prime; an int h stands for the
    # note on the orders r > h skipped, written once its primes are counted
    notes: list[str | int] = []
    rows_of: dict[int, list[int]] = {}
    g_at_start = float(g_schedule(spec.q_start))
    configs: list[WindowConfig] = []
    thresholds_g: list[float] = []
    warned_wide = False
    # one config per distinct (h, g): the primes of an interval share a few
    config_of = functools.cache(lambda h, g: WindowConfig(h=h, g=g, m_start=m_start))
    for q in primes:
        g_q = float(g_schedule(q))
        h_q = int(math.floor(h_schedule(q)))
        if h_q < 1 or h_q >= q:
            raise ValueError(f"window length {h_q} invalid for q={q}")
        if not g_q > 0:
            raise ValueError(f"sample count {g_q} invalid for q={q}")
        if mode == "strict":
            for r in range(1, r_max + 1):
                cap = g_q ** (1.0 / (2500.0 * r * r))
                if not r <= h_q <= cap:
                    raise ValueError(
                        f"strict mode needs r <= h <= g^(1/(2500 r^2)); "
                        f"q={q}, r={r}, h={h_q}, cap={cap:.4f}"
                    )
        elif not warned_wide and h_q > g_q ** 0.25:
            notes.append(
                f"relaxed mode: window h={h_q} exceeds g^(1/4)={g_q ** 0.25:.2f} at q={q}"
            )
            warned_wide = True
        if r_max > h_q and h_q not in rows_of:
            notes.append(h_q)
        rows_of.setdefault(h_q, []).append(len(configs))
        g_inner = int(math.floor(g_q if per_prime_inner else g_at_start))
        configs.append(config_of(h_q, max(g_inner, 1)))
        thresholds_g.append(g_q)

    histograms = _window_histograms(primes, configs, stacklevel=2)
    for note in notes:
        if isinstance(note, int):
            rows = rows_of[note]
            note = f"orders r > h={note} skipped at {len(rows)} prime(s) from q={primes[rows[0]]}"
        warnings.warn(note, ExperimentWarning, stacklevel=2)
    n = len(primes)
    # a prime's records in one run: r = 1..min(r_max, h), even before odd
    per = np.array([2 * min(r_max, config.h) for config in configs])
    starts = np.cumsum(per) - per
    with np.errstate(over="ignore"):  # an infinite threshold, as Python's product gives it
        threshold = threshold_scale * np.float_power(thresholds_g, -1.0 / 8.0)
    deviation = np.empty(starts[-1] + per[-1])
    exceptional = np.empty(deviation.size, dtype=bool)
    hit = {"even": np.empty(n, dtype=bool), "odd": np.empty(n, dtype=bool)}
    squares: dict[str, list[float]] = {}
    squares_norm: dict[str, list[float]] = {}
    for h, rows in rows_of.items():
        k = min(r_max, h)
        # column t is record t of each prime: r = t // 2 + 1, and order 2r
        # (even) for an even t, 2r - 1 (odd) for an odd t
        orders = [(t ^ 1) + 1 for t in range(2 * k)]
        devs = _deviations(np.stack([histograms[i] for i in rows]), h, orders)
        flags = np.abs(devs) >= threshold[rows, None]
        at = starts[rows, None] + np.arange(2 * k)
        deviation[at], exceptional[at] = devs, flags
        hit["even"][rows], hit["odd"][rows] = flags[:, 0::2].any(axis=1), flags[:, 1::2].any(axis=1)
        divisors = np.array([h ** (order / 2) for order in orders])
        raw, normalized = _squared_magnitudes(devs.T), _squared_magnitudes((devs / divisors).T)
        for t in range(2 * k):
            key = f"r{t // 2 + 1}_{('even', 'odd')[t % 2]}"
            squares.setdefault(key, []).extend(raw[t])
            squares_norm.setdefault(key, []).extend(normalized[t])
    size = deviation.size
    return ExceptionalReport(
        columns={
            "q": np.repeat(primes, per).tolist(),
            "r": (np.arange(size) // 2 - np.repeat(starts // 2, per) + 1).tolist(),
            "parity": ["even", "odd"] * (size // 2),
            "deviation": deviation.tolist(),
            "threshold": np.repeat(threshold, per).tolist(),
            "exceptional": exceptional.tolist(),
        },
        prime_count=n,
        fraction_even=np.count_nonzero(hit["even"]) / n,
        fraction_odd=np.count_nonzero(hit["odd"]) / n,
        fraction_union=np.count_nonzero(hit["even"] | hit["odd"]) / n,
        mean_sq_deviation={k: math.fsum(v) / len(v) for k, v in sorted(squares.items())},
        mean_sq_deviation_normalized={k: math.fsum(v) / len(v) for k, v in sorted(squares_norm.items())},
    )


@dataclass(frozen=True)
class GrowthSchedule:
    """Sample-count schedule q -> g(q): how many window starts at modulus q.

    Kinds: log_power ((log q)^a), small_power (q^eps), const, and table
    (step function through sorted (q, value) pairs).  Decreasing schedules
    and non-finite parameters are rejected at construction.
    """

    kind: str
    params: tuple

    def __post_init__(self) -> None:
        kind, params = self.kind, self.params
        numbers = params
        if kind == "log_power":
            if len(params) != 1 or params[0] <= 0:
                raise ValueError(f"log_power needs one positive exponent, got {params}")
        elif kind == "small_power":
            if len(params) != 1 or not 0 < params[0] <= 1:
                raise ValueError(f"small_power needs an exponent in (0, 1], got {params}")
        elif kind == "const":
            if len(params) != 1 or params[0] < 1:
                raise ValueError(f"const needs one value >= 1, got {params}")
        elif kind == "table":
            pts = tuple(params)
            if len(pts) < 1:
                raise ValueError("table schedule needs at least one (q, value) pair")
            qs = [p[0] for p in pts]
            vs = [p[1] for p in pts]
            if qs != sorted(qs) or len(set(qs)) != len(qs):
                raise ValueError("table abscissae must be strictly increasing")
            if any(b < a for a, b in zip(vs, vs[1:])) or min(vs) < 1:
                raise ValueError("table schedule must be non-decreasing and >= 1")
            object.__setattr__(self, "params", pts)
            numbers = qs + vs
        else:
            raise ValueError(f"unknown schedule kind {kind!r}")
        if not all(math.isfinite(x) for x in numbers):
            raise ValueError(f"{kind} schedule parameters must be finite, got {params}")

    def __call__(self, q: int) -> float:
        if q < 3:
            raise ValueError(f"schedules are defined for q >= 3, got {q}")
        if self.kind == "log_power":
            return math.log(q) ** self.params[0]
        if self.kind == "small_power":
            return float(q) ** self.params[0]
        if self.kind == "const":
            return float(self.params[0])
        value = self.params[0][1]
        for point, v in self.params:
            if point <= q:
                value = v
            else:
                break
        return float(value)


def growth_schedule(kind: str, *params) -> GrowthSchedule:
    return GrowthSchedule(kind=kind, params=tuple(params))


def derivative_check(schedule, q_start: int, delta: int) -> dict:
    """Discrete slope check: |g(q2) - g(q1)| <= g(Q)^0.99 * Q^-0.01 * (q2 - q1).

    Sampled on an even 64-step grid across the interval; max_ratio > 1
    means the schedule grows too fast for the slowly-varying hypothesis.
    """
    if delta < 1:
        raise ValueError(f"need delta >= 1, got {delta}")
    allowed_slope = float(schedule(q_start)) ** 0.99 * q_start ** (-0.01)
    grid = sorted({q_start + round(i * delta / 64) for i in range(65)})
    max_ratio = 0.0
    for q1, q2 in zip(grid, grid[1:]):
        slope = abs(float(schedule(q2)) - float(schedule(q1))) / (q2 - q1)
        max_ratio = max(max_ratio, slope / allowed_slope)
    return {"ok": max_ratio <= 1.0, "max_ratio": max_ratio, "allowed_slope": allowed_slope}
