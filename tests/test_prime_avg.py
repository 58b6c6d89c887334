"""Prime-interval averages, moment deviations, and growth schedules."""

import dataclasses
import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from charwin import (
    DeviationRecord,
    ExperimentWarning,
    IntervalSpec,
    WindowConfig,
    avg_character_variance,
    derivative_check,
    empirical_summary,
    exceptional_sets,
    growth_schedule,
    interval_primes,
    jacobi,
    paired_count_exact,
    primes_in_interval,
    random_sparse_vectors,
    rmf_variance_rhs,
    variance_ratio,
    value_histogram,
    variance_ratio_battery,
    window_histograms,
    window_series,
)
from charwin.prime_avg import _battery_lhs, _squared_magnitudes
from charwin.rmf import _coeffs, _support
from charwin.windows import _deviations, power_sum


def test_interval_spec_validation():
    with pytest.raises(ValueError):
        IntervalSpec(q_start=2, delta=10)
    with pytest.raises(ValueError):
        IntervalSpec(q_start=100, delta=0)


def test_interval_primes_matches_sieve():
    spec = IntervalSpec(q_start=1000, delta=1000)
    assert interval_primes(spec) == [p for p in primes_in_interval(1000, 2000) if p % 2]


def test_interval_primes_warns_when_sparse():
    with pytest.warns(ExperimentWarning):
        interval_primes(IntervalSpec(q_start=100, delta=20))


def test_single_coefficient_identity_exact():
    # a supported on one non-square n0: every inner sum is +-1, so the
    # average equals (log Q / delta) * #primes exactly
    spec = IntervalSpec(q_start=1000, delta=1000)
    primes = interval_primes(spec)
    a = (0.0, 1.0)  # supported on n = 2
    lhs = avg_character_variance(spec, a)
    assert lhs == math.log(1000) / 1000 * len(primes)


def test_variance_ratio_zero_vector():
    spec = IntervalSpec(q_start=1000, delta=500)
    assert variance_ratio(spec, (0.0, 0.0)) == {"lhs": 0.0, "rhs": 0.0, "ratio": 0.0}


def test_variance_ratio_refuses_a_bound_that_underflows():
    # 1e-250 squared underflows, so lhs and rhs both read 0.0: the ratio
    # was taken unguarded and raised ZeroDivisionError
    spec = IntervalSpec(q_start=1000, delta=200)
    with pytest.raises(ValueError, match=r"^vector 0 is nonzero but its model bound underflows to 0\.0"):
        variance_ratio(spec, [1e-250])
    with pytest.raises(ValueError, match=r"^vector 2 is nonzero .* underflows"):
        variance_ratio_battery(spec, [(1.0,), (0.0, -0.0), (0.0, 1e-250j)])


def test_variance_ratio_single_coefficient():
    spec = IntervalSpec(q_start=1000, delta=1000)
    rec = variance_ratio(spec, (1.0,))
    assert rec["rhs"] == pytest.approx(rmf_variance_rhs((1.0,), 1000))
    assert rec["ratio"] == pytest.approx(rec["lhs"] / rec["rhs"])
    # ratio ~ pi-count * log Q / delta over (1 + delta^(-1/2)), i.e. order 1
    assert 0.3 < rec["ratio"] < 3.0


def test_variance_ratio_phase_invariance():
    spec = IntervalSpec(q_start=1000, delta=1000)
    base = (1.0, 0.0, -2.0, 0.0, 1.5)
    r1 = variance_ratio(spec, base)["ratio"]
    for c in (-1.0, 3.7, 0.25):
        scaled = tuple(c * x for x in base)
        r2 = variance_ratio(spec, scaled)["ratio"]
        assert r2 == pytest.approx(r1, abs=1e-9)


def test_variance_ratio_battery_shares_primes():
    spec = IntervalSpec(q_start=1000, delta=1000)
    vectors = [(1.0, 0.0, 1.0), (0.0, 1.0)]
    batch = variance_ratio_battery(spec, vectors)
    single = [variance_ratio(spec, v) for v in vectors]
    assert batch == single


def test_random_sparse_vectors():
    battery = random_sparse_vectors(10, 50, seed=3, support=5)
    again = random_sparse_vectors(10, 50, seed=3, support=5)
    assert battery == again
    assert len(battery) == 10
    for vec in battery:
        assert len(vec) == 50
        nonzero = [c for c in vec if c != 0]
        assert len(nonzero) == 5
        assert all(c in (-1.0, 1.0) for c in nonzero)
    assert random_sparse_vectors(10, 50, seed=4, support=5) != battery
    with pytest.raises(ValueError):
        random_sparse_vectors(1, 10, seed=0, support=11)


def _deviation(q, g, h, j):
    """The reducer's j-th moment deviation at one prime, m_start = 1."""
    counts = window_histograms([q], [WindowConfig(h=h, g=g, m_start=1)])[0]
    return empirical_summary(counts, max_moment=0).deviation(j)


def test_moment_deviation_frozen_small_case():
    # q=7, h=2, m_start=1: window sums are (0, 0, 0), so the second-moment
    # sum is 0 and the even deviation is 0/3 - K(1,2) = -2 exactly
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExperimentWarning)  # h = 2 > 3^(1/4), one prime in [7, 8]
        rec, odd = exceptional_sets(
            IntervalSpec(7, 1), growth_schedule("const", 3.0), growth_schedule("const", 2.0), r_max=1
        ).records
    assert (rec.parity, odd.parity) == ("even", "odd")
    assert rec.deviation == -2.0
    assert rec.threshold == pytest.approx(3 ** (-1 / 8))
    assert rec.exceptional
    assert odd.deviation == 0.0
    assert not odd.exceptional


def test_moment_deviation_r1_cross_module():
    # r=1, theta=0: deviation = g^-1 sum S^2 - h, reproducible from the series
    for q in (101, 103, 997):
        g, h = 40, 4
        deviation = _deviation(q, g, h, 2)
        sums = window_series(q, WindowConfig(h=h, g=g, m_start=1))
        assert deviation == pytest.approx(
            sum(int(s) ** 2 for s in sums) / g - h, abs=1e-12
        )


@given(st.sampled_from(primes_in_interval(50, 300)), st.integers(min_value=1, max_value=3))
@settings(max_examples=40)
def test_odd_deviation_trivial_bound(q, r):
    h = 2 * r
    deviation = _deviation(q, 20, h, 2 * r - 1)
    assert abs(deviation) <= h ** (2 * r - 1)


def test_moment_deviation_full_period_small():
    # with g = q - h the empirical second moment is very close to its target
    for q in primes_in_interval(5000, 5200):
        h = 4
        deviation = _deviation(q, q - h, h, 2)
        assert abs(deviation) <= 5 * q ** (-0.5) * h * h * math.log(q)


def test_moment_deviation_validation():
    with pytest.raises(ValueError):
        _deviation(101, 10, 2, 6)  # r = 3 > h


def _flagship_spec():
    return (
        IntervalSpec(q_start=20000, delta=2000),
        growth_schedule("log_power", 3.0),
        growth_schedule("const", 4.0),
    )


def test_exceptional_sets_bookkeeping():
    spec, g_sched, h_sched = _flagship_spec()
    report = exceptional_sets(spec, g_sched, h_sched, r_max=2)
    primes = interval_primes(spec)
    assert report.prime_count == len(primes)
    # 2 parities x 2 orders per prime
    assert len(report.records) == 4 * len(primes)
    even_hits = {r.q for r in report.records if r.parity == "even" and r.exceptional}
    odd_hits = {r.q for r in report.records if r.parity == "odd" and r.exceptional}
    assert report.fraction_even == len(even_hits) / len(primes)
    assert report.fraction_odd == len(odd_hits) / len(primes)
    assert report.fraction_union == len(even_hits | odd_hits) / len(primes)
    for rec in report.records:
        assert rec.exceptional == (abs(rec.deviation) >= rec.threshold)
    # normalized mean-square deviations divide by h^j <= raw for h > 1
    for key, value in report.mean_sq_deviation_normalized.items():
        assert value <= report.mean_sq_deviation[key]


@pytest.mark.parametrize("scale", [math.nan, -1.0, 0.0, math.inf])
def test_exceptional_sets_rejects_bad_threshold_scale(scale):
    spec, g_sched, h_sched = _flagship_spec()
    with pytest.raises(ValueError, match="threshold scale"):
        exceptional_sets(spec, g_sched, h_sched, r_max=1, threshold_scale=scale)


def test_exceptional_sets_threshold_monotone():
    spec, g_sched, h_sched = _flagship_spec()
    base = exceptional_sets(spec, g_sched, h_sched, r_max=1)
    scaled = exceptional_sets(spec, g_sched, h_sched, r_max=1, threshold_scale=10.0)
    assert scaled.fraction_even <= base.fraction_even
    assert scaled.fraction_odd <= base.fraction_odd
    assert scaled.fraction_union <= base.fraction_union


def _slow_records(spec, g_sched, h_sched, r_max, per_prime_inner=False, threshold_scale=1.0, m_start=1):
    """Per-prime window_series + value_histogram, with the deviations taken
    straight from the definitions: the route exceptional_sets replaced."""
    records = []
    g_at_start = float(g_sched(spec.q_start))
    for q in interval_primes(spec):
        g_q = float(g_sched(q))
        h = int(math.floor(h_sched(q)))
        g = max(int(math.floor(g_q if per_prime_inner else g_at_start)), 1)
        counts = value_histogram(window_series(q, WindowConfig(h=h, g=g, m_start=m_start)), h)
        threshold = threshold_scale * g_q ** (-1.0 / 8.0)
        for r in range(1, min(r_max, h) + 1):
            even = sum(c * (v - h) ** (2 * r) for v, c in enumerate(counts))
            odd = sum(c * (v - h) ** (2 * r - 1) for v, c in enumerate(counts))
            devs = (float(Fraction(even, g) - paired_count_exact(r, h)), odd / g)
            for parity, dev in zip(("even", "odd"), devs):
                records.append(DeviationRecord(q, r, parity, dev, threshold, abs(dev) >= threshold))
    return records


@pytest.mark.parametrize(
    "spec, g_sched, h_sched, kwargs",
    [
        # g + h = 67 reaches a full period, so windows wrap, for the primes 11..67
        (IntervalSpec(11, 200), growth_schedule("const", 64.0), growth_schedule("const", 3.0), {}),
        (
            IntervalSpec(20000, 2000),
            growth_schedule("log_power", 3.0),
            growth_schedule("const", 4.0),
            {"per_prime_inner": True},
        ),
        (
            IntervalSpec(20000, 2000),
            growth_schedule("log_power", 3.0),
            # h_q = 3, 4 and 5 in one interval: one histogram group each
            growth_schedule("table", (20000, 3.0), (20600, 4.0), (21300, 5.0)),
            {"threshold_scale": 0.5},
        ),
        (
            IntervalSpec(5000, 600),
            growth_schedule("small_power", 0.5),
            growth_schedule("const", 6.0),
            {"m_start": 0},
        ),
    ],
)
def test_exceptional_sets_match_per_prime_oracle(spec, g_sched, h_sched, kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExperimentWarning)
        report = exceptional_sets(spec, g_sched, h_sched, r_max=3, **kwargs)
        assert report.records == _slow_records(spec, g_sched, h_sched, 3, **kwargs)
    assert len({rec.q for rec in report.records}) == report.prime_count


def test_exceptional_sets_warn_like_window_series():
    spec = IntervalSpec(11, 200)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        exceptional_sets(spec, growth_schedule("const", 64.0), growth_schedule("const", 3.0), r_max=2)
    wraps = [str(w.message) for w in caught if "wrap around" in str(w.message)]
    assert wraps == [
        f"window span g+h = 67 reaches a full period of q = {q}; starting points wrap around"
        for q in interval_primes(spec)
        if q <= 67
    ]
    assert len(wraps) == 15


def _h_by_residue(q):
    """h = 1..4 from q: the h-groups interleave across an interval."""
    return 1 + (q // 2) % 4


def test_exceptional_sets_note_each_skipped_h_once():
    # h = 1..4 interleave, so every h below r_max = 4 has one note, in the
    # order of its first prime, naming how many primes skip its orders
    spec = IntervalSpec(1000, 300)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        exceptional_sets(spec, growth_schedule("const", 64.0), _h_by_residue, r_max=4)
    primes_of: dict[int, list[int]] = {}
    for q in interval_primes(spec):
        primes_of.setdefault(_h_by_residue(q), []).append(q)
    assert [str(w.message) for w in caught if "skipped" in str(w.message)] == [
        f"orders r > h={h} skipped at {len(qs)} prime(s) from q={qs[0]}" for h, qs in primes_of.items() if h < 4]
    assert len(primes_of) == 4


def _summary_oracle(records, h_sched):
    """Fractions and mean squares from the records one by one, each square
    as Python's float ** takes it and each mean as math.fsum in record order."""
    n = len({rec.q for rec in records})
    hits = {p: {rec.q for rec in records if rec.parity == p and rec.exceptional} for p in ("even", "odd")}
    raw, normalized = {}, {}
    for rec in records:
        order = 2 * rec.r - (rec.parity == "odd")
        key = f"r{rec.r}_{rec.parity}"
        raw.setdefault(key, []).append(rec.deviation**2)
        normalized.setdefault(key, []).append((rec.deviation / int(math.floor(h_sched(rec.q))) ** (order / 2)) ** 2)
    means = [{k: math.fsum(v) / len(v) for k, v in sorted(d.items())} for d in (raw, normalized)]
    return [len(hits["even"]) / n, len(hits["odd"]) / n, len(hits["even"] | hits["odd"]) / n, *means]


def _bits(values):
    return [(k, v.hex()) for k, v in values.items()] if isinstance(values, dict) else values.hex()


@given(
    q_start=st.integers(11, 4000),
    delta=st.integers(20, 300),
    g_sched=st.sampled_from([growth_schedule("log_power", 2.0), growth_schedule("small_power", 0.5),
                             growth_schedule("const", 30.0)]),
    # constant, stepping up past r_max, and interleaved
    h_sched=st.sampled_from([growth_schedule("const", 3.0),
                             growth_schedule("table", (11, 1.0), (1500, 2.0), (3000, 6.0)), _h_by_residue]),
    r_max=st.integers(1, 5),
    per_prime_inner=st.booleans(),
    threshold_scale=st.floats(0.05, 20.0),
    m_start=st.sampled_from([0, 1]),
)
@example(q_start=1130, delta=20, g_sched=growth_schedule("log_power", 2.0), h_sched=growth_schedule("const", 3.0),
         r_max=1, per_prime_inner=False, threshold_scale=1.0, m_start=0)
@settings(max_examples=60, deadline=None)
def test_exceptional_sets_columns_match_per_record_oracle(q_start, delta, g_sched, h_sched, r_max, per_prime_inner,
                                                           threshold_scale, m_start):
    spec = IntervalSpec(q_start, delta)
    kwargs = {"per_prime_inner": per_prime_inner, "threshold_scale": threshold_scale, "m_start": m_start}
    if not interval_primes(spec):  # a prime gap can hold the whole interval
        with pytest.raises(ValueError, match="no odd primes"):
            exceptional_sets(spec, g_sched, h_sched, r_max, **kwargs)
        return
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExperimentWarning)
        report = exceptional_sets(spec, g_sched, h_sched, r_max, **kwargs)
        slow = _slow_records(spec, g_sched, h_sched, r_max, **kwargs)
    assert list(report.columns) == [f.name for f in dataclasses.fields(DeviationRecord)]
    assert report.records == slow
    assert report.records is report.records
    summary = [report.fraction_even, report.fraction_odd, report.fraction_union, report.mean_sq_deviation,
               report.mean_sq_deviation_normalized]
    assert list(map(_bits, summary)) == list(map(_bits, _summary_oracle(slow, h_sched)))


_THRESHOLD_SCHEDULES = [
    *(growth_schedule("log_power", a) for a in (0.5, 1.0, 3.0, 7.3)),
    *(growth_schedule("small_power", e) for e in (0.05, 0.5, 1.0)),
    *(growth_schedule("const", c) for c in (1.0, 64.0, 1e6 + 0.5)),
    growth_schedule("table", *((3 + 97 * i, 1.0 + 17.3 * i**1.5) for i in range(60))),
]


@pytest.mark.parametrize("schedule", _THRESHOLD_SCHEDULES, ids=lambda s: f"{s.kind}{s.params[:1]}")
def test_float_power_thresholds_match_python_pow(schedule):
    # the thresholds exceptional_sets takes with np.float_power, against
    # Python's float ** on each g; np.power is not libm pow and differs
    qs = list(range(3, 3003)) + [10**12 + 39 * k for k in range(3000)]
    gs = [float(schedule(q)) for q in qs]
    for scale in (1.0, 0.37, 10.0):
        got = (scale * np.float_power(gs, -1.0 / 8.0)).tolist()
        assert [x.hex() for x in got] == [(scale * g ** (-1.0 / 8.0)).hex() for g in gs]


@pytest.mark.parametrize("g", [0.0, -2.0, math.nan])
def test_exceptional_sets_rejects_non_positive_sample_counts(g):
    with pytest.raises(ValueError, match="sample count"):
        exceptional_sets(IntervalSpec(20000, 2000), lambda q: g, growth_schedule("const", 3.0), r_max=1)


def _slow_battery_lhs(spec, vectors, primes):
    """The per-(q, n) jacobi loop _battery_lhs replaced."""
    supports = [[(n, c) for n, c in enumerate(vec, 1) if c != 0] for vec in vectors]
    union = sorted({n for sup in supports for n, _ in sup})
    per_vector = [[] for _ in vectors]
    for q in primes:
        chi = {n: jacobi(n, q) for n in union}
        for i, sup in enumerate(supports):
            inner = sum(c * chi[n] for n, c in sup)
            per_vector[i].append(abs(inner) ** 2)
    scale = math.log(spec.q_start) / spec.delta
    return [scale * math.fsum(terms) for terms in per_vector]


@given(
    st.lists(
        st.lists(
            st.one_of(
                st.just(0.0),
                st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
            ),
            min_size=1,
            max_size=60,
        ).map(tuple),
        min_size=1,
        max_size=4,
    )
)
@settings(max_examples=40, deadline=None)
def test_battery_lhs_bit_identical_to_jacobi_loop(vectors):
    spec = IntervalSpec(q_start=3, delta=2000)
    primes = [p for p in primes_in_interval(3, 2003) if p % 2]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExperimentWarning)
        vals = [_coeffs(v) for v in vectors]
        fast = _battery_lhs(spec, vals, [_support(v) for v in vals], primes)
    assert fast == _slow_battery_lhs(spec, vals, primes)


def test_battery_lhs_random_sparse_battery_bit_identical():
    spec = IntervalSpec(q_start=100000, delta=5000)
    primes = interval_primes(spec)
    battery = [tuple(0.37 * c + 1.1 * (i % 3) * c for i, c in enumerate(vec))
               for vec in random_sparse_vectors(12, 150, seed=5, support=30)]
    supports = [_support(v) for v in battery]
    assert _battery_lhs(spec, battery, supports, primes) == _slow_battery_lhs(spec, battery, primes)


def _python_squares(values) -> list:
    """abs(v) ** 2 of each value, or None where Python raises on it."""
    out = []
    for v in values:
        try:
            out.append(abs(v) ** 2)
        except OverflowError:
            out.append(None)
    return out


def test_squared_magnitudes_bit_identical_to_python():
    # magnitudes from 1e-300 to 1e300 of both signs, zeros, subnormals and
    # the edge of overflow, real and complex
    rng = random.Random(25)
    reals = [0.0, -0.0, 5e-324, -5e-324, 2.225e-308, -1e-300, 1e-160, 1.3407807929942596e154, 1.35e154, 1e300]
    reals += [rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-300, 300) for _ in range(20000)]
    reals += [rng.uniform(-2.2250738585072014e-308, 2.2250738585072014e-308) for _ in range(2000)]
    complexes = [complex(rng.choice(reals), rng.choice(reals)) for _ in range(20000)] + [complex(0.0, -0.0)]
    for values in (reals, complexes):
        expected = _python_squares(values)
        finite = [v for v, e in zip(values, expected) if e is not None]
        assert 1000 < len(finite) < len(values)
        got = _squared_magnitudes(np.array(finite))
        assert [x.hex() for x in got] == [e.hex() for e in expected if e is not None]
        # a finite value whose square overflows raises, as abs(v) ** 2 does
        for v, e in list(zip(values, expected))[:200]:
            if e is None:
                with pytest.raises(FloatingPointError):
                    _squared_magnitudes(np.array([v]))


def _histogram_matrix(rows) -> np.ndarray:
    """Rows stacked as exceptional_sets stacks them: int64, object once a
    row's sum reaches 2**63, as window_histograms gives such a row."""
    return np.stack([np.array(row, dtype=np.int64 if sum(row) < 2**63 else object) for row in rows])


def _assert_rows_match_summaries(rows, h, r_max):
    # against each row's empirical_summary, and against the bin-by-bin
    # power_sum in Python ints, which shares no kernel with either
    j_max = 2 * min(r_max, h)
    got = _deviations(_histogram_matrix(rows), h, range(1, j_max + 1))
    expected = [[empirical_summary(row, max_moment=0).deviation(j) for j in range(1, j_max + 1)] for row in rows]
    oracle = [[(power_sum(row, h, j) - sum(row) * (0 if j % 2 else paired_count_exact(j // 2, h))) / sum(row)
               for j in range(1, j_max + 1)] for row in rows]
    assert [[x.hex() for x in devs] for devs in got] == [[x.hex() for x in devs] for devs in expected]
    assert [[x.hex() for x in devs] for devs in got] == [[x.hex() for x in devs] for devs in oracle]


@pytest.mark.parametrize("h, r_max, rows", [
    # int64 and every difference below 2**53: numpy's division
    (5, 2, [[3, 0, 7, 1, 0, 2, 9, 4, 0, 1, 5], [1] * 11]),
    # int64 with g h**12 <= 10 * 30**12 < 2**63, the differences past 2**53;
    # at j = 11 the second row's float64 numerator would round once too often
    (30, 6, [[5] + [0] * 59 + [5], [1, 1, 1] + [0] * 54 + [2, 2, 1, 1], [4] + [0] * 29 + [1] + [0] * 29 + [5]]),
    # g h**12 = 100 * 30**12 >= 2**63: int64 would wrap
    (30, 6, [[50] + [0] * 59 + [50], [1] * 61]),
    # g >= 2**63
    (1, 1, [[2**62, 2**62, 2**62], [1, 0, 1]]),
    (2, 3, [[2**63 - 1, 0, 0, 0, 1], [0, 0, 2**64, 0, 0]]),
])
def test_deviation_rows_match_empirical_summary(h, r_max, rows):
    _assert_rows_match_summaries(rows, h, r_max)


@given(st.integers(1, 40).flatmap(lambda h: st.tuples(
    st.just(h),
    st.integers(1, 7),
    st.sampled_from([1, 2**10, 2**30, 2**50, 2**62]).flatmap(lambda big: st.lists(
        st.lists(st.one_of(st.just(0), st.integers(0, big)), min_size=2 * h + 1, max_size=2 * h + 1).filter(any),
        min_size=1, max_size=4)),
)))
@settings(max_examples=150, deadline=None)
def test_deviation_rows_match_empirical_summary_hypothesis(case):
    h, r_max, rows = case
    _assert_rows_match_summaries(rows, h, r_max)


def test_exceptional_sets_per_prime_inner():
    spec, g_sched, h_sched = _flagship_spec()
    global_inner = exceptional_sets(spec, g_sched, h_sched, r_max=1)
    per_prime = exceptional_sets(spec, g_sched, h_sched, r_max=1, per_prime_inner=True)
    # schedules grow across the interval, so the sample counts differ
    assert global_inner.records != per_prime.records


def test_exceptional_sets_strict_mode_rejects_wide_windows():
    spec, g_sched, h_sched = _flagship_spec()
    with pytest.raises(ValueError):
        exceptional_sets(spec, g_sched, h_sched, r_max=1, mode="strict")
    with pytest.raises(ValueError):
        exceptional_sets(spec, g_sched, h_sched, r_max=1, mode="bogus")


def test_exceptional_sets_relaxed_warns_beyond_quarter_power():
    spec = IntervalSpec(q_start=20000, delta=2000)
    g_sched = growth_schedule("const", 16.0)
    h_sched = growth_schedule("const", 3.0)  # 3 > 16^(1/4) = 2
    with pytest.warns(ExperimentWarning, match=r"exceeds g\^\(1/4\)"):
        exceptional_sets(spec, g_sched, h_sched, r_max=1)


def test_exceptional_sets_empty_interval():
    with pytest.raises(ValueError):
        exceptional_sets(
            IntervalSpec(q_start=10**6, delta=2),
            growth_schedule("const", 5.0),
            growth_schedule("const", 2.0),
            r_max=1,
        )


def test_growth_schedule_values():
    assert growth_schedule("log_power", 3.0)(10**6) == pytest.approx(2636.9434556123447)
    assert growth_schedule("small_power", 0.1)(10**6) == pytest.approx(10**0.6)
    assert growth_schedule("const", 7.0)(999) == 7.0
    table = growth_schedule("table", (10, 5.0), (100, 8.0))
    assert table(50) == 5.0
    assert table(100) == 8.0
    assert table(10**6) == 8.0


def test_growth_schedule_validation():
    with pytest.raises(ValueError):
        growth_schedule("log_power", -1.0)
    with pytest.raises(ValueError):
        growth_schedule("small_power", 1.5)
    with pytest.raises(ValueError):
        growth_schedule("const", 0.5)
    with pytest.raises(ValueError):
        growth_schedule("table", (10, 5.0), (10, 6.0))
    with pytest.raises(ValueError):
        growth_schedule("table", (10, 5.0), (100, 4.0))
    with pytest.raises(ValueError):
        growth_schedule("nope", 1.0)
    for kind, params in [
        ("log_power", (math.inf,)),
        ("const", (math.inf,)),
        ("const", (math.nan,)),
        ("table", ((10, 5.0), (100, math.inf))),
        ("table", ((10, math.nan),)),
    ]:
        with pytest.raises(ValueError, match="must be finite"):
            growth_schedule(kind, *params)


def test_derivative_check():
    slow = derivative_check(growth_schedule("const", 100.0), 10**5, 10**4)
    assert slow["ok"] and slow["max_ratio"] == 0.0
    # log-power schedules are slowly varying at scale
    assert derivative_check(growth_schedule("log_power", 3.0), 10**6, 10**4)["ok"]
    # a steep table step violates the discrete slope budget
    step = growth_schedule("table", (10**5, 2.0), (10**5 + 5000, 10**6))
    assert not derivative_check(step, 10**5, 10**4)["ok"]
