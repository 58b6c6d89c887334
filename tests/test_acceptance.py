"""Acceptance gate: one test per release criterion.

Each test measures its own wall-clock time, appends a single
``[PASS]``/``[FAIL]`` line to the report that conftest prints in the
terminal summary, and then asserts.  Tolerances and budgets are part of
the criterion, not of the test.
"""

import itertools
import json
import math
import random
import time

from conftest import ACCEPTANCE_LINES

from charwin import (
    IntervalSpec,
    WindowConfig,
    abs_weight_sum,
    avg_character_variance,
    build_selberg,
    cdf_vs_gaussian,
    cli,
    empirical_summary,
    enumerate_second_moment,
    euler_criterion,
    exact_second_moment,
    exceptional_sets,
    growth_schedule,
    interval_primes,
    is_perfect_square,
    is_prime,
    jacobi,
    mc_second_moment,
    paired_count_bruteforce,
    paired_count_exact,
    paired_count_theta,
    polya_vinogradov_check,
    primes_in_interval,
    random_sparse_vectors,
    random_weil_instances,
    square_iff_reduced,
    square_pair_solutions,
    value_histogram,
    variance_ratio_battery,
    verify_indicator,
    weil_bound_check,
    window_series,
)


def _report(num: int, ok: bool, detail: str) -> str:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    return line


def test_criterion_01_symbol_oracles_agree():
    t0 = time.perf_counter()
    cases = 0
    mismatches = 0
    for q in primes_in_interval(3, 1999):
        for n in range(q):
            cases += 1
            if jacobi(n, q) != euler_criterion(n, q):
                mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 5.0
    line = _report(1, ok, f"jacobi == euler_criterion on {cases} cases, "
                          f"{mismatches} mismatches, {elapsed:.2f}s (budget 5s)")
    assert ok, line


def test_criterion_02_pair_deletion_square_equivalence():
    t0 = time.perf_counter()
    checked = 0
    failures = 0
    for alpha in itertools.product(range(4), repeat=4):
        for m in range(1, 51):
            full, reduced = square_iff_reduced(m, alpha)
            checked += 1
            if full != reduced:
                failures += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and checked == 256 * 50 and elapsed < 1.0
    line = _report(2, ok, f"square iff reduced-square on {checked} (alpha, m) pairs, "
                          f"{failures} failures, {elapsed:.2f}s (budget 1s)")
    assert ok, line


def test_criterion_03_paired_counts_and_theta():
    t0 = time.perf_counter()
    exact_ok = all(
        paired_count_exact(r, h) == paired_count_bruteforce(r, h)
        for r in range(1, 4)
        for h in range(1, 9)
    )
    thetas = [paired_count_theta(r, h).theta
              for r in range(1, 5) for h in range(r, 201)]
    range_ok = all(0.0 <= t <= 1.0 for t in thetas)
    spot_ok = (paired_count_exact(2, 3) == 21
               and abs(paired_count_theta(2, 3).theta - (3 - math.sqrt(7)) / 2) < 1e-12)
    elapsed = time.perf_counter() - t0
    ok = exact_ok and range_ok and spot_ok and elapsed < 10.0
    line = _report(3, ok, f"K exact==brute (r<=3, h<=8): {exact_ok}; "
                          f"theta in [0,1] on {len(thetas)} pairs: {range_ok}; "
                          f"K(2,3)=21, theta(2,3)=(3-sqrt7)/2: {spot_ok}; "
                          f"{elapsed:.2f}s (budget 10s)")
    assert ok, line


def test_criterion_04_divisor_method_matches_bruteforce():
    t0 = time.perf_counter()
    limit = 10**4
    failures = 0
    for gap in range(1, 51):
        fast = square_pair_solutions(gap, limit)
        brute = [d for d in range(1, limit + 1) if is_perfect_square(d * (d + gap))]
        if fast != brute:
            failures += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and elapsed < 5.0
    line = _report(4, ok, f"square-product solutions, divisor method == brute force "
                          f"for gaps 1..50 up to {limit}, {failures} failures, "
                          f"{elapsed:.2f}s (budget 5s)")
    assert ok, line


def test_criterion_05_sign_model_second_moment():
    t0 = time.perf_counter()
    rng = random.Random(501)
    mismatches = 0
    for _ in range(100):
        coeffs = tuple(rng.randint(-3, 3) for _ in range(rng.randint(1, 12)))
        if exact_second_moment(coeffs) != enumerate_second_moment(coeffs):
            mismatches += 1
    mc = mc_second_moment((1, 1, 1, 1), trials=20000, seed=5)
    pull = abs(mc["estimate"] - 6.0) / mc["standard_error"]
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and pull <= 5.0 and elapsed < 10.0
    line = _report(5, ok, f"exact == enumeration on 100 random vectors "
                          f"({mismatches} mismatches); MC {mc['estimate']:.4f} vs 6 "
                          f"= {pull:.2f} standard errors (<= 5); "
                          f"{elapsed:.2f}s (budget 10s)")
    assert ok, line


def test_criterion_06_sieve_indicator_domination():
    t0 = time.perf_counter()
    details = []
    ok = True
    for z in (10, 30):
        system = build_selberg(z, z)
        report = verify_indicator(system, 10**5)
        support_ok = max(system.rho) <= z * z
        ok = ok and report["ok"] and support_ok
        details.append(f"z={z}: nonneg+rough ok={report['ok']}, "
                       f"rough_count={report['rough_count']}, support<=z^2={support_ok}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    line = _report(6, ok, "; ".join(details) + f"; {elapsed:.2f}s (budget 30s)")
    assert ok, line


def test_criterion_07_incomplete_sum_bound():
    t0 = time.perf_counter()
    instances = random_weil_instances(1000, 1000, 100000, 4, seed=1234)
    checks = [weil_bound_check(inst["q"], inst["gamma"], inst["x"], inst["y"])
              for inst in instances]
    holds = sum(rec["holds"] for rec in checks)
    worst = max(rec["ratio"] for rec in checks)
    elapsed = time.perf_counter() - t0
    ok = holds == 1000 and elapsed < 60.0
    line = _report(7, ok, f"|incomplete sum| < 9K sqrt(q) log q in {holds}/1000 "
                          f"seeded instances, worst ratio {worst:.4f}, "
                          f"{elapsed:.2f}s (budget 60s)")
    assert ok, line


def test_criterion_08_single_prime_clt():
    t0 = time.perf_counter()
    q = 10**7
    while not is_prime(q):
        q += 1
    h = 100
    sums = window_series(q, WindowConfig(h=h, g=q - h))
    summary = empirical_summary(value_histogram(sums, h), max_moment=4)
    m = summary.moments
    moments_ok = (abs(m[2] - 1.0) <= 0.10 and abs(m[4] - 3.0) <= 0.30
                  and abs(m[1]) <= 0.05 and abs(m[3]) <= 0.05)
    grid = (-2.0, -1.0, 0.0, 1.0, 2.0)
    plain = cdf_vs_gaussian(summary, grid, corrected=False)["max_abs_diff"]
    corrected = cdf_vs_gaussian(summary, grid, corrected=True)["max_abs_diff"]
    cdf_ok = plain <= 0.06 and corrected <= 0.02
    elapsed = time.perf_counter() - t0
    ok = moments_ok and cdf_ok and elapsed < 60.0
    line = _report(8, ok, f"q={q}, h={h}, g=q-h: m2={m[2]:.4f}, m4={m[4]:.3f}, "
                          f"m1={m[1]:.4f}, m3={m[3]:.4f}; max CDF gap "
                          f"plain {plain:.4f} (<=0.06), corrected {corrected:.5f} "
                          f"(<=0.02); {elapsed:.2f}s (budget 60s)")
    assert ok, line


def test_criterion_09_interval_moment_deviations():
    t0 = time.perf_counter()
    spec = IntervalSpec(q_start=10**6, delta=10**4)
    g_sched = growth_schedule("log_power", 3.0)
    report = exceptional_sets(spec, g_sched, growth_schedule("const", 5.0), r_max=1)
    bound = 10.0 * g_sched(spec.q_start) ** -0.7
    # raw deviations carry the h^r scale of the moments themselves; the
    # C g^{-0.7} budget applies to the scale-free (normalized) deviations
    norm = report.mean_sq_deviation_normalized
    raw = report.mean_sq_deviation
    mean_sq_ok = all(v <= bound for v in norm.values())
    fraction_ok = report.fraction_union <= 0.5
    elapsed = time.perf_counter() - t0
    ok = mean_sq_ok and fraction_ok and elapsed < 120.0
    line = _report(9, ok, f"{report.prime_count} primes: mean dev^2 normalized "
                          f"even {norm['r1_even']:.5f} / odd {norm['r1_odd']:.5f} "
                          f"<= {bound:.5f} (raw even {raw['r1_even']:.4f}); "
                          f"exceptional fraction {report.fraction_union:.4f} (<= 0.5); "
                          f"{elapsed:.2f}s (budget 120s)")
    assert ok, line


def test_criterion_10_variance_ratio_battery():
    t0 = time.perf_counter()
    spec = IntervalSpec(q_start=10**5, delta=10**4)
    primes = interval_primes(spec)
    battery = random_sparse_vectors(50, 100, seed=20260814, support=8)
    rows = variance_ratio_battery(spec, battery)
    worst = max(rec["ratio"] for rec in rows)
    # one coefficient on a fixed non-square: every inner sum is +-1, so the
    # prime average collapses to (log Q / delta) * #primes with no error term
    lhs = avg_character_variance(spec, (0.0, 1.0))
    identity_ok = lhs == math.log(spec.q_start) / spec.delta * len(primes)
    elapsed = time.perf_counter() - t0
    ok = worst <= 100.0 and identity_ok and elapsed < 120.0
    line = _report(10, ok, f"max lhs/rhs ratio {worst:.4f} over 50 seeded vectors "
                           f"(<= 100); single-coefficient identity exact: {identity_ok}; "
                           f"{elapsed:.2f}s (budget 120s)")
    assert ok, line


def test_criterion_11_partial_sum_scan():
    t0 = time.perf_counter()
    worst = 0.0
    violations = 0
    count = 0
    for q in primes_in_interval(3, 10**4):
        ratio = polya_vinogradov_check(q)["ratio"]
        worst = max(worst, ratio)
        violations += ratio >= 1.0
        count += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 60.0
    line = _report(11, ok, f"max partial sum < sqrt(q) log q for all {count} primes "
                           f"<= 10^4, worst ratio {worst:.4f}, {elapsed:.2f}s (budget 60s)")
    assert ok, line


def test_criterion_12_thread_count_determinism(tmp_path):
    t0 = time.perf_counter()
    base = ["clt-interval", "--interval", "200000:20000", "--g", "log_power:3",
            "--h", "const:5", "--rmax", "2"]
    payloads = []
    for threads in ("1", "4"):
        out = tmp_path / f"run{threads}.json"
        rc = cli.main(base + ["--threads", threads, "--out", str(out)])
        assert rc == 0
        env = json.loads(out.read_text())
        env.pop("meta")
        payloads.append(json.dumps(env, sort_keys=True).encode())
    elapsed = time.perf_counter() - t0
    ok = payloads[0] == payloads[1]
    line = _report(12, ok, f"clt-interval payloads byte-identical outside meta for "
                           f"1 vs 4 threads ({len(payloads[0])} bytes), {elapsed:.2f}s")
    assert ok, line
