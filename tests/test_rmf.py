"""Random multiplicative model: signs, second moments, and the variance bound."""

import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charwin import (
    CoefficientVector,
    ExperimentWarning,
    IntervalSpec,
    avg_character_variance,
    enumerate_second_moment,
    exact_second_moment,
    mc_second_moment,
    rmf_sample,
    rmf_variance_rhs,
    squarefree_part,
    variance_ratio_battery,
)


def test_prime_signs_deterministic_and_pm_one():
    ens_a = rmf_sample(seed=123, limit=100)
    ens_b = rmf_sample(seed=123, limit=100)
    for p in (2, 3, 5, 7, 11, 97):
        assert ens_a.sign(p) == ens_b.sign(p)
        assert ens_a.sign(p) in (-1, 1)
    ens_c = rmf_sample(seed=124, limit=100)
    assert any(ens_a.sign(p) != ens_c.sign(p) for p in (2, 3, 5, 7, 11, 13, 17, 19))


def test_values_multiplicative_structure():
    ens = rmf_sample(seed=7, limit=1000)
    assert ens.value(1) == 1
    assert ens.value(4) == 1  # even exponents vanish
    assert ens.value(36) == 1
    assert ens.value(6) == ens.sign(2) * ens.sign(3)
    assert ens.value(12) == ens.sign(3)  # 12 = 2^2 * 3
    assert ens.value(8) == ens.sign(2)  # 8 = 2^3
    # f(n) depends only on the squarefree part
    for n in range(1, 200):
        assert ens.value(n) == ens.value(squarefree_part(n))


def test_exact_second_moment_spot():
    assert exact_second_moment((1.0,)) == 1.0
    # squarefree parts of 1..4 are 1, 2, 3, 1: groups {1: a1+a4, 2: a2, 3: a3}
    assert exact_second_moment((1.0, 1.0, 1.0, 1.0)) == 6.0
    # orthogonal supports add
    assert exact_second_moment((0.0, 2.0, 3.0)) == 13.0
    # complex coefficients
    assert exact_second_moment((1j, 1.0)) == pytest.approx(2.0)


@given(
    st.lists(
        st.sampled_from([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0]), min_size=1, max_size=10
    )
)
@settings(max_examples=100)
def test_exact_matches_enumeration(coeffs):
    exact = exact_second_moment(tuple(coeffs))
    enum = enumerate_second_moment(tuple(coeffs))
    assert exact == pytest.approx(enum, abs=1e-9)


def test_enumeration_budget_guard():
    with pytest.raises(ValueError):
        enumerate_second_moment(tuple([1.0] * 80))


def test_mc_second_moment_deterministic():
    a = (1.0, 1.0, 1.0, 1.0)
    run1 = mc_second_moment(a, trials=500, seed=11)
    run2 = mc_second_moment(a, trials=500, seed=11)
    assert run1 == run2
    assert run1["trials"] == 500 and run1["seed"] == 11
    assert run1["standard_error"] > 0


def test_mc_second_moment_converges():
    a = (1.0, 1.0, 1.0, 1.0)
    run = mc_second_moment(a, trials=20000, seed=5)
    assert abs(run["estimate"] - 6.0) <= 5 * run["standard_error"]


def test_mc_second_moment_validation():
    with pytest.raises(ValueError):
        mc_second_moment((1.0,), trials=1, seed=0)


def test_coefficient_vector_validation():
    assert CoefficientVector((1, 2)).values == (1.0, 2.0)
    with pytest.raises(ValueError):
        CoefficientVector(())
    with pytest.raises(ValueError):
        CoefficientVector((float("nan"),))
    with pytest.raises(ValueError):
        CoefficientVector((float("inf"), 1.0))


def test_rmf_variance_rhs_spot():
    # a = (1): moment 1, weighted sum sqrt(1) = 1
    assert rmf_variance_rhs((1.0,), 100) == pytest.approx(1.0 + 1.0 / 10.0)
    a = (1.0, 1.0, 1.0, 1.0)
    weighted = 1 + math.sqrt(2) + math.sqrt(3) + math.sqrt(1)
    assert rmf_variance_rhs(a, 10**4) == pytest.approx(6.0 + weighted**2 / 100.0)
    with pytest.raises(ValueError):
        rmf_variance_rhs((1.0,), 0)


def test_rhs_decreases_with_interval_length():
    a = (1.0, -1.0, 2.0)
    values = [rmf_variance_rhs(a, n) for n in (10, 100, 1000, 10**6)]
    assert all(x > y for x, y in zip(values, values[1:]))
    assert values[-1] == pytest.approx(exact_second_moment(a), rel=1e-2)


def _per_n_second_moment(vals):
    """exact_second_moment as a loop over every n, zeros included: the oracle."""
    groups = {}
    for n, coeff in enumerate(vals, start=1):
        s = squarefree_part(n)
        groups[s] = groups.get(s, 0) + coeff
    return float(sum(abs(v) ** 2 for v in groups.values()))


def _per_n_variance_rhs(vals, interval_len):
    weighted = sum(abs(c) * math.sqrt(squarefree_part(n)) for n, c in enumerate(vals, 1))
    return _per_n_second_moment(vals) + weighted**2 / math.sqrt(interval_len)


# magnitudes whose squares stay normal: a vector whose rhs underflows to 0
# has no ratio, and variance_ratio_battery refuses the whole battery
REALS = st.floats(min_value=-1e6, max_value=1e6).filter(lambda x: x == 0 or abs(x) > 1e-100)
COEFFICIENTS = st.one_of(
    st.sampled_from([0.0, -0.0, 0j, complex(-0.0, -0.0), 1.0, -1.0, 0.5, 1j]),
    REALS,
    st.builds(complex, REALS, REALS),
)
VECTORS = st.one_of(
    st.lists(COEFFICIENTS, min_size=1, max_size=60),
    st.lists(st.sampled_from([0.0, -0.0, 0j]), min_size=1, max_size=60),
)


@given(st.lists(VECTORS, min_size=1, max_size=4))
@settings(max_examples=150, deadline=None)
def test_model_side_bit_identical_to_per_n_loop(vectors):
    # the model terms read only the support; zero coefficients and the
    # order of the groups must not move a bit of either one
    spec = IntervalSpec(q_start=1000, delta=200)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExperimentWarning)
        battery = variance_ratio_battery(spec, vectors)
        lhs = [avg_character_variance(spec, vec) for vec in vectors]
    for vec, rec, left in zip(vectors, battery, lhs):
        vals = CoefficientVector(tuple(vec)).values
        moment, rhs = _per_n_second_moment(vals), _per_n_variance_rhs(vals, spec.delta)
        assert exact_second_moment(vec).hex() == moment.hex()
        assert rmf_variance_rhs(vec, spec.delta).hex() == rhs.hex()
        if all(c == 0 for c in vals):
            expected = {"lhs": 0.0, "rhs": 0.0, "ratio": 0.0}
        else:
            expected = {"lhs": left, "rhs": rhs, "ratio": left / rhs}
        assert {k: v.hex() for k, v in rec.items()} == {k: v.hex() for k, v in expected.items()}
