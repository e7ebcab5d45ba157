import math

import numpy as np
import pytest

from inadmm import (
    InertialParams,
    InfeasibleParameters,
    constant_schedule,
    default_params,
    delta_lower_bound,
    delta_roots,
    max_relaxation,
    ramp_schedule,
    validate,
)
from inadmm.params import constant_params


def test_delta_lower_bound_values():
    assert delta_lower_bound(0.0, 0.01) == 0.0
    # (0.01 * 1.1 + 0.1 * 0.01) / 0.99
    assert delta_lower_bound(0.1, 0.01) == pytest.approx(0.012 / 0.99)
    with pytest.raises(ValueError):
        delta_lower_bound(1.0, 0.01)
    with pytest.raises(ValueError):
        delta_lower_bound(0.5, 0.0)


def test_max_relaxation_pinned_value():
    # alpha=0.1, sigma=0.01, delta=1: bracket = 0.11 + 0.1 + 0.01 = 0.22
    # 2 (1 - 0.1*0.22) / (1 * 1.22) = 2 * 0.978 / 1.22
    got = max_relaxation(0.1, 0.01, 1.0)
    assert got == pytest.approx(2.0 * 0.978 / 1.22, abs=1e-15)


def test_max_relaxation_alpha_zero_approaches_two():
    # alpha = 0: bound is 2 delta / (delta (1 + sigma)) = 2 / (1 + sigma)
    assert max_relaxation(0.0, 0.01, 1.0) == pytest.approx(2.0 / 1.01)


def test_max_relaxation_infeasible():
    with pytest.raises(InfeasibleParameters):
        max_relaxation(0.5, 0.01, 0.1)


def test_max_relaxation_in_open_zero_two(rng):
    count = 0
    while count < 10000:
        alpha = rng.uniform(0.0, 0.99)
        sigma = rng.uniform(1e-4, 0.5)
        lb = delta_lower_bound(alpha, sigma)
        delta = (lb + rng.uniform(1e-6, 3.0)) * rng.uniform(1.0, 3.0)
        lam = max_relaxation(alpha, sigma, delta)
        assert 0.0 < lam < 2.0
        count += 1


def test_infeasible_rejected(rng):
    count = 0
    while count < 1000:
        alpha = rng.uniform(0.01, 0.99)
        sigma = rng.uniform(1e-4, 0.5)
        lb = delta_lower_bound(alpha, sigma)
        delta = lb * rng.uniform(0.0, 1.0)
        with pytest.raises(InfeasibleParameters):
            max_relaxation(alpha, sigma, delta)
        count += 1


def test_delta_roots_round_trip(rng):
    hits = 0
    while hits < 200:
        alpha = rng.uniform(0.01, 0.6)
        sigma = rng.uniform(1e-3, 0.2)
        target = rng.uniform(0.05, 0.95)
        try:
            d1, d2 = delta_roots(target, alpha, sigma)
        except InfeasibleParameters:
            continue
        assert 0.0 < d1 <= d2
        for d in (d1, d2):
            # round trip: at a root the relaxation cap is exactly 2 * target
            assert max_relaxation(alpha, sigma, d) == pytest.approx(
                2.0 * target, abs=1e-12, rel=1e-12)
        hits += 1


def test_delta_roots_quadratic_identity(rng):
    # d1, d2 solve: target * alpha * d^2 - b d + alpha (alpha(1+alpha)+sigma) = 0
    # with b = 1 - alpha^2 - target (1 + alpha(1+alpha) + sigma)
    hits = 0
    while hits < 500:
        alpha = rng.uniform(0.01, 0.6)
        sigma = rng.uniform(1e-3, 0.2)
        target = rng.uniform(0.05, 0.95)
        try:
            d1, d2 = delta_roots(target, alpha, sigma)
        except InfeasibleParameters:
            continue
        base = alpha * (1.0 + alpha) + sigma
        b = 1.0 - alpha**2 - target * (1.0 + base)
        for d in (d1, d2):
            resid = target * alpha * d * d - b * d + alpha * base
            scale = max(1.0, abs(target * alpha * d * d), abs(b * d))
            assert abs(resid) <= 1e-12 * scale
        hits += 1


def test_delta_roots_infeasible_raises():
    with pytest.raises(InfeasibleParameters):
        delta_roots(0.99, 0.9, 0.5)


def test_default_params_valid():
    for alpha in (0.0, 0.05, 0.2, 0.5, 0.9):
        p = default_params(alpha)
        assert validate(p).ok
        lam = p.lambda_schedule(10)
        assert 0.0 < lam < p.max_relaxation()
    # at alpha = 0 with sigma > 1, constant_params' default lambda of 1.0
    # exceeds lambda_max = 2 / (1 + sigma); the preset asks for 0.9 lambda_max
    p = default_params(0.0, sigma=3.0)
    assert p.lambda_schedule.value == 0.9 * max_relaxation(0.0, 3.0, 1.0)
    assert validate(p).ok


@pytest.mark.parametrize("args, key, message", [
    ((0.0, 0.2, 0.01), "gamma", "gamma must be positive and finite, got 0.0"),
    ((math.inf, 0.2, 0.01), "gamma", "gamma must be positive and finite"),
    ((1.0, 1.0, 0.01), "alpha", "alpha must lie in [0,1)"),
    ((1.0, -0.1, 0.01), "alpha", "alpha must lie in [0,1)"),
    ((1.0, math.nan, 0.01), "alpha", "alpha must lie in [0,1)"),
    ((1.0, 0.2, 0.0), "sigma", "sigma must be positive"),
    ((1.0, 0.9, 1e308), "sigma",
     "sigma too large: the delta lower bound overflows"),
    ((1.0, 0.2, 0.01, 0.05), "delta", "delta must exceed its lower bound 0.0520833"),
    ((1.0, 0.0, 0.01, 0.0), "delta", "delta must exceed its lower bound 0"),
    ((1.0, 0.2, 0.01, math.nan), "delta", "delta must exceed its lower bound"),
    ((1.0, 0.5, 1e308), "delta",
     "alpha, sigma and delta leave no admissible lambda (lambda_max = 0)"),
    ((1.0, 0.0, 0.01, 1e308), "delta",
     "alpha, sigma and delta leave no admissible lambda (lambda_max = inf)"),
    ((1.0, 0.2, 0.01, None, 0.6), "lambda", "lambda must lie in (0, 0.505679]"),
    ((1.0, 0.2, 0.01, None, 0.0), "lambda", "lambda must lie in (0, 0.505679]"),
    ((1.0, 0.0, 3.0), "lambda", "lambda must lie in (0, 0.5]"),
])
def test_constant_params_names_the_input_at_fault(args, key, message):
    with pytest.raises(InfeasibleParameters) as info:
        constant_params(*args)
    assert info.value.key == key
    assert str(info.value).startswith(message)


def test_constant_params_accepts_the_region_boundary():
    lam_max = max_relaxation(0.2, 0.01, 0.625)
    p = constant_params(1.0, 0.2, 0.01, 0.625, lam_max)
    assert p.lambda_schedule.value == lam_max and validate(p).ok
    assert constant_params(1.0, 0.0, 1.0).lambda_schedule.value == 1.0


def test_schedules():
    s = constant_schedule(0.3)
    assert s(1) == s(500) == 0.3
    r = ramp_schedule(0.3, start=0.0, over=4)
    assert r(1) == 0.0
    assert r(4) == 0.3
    assert r(100) == 0.3
    assert 0.0 < r(2) < r(3) < 0.3


def test_init_mode_overrides():
    p = default_params(0.3)
    assert p.alpha_at(1) == 0.0 and p.lambda_at(1) == 0.0
    assert p.alpha_at(2) == 0.3
    q = InertialParams(
        gamma=1.0, alpha=0.3, sigma=0.01, delta=1.0,
        lambda_lo=1e-6,
        alpha_schedule=constant_schedule(0.3),
        lambda_schedule=constant_schedule(1.0),
        init_mode="alpha2_zero",
    )
    assert q.alpha_at(1) == q.alpha_at(2) == 0.0
    assert q.alpha_at(3) == 0.3
    assert q.lambda_at(1) == 1.0


def test_validate_flags_violations():
    # lambda above the cap
    p = InertialParams(
        gamma=1.0, alpha=0.1, sigma=0.01, delta=1.0, lambda_lo=1e-6,
        alpha_schedule=constant_schedule(0.1),
        lambda_schedule=constant_schedule(1.99),
        init_mode="raw",
    )
    rep = validate(p)
    assert not rep.ok
    assert any("lambda_k" in cond for cond, _ in rep.violations)

    # decreasing alpha schedule
    q = InertialParams(
        gamma=1.0, alpha=0.1, sigma=0.01, delta=1.0, lambda_lo=1e-6,
        alpha_schedule=ramp_schedule(0.0, start=0.1, over=5),
        lambda_schedule=constant_schedule(1.0),
        init_mode="raw",
    )
    rep = validate(q)
    assert not rep.ok
    assert any("nondecreasing" in cond for cond, _ in rep.violations)

    # missing start-up condition: alpha_2 > 0 without a zeroed first step
    r = InertialParams(
        gamma=1.0, alpha=0.1, sigma=0.01, delta=1.0, lambda_lo=1e-6,
        alpha_schedule=constant_schedule(0.1),
        lambda_schedule=constant_schedule(1.0),
        init_mode="raw",
    )
    rep = validate(r)
    assert not rep.ok
    assert any("alpha_2" in cond for cond, _ in rep.violations)

    # delta below its bound
    s = InertialParams(
        gamma=1.0, alpha=0.5, sigma=0.01, delta=0.1, lambda_lo=1e-6,
        alpha_schedule=constant_schedule(0.5),
        lambda_schedule=constant_schedule(0.5),
        init_mode="lambda1_alpha1_zero",
    )
    rep = validate(s)
    assert not rep.ok
    assert any("lower bound" in cond for cond, _ in rep.violations)


def test_constructor_guards():
    with pytest.raises(ValueError):
        default_params(-0.1)
    with pytest.raises(ValueError):
        default_params(1.0)
    with pytest.raises(ValueError):
        InertialParams(
            gamma=0.0, alpha=0.1, sigma=0.01, delta=1.0, lambda_lo=1e-6,
            alpha_schedule=constant_schedule(0.1),
            lambda_schedule=constant_schedule(1.0),
        )


def _full_walk(p, horizon):
    """The schedule conditions of ``validate``, walked over every k."""
    violations = []
    lam_max = max_relaxation(p.alpha, p.sigma, p.delta)
    prev_alpha = None
    for k in range(1, horizon + 1):
        a_k, l_k = p.alpha_at(k), p.lambda_at(k)
        if not 0.0 <= a_k <= p.alpha:
            violations.append(("alpha_k must lie in [0, alpha]", k))
            break
        if prev_alpha is not None and a_k < prev_alpha:
            violations.append(("alpha schedule must be nondecreasing", k))
            break
        prev_alpha = a_k
        if k >= 2 and not (p.lambda_lo <= l_k <= lam_max):
            violations.append(
                ("lambda_k must lie in [%g, %g]" % (p.lambda_lo, lam_max), k))
            break
        if k == 1 and l_k != 0.0 and not (p.lambda_lo <= l_k <= lam_max):
            violations.append(
                ("lambda_1 must be 0 or lie in the admissible interval", k))
    if p.alpha_at(2) != 0.0 and not (p.lambda_at(1) == 0.0 and p.alpha_at(1) == 0.0):
        violations.append(
            ("either alpha_2 = 0 or lambda_1 = alpha_1 = 0 is required", None))
    return violations


RAMP_OVERS = (1, 2, 3, 10, 999, 1000, 1001, 5000)


def _params_grid():
    alpha, sigma = 0.3, 0.01
    delta = 1.5 * delta_lower_bound(alpha, sigma)
    lam = 0.9 * max_relaxation(alpha, sigma, delta)
    for r_a in RAMP_OVERS:
        for r_l in (r_a, 1, 5000):
            alphas = (constant_schedule(alpha),
                      ramp_schedule(alpha, 0.0, r_a),
                      ramp_schedule(0.0, alpha, r_a),  # decreasing
                      ramp_schedule(0.5, 0.1, r_a))  # leaves [0, alpha]
            lambdas = (constant_schedule(lam),
                       constant_schedule(1.99),  # above lambda_max
                       ramp_schedule(lam, 0.5, r_l),
                       ramp_schedule(1.99, 0.5, r_l),  # leaves the interval late
                       ramp_schedule(lam, -0.5, r_l))  # starts below lambda_lo
            for a_s in alphas:
                for l_s in lambdas:
                    for mode in ("lambda1_alpha1_zero", "alpha2_zero", "raw"):
                        yield InertialParams(1.0, alpha, sigma, delta, 1e-6,
                                             a_s, l_s, mode)


def test_validate_stops_early_with_the_full_walk_result():
    for p in _params_grid():
        for horizon in (1, 2, 3, 1000):
            got = validate(p, horizon).violations
            assert got == _full_walk(p, horizon), (p, horizon)


def test_validate_walks_other_schedules_in_full():
    p = default_params(0.2)
    late = InertialParams(p.gamma, p.alpha, p.sigma, p.delta, p.lambda_lo,
                          lambda k: 0.2 if k < 900 else 0.5, p.lambda_schedule)
    assert validate(late).violations == [("alpha_k must lie in [0, alpha]", 900)]
