import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signopt import (OutOfDomain, Quadratic, SeparablePower, UniformNoise,
                     box_from_bounds, error_record, excess_risk, fit_rate_slope,
                     make_tnc_problem)

from _checks import excess_risk_quadrature, probability_positive


def _problem(**kw):
    args = dict(threshold=0.5, exponent=2.0, mu=1.0, cap=0.4)
    args.update(kw)
    return make_tnc_problem((0.0, 1.0), args["threshold"], args["exponent"],
                            args["mu"], args["cap"])


# ---------------------------------------------------------------------------
# excess risk

def test_excess_risk_power_region():
    assert excess_risk(_problem(), 0.6) == pytest.approx(0.01)


def test_excess_risk_zero_at_threshold():
    assert excess_risk(_problem(), 0.5) == 0.0


def test_excess_risk_with_clamped_stretch():
    # power part up to the saturation point plus 2*cap times the remainder
    assert excess_risk(_problem(), 0.99) == pytest.approx(0.232)
    assert excess_risk_quadrature(_problem(), 0.99) == pytest.approx(0.232, abs=1e-8)


def test_excess_risk_bounded_noise_case():
    p = _problem(exponent=1.0, mu=0.3, cap=0.3)
    assert excess_risk(p, 0.7) == pytest.approx(2 * 0.3 * 0.2)


def test_excess_risk_takes_the_branch_of_eta_ats_margin():
    # k near 1: the saturation distance (cap / mu) ** (1 / (k - 1)) = 4 ** 1000
    # is beyond the float range, but the margin mu d ** (k - 1) never reaches cap
    p = _problem(exponent=1.001, mu=0.1, cap=0.4)
    for estimate in (0.0, 0.3, 0.5 + 1e-9, 1.0):
        closed = excess_risk(p, estimate)
        assert closed == (2.0 * 0.1 / 1.001) * abs(estimate - 0.5) ** 1.001
        assert closed == pytest.approx(excess_risk_quadrature(p, estimate), abs=1e-8)
    # on the widest interval: the margin never saturates, and the risk is 1e8
    wide = make_tnc_problem((-2.0 ** 64, 2.0 ** 64), 0.0, 2.0, 1e-30, 0.4)
    assert excess_risk(wide, 1e19) == pytest.approx(1e8, rel=1e-12)
    # the saturation distance is 5e17:
    # (2 mu / k) * 5e17 ** 2 + 2 cap (1e19 - 5e17) = 2.5e17 + 9.5e18
    saturating = make_tnc_problem((-2.0 ** 64, 2.0 ** 64), 0.0, 2.0, 1e-18, 0.5)
    assert excess_risk(saturating, -1e19) == pytest.approx(9.75e18, rel=1e-12)



def test_excess_risk_rejects_outside_estimate():
    with pytest.raises(OutOfDomain):
        excess_risk(_problem(), 1.2)


def test_closed_form_agrees_with_quadrature_on_random_instances():
    rng = np.random.default_rng(31)
    for _ in range(1000):
        k = float(rng.uniform(1.0, 4.0))
        mu = float(rng.uniform(0.2, 3.0))
        cap = float(rng.uniform(0.05, 0.5))
        t = float(rng.uniform(0.05, 0.95))
        p = _problem(threshold=t, exponent=k, mu=mu, cap=cap)
        estimate = float(rng.uniform(0.0, 1.0))
        closed = excess_risk(p, estimate)
        quad = excess_risk_quadrature(p, estimate)
        assert abs(closed - quad) <= 1e-8, (k, mu, cap, t, estimate)


def test_risk_equals_scaled_function_error_under_uniform_noise():
    # For f(x) = c|x - m|^k with uniform(-h, h) sign noise and |grad| <= h,
    # the induced regression function is the unclamped power family with
    # mu' = c k / (2 h), so risk(est) = (f(est) - f(m)) / h exactly.
    rng = np.random.default_rng(32)
    c, k, m, h = 0.7, 3.0, 0.2, 6.0
    box = box_from_bounds(-1.0, 1.0, dim=1)
    fn = SeparablePower([c], [m], box, exponent=k)
    noise = UniformNoise(h)
    assert max(abs(fn.grad_coord(np.array([-1.0]), 0)),
               abs(fn.grad_coord(np.array([1.0]), 0))) <= h
    induced = make_tnc_problem((-1.0, 1.0), m, k, c * k / (2.0 * h), 0.5)
    for _ in range(100):
        est = float(rng.uniform(-1.0, 1.0))
        f_err = fn.value(np.array([est])) - fn.f_min
        assert excess_risk(induced, est) == pytest.approx(f_err / h, rel=1e-10)
        g = fn.grad_coord(np.array([est]), 0)
        assert float(np.asarray(probability_positive(noise, g))) == \
            pytest.approx(induced.eta_at(est), abs=1e-12)


# ---------------------------------------------------------------------------
# error records

def test_error_record_threshold_exact_hit():
    rec = error_record(_problem(), 0.5)
    assert rec.point_error == 0.0 and rec.excess_risk == 0.0 and rec.f_error is None


def test_error_record_quadratic():
    fn = Quadratic(np.eye(2), [0.0, 0.0], box_from_bounds(-1.0, 1.0, dim=2))
    rec = error_record(fn, [0.1, 0.0])
    assert rec.point_error == pytest.approx(0.1)
    assert rec.f_error == pytest.approx(0.005)
    assert rec.excess_risk is None


def test_error_record_separable_cubic():
    fn = SeparablePower([1.0], [0.0], box_from_bounds(-1.0, 1.0, dim=1), exponent=3.0)
    rec = error_record(fn, [0.1])
    assert rec.f_error == pytest.approx(1e-3)


def test_error_record_reports_the_true_gap():
    fn = Quadratic(np.eye(1), [0.0], box_from_bounds(-1.0, 1.0, dim=1))
    assert error_record(fn, [1e-7]).f_error == pytest.approx(5e-15, rel=1e-9)
    assert error_record(fn, [0.0]).f_error == 0.0
    fn.f_min = 1e-3  # a value below the stated minimum is never a negative gap
    assert error_record(fn, [1e-7]).f_error == 0.0


def test_error_record_rejects_unknown_targets():
    with pytest.raises(TypeError):
        error_record("not a problem", 0.5)


# ---------------------------------------------------------------------------
# slope fits

def test_fit_exact_log_log_line():
    fit = fit_rate_slope([(10, 1.0), (100, 0.1), (1000, 0.01)])
    assert fit.slope == pytest.approx(-1.0, abs=1e-12)
    assert fit.max_residual == pytest.approx(0.0, abs=1e-12)


def test_fit_flat_line():
    assert fit_rate_slope([(10, 1.0), (100, 1.0)]).slope == pytest.approx(0.0)


def test_fit_requires_two_points():
    with pytest.raises(ValueError, match="^need at least 2 points, have 1$"):
        fit_rate_slope([(10, 1.0)])
    with pytest.raises(ValueError, match="^error: must be positive and finite, got 0.0 at"):
        fit_rate_slope([(10, 0.0), (100, 0.0), (1000, 1.0)])


def test_fit_refuses_rather_than_drops_a_zero_error():
    # choosing the points is slope_report's: the fit takes every point it is given
    with pytest.raises(ValueError, match="^error: must be positive and finite, got 0.0 at "
                                         "budget 1000$"):
        fit_rate_slope([(10, 1.0), (100, 0.1), (1000, 0.0)])


@pytest.mark.parametrize("error", [-0.1, math.nan, math.inf])
def test_fit_refuses_an_error_that_is_not_positive_and_finite(error):
    with pytest.raises(ValueError, match="^error: must be positive and finite"):
        fit_rate_slope([(10, 1.0), (100, error)])


def test_fit_refuses_rather_than_truncates_a_non_integer_budget():
    with pytest.raises(ValueError, match="^budget: must be an integer, got 10.9$"):
        fit_rate_slope([(10.9, 1.0), (100.7, 0.1)])
    with pytest.raises(ValueError, match="^budget: must be an integer, got 100.0$"):
        fit_rate_slope([(10, 1.0), (100.0, 0.1)])


def test_fit_rejects_tiny_budgets():
    with pytest.raises(ValueError, match="^budget: must be at least 2, got 1$"):
        fit_rate_slope([(1, 1.0), (100, 0.1)])


@settings(max_examples=50, deadline=None)
@given(scale=st.floats(min_value=1e-6, max_value=1e6),
       slope=st.floats(min_value=-3.0, max_value=0.0))
def test_fit_slope_invariant_to_error_scaling(scale, slope):
    base = [(2 ** e, float(np.exp(slope * np.log(2 ** e)))) for e in range(3, 10)]
    scaled = [(t, scale * v) for t, v in base]
    f0 = fit_rate_slope(base)
    f1 = fit_rate_slope(scaled)
    assert f1.slope == pytest.approx(f0.slope, abs=1e-9)
    assert f1.intercept == pytest.approx(f0.intercept + np.log(scale), abs=1e-6)

