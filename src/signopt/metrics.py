"""Ground-truth error functionals and log-log rate-slope estimation.

``excess_risk`` integrates |2 eta - 1| between the estimate and the true
threshold in closed form (the regression family is piecewise a power law).
``fit_rate_slope`` regresses log error on log budget to estimate empirical
convergence rates, over exactly the points it is given.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .learners import as_count
from .problems import OutOfDomain, TncProblem, UcFunction

@dataclass
class ErrorRecord:
    """Errors of one run outcome against ground truth."""

    point_error: float
    excess_risk: float | None = None
    f_error: float | None = None


def excess_risk(problem: TncProblem, estimate: float) -> float:
    """Risk gap of the threshold classifier at ``estimate`` versus the true one.

    Equals the integral of |2 eta - 1| between the estimate and the
    threshold.  On the power-law region that is (2 mu / k) |d|^k; once the
    margin saturates the remaining stretch contributes 2 cap per unit
    length.  The branch is ``eta_at``'s own: the power law holds up to d
    iff mu d^(k - 1) <= cap, so the saturation distance is taken only
    where it lies below d.
    """
    if not problem.interval.contains(estimate):
        raise OutOfDomain("estimate outside the problem interval")
    d = abs(float(estimate) - problem.threshold)
    k, mu, cap = problem.exponent, problem.mu, problem.cap
    if d == 0.0:
        return 0.0
    if k == 1.0:
        return 2.0 * min(mu, cap) * d
    if mu * d ** (k - 1.0) <= cap:
        return (2.0 * mu / k) * d ** k
    clamp_dist = (cap / mu) ** (1.0 / (k - 1.0))
    return (2.0 * mu / k) * clamp_dist ** k + 2.0 * cap * (d - clamp_dist)


def error_record(target, estimate) -> ErrorRecord:
    """Fill point error plus risk (1-D problems) or function error (test functions)."""
    if isinstance(target, TncProblem):
        est = float(estimate)
        return ErrorRecord(point_error=abs(est - target.threshold),
                           excess_risk=excess_risk(target, est))
    if isinstance(target, UcFunction):
        est = np.asarray(estimate, dtype=float)
        gap = target.value(est) - target.f_min  # checks the point
        return ErrorRecord(point_error=float(np.linalg.norm(est - target.x_star)),
                           f_error=0.0 if gap <= 0.0 else float(gap))
    raise TypeError(f"cannot compute errors for {type(target).__name__}")


@dataclass
class RateFit:
    """OLS fit of log error against log budget."""

    slope: float
    intercept: float
    max_residual: float


def fit_rate_slope(points) -> RateFit:
    """Fit ln(error) = intercept + slope * ln(budget) by ordinary least squares.

    Every point enters the fit.  A budget that is not an integer of at least
    2, an error that is not positive and finite, or fewer than two points
    raise ValueError; which points to fit is the caller's choice.
    """
    points = [(as_count("budget", t), float(e)) for t, e in points]
    if len(points) < 2:
        raise ValueError(f"need at least 2 points, have {len(points)}")
    for t, e in points:
        if t < 2:
            raise ValueError(f"budget: must be at least 2, got {t}")
        if not 0.0 < e < np.inf:
            raise ValueError(f"error: must be positive and finite, got {e} at budget {t}")
    log_t = np.log([t for t, _ in points])
    log_e = np.log([e for _, e in points])
    slope, intercept = np.polyfit(log_t, log_e, 1)
    resid = np.max(np.abs(log_e - (intercept + slope * log_t)))
    return RateFit(slope=float(slope), intercept=float(intercept),
                   max_residual=float(resid))
