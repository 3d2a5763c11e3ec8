"""Shared numeric validators and reference implementations used by both the
module tests and the acceptance suite."""

from __future__ import annotations

import math
import operator

import numpy as np

from signopt import (ExactSign, GaussianNoise, OutOfDomain, Ridge, TncProblem, UniformNoise,
                     box_from_bounds)


def bench_ridge(cls=Ridge, seed=0, n=4000, d=8):
    """The benchmark's recipe: a Gaussian design scaled by 1/sqrt(n), box [-4, 4]."""
    rng = np.random.default_rng([seed, 7])
    design = rng.standard_normal((n, d)) / np.sqrt(n)
    targets = design @ rng.uniform(-1.5, 1.5, size=d) + 0.1 * rng.standard_normal(n)
    return cls(design, targets, box_from_bounds(-4.0, 4.0, dim=d))


def sample_interior_points(fn, rng, n, margin=0.0):
    """Uniform points in the box, optionally shrunk toward the center."""
    lo = fn.box.lo + margin * (fn.box.hi - fn.box.lo)
    hi = fn.box.hi - margin * (fn.box.hi - fn.box.lo)
    return rng.uniform(lo, hi, size=(n, fn.dim))


def check_gradient_finite_differences(fn, rng, n=1000, step=1e-6, rtol=1e-4):
    """grad_coord must match central differences of value()."""
    pts = sample_interior_points(fn, rng, n, margin=0.01)
    worst = 0.0
    for x in pts:
        j = int(rng.integers(fn.dim))
        xp, xm = x.copy(), x.copy()
        xp[j] += step
        xm[j] -= step
        approx = (fn.value(xp) - fn.value(xm)) / (2.0 * step)
        exact = fn.grad_coord(x, j)
        err = abs(approx - exact) / max(1.0, abs(exact))
        worst = max(worst, err)
    assert worst <= rtol, f"finite-difference mismatch {worst:.3e}"


def check_uc_inequality(fn, rng, n=1000, slack=1e-9):
    """f(y) >= f(x) + <grad f(x), y-x> + (uc_modulus/2) ||x-y||^k on the box."""
    xs = sample_interior_points(fn, rng, n)
    ys = sample_interior_points(fn, rng, n)
    k, lam = fn.uc_exponent, fn.uc_modulus
    for x, y in zip(xs, ys):
        lhs = fn.value(y)
        grad = np.array([fn.grad_coord(x, j) for j in range(fn.dim)])
        rhs = fn.value(x) + grad @ (y - x) + 0.5 * lam * np.linalg.norm(y - x) ** k
        assert lhs >= rhs - slack * max(1.0, abs(lhs)), \
            f"uniform convexity violated: {lhs} < {rhs}"


def check_lkss_inequality(fn, rng, n=1000, slack=1e-9):
    """(uc_modulus/2)|a*|^(k-1) <= |grad_j| <= lkss_bound |a*|^(k-1) at interior line minima."""
    pts = sample_interior_points(fn, rng, n, margin=0.01)
    k = fn.uc_exponent
    skipped = 0
    for x in pts:
        j = int(rng.integers(fn.dim))
        free = fn.directional_min(x, j, clip=False)
        clipped = fn.directional_min(x, j, clip=True)
        if free != clipped:
            skipped += 1  # boundary line minimum: the growth bound targets interior ones
            continue
        g = abs(fn.grad_coord(x, j))
        dist = abs(free) ** (k - 1.0)
        assert g <= fn.lkss_bound * dist + slack, \
            f"smoothness bound violated: |g|={g}, bound={fn.lkss_bound * dist}"
        assert g >= 0.5 * fn.uc_modulus * dist - slack, \
            f"growth bound violated: |g|={g}, bound={0.5 * fn.uc_modulus * dist}"
    assert skipped <= n // 10, f"too many clipped line minima ({skipped}) for a fair check"


class RidgeState:
    """Residual cache for least-squares coordinate gradients of a Ridge function.

    The reference for ``Ridge.grad_coord``: it evaluates A_j'(Ax - b) + x_j
    from the residual, not from Q.  Owns a mutable iterate; after each
    single-coordinate update the cached residual r = Ax - b changes by
    delta * A_j, an O(n) refresh, so ``grad_coord`` costs O(n) instead of
    O(n d).  Single-owner: never share one state across concurrent runs.
    """

    def __init__(self, fn: Ridge, x0):
        self.fn = fn
        self.x = fn.point(x0).copy()
        self.residual = fn.design @ self.x - fn.targets

    def _index(self, j: int) -> int:
        j = operator.index(j)
        if not 0 <= j < self.fn.dim:
            raise IndexError(f"coordinate index {j} out of range for dim {self.fn.dim}")
        return j

    def grad_coord(self, j: int) -> float:
        j = self._index(j)
        return float(self.fn.design[:, j] @ self.residual + self.x[j])

    def update_coord(self, j: int, new_value: float) -> None:
        j = self._index(j)
        delta = float(new_value) - self.x[j]
        self.residual += delta * self.fn.design[:, j]
        self.x[j] = float(new_value)

    def value(self) -> float:
        return float(0.5 * (self.residual @ self.residual) + 0.5 * (self.x @ self.x))


def check_ridge_residual_cache(fn: Ridge, rng, n_updates=100, rtol=1e-10):
    """The cached residual must track Ax - b through random coordinate updates."""
    state = RidgeState(fn, fn.box.center)
    for _ in range(n_updates):
        j = int(rng.integers(fn.dim))
        state.update_coord(j, float(rng.uniform(fn.box.lo[j], fn.box.hi[j])))
    fresh = fn.design @ state.x - fn.targets
    err = np.linalg.norm(state.residual - fresh) / max(1.0, np.linalg.norm(fresh))
    assert err <= rtol, f"residual drift {err:.3e}"


def check_stationary_directional_min(fn, rng, n=200, atol=1e-8):
    """The gradient along j vanishes at an interior directional minimum."""
    pts = sample_interior_points(fn, rng, n, margin=0.01)
    for x in pts:
        j = int(rng.integers(fn.dim))
        a = fn.directional_min(x, j)
        free = fn.directional_min(x, j, clip=False)
        if a != free:
            continue
        y = x.copy()
        y[j] += a
        assert abs(fn.grad_coord(y, j)) <= atol


def _adaptive_simpson(f, a: float, b: float, tol: float, max_depth: int) -> float:
    """Adaptive Simpson quadrature with absolute tolerance."""

    def simpson(x0, x2, f0, f1, f2):
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    def recurse(x0, x2, f0, f1, f2, whole, tol, depth):
        x1 = 0.5 * (x0 + x2)
        lm = 0.5 * (x0 + x1)
        rm = 0.5 * (x1 + x2)
        flm, frm = f(lm), f(rm)
        left = simpson(x0, x1, f0, flm, f1)
        right = simpson(x1, x2, f1, frm, f2)
        delta = left + right - whole
        if depth <= 0 or abs(delta) <= 15.0 * tol:
            return left + right + delta / 15.0
        return (recurse(x0, x1, f0, flm, f1, left, tol / 2.0, depth - 1)
                + recurse(x1, x2, f1, frm, f2, right, tol / 2.0, depth - 1))

    if a == b:
        return 0.0
    fa, fb = f(a), f(b)
    mid = 0.5 * (a + b)
    fm = f(mid)
    whole = simpson(a, b, fa, fm, fb)
    return recurse(a, b, fa, fm, fb, whole, tol, max_depth)


def excess_risk_quadrature(problem: TncProblem, estimate: float,
                           tol: float = 1e-10, max_depth: int = 50) -> float:
    """Numeric cross-check of ``signopt.excess_risk``: adaptive Simpson
    integration of |2 eta - 1| between the estimate and the threshold."""
    if not problem.interval.contains(estimate):
        raise OutOfDomain("estimate outside the problem interval")
    a = min(float(estimate), problem.threshold)
    b = max(float(estimate), problem.threshold)

    def gap(x: float) -> float:
        return abs(2.0 * problem.eta_at(x) - 1.0)

    return _adaptive_simpson(gap, a, b, tol, max_depth)


def _phi(t: float) -> float:
    """Standard normal CDF."""
    return 0.5 * (1.0 + math.erf(t / math.sqrt(2.0)))


def probability_positive(mode, g):
    """Analytic P(label = +1) of a sign mode at gradient ``g``.

    ``DirectBernoulli`` answers for itself, since its ``draw_many`` reads it.
    """
    g = np.asarray(g, dtype=float)
    if isinstance(mode, GaussianNoise):
        return np.vectorize(_phi)(g / mode.sigma)
    if isinstance(mode, UniformNoise):
        return np.clip(0.5 + g / (2.0 * mode.halfwidth), 0.0, 1.0)
    if isinstance(mode, ExactSign):
        return np.where(g > 0, 1.0, np.where(g < 0, 0.0, 0.5))
    return mode.probability_positive(g)


def empirical_positive_fraction(draw, n):
    """Fraction of +1 labels among n draws from a zero-argument sampler."""
    hits = sum(1 for _ in range(n) if draw() > 0)
    return hits / n


def binomial_band(n, half_width_sigmas=3.0):
    """Conservative 3-sigma band for an empirical frequency of n draws."""
    return half_width_sigmas * np.sqrt(0.25 / n)
