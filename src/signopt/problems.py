"""Synthetic threshold problems and convex test functions with analytic ground truth.

One-dimensional threshold problems expose a regression function
``eta(x) = P(label = + | x)`` that crosses 1/2 at a unique threshold and
grows away from it like ``mu * |x - t|**(k - 1)`` until it saturates at
``1/2 +- cap``.  The d-dimensional test functions (separable powers,
quadratics, ridge least squares) provide exact values, per-coordinate
gradients, directional minimizers and certified convexity constants, so
learner and optimizer errors are measurable without estimation.

Every constructor check raises ``ValueError("<parameter>: <reason>")``,
naming the parameter at fault.  Exponents are restricted to moderate
ranges (``k in [1, 8]`` for threshold problems, ``k in [2, 8]`` for test
functions): the powers ``|u|**(k - 1)`` underflow near the threshold for
much larger exponents.

Every value is finite by construction: each parameter is bounded where it
is built.  An ``Interval`` refuses an end beyond ``DOMAIN_BOUND`` = 2**64
and a ``Box`` a bound beyond a quarter of it, so each coordinate line's
step segment is such an interval.  Every scale (mu, coeffs, matrix
entries, ``bz_mu``, noise scales) lies within ``SCALE_BOUND`` = 2**64, and
a ridge's data within ``RIDGE_BOUND`` = 2**16, so A'A + I does for n < 2**32.
At worst a margin is 2**64 (2**65)**7, a risk 2**65 (2**65)**8, and, as a
box's offsets x - x* lie below 2**64, a separable power d 2**64 (2**64)**8.
"""

from __future__ import annotations

import abc
import math
import operator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

POSITIVE_RIGHT = "positive-right"
POSITIVE_LEFT = "positive-left"
ORIENTATIONS = (POSITIVE_RIGHT, POSITIVE_LEFT)

TNC_EXPONENT_RANGE = (1.0, 8.0)
UC_EXPONENT_RANGE = (2.0, 8.0)
DOMAIN_BOUND = 2.0 ** 64
SCALE_BOUND = 2.0 ** 64
RIDGE_BOUND = 2.0 ** 16


class OutOfDomain(ValueError):
    """A query point lies outside the declared domain."""


class DimensionMismatch(ValueError):
    """A point or coordinate index does not match the declared dimension."""


def _tol(lo: float, hi: float) -> float:
    return 1e-12 * max(1.0, abs(lo), abs(hi))


def orientation_sign(orientation: str) -> float:
    if orientation not in ORIENTATIONS:
        raise ValueError(f"orientation: must be one of {ORIENTATIONS}, got {orientation!r}")
    return 1.0 if orientation == POSITIVE_RIGHT else -1.0


@dataclass(frozen=True)
class Interval:
    """A nondegenerate closed interval [lo, hi] within +-``DOMAIN_BOUND``."""

    lo: float
    hi: float

    def __post_init__(self):
        for name, end in (("lo", self.lo), ("hi", self.hi)):
            if not abs(end) <= DOMAIN_BOUND:  # NaN fails too
                raise ValueError(f"{name}: must lie within +-2**64, got {end}")
        if not self.hi > self.lo:
            raise ValueError(f"hi: must exceed lo = {self.lo}, got {self.hi}")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def midpoint(self) -> float:
        return 0.5 * self.lo + 0.5 * self.hi  # at subnormal ends, not 0.5 * (lo + hi)

    def contains(self, x) -> bool:
        t = _tol(self.lo, self.hi)
        a = np.asarray(x, dtype=float)
        return bool(np.all((a >= self.lo - t) & (a <= self.hi + t)))

    def clip(self, x):
        return np.clip(x, self.lo, self.hi)


@dataclass(frozen=True)
class TncProblem:
    """A 1-D threshold-learning instance with power-law label noise.

    The regression function is

        eta(x) = 1/2 + s(x) * min(mu * |x - threshold|**(exponent - 1), cap)

    where ``s`` is +1 on the orientation's positive side of the threshold,
    -1 on the other side and 0 at the threshold itself.  The margin
    ``|eta - 1/2|`` therefore matches the power law exactly (both growth
    bounds hold with the same coefficient) until it saturates at ``cap``.
    """

    interval: Interval
    threshold: float
    exponent: float
    mu: float
    cap: float
    orientation: str = POSITIVE_RIGHT

    def __post_init__(self):
        if not self.interval.contains(self.threshold):
            raise ValueError(f"threshold: {self.threshold} outside interval "
                             f"[{self.interval.lo}, {self.interval.hi}]")
        lo_k, hi_k = TNC_EXPONENT_RANGE
        if not lo_k <= self.exponent <= hi_k:
            raise ValueError(f"exponent: must lie in [{lo_k}, {hi_k}], got {self.exponent}")
        if not 0.0 < self.mu <= SCALE_BOUND:
            raise ValueError(f"mu: must lie in (0, 2**64], got {self.mu}")
        if not 0.0 < self.cap <= 0.5:
            raise ValueError(f"cap: must lie in (0, 1/2], got {self.cap}")
        # constants of eta_at's scalar path, which runs once per label query
        t = _tol(self.interval.lo, self.interval.hi)
        self.__dict__.update(_lo=self.interval.lo, _hi=self.interval.hi,
                             _lo_tol=self.interval.lo - t, _hi_tol=self.interval.hi + t,
                             _osign=orientation_sign(self.orientation),
                             _k1=self.exponent - 1.0)

    def eta_at(self, x):
        """P(label = + | x); accepts scalars or arrays."""
        if isinstance(x, float) or np.ndim(x) == 0:
            # scalar fast path: this sits inside every sequential learner loop
            # plain comparisons give the floats of min, max and osign * sign * margin
            x = float(x)
            if not self._lo_tol <= x <= self._hi_tol:
                raise OutOfDomain(f"query outside [{self.interval.lo}, {self.interval.hi}]")
            lo, hi = self._lo, self._hi
            d = (lo if x < lo else hi if x > hi else x) - self.threshold
            if d == 0.0:
                return 0.5
            margin = self.mu * abs(d) ** self._k1
            if margin > self.cap:
                margin = self.cap
            return 0.5 + margin if (d > 0) == (self._osign > 0) else 0.5 - margin
        arr = np.asarray(x, dtype=float)
        if not self.interval.contains(arr):
            raise OutOfDomain(
                f"query outside [{self.interval.lo}, {self.interval.hi}]"
            )
        arr = self.interval.clip(arr)
        d = arr - self.threshold
        margin = np.minimum(self.mu * np.abs(d) ** (self.exponent - 1.0), self.cap)
        return 0.5 + self._osign * np.sign(d) * margin


def make_tnc_problem(interval, threshold, exponent, mu, cap,
                     orientation=POSITIVE_RIGHT) -> TncProblem:
    """Validated constructor; ``interval`` may be an Interval or a (lo, hi) pair."""
    if not isinstance(interval, Interval):
        lo, hi = interval
        interval = Interval(float(lo), float(hi))
    return TncProblem(interval, float(threshold), float(exponent), float(mu),
                      float(cap), orientation)


@dataclass(frozen=True, eq=False)
class Box:
    """Axis-aligned box within +-``DOMAIN_BOUND`` / 4, stored as per-coordinate bound arrays.

    Zero-width coordinates are permitted (the optimizer skips them) but
    every other consumer assumes hi > lo.
    """

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lo, dtype=float)).copy()
        hi = np.atleast_1d(np.asarray(self.hi, dtype=float)).copy()
        if lo.ndim != 1:
            raise DimensionMismatch(f"lo: expected a 1-d array, got shape {lo.shape}")
        if hi.shape != lo.shape:
            raise DimensionMismatch(f"hi: expected shape {lo.shape}, got {hi.shape}")
        for name, bound in (("lo", lo), ("hi", hi)):
            if not (np.abs(bound) <= DOMAIN_BOUND / 4).all():  # NaN fails too
                raise ValueError(f"{name}: must lie within +-2**62")
        if np.any(hi < lo):
            raise ValueError("hi: must be at least lo in every coordinate")
        # read-only bounds keep fresh the float lists that a Line subtracts from
        t = 1e-12 * np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))
        lo.flags.writeable = hi.flags.writeable = False
        self.__dict__.update(lo=lo, hi=hi, _shape=lo.shape,
                             _lo_list=lo.tolist(), _hi_list=hi.tolist(),
                             _lo_tol=lo - t, _hi_tol=hi + t)

    def __reduce__(self):
        # rebuild through __post_init__: unpickled arrays would be writeable
        return type(self), (self.lo, self.hi)

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)

    def contains(self, x) -> bool:
        """Whether ``x``, of shape (d,), lies in the box widened by
        1e-12 * max(1, |lo_j|, |hi_j|); NaN lies outside and -0.0 equals 0.0."""
        a = np.asarray(x, dtype=float)
        if a.shape != self._shape:
            raise DimensionMismatch(f"expected point of shape {self._shape}, got {a.shape}")
        return bool(((self._lo_tol <= a) & (a <= self._hi_tol)).all())


def box_from_bounds(lo, hi, dim: int | None = None) -> Box:
    """Build a Box, broadcasting scalar bounds to ``dim`` coordinates."""
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    if dim is not None:
        if lo.size == 1:
            lo = np.full(dim, lo[0])
        if hi.size == 1:
            hi = np.full(dim, hi[0])
    return Box(lo, hi)


class UcFunction(abc.ABC):
    """A uniformly convex test function over a box domain.

    ``uc_modulus`` (with ``uc_exponent`` k) certifies the growth bound

        f(y) >= f(x) + <grad f(x), y - x> + (uc_modulus / 2) * ||y - x||^k

    on the box, and ``lkss_bound`` certifies that the magnitude of each
    gradient coordinate is at most ``lkss_bound * |a*|**(k - 1)`` where a*
    is the step to the minimizer along that coordinate line.  Coordinate
    indices are 0-based.  A subclass sets ``x_star``, its minimizer, then
    calls ``_derive``; its private partials take the offset u = x - x_star
    of a point that a ``Line`` checked, not the point.
    """

    def __init__(self, box: Box, uc_exponent: float, uc_modulus: float,
                 lkss_bound: float):
        lo_k, hi_k = UC_EXPONENT_RANGE
        if not lo_k <= uc_exponent <= hi_k:
            raise ValueError(f"exponent: must lie in [{lo_k}, {hi_k}], got {uc_exponent}")
        if not uc_modulus > 0:
            raise ValueError(f"uc_modulus: must be positive, got {uc_modulus}")
        if not lkss_bound > uc_modulus / 2:
            raise ValueError("lkss_bound: must exceed uc_modulus / 2")
        self.box = box
        self.uc_exponent = float(uc_exponent)
        self.uc_modulus = float(uc_modulus)
        self.lkss_bound = float(lkss_bound)

    _DERIVED = ("_x_star_list",)  # what _derive makes: rebuilt on unpickling, never pickled

    def _derive(self):
        """Make the float list of x_star that each ``Line`` reads its x*_j from."""
        self._x_star_list = self.x_star.tolist()

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k not in self._DERIVED}

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._derive()

    @property
    def dim(self) -> int:
        return self.box.dim

    def point(self, x) -> np.ndarray:
        """``x`` as a float array, checked to have shape (d,) and to lie in the box."""
        a = np.asarray(x, dtype=float)
        if not self.box.contains(a):  # which checks the shape as well
            raise OutOfDomain("point outside the domain box")
        return a

    @abc.abstractmethod
    def value(self, x) -> float:
        """Exact function value."""

    @abc.abstractmethod
    def _partial(self, u, j: int) -> float:
        """The j-th partial derivative at the offset u = x - x_star."""

    @abc.abstractmethod
    def _partials(self, u, j: int, alphas) -> np.ndarray:
        """The j-th partial derivative at u + alpha * e_j for each step alpha."""

    def grad_coord(self, x, j: int) -> float:
        """Exact j-th partial derivative at x."""
        line = Line(self, x, j)
        return self._partial(line._u, line.j)

    @abc.abstractmethod
    def _directional_min_free(self, u, j: int) -> float:
        """Unconstrained minimizer step along coordinate j from the offset u."""

    def directional_min(self, x, j: int, clip: bool = True) -> float:
        """Step a* minimizing f(x + a*e_j), clipped to the box by default."""
        line = Line(self, x, j)
        a = self._directional_min_free(line._u, line.j)
        if clip:
            a = min(max(a, line.lo), line.hi)
        return float(a)


class Line:
    """The function ``fn`` along the coordinate line x + a * e_j, a in [lo, hi].

    Built, it checks the point (its shape, then the box) and the index, and
    keeps its own copy ``x`` of the point and the offset u = x - x* that the
    partials read.  Every step is checked by one rule: a NaN step, or one beyond
    the segment by more than ``_tol(lo, hi)``, leaves the domain, and one within
    that tolerance is clipped onto the segment.

    A descent run keeps one line for all its epochs: ``move`` steps its point
    along the line, clipped to the box, and ``turn`` sets it along another
    coordinate, checking only what changed, so a run checks its start once.
    Its step segment is a learner's search: it reads ``lo``, ``hi``,
    ``width`` and ``midpoint``, the last two ``Interval``'s own properties.
    """

    width = Interval.width
    midpoint = Interval.midpoint

    def __init__(self, fn: UcFunction, x, j: int):
        x = fn.point(x)
        self.fn, self.x = fn, x.copy()
        # a query moves only coordinate j of the offset, by the Python-float
        # subtraction that numpy makes elementwise: u is y - x* for the queried y
        self._u = x - fn.x_star
        self._clipped = False  # the point may lie outside the box, within its tolerance
        self._set(j)

    def _set(self, j):
        """Set the line along coordinate ``j`` of its point, checking the index."""
        j = operator.index(j)  # a float index raises TypeError; int() would truncate it
        if not 0 <= j < len(self.x):
            raise IndexError(f"coordinate index {j} out of range for dim {len(self.x)}")
        self.j = j
        self._xj = xj = self.x.item(j)
        self._sj = self.fn._x_star_list[j]
        # the bounds as floats: the same IEEE subtraction as on the bound arrays
        self._blo, self._bhi = blo, bhi = self.fn.box._lo_list[j], self.fn.box._hi_list[j]
        self.lo, self.hi = lo, hi = blo - xj, bhi - xj
        pad = _tol(lo, hi)
        self._lo_pad, self._hi_pad = lo - pad, hi + pad

    def move(self, a: float) -> None:
        """Move the point to x + a * e_j, clipped onto the box as ``np.clip`` clips.

        A value at or beyond a bound takes the bound's bits, and NaN stays.  The
        first move clips the whole point, which then lies in the box, so later
        moves clamp only coordinate j.  Turn the line before querying it again.
        """
        v = self._xj + a
        v = self._blo if v <= self._blo else v
        self._xj = v = self._bhi if v >= self._bhi else v
        self.x[self.j] = v
        if not self._clipped:
            np.clip(self.x, self.fn.box.lo, self.fn.box.hi, out=self.x)
            np.subtract(self.x, self.fn.x_star, out=self._u)
            self._clipped = True

    def turn(self, j: int) -> None:
        """Set the line along coordinate ``j`` of its point.

        Only what changed is checked: the index, and the coordinate moved
        last, which lies on the box unless it is NaN.
        """
        if self._xj != self._xj:
            raise OutOfDomain("point outside the domain box")
        self._u[self.j] = self._xj - self._sj  # the offset at step 0, after any query
        self._set(j)

    def partial(self, a: float) -> float:
        """The partial at x + a * e_j, its coordinate j clamped onto the box."""
        if not self._lo_pad <= a <= self._hi_pad:  # NaN fails too
            raise OutOfDomain("step leaves the domain box")
        v = self._xj + a
        v = self._blo if v < self._blo else self._bhi if v > self._bhi else v
        self._u[self.j] = v - self._sj
        return self.fn._partial(self._u, self.j)

    def partials(self, alphas) -> np.ndarray:
        """The partials at x + a * e_j for each step a, clipped onto the segment."""
        alphas = np.asarray(alphas, dtype=float)
        if alphas.size:
            # argmin and argmax return the first NaN, which fails both comparisons;
            # they find the extremes faster than np.minimum.reduce and maximum.reduce
            amin = alphas.item(alphas.argmin())
            amax = alphas.item(alphas.argmax())
            if not (amin >= self._lo_pad and amax <= self._hi_pad):
                raise OutOfDomain("step leaves the domain box")
            if amin < self.lo or amax > self.hi:  # a step in the pad
                alphas = alphas.clip(self.lo, self.hi)
        self._u[self.j] = self._xj - self._sj  # the offset at step 0, after any partial
        return self.fn._partials(self._u, self.j, alphas)


class SeparablePower(UcFunction):
    """f(x) = sum_j coeffs[j] * |x_j - x_star[j]|**k with k in [2, 8]."""

    def __init__(self, coeffs, x_star, box: Box, exponent: float = 2.0):
        coeffs = np.atleast_1d(np.asarray(coeffs, dtype=float))
        x_star = np.atleast_1d(np.asarray(x_star, dtype=float))
        for name, v in (("coeffs", coeffs), ("x_star", x_star)):
            if v.shape != (box.dim,):
                raise DimensionMismatch(f"{name}: expected shape ({box.dim},), got {v.shape}")
        if not ((coeffs > 0) & (coeffs <= SCALE_BOUND)).all():  # NaN fails too
            raise ValueError("coeffs: must lie in (0, 2**64]")
        if not box.contains(x_star):
            raise ValueError("x_star: must lie inside the domain box")
        k = float(exponent)
        d = box.dim
        # Conservative certified constants: per-coordinate growth of |u|^k
        # contributes at least 2^(1-k) |du|^k, and ||.||_k^k >= d^(1-k/2) ||.||_2^k.
        uc_modulus = float(np.min(coeffs)) * 2.0 ** (2.0 - k) * d ** (1.0 - k / 2.0)
        lkss_bound = k * float(np.max(coeffs))
        super().__init__(box, k, uc_modulus, lkss_bound)
        self.coeffs = coeffs
        self.x_star = x_star
        self.f_min = 0.0
        self._derive()

    def value(self, x) -> float:
        u = self.point(x) - self.x_star
        return float(np.sum(self.coeffs * np.abs(u) ** self.uc_exponent))

    def _partial(self, u, j: int) -> float:
        v = u.item(j)
        if v == 0.0:
            return 0.0
        k = self.uc_exponent
        return self.coeffs.item(j) * k * abs(v) ** (k - 1.0) * math.copysign(1.0, v)

    def _partials(self, u, j: int, alphas) -> np.ndarray:
        v = u[j] + alphas
        k = self.uc_exponent
        return self.coeffs[j] * k * np.abs(v) ** (k - 1.0) * np.sign(v)

    def _directional_min_free(self, u, j: int) -> float:
        return 0.0 - u.item(j)  # x*_j - x_j, but a zero step is +0.0


class Quadratic(UcFunction):
    """f(x) = (x - x_star)' A (x - x_star) / 2 for symmetric positive definite A."""

    def __init__(self, matrix, x_star, box: Box):
        A = np.asarray(matrix, dtype=float)
        x_star = np.atleast_1d(np.asarray(x_star, dtype=float))
        for name, v, shape in (("matrix", A, (box.dim, box.dim)),
                               ("x_star", x_star, (box.dim,))):
            if v.shape != shape:
                raise DimensionMismatch(f"{name}: expected shape {shape}, got {v.shape}")
        if not (np.abs(A) <= SCALE_BOUND).all():  # NaN fails too
            raise ValueError("matrix: entries must lie within +-2**64")
        if not np.allclose(A, A.T, rtol=1e-10, atol=1e-12):
            raise ValueError("matrix: must be symmetric")
        eigs = np.linalg.eigvalsh(A)
        if eigs[0] <= 0:
            raise ValueError(f"matrix: must be positive definite, min eigenvalue {eigs[0]}")
        if not box.contains(x_star):
            raise ValueError("x_star: must lie inside the domain box")
        super().__init__(box, 2.0, float(eigs[0]), float(np.max(np.diag(A))))
        self.matrix = A
        self.x_star = x_star
        self.f_min = 0.0
        self._derive()

    _DERIVED = UcFunction._DERIVED + ("_rows",)

    def _derive(self):
        super()._derive()
        self._rows = list(self.matrix)  # the partials' row views

    def value(self, x) -> float:
        u = self.point(x) - self.x_star
        return float(0.5 * u @ self.matrix @ u)

    def _partial(self, u, j: int) -> float:
        # for two vectors ndarray.dot is matmul's kernel without its dispatch; each
        # partial adds 0.0 to make a -0.0 (d = 1) the 0.0 that matmul's sum gives
        return float(self._rows[j].dot(u)) + 0.0

    def _partials(self, u, j: int, alphas) -> np.ndarray:
        row = self._rows[j]
        g = alphas * row[j]
        g += float(row.dot(u)) + 0.0  # float addition commutes: g0 + Q_jj * alpha, in place
        return g

    def _directional_min_free(self, u, j: int) -> float:
        return -self._partial(u, j) / float(self._rows[j][j])


class Ridge(Quadratic):
    """f(x) = ||A x - b||^2 / 2 + ||x||^2 / 2 for an n x d design matrix A.

    This is the quadratic (x - x*)' Q (x - x*) / 2 + f_min with Q = A'A + I.
    The global minimizer solves Q x = A'b; it is computed once at
    construction by a direct solve and checked to residual 1e-10.  A partial
    comes from Q in O(d); it equals the least-squares form A_j'(Ax - b) + x_j
    up to roundoff, so a sign can differ only where the partial is itself at
    roundoff scale.  ``value`` and ``f_min`` keep the least-squares form.
    """

    def __init__(self, design, targets, box: Box):
        A = np.asarray(design, dtype=float)
        b = np.atleast_1d(np.asarray(targets, dtype=float))
        if A.ndim != 2:
            raise DimensionMismatch(f"design: expected an (n, d) matrix, got shape {A.shape}")
        if b.shape[0] != A.shape[0]:
            raise DimensionMismatch(f"targets: expected shape ({A.shape[0]},), got {b.shape}")
        for name, v in (("design", A), ("targets", b)):
            if not (np.abs(v) <= RIDGE_BOUND).all():  # NaN fails too
                raise ValueError(f"{name}: entries must lie within +-2**16")
        d = A.shape[1]
        Q = A.T @ A + np.eye(d)
        rhs = A.T @ b
        x_star = np.linalg.solve(Q, rhs)
        resid = np.linalg.norm(Q @ x_star - rhs)
        if not resid <= 1e-10 * max(1.0, np.linalg.norm(rhs)):  # NaN fails too
            raise ValueError(f"design: minimizer solve residual {resid:.3e} exceeds tolerance")
        if box.dim != d:
            raise DimensionMismatch(f"box: expected dimension {d}, got {box.dim}")
        if not box.contains(x_star):
            bound = "box_lo" if np.any(x_star < box.lo) else "box_hi"
            raise ValueError(f"{bound}: the global minimizer must lie inside the domain box")
        super().__init__(Q, x_star, box)
        self.design = A
        self.targets = b
        self.f_min = self.value(x_star)

    def value(self, x) -> float:
        x = self.point(x)
        r = self.design @ x
        r -= self.targets
        return float(0.5 * (r @ r) + 0.5 * (x @ x))


def load_ridge_text(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a ridge design from plain text.

    Format: first line ``n d``, then n rows of d whitespace-separated
    decimals (the design matrix), then one row of n decimals (the targets).
    """
    tokens = Path(path).read_text().split()
    if len(tokens) < 2:
        raise ValueError(f"{path}: expected a header line 'n d'")
    n, d = int(tokens[0]), int(tokens[1])
    need = 2 + n * d + n
    if len(tokens) != need:
        raise ValueError(f"{path}: expected {need} numbers for n={n}, d={d}, "
                         f"found {len(tokens)}")
    values = np.asarray([float(t) for t in tokens[2:]], dtype=float)
    A = values[: n * d].reshape(n, d)
    b = values[n * d:]
    return A, b
