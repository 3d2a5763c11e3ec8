"""Stochastic label and gradient-sign oracles with seeded streams and budgets.

All randomness flows through counter-based Philox generators keyed by tuples
of integers, so distinct replications and distinct roles inside one run draw
from independent streams and every run is replayable bit for bit.  Oracles
count every query and enforce an optional hard budget; batch queries charge
all-or-nothing.  No oracle checks a query, it only charges and draws: the
problem checks each label query's point, and the ``Line`` that a sign query
names checked its point and index once and checks every step.

Each oracle draws from the numpy ``Generator`` it is given and owns a
counter, so it belongs to one run at a time; the problem or function it
references is immutable and freely shared.  Labels are the integers +1
and -1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problems import SCALE_BOUND, Line, TncProblem, UcFunction

LABEL_POSITIVE = 1
LABEL_NEGATIVE = -1
_LABEL_OF = np.array([LABEL_NEGATIVE, LABEL_POSITIVE], dtype=np.intp)  # indexed by a bool

# Stream roles: keep these distinct so label noise, sample placement and
# coordinate choices never share a generator.
ROLE_LABELS = 0
ROLE_SAMPLING = 1
ROLE_COORDS = 2

# LabelOracle draws its uniforms this many at a time
DRAW_CHUNK = 256


class BudgetExhausted(RuntimeError):
    """The oracle's query budget would be exceeded."""


def seeded_rng(*entropy: int) -> np.random.Generator:
    """Counter-based generator keyed by a tuple of integers."""
    seq = np.random.SeedSequence(tuple(int(e) for e in entropy))
    return np.random.Generator(np.random.Philox(seq))


# SeedSequence's hash constants (numpy.random.bit_generator)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_SHIFT = np.uint32(16)


def _uint32_words(n: int) -> list[int]:
    """The 32-bit words, lowest first, that SeedSequence reads from one integer."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _hasher(hash_const: int, mult: int):
    """SeedSequence's hashmix, whose multiplier advances on every call."""
    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * mult & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> _SHIFT)
    return hashmix


def philox_keys(prefix, last) -> np.ndarray:
    """Philox keys of the streams ``seeded_rng(*prefix, e)`` for each ``e`` in ``last``.

    Ports SeedSequence's entropy mix and ``generate_state(2, np.uint64)`` to
    uint32 array arithmetic, vectorized over the last entropy word, so the
    keys of many streams cost one pass.  Each ``e`` must fit in 32 bits.
    Returns an (n, 2) uint64 array, row i the key of stream ``last[i]``.
    """
    last = np.asarray(last)
    if last.size and (last.min() < 0 or last.max() > _MASK32):
        raise ValueError("last entropy word: expected integers in [0, 2**32)")
    last = last.astype(np.uint32)
    entropy = [np.full(last.size, w, np.uint32)
               for e in prefix for w in _uint32_words(int(e))] + [last]
    hashmix = _hasher(_INIT_A, _MULT_A)

    def mix(x, y):
        result = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
        return result ^ (result >> _SHIFT)

    zeros = np.zeros(last.size, np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zeros)
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    # generate_state(2, np.uint64): 4 words, one pass over the pool
    output = _hasher(_INIT_B, _MULT_B)
    state = [output(value).astype(np.uint64) for value in pool]
    return np.stack([state[0] | state[1] << np.uint64(32),
                     state[2] | state[3] << np.uint64(32)], axis=1)


class _CountingOracle:
    """Shared query counting and budget enforcement."""

    def __init__(self, rng: np.random.Generator, budget: int | None):
        self.rng = rng
        if budget is not None:
            budget = int(budget)
            if budget < 0:
                raise ValueError("budget must be non-negative")
        self.budget = budget
        self.queries_used = 0

    def _charge(self, n: int) -> None:
        if self.budget is not None and self.queries_used + n > self.budget:
            raise BudgetExhausted(
                f"budget {self.budget} exhausted ({self.queries_used} used, "
                f"{n} more requested)"
            )
        self.queries_used += n


class LabelOracle(_CountingOracle):
    """Draws noisy binary labels from a threshold problem's regression function.

    Uniforms are drawn ``DRAW_CHUNK`` at a time into one buffer, and all
    three query paths (``label_sample``, ``label_sample_many`` and the calls
    of a ``grid_labeler``) take them in stream order, so the labels are
    those of one ``rng.random()`` per query (a sized draw equals as many
    scalar draws); only the generator's position after a run differs.
    """

    def __init__(self, problem: TncProblem, rng: np.random.Generator,
                 budget: int | None = None):
        super().__init__(rng, budget)
        self.problem = problem
        self._uniforms: list[float] = []
        self._next = 0  # the first unused entry of _uniforms

    def label_sample(self, x: float) -> int:
        p = self.problem.eta_at(x)  # validates the domain before any charge
        self._charge(1)
        # grid_labeler's calls repeat this charge and draw inline: keep them in step
        if self._next == len(self._uniforms):
            self._uniforms, self._next = self.rng.random(DRAW_CHUNK).tolist(), 0
        u = self._uniforms[self._next]
        self._next += 1
        return LABEL_POSITIVE if u < p else LABEL_NEGATIVE

    def grid_labeler(self, points):
        """Whether the label at ``points[b]`` is positive, as a function of ``b``.

        A call is ``label_sample(points[b]) > 0``: the same domain check,
        charge and uniform.  A point's eta is computed on its first query
        and kept; a point whose ``eta_at`` raises raises on every query,
        before any charge.  Where ``label_sample`` has been replaced (by a
        subclass, or by a wrapper set on the class), every call goes
        through the replacement, so it still sees each query.
        """
        if type(self).label_sample is not _LABEL_SAMPLE:
            label_sample = self.label_sample
            return lambda b: label_sample(points[b]) > 0
        etas = [None] * len(points)

        def positive(b: int) -> bool:
            p = etas[b]
            if p is None:
                p = etas[b] = float(self.problem.eta_at(points[b]))
            if self.budget is not None and self.queries_used >= self.budget:
                self._charge(1)  # raises BudgetExhausted, before any draw
            self.queries_used += 1
            i = self._next  # label_sample's draw, inlined: this runs once per query
            if i == len(self._uniforms):
                self._uniforms, i = self.rng.random(DRAW_CHUNK).tolist(), 0
            self._next = i + 1
            return self._uniforms[i] < p
        return positive

    def label_sample_many(self, xs) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        p = self.problem.eta_at(xs)
        self._charge(xs.size)
        # the buffered uniforms come first in the stream, then fresh draws
        buffered = self._uniforms[self._next:self._next + xs.size]
        self._next += len(buffered)
        u = self.rng.random(xs.size - len(buffered))
        if buffered:
            u = np.concatenate([buffered, u])
        return np.where(u < p, LABEL_POSITIVE, LABEL_NEGATIVE)


_LABEL_SAMPLE = LabelOracle.label_sample  # the method grid_labeler's table stands in for


@dataclass(frozen=True)
class GaussianNoise:
    """Additive centered gaussian noise on the gradient before taking the sign."""

    sigma: float = 1.0
    name = "additive-gaussian"

    def __post_init__(self):
        if not 0.0 < self.sigma <= SCALE_BOUND:
            raise ValueError(f"sigma: must lie in (0, 2**64], got {self.sigma}")

    def draw(self, g: float, rng) -> int:
        return _sign_with_fair_tie(g + rng.normal(0.0, self.sigma), rng)

    def draw_many(self, g: np.ndarray, rng) -> np.ndarray:
        s = g + rng.normal(0.0, self.sigma, size=g.shape)
        return _signs_with_fair_ties(s, rng)


@dataclass(frozen=True)
class UniformNoise:
    """Additive noise uniform on [-halfwidth, halfwidth]."""

    halfwidth: float = 1.0
    name = "additive-uniform"

    def __post_init__(self):
        if not 0.0 < self.halfwidth <= SCALE_BOUND:
            raise ValueError(f"halfwidth: must lie in (0, 2**64], got {self.halfwidth}")

    def draw(self, g: float, rng) -> int:
        return _sign_with_fair_tie(g + rng.uniform(-self.halfwidth, self.halfwidth), rng)

    def draw_many(self, g: np.ndarray, rng) -> np.ndarray:
        s = g + rng.uniform(-self.halfwidth, self.halfwidth, size=g.shape)
        return _signs_with_fair_ties(s, rng)


@dataclass(frozen=True)
class DirectBernoulli:
    """Bernoulli sign with success probability clamped around 1/2.

    P(+) = clamp(1/2 + slope * g, 1/2 - cap, 1/2 + cap).
    """

    slope: float = 1.0
    cap: float = 0.5
    name = "direct-bernoulli"

    def __post_init__(self):
        if not self.slope > 0:
            raise ValueError("slope: must be positive")
        if not 0.0 < self.cap <= 0.5:
            raise ValueError("cap: must lie in (0, 1/2]")

    def probability_positive(self, g):
        g = np.asarray(g, dtype=float)
        with np.errstate(over="ignore"):  # slope * g may overflow to +-inf, which clips
            return np.clip(0.5 + self.slope * g, 0.5 - self.cap, 0.5 + self.cap)

    def draw(self, g: float, rng) -> int:
        # np.clip's floats: a NaN g gives a NaN p, which no uniform is below
        p = 0.5 + self.slope * g
        lo, hi = 0.5 - self.cap, 0.5 + self.cap
        p = lo if p < lo else hi if p > hi else p
        return LABEL_POSITIVE if rng.random() < p else LABEL_NEGATIVE

    def draw_many(self, g: np.ndarray, rng) -> np.ndarray:
        p = self.probability_positive(g)
        u = rng.random(g.shape)
        return np.where(u < p, LABEL_POSITIVE, LABEL_NEGATIVE)


def _sign_with_fair_tie(s: float, rng) -> int:
    """One label of ``_signs_with_fair_ties``, drawing what its size-1 call draws."""
    if s > 0:
        return LABEL_POSITIVE
    if s == 0.0:  # NaN is neither, and takes no coin
        return LABEL_POSITIVE if rng.random() < 0.5 else LABEL_NEGATIVE
    return LABEL_NEGATIVE


def _signs_with_fair_ties(s: np.ndarray, rng) -> np.ndarray:
    labels = np.asarray(_LABEL_OF.take(s > 0))  # a 0-d s takes a scalar: make it 0-d
    if np.count_nonzero(s) < s.size:  # some s is 0.0 or -0.0; NaN is nonzero, no coin
        ties = s == 0.0
        coins = rng.random(int(np.count_nonzero(ties))) < 0.5
        labels[ties] = _LABEL_OF.take(coins)
    return labels


@dataclass(frozen=True)
class ExactSign:
    """True gradient sign; an exactly zero gradient resolves by a fair coin."""

    name = "exact"
    draw = staticmethod(_sign_with_fair_tie)  # the function itself: no frame of its own

    def draw_many(self, g: np.ndarray, rng) -> np.ndarray:
        return _signs_with_fair_ties(g, rng)


SIGN_MODES = (GaussianNoise, UniformNoise, DirectBernoulli, ExactSign)


class SignOracle(_CountingOracle):
    """Noisy sign of one gradient coordinate of a convex test function.

    A scalar query draws with its mode's ``draw``, a batch with
    ``draw_many``; on one gradient the two give the same label and leave
    the generator in the same state.
    """

    def __init__(self, fn: UcFunction, mode, rng: np.random.Generator,
                 budget: int | None = None):
        if not isinstance(mode, SIGN_MODES):
            raise TypeError(f"unknown sign-oracle mode {mode!r}")
        super().__init__(rng, budget)
        self.fn = fn
        self.mode = mode

    def sign_sample(self, line: Line, a: float) -> int:
        g = line.partial(a)  # checks the step
        if self.budget is not None and self.queries_used >= self.budget:
            self._charge(1)  # raises BudgetExhausted, before any draw
        self.queries_used += 1
        return self.mode.draw(g, self.rng)

    # alphas is keyword-only: bench/spans.py counts a batch by its alphas= keyword
    def sign_sample_line(self, line: Line, *, alphas) -> np.ndarray:
        g = line.partials(alphas)  # checks the steps
        n = g.size
        if self.budget is not None and self.queries_used + n > self.budget:
            self._charge(n)  # raises BudgetExhausted, before any draw
        self.queries_used += n
        return self.mode.draw_many(g, self.rng)
