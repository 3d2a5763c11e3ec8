"""One-dimensional threshold learners.

``passive_erm`` fits the best threshold cut to uniformly sampled labels;
``bz_learner`` runs grid-based probabilistic bisection and needs the noise
parameters up front; ``adaptive_learner`` wraps the passive subroutine in
epochs with halving search radii and needs no noise parameters at all;
``bisect_noiseless`` is plain binary search for deterministic signs.
``run_learner`` runs whichever of them a ``LearnerConfig`` names, for the
harness and for every line search of the optimizer alike.

Every learner takes an oracle (anything exposing ``label_sample`` /
``label_sample_many``), an explicit search interval and, where it places
its own queries, an explicit numpy Generator, so runs are replayable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .problems import (Interval, POSITIVE_LEFT, POSITIVE_RIGHT,
                       orientation_sign)

LEARNERS = ("adaptive", "bisect", "passive", "bz")
ORIENTATION_AUTO = "auto"
GRID_AUTO = "auto"

_SQRT2 = math.sqrt(2.0)


@dataclass
class LearnerConfig:
    """Which 1-D learner runs, and its parameters.

    ``budget`` is the query budget of one run; a config that serves a whole
    sweep leaves it at 0 and ``for_budget`` sets it per run.  ``c_delta`` is
    the epoch-count constant of the adaptive learner and must exceed
    sqrt(2).  ``grid_size``, ``bz_k`` and ``bz_mu`` configure probabilistic
    bisection only; an unset or ``"auto"`` grid scales with the budget.
    Only the adaptive and bz learners accept ``orientation="auto"``.
    """

    name: str = "adaptive"
    budget: int = 0
    c_delta: float = 2.0
    orientation: str = POSITIVE_RIGHT
    grid_size: int | str | None = None
    bz_k: float | None = None
    bz_mu: float | None = None

    def __post_init__(self):
        if self.name not in LEARNERS:
            raise ValueError(f"name: unknown learner {self.name!r}")
        if self.budget < 0:
            raise ValueError("budget: must be non-negative")
        if not self.c_delta > _SQRT2:
            raise ValueError(f"c_delta: must exceed sqrt(2), got {self.c_delta}")
        if self.orientation not in (POSITIVE_RIGHT, POSITIVE_LEFT, ORIENTATION_AUTO):
            raise ValueError(f"orientation: unknown orientation {self.orientation!r}")
        if self.orientation == ORIENTATION_AUTO and self.name in ("passive", "bisect"):
            raise ValueError("orientation: 'auto' is only supported by the "
                             "adaptive and bz learners")
        if self.grid_size not in (None, GRID_AUTO) and self.grid_size < 2:
            raise ValueError("grid_size: must be at least 2")
        if self.bz_k is not None and not self.bz_k >= 1.0:
            raise ValueError(f"bz_k: must be at least 1, got {self.bz_k}")
        if self.bz_mu is not None and not self.bz_mu > 0.0:
            raise ValueError(f"bz_mu: must be positive, got {self.bz_mu}")

    def for_budget(self, budget: int, dither: int = 0) -> LearnerConfig:
        """This config for one run of ``budget`` queries.

        An unset or ``"auto"`` grid becomes ``auto_grid_size(budget, bz_k,
        dither)`` once ``bz_k`` is known.
        """
        grid = self.grid_size
        if grid in (None, GRID_AUTO) and self.bz_k is not None:
            grid = auto_grid_size(budget, self.bz_k, dither)
        return replace(self, budget=int(budget), grid_size=grid)


def erm_cut(positions, labels, search: Interval,
            orientation: str = POSITIVE_RIGHT) -> float:
    """Empirical-risk-minimizing threshold cut for labelled sample positions.

    Candidate cuts are the search endpoints plus the midpoints of
    consecutive sorted positions.  For positive-right orientation the
    empirical error of a cut c is #{+ samples left of c} + #{- samples
    right of c}; ties resolve to the leftmost minimizing candidate.
    """
    positions = np.asarray(positions, dtype=float)
    labels = np.asarray(labels)
    n = positions.size
    if n == 0:
        return search.midpoint
    order = positions.argsort(kind="stable")
    p = positions[order]
    y = labels[order]
    pos = (y > 0) if orientation_sign(orientation) > 0 else (y < 0)
    left_pos = np.zeros(n + 1, dtype=np.intp)  # left_pos[s]: positives among p[:s]
    pos.cumsum(out=left_pos[1:])
    boundaries = (p[1:] > p[:-1]).nonzero()[0] + 1  # splits between distinct values
    lower, upper = p[boundaries - 1], p[boundaries]
    mids = 0.5 * (lower + upper)
    # the midpoint of two adjacent floats can round onto the lower one
    mids = np.where(mids == lower, upper, mids)
    cands = np.concatenate(([search.lo], mids, [search.hi]))
    # a cut c classifies x >= c as the positive side
    split = p.searchsorted(cands, side="left")
    left = left_pos[split]  # positives left of each cut; split - left negatives
    err = left + ((n - left_pos[n]) - (split - left))
    return float(cands[err.argmin()])


def passive_erm(oracle, search: Interval, n_samples: int, orientation: str,
                rng: np.random.Generator) -> float:
    """Query labels at n uniform positions on the search interval, return the ERM cut."""
    if n_samples < 1:
        raise ValueError("need at least one sample")
    if search.width <= 0:
        raise ValueError("search interval has zero length")
    xs = rng.uniform(search.lo, search.hi, size=n_samples)
    labels = oracle.label_sample_many(xs)
    return erm_cut(xs, labels, search, orientation)


def adaptive_epoch_schedule(budget: int, c_delta: float) -> tuple[int, int]:
    """Epoch count and per-epoch budget of the adaptive learner.

    E = floor(log2 sqrt(2 T / (c^2 log2 T))), clamped to at least one epoch;
    N = floor(T / E).  Budgets below 4 degrade to a single passive epoch.
    """
    budget = int(budget)
    if budget < 4:
        return 1, budget
    inner = 2.0 * budget / (c_delta ** 2 * math.log2(budget))
    epochs = max(1, math.floor(math.log2(math.sqrt(inner)))) if inner > 1.0 else 1
    return epochs, budget // epochs


def _auto_orientation(oracle, search: Interval, n_probe: int) -> str:
    """Orientation from probes at the 3/4 and 1/4 points, alternating, right first.

    The side with the higher mean label is the positive one.  The probe
    points are fixed, so no sampling stream is needed; zero probes give
    positive-right.
    """
    x_left = search.lo + 0.25 * search.width
    x_right = search.lo + 0.75 * search.width
    labels = oracle.label_sample_many(np.resize([x_right, x_left], n_probe))
    right, left = labels[0::2], labels[1::2]
    mean_right = right.mean() if right.size else 0.0
    mean_left = left.mean() if left.size else 0.0
    return POSITIVE_RIGHT if mean_right >= mean_left else POSITIVE_LEFT


def adaptive_learner(oracle, search: Interval, config: LearnerConfig,
                     rng: np.random.Generator) -> float:
    """Epoch-based threshold learner that adapts to unknown noise parameters.

    Runs the passive subroutine for E epochs with a per-epoch budget of
    N = floor(T / E) queries; epoch e searches the ball of radius R_e around
    the previous estimate intersected with the original interval, and the
    radius halves between epochs starting from the interval width.  Leftover
    queries T - E*N are not spent.
    """
    budget = int(config.budget)
    if budget < 1:
        raise ValueError("adaptive learner needs a positive budget")
    epochs, per_epoch = adaptive_epoch_schedule(budget, config.c_delta)

    orientation = config.orientation
    if orientation == ORIENTATION_AUTO:
        n_probe = min(20, per_epoch, budget - epochs)
        orientation = _auto_orientation(oracle, search, n_probe)
        per_epoch = (budget - n_probe) // epochs

    x = search.midpoint
    radius = search.width
    for _ in range(epochs):
        ball = Interval(max(search.lo, x - radius), min(search.hi, x + radius))
        x = passive_erm(oracle, ball, per_epoch, orientation, rng)
        radius *= 0.5
    return x


def bz_learner(oracle, search: Interval, config: LearnerConfig) -> float:
    """Probabilistic bisection on a uniform grid with known noise parameters.

    Maintains a probability vector over the grid cells, queries the interior
    grid boundary nearest the posterior median, and reweights the side
    consistent with the observed label by (1 + g) against (1 - g), where
    g = min(1/2, bz_mu * cell_width**(bz_k - 1)).  After the budget is spent
    it returns the midpoint of the cell containing the posterior median.
    """
    if config.grid_size is None or config.bz_k is None or config.bz_mu is None:
        raise ValueError("bz_learner needs grid_size, bz_k and bz_mu")
    cells = int(config.grid_size)
    if cells < 2:
        raise ValueError("grid_size must be at least 2")
    budget = int(config.budget)
    if budget == 0:
        return search.midpoint

    n_probe = 0
    orientation = config.orientation
    if orientation == ORIENTATION_AUTO:
        n_probe = min(20, budget)
        orientation = _auto_orientation(oracle, search, n_probe)
    osign = orientation_sign(orientation)

    delta = search.width / cells
    gamma = min(0.5, config.bz_mu * delta ** (config.bz_k - 1.0))
    # Work with unnormalized weights and rescale one side only: the posterior
    # is proportional either way and the loop runs once per label query.
    ratio = (1.0 + gamma) / (1.0 - gamma)
    weights = np.full(cells, 1.0 / cells)

    label_sample = oracle.label_sample  # Python floats below: same rounding, faster
    for _ in range(budget - n_probe):
        cum = weights.cumsum()
        total = float(cum[-1])
        half = 0.5 * total
        idx = int(cum.searchsorted(half))
        w = float(weights[idx])
        inside = (half - (float(cum[idx]) - w)) / w if w > 0 else 0.5
        boundary = int(round(idx + inside))
        boundary = min(max(boundary, 1), cells - 1)
        label = label_sample(search.lo + boundary * delta)
        if osign * label > 0:
            # A plus label favours the threshold lying left of the boundary.
            weights[:boundary] *= ratio
        else:
            weights[boundary:] *= ratio
        if total > 1e250:
            weights /= total

    cum = weights.cumsum()
    idx = int(cum.searchsorted(0.5 * cum[-1]))
    return float(search.lo + (idx + 0.5) * delta)


def bisect_noiseless(oracle, search: Interval, budget: int,
                     orientation: str = POSITIVE_RIGHT) -> float:
    """Classic bisection against deterministic single-crossing labels.

    Uses exactly ``budget`` queries and returns the final midpoint, whose
    distance to the crossing is at most width * 2**-(budget + 1).
    """
    osign = orientation_sign(orientation)
    lo, hi = search.lo, search.hi
    for _ in range(int(budget)):
        mid = 0.5 * (lo + hi)
        if osign * oracle.label_sample(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def run_learner(oracle, search: Interval, config: LearnerConfig,
                rng: np.random.Generator) -> float:
    """Run the learner that ``config.name`` names on ``search``; return its estimate.

    The learners are looked up by name in this module at call time, so a
    wrapper installed on the module (a tracer, say) sees every run.
    """
    if config.name == "adaptive":
        return adaptive_learner(oracle, search, config, rng)
    if config.name == "bz":
        return bz_learner(oracle, search, config)
    if config.name == "passive":
        return passive_erm(oracle, search, config.budget, config.orientation, rng)
    return bisect_noiseless(oracle, search, config.budget, config.orientation)


def auto_grid_size(budget: int, bz_k: float, dither: int = 0) -> int:
    """Grid resolution matching the point-error scale of bisection at this budget.

    M ~ (T / ln T)^(1 / (2k - 2)) balances the cell width against the
    posterior concentration rate; the bounded-noise case k = 1 gets a linear
    grid.  ``dither`` (any integer, e.g. a replication index) spreads the
    resolution over [M, 2M) so that aggregate error statistics are not an
    artifact of where one fixed grid's midpoints happen to fall.
    """
    budget = int(budget)
    if budget < 2:
        return 2
    log_t = max(1.0, math.log(budget))
    if bz_k <= 1.0 + 1e-9:
        base = max(2, math.ceil(budget / log_t))
    else:
        base = max(2, math.ceil((budget / log_t) ** (1.0 / (2.0 * bz_k - 2.0))))
    return base + (int(dither) * 2654435761) % base
