"""One-dimensional threshold learners.

``passive_erm`` fits the best threshold cut to uniformly sampled labels;
``bz_learner`` runs grid-based probabilistic bisection and needs the noise
parameters up front; ``adaptive_learner`` wraps the passive subroutine in
epochs with halving search radii and needs no noise parameters at all;
``bisect_noiseless`` is plain binary search for deterministic signs.
``run_learner`` runs whichever of them a ``LearnerConfig`` names, for the
harness and for every line search of the optimizer alike.

Every learner takes an oracle, an explicit search interval and, where it
places its own queries, an explicit numpy Generator, so runs are
replayable.  A search is anything with ``lo``, ``hi``, ``width`` and
``midpoint`` whose ends would make a valid ``Interval``: an ``Interval``,
or the ``Line`` of a coordinate line search.  An oracle answers
``label_sample(x)`` (one label, +1 or -1), ``label_sample_many(xs)`` (an
array of them) and ``grid_labeler(points)`` (a function of a grid index b
that tells whether the label at ``points[b]`` is positive, one query per
call).  ``bz_rows`` runs probabilistic bisection for many independent rows
in lockstep, querying through grid labelers; ``bz_learner`` is its one-row
call.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .problems import (Interval, POSITIVE_LEFT, POSITIVE_RIGHT, SCALE_BOUND,
                       TNC_EXPONENT_RANGE, orientation_sign)

LEARNERS = ("adaptive", "bisect", "passive", "bz")
DRAWING_LEARNERS = ("adaptive", "passive")  # those that read run_learner's Generator
ORIENTATION_AUTO = "auto"
GRID_AUTO = "auto"

_SQRT2 = math.sqrt(2.0)
_PLUS_MINUS = np.array([-1, 1], dtype=np.intp)  # indexed by a bool: -1 if False, +1 if True
MASK_TABLE_BYTES = 1 << 20  # bz_rows' side-mask table, one byte a mask: grids of <= 723 cells


def as_count(name: str, value) -> int:
    """``value`` as an int; a float, even an integral one, is refused by name."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name}: must be an integer, got {value!r}") from None


@dataclass
class LearnerConfig:
    """Which 1-D learner runs, and its parameters.

    ``budget`` is the query budget of one run; a config that serves a whole
    sweep leaves it at 0 and ``for_budget`` sets it per run.  ``c_delta`` is
    the epoch-count constant of the adaptive learner and must exceed
    sqrt(2).  ``grid_size``, ``bz_k`` and ``bz_mu`` configure probabilistic
    bisection only; the ``"auto"`` grid scales with the budget.
    Only the adaptive and bz learners accept ``orientation="auto"``.
    """

    name: str = "adaptive"
    budget: int = 0
    c_delta: float = 2.0
    orientation: str = POSITIVE_RIGHT
    grid_size: int | str = GRID_AUTO
    bz_k: float | None = None
    bz_mu: float | None = None

    def __post_init__(self):
        if self.name not in LEARNERS:
            raise ValueError(f"name: expected one of {LEARNERS}, got {self.name!r}")
        if as_count("budget", self.budget) < 0:
            raise ValueError("budget: must be non-negative")
        if not self.c_delta > _SQRT2:
            raise ValueError(f"c_delta: must exceed sqrt(2), got {self.c_delta}")
        if self.orientation not in (POSITIVE_RIGHT, POSITIVE_LEFT, ORIENTATION_AUTO):
            raise ValueError(f"orientation: unknown orientation {self.orientation!r}")
        if self.orientation == ORIENTATION_AUTO and self.name in ("passive", "bisect"):
            raise ValueError("orientation: 'auto' is only supported by the "
                             "adaptive and bz learners")
        if self.grid_size != GRID_AUTO and as_count("grid_size", self.grid_size) < 2:
            raise ValueError("grid_size: must be at least 2")
        lo_k, hi_k = TNC_EXPONENT_RANGE
        if self.bz_k is not None and not lo_k <= self.bz_k <= hi_k:
            raise ValueError(f"bz_k: must lie in [{lo_k}, {hi_k}], got {self.bz_k}")
        if self.bz_mu is not None and not 0.0 < self.bz_mu <= SCALE_BOUND:
            raise ValueError(f"bz_mu: must lie in (0, 2**64], got {self.bz_mu}")

    def for_budget(self, budget: int, dither: int = 0) -> LearnerConfig:
        """This config for one run of ``budget`` queries.

        The ``"auto"`` grid becomes ``auto_grid_size(budget, bz_k, dither)``
        once ``bz_k`` is known.
        """
        grid = self.grid_size
        if grid == GRID_AUTO and self.bz_k is not None:
            grid = auto_grid_size(budget, self.bz_k, dither)
        return replace(self, budget=budget, grid_size=grid)


def erm_cut(positions, labels, search: Interval,
            orientation: str = POSITIVE_RIGHT) -> float:
    """Empirical-risk-minimizing threshold cut for labelled sample positions.

    Candidate cuts are the search endpoints plus the midpoints of
    consecutive sorted positions.  For positive-right orientation the
    empirical error of a cut c is #{+ samples left of c} + #{- samples
    right of c}; ties resolve to the leftmost minimizing candidate.

    One pass takes the leftmost minimum over all n + 1 splits of the
    sorted positions.  Where every position lies in [lo, hi) and that split
    is 0, n or a boundary between distinct values, it is a candidate, and
    so the leftmost minimum over the candidates too.  Otherwise (ties at
    the minimum, or positions outside [lo, hi) or NaN) the candidates are
    scanned.

    The sort need not be stable: every candidate split is a search end or
    a boundary between distinct values, so neither its error nor the
    values read there depend on the order within a group of equal
    positions, and a minimum inside such a group is scanned.  That holds
    for a {-0.0, 0.0} group too (``lower + upper`` and ``mid == lower``
    cannot tell the zeros apart), and NaN sorts last under every kind.

    A label counts as positive where it is > 0, or < 0 for positive-left;
    ``_erm_cut_steps`` cuts on the error steps that this gives.
    """
    labels = np.asarray(labels)
    pos = (labels > 0) if orientation_sign(orientation) > 0 else (labels < 0)
    return _erm_cut_steps(np.asarray(positions, dtype=float), _PLUS_MINUS.take(pos),
                          search)


def _erm_cut_steps(positions: np.ndarray, steps: np.ndarray, search: Interval) -> float:
    """``erm_cut`` from error steps: +1 per sample on the positive side, -1 otherwise."""
    n = positions.size
    if n == 0:
        return search.midpoint
    order = positions.argsort()  # the default kind, much faster than a stable sort
    p = positions.take(order)
    # a cut c classifies x >= c as the positive side; at split s = #{p < c} its
    # error is #{positives in p[:s]} + #{negatives in p[s:]} = err[s] + const,
    # where err[s] sums the steps of p[:s], err[0] = 0
    acc = np.add.accumulate(steps.take(order))  # err[1:]
    best = int(acc.argmin())
    best = best + 1 if acc.item(best) < 0 else 0  # the leftmost minimum of err
    if p.item(0) >= search.lo and p.item(-1) < search.hi:  # NaN fails too
        if not 0 < best < n:
            return float(search.hi if best else search.lo)
        lower, upper = p.item(best - 1), p.item(best)
        if lower < upper:
            return _cut_between(lower, upper)
    # a midpoint between distinct values splits at their boundary, and a
    # search end splits off the positions below it
    err = np.zeros(n + 1, dtype=np.intp)
    err[1:] = acc
    boundaries = (p[1:] > p[:-1]).nonzero()[0] + 1
    ends = p.searchsorted((search.lo, search.hi), side="left")
    splits = np.concatenate((ends[:1], boundaries, ends[1:]))
    best = int(err[splits].argmin())
    if not 0 < best <= boundaries.size:
        return float(search.hi if best else search.lo)
    return _cut_between(p[boundaries[best - 1] - 1], p[boundaries[best - 1]])


def _cut_between(lower, upper) -> float:
    """The cut between two adjacent distinct sorted positions: their midpoint."""
    mid = 0.5 * (float(lower) + float(upper))
    # the midpoint of two adjacent floats can round onto the lower one
    return float(upper if mid == lower else mid)


def passive_erm(oracle, search: Interval, n_samples: int, orientation: str,
                rng: np.random.Generator) -> float:
    """Query labels at n uniform positions on the search interval, return the ERM cut."""
    if n_samples < 1:
        raise ValueError("need at least one sample")
    xs = rng.uniform(search.lo, search.hi, size=n_samples)
    labels = oracle.label_sample_many(xs)
    # every label is +1 or -1, so the labels are a positive-right cut's error steps
    steps = labels if orientation_sign(orientation) > 0 else -labels
    return _erm_cut_steps(xs, steps, search)


@functools.lru_cache(maxsize=256)  # one line search per epoch asks again
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
    budget = config.budget
    if budget < 1:
        raise ValueError("adaptive learner needs a positive budget")
    epochs, per_epoch = adaptive_epoch_schedule(budget, config.c_delta)

    orientation = config.orientation
    if orientation == ORIENTATION_AUTO:
        n_probe = min(20, per_epoch, budget - epochs)
        orientation = _auto_orientation(oracle, search, n_probe)
        per_epoch = (budget - n_probe) // epochs

    # the first ball, the width around the midpoint clipped to the search, is the search
    x = passive_erm(oracle, search, per_epoch, orientation, rng)
    radius = 0.5 * search.width
    for _ in range(epochs - 1):
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
    This is the one-row call of ``bz_rows``.
    """
    (result,) = bz_rows([oracle], search, [config])
    if isinstance(result, Exception):
        raise result
    return result


@dataclass(frozen=True, slots=True)
class _Grid:
    """The M points lo + b * delta, b < M, of a bz grid, each made when read."""

    lo: float
    delta: float
    cells: int

    def __len__(self) -> int:
        return self.cells

    def __getitem__(self, b: int) -> float:
        if not 0 <= b < self.cells:
            raise IndexError(b)
        return self.lo + b * self.delta


def _ended(b: int) -> bool:
    """Stands in for the grid labeler of a row that has ended: no query, no label."""
    return False


def bz_rows(oracles, search: Interval, configs) -> list:
    """``bz_learner`` for R independent rows at once, one query per row and step.

    Row r runs on ``oracles[r]`` with ``configs[r]``; rows may differ in
    budget, grid and orientation.  The posteriors form a zero-padded
    (R, max M) weight matrix whose padding stays 0 under the running sums
    and the reweighting, and every per-row operation is the one
    ``bz_learner`` makes on its own row, so each row's result is
    bit-identical to its one-row call.  Each row asks its oracle once for
    a ``grid_labeler`` over the row's grid points, each made when read, and
    each query is a call of it, which checks, charges and draws as
    ``label_sample`` would at that point.  The rows run longest first, so
    the live rows are a shrinking prefix.  Returns, per row, the estimate or the exception that
    ended the row (a budget cap, an out-of-domain query, ...); the rest run on.
    """
    results: list = [None] * len(oracles)
    lo = search.lo
    runs = []  # per row that queries: (row, cells, delta, ratio, positive-left?, labeler, steps)
    for r, (oracle, config) in enumerate(zip(oracles, configs)):
        try:
            if config.grid_size == GRID_AUTO or config.bz_k is None or config.bz_mu is None:
                raise ValueError("bz_learner needs grid_size, bz_k and bz_mu")
            # the grid has at least 2 cells, by LearnerConfig and auto_grid_size
            cells, budget = config.grid_size, config.budget
            if budget == 0:
                results[r] = search.midpoint
                continue
            n_probe = 0
            orientation = config.orientation
            if orientation == ORIENTATION_AUTO:
                n_probe = min(20, budget)
                orientation = _auto_orientation(oracle, search, n_probe)
            delta = search.width / cells
            gamma = min(0.5, config.bz_mu * delta ** (config.bz_k - 1.0))
            labeler = oracle.grid_labeler(_Grid(lo, delta, cells))
        except Exception as exc:  # noqa: BLE001 - ends this row only
            results[r] = exc
            continue
        # Work with unnormalized weights and rescale one side only: the
        # posterior is proportional either way.
        ratio = (1.0 + gamma) / (1.0 - gamma)
        runs.append((r, cells, delta, ratio, orientation_sign(orientation) < 0,
                     labeler, budget - n_probe))
    if not runs:
        return results

    # longest first (a stable sort): the live rows of a step are a prefix
    runs.sort(key=lambda run: -run[-1])
    row_of, sizes, deltas, ratios, negs, labelers, steps = map(list, zip(*runs))
    n, width = len(runs), max(sizes)
    weights = np.zeros((n, width))
    for i, m in enumerate(sizes):
        weights[i, :m] = 1.0 / m
    ratio_col = np.array(ratios)[:, None]
    base = np.arange(n) * width
    tops = [m - 1 for m in sizes]
    errors: list[Exception | None] = [None] * n
    # sides[2 * width - b] are the cells left of boundary b, sides[width - b]
    # the others: windows of one strip, so O(width) memory.  A label that
    # matches the row's orientation favours the threshold left of b.  Up to
    # MASK_TABLE_BYTES, a step takes its masks from a C-contiguous copy of
    # the (2 width + 1) x width windows, one take in place of indexing the view.
    strip = np.zeros(3 * width, dtype=bool)
    strip[width:2 * width] = True
    sides = sliding_window_view(strip, width)
    table = np.ascontiguousarray(sides) if sides.size <= MASK_TABLE_BYTES else None
    on_plus = [width if neg else 2 * width for neg in negs]
    on_minus = [3 * width - start for start in on_plus]

    done = 0
    for live in range(n, 0, -1):  # rows [0, live) take steps [done, steps[live - 1])
        w_live, base_l, ratio_l = weights[:live], base[:live], ratio_col[:live]
        for _ in range(steps[live - 1] - done):
            cum = np.add.accumulate(w_live, axis=1)
            total = cum[:, -1]
            half = 0.5 * total
            # cum is nondecreasing: its first entry >= half is at searchsorted(half)
            idx = (cum >= half[:, None]).argmax(axis=1)
            at = base_l + idx
            windows, big = [], []
            for i, (k, h, c, w) in enumerate(zip(idx.tolist(), half.tolist(),
                                                 cum.take(at).tolist(),
                                                 weights.take(at).tolist())):
                # w > 0: it is the first cell whose cumulative weight reaches half
                b = round(k + (h - (c - w)) / w)
                b = 1 if b < 1 else tops[i] if b > tops[i] else b
                try:
                    positive = labelers[i](b)
                except Exception as exc:  # noqa: BLE001 - ends this row only
                    errors[i], labelers[i], positive = exc, _ended, False
                windows.append((on_plus[i] if positive else on_minus[i]) - b)
                if h > 5e249:  # total > 1e250: h is half of it, exactly
                    big.append(i)
            np.multiply(w_live, ratio_l, out=w_live, where=sides[windows]
                        if table is None else table.take(windows, axis=0))
            if big:
                w_live[big] /= total[big, None]
        done = steps[live - 1]

    cum = np.add.accumulate(weights, axis=1)
    idx = (cum >= 0.5 * cum[:, -1:]).argmax(axis=1)
    for i, (r, delta) in enumerate(zip(row_of, deltas)):
        results[r] = errors[i] if errors[i] is not None else float(
            lo + (int(idx[i]) + 0.5) * delta)
    return results


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
                rng: np.random.Generator | None) -> float:
    """Run the learner that ``config.name`` names on ``search``; return its estimate.

    Only the ``DRAWING_LEARNERS`` read ``rng``; the others may be given None.

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
    posterior concentration rate; every k <= 1.5, the bounded-noise case
    k = 1 among them, gets the linear grid M ~ T / ln T.  ``dither`` (any
    integer, e.g. a replication index) spreads the resolution over [M, 2M)
    so that aggregate error statistics are not an artifact of where one
    fixed grid's midpoints happen to fall.
    """
    budget = int(budget)
    if budget < 2:
        return 2
    log_t = max(1.0, math.log(budget))
    base = max(2, math.ceil((budget / log_t) ** (1.0 / max(1.0, 2.0 * bz_k - 2.0))))
    return base + (int(dither) * 2654435761) % base
