"""Randomized coordinate descent driven by gradient signs.

Each epoch picks a coordinate uniformly at random, treats the gradient sign
along that line as a noisy binary label whose crossing point is the
directional minimum, and delegates the step choice to a one-dimensional
threshold learner over the feasible segment.  With the default schedule of
ceil(d * ln(T)**2) epochs the per-epoch query budget is floor(T / E) and no
convexity or smoothness constants are needed anywhere.

A single run is strictly sequential (each epoch starts from the last
iterate); independent replications parallelize with independent oracles.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .learners import DRAWING_LEARNERS, LearnerConfig, POSITIVE_RIGHT, as_count, run_learner
from .oracles import ROLE_COORDS, ROLE_SAMPLING, SignOracle, philox_keys, seeded_rng
from .problems import Line, UcFunction

PAPER_DEFAULT = "paper-default"
KEY_BLOCK = 4096  # epochs whose line-search keys are derived in one pass


def default_epoch_count(dim: int, budget: int) -> int:
    """Epoch schedule ceil(d * ln(T)**2) of the default descent configuration."""
    if budget < 2:
        return max(1, dim)
    return math.ceil(dim * math.log(budget) ** 2)


def _seed_tuple(seed) -> tuple[int, ...]:
    if isinstance(seed, (tuple, list)):
        return tuple(int(s) for s in seed)
    return (int(seed),)


def coordinate_rng(seed) -> np.random.Generator:
    """Stream that draws the per-epoch coordinate choices."""
    return seeded_rng(*_seed_tuple(seed), ROLE_COORDS)


def line_search_rng(seed, epoch: int) -> np.random.Generator:
    """Stream that places the line-search queries of one epoch."""
    return seeded_rng(*_seed_tuple(seed), ROLE_SAMPLING, epoch)


def line_search_streams(seed, epochs: int):
    """Yield the stream ``line_search_rng(seed, e)`` for e = 1..epochs, in turn.

    One Philox generator serves every epoch: its state is reset to the
    epoch's key with a zero counter and an empty buffer, exactly as a fresh
    generator starts.  The keys come from ``philox_keys``, a block of
    epochs per pass.  The state holds its counter, buffer and keys as
    Python ints, which the state setter reads faster than numpy scalars.
    Each yielded generator is valid until the next one.
    """
    prefix = (*_seed_tuple(seed), ROLE_SAMPLING)
    bitgen = np.random.Philox(0)
    rng = np.random.Generator(bitgen)
    state = bitgen.state  # a fresh generator's counter, buffer and flags
    state["state"]["counter"] = state["state"]["counter"].tolist()
    state["buffer"] = state["buffer"].tolist()
    for first in range(1, epochs + 1, KEY_BLOCK):
        stop = min(first + KEY_BLOCK, epochs + 1)
        for key in philox_keys(prefix, np.arange(first, stop)).tolist():
            state["state"]["key"] = key
            bitgen.state = state
            yield rng


@dataclass
class OptimizerConfig:
    """Budget, epoch rule, line search, seed and start of one descent run.

    ``budget`` is the query budget of one run; a config that serves a whole
    sweep leaves it at 0 and each run sets it.  ``epoch_rule`` is either
    ``"paper-default"`` (ceil(d ln^2 T) epochs) or an explicit positive
    epoch count.  ``line_search`` is the per-epoch learner with its
    parameters; its budget and orientation are always set by the optimizer.
    ``x0`` is ``"center"`` (the box center) or a starting point.
    """

    budget: int = 0
    epoch_rule: int | str = PAPER_DEFAULT
    line_search: LearnerConfig = field(default_factory=LearnerConfig)
    seed: int | tuple = 0
    x0: str | list[float] = "center"

    def __post_init__(self):
        if as_count("budget", self.budget) < 0:
            raise ValueError("budget: must be non-negative")
        if isinstance(self.x0, str) and self.x0 != "center":
            raise ValueError(f"x0: expected 'center' or a point, got {self.x0!r}")
        if isinstance(self.epoch_rule, str):
            if self.epoch_rule != PAPER_DEFAULT:
                raise ValueError(f"epoch_rule: unknown epoch rule {self.epoch_rule!r}")
        elif as_count("epoch_rule", self.epoch_rule) < 1:
            raise ValueError("epoch_rule: explicit epoch count must be at least 1")

    def epoch_count(self, dim: int) -> int:
        if self.epoch_rule == PAPER_DEFAULT:
            return default_epoch_count(dim, self.budget)
        return self.epoch_rule


class LineLabelOracle:
    """A sign oracle bound to one coordinate line, as a 1-D label oracle.

    The label at step ``a`` is the noisy sign of the gradient coordinate at
    ``x + a * e_j``, asked of the sign oracle on ``line``, a ``Line`` of
    its function.  Convexity makes that sign switch from - to + at the
    directional minimum, so the induced threshold problem is always
    positive-right.  Queries share the sign oracle's budget and counter.
    """

    def __init__(self, sign_oracle: SignOracle, line: Line):
        self.base = sign_oracle
        self.line = line

    def label_sample(self, alpha: float) -> int:
        return self.base.sign_sample(self.line, alpha)

    def label_sample_many(self, alphas) -> np.ndarray:
        return self.base.sign_sample_line(self.line, alphas=alphas)

    def grid_labeler(self, steps):
        """Whether the label at ``steps[b]`` is positive, as a function of ``b``:
        one ``label_sample`` per call, as a tie's coin depends on the gradient."""
        return lambda b: self.label_sample(steps[b]) > 0


def line_label_oracle(sign_oracle: SignOracle, line: Line) -> LineLabelOracle:
    """View a coordinate line of a sign oracle's function as a 1-D label oracle."""
    return LineLabelOracle(sign_oracle, line)


def descent(fn: UcFunction, sign_oracle: SignOracle, config: OptimizerConfig):
    """Run ``rssgd``'s epochs, yielding the run's ``Line`` after each move.

    At a yield, ``j``, ``lo`` and ``hi`` are the epoch's coordinate and searched
    segment, and ``x`` the iterate after the move, in place: a reader that keeps
    it copies ``x``.  The arguments are checked at the first ``next()``.
    """
    if sign_oracle.fn is not fn:
        raise ValueError("the sign oracle must query the function being minimized")
    epochs = config.epoch_count(fn.dim)
    budget = config.budget
    if budget < epochs:
        raise ValueError(
            f"budget {budget} cannot cover {epochs} epochs; increase the budget "
            f"or set an explicit epoch count"
        )
    line_config = replace(config.line_search,
                          orientation=POSITIVE_RIGHT).for_budget(budget // epochs)
    coords = coordinate_rng(config.seed).integers(fn.dim, size=epochs).tolist()
    # the run's one check of its start, which the first line search runs from;
    # the first move clips the whole point to the box, later ones coordinate j
    line = Line(fn, fn.box.center if isinstance(config.x0, str) else config.x0, coords[0])
    # a learner that never draws gets no stream, and no per-epoch re-key
    streams = (line_search_streams(config.seed, epochs)
               if line_config.name in DRAWING_LEARNERS else itertools.repeat(None))
    for j, line_rng in zip(coords, streams):
        line.turn(j)
        view = line_label_oracle(sign_oracle, line)
        step = line.lo  # the one step of a zero-width segment
        if line.hi > line.lo:
            # the line's step segment is the search: an Interval's lo < hi,
            # both within twice the box bound, +-2**63
            step = run_learner(view, line, line_config, line_rng)
        line.move(step)
        yield line


def rssgd(fn: UcFunction, sign_oracle: SignOracle,
          config: OptimizerConfig) -> np.ndarray:
    """Minimize ``fn`` from gradient signs alone by randomized coordinate descent.

    Starts from ``config.x0`` and runs E epochs; each epoch draws a
    coordinate uniformly at random, turns the run's line to it at the
    current iterate and moves to the step returned by the configured 1-D
    learner under a budget of floor(T / E) queries, clipped to the box.
    Returns the final iterate; the sign oracle counts the queries.  Raises
    if the budget cannot cover one query per epoch (a zero budget never
    can); leftover queries beyond E * N are not spent.
    """
    for line in descent(fn, sign_oracle, config):
        pass
    return line.x
