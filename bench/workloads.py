"""The benchmark's workloads, each written out as signopt config files from a seed.

A workload is one sweep config, run again and again in rounds.  Its inputs
(the config file and, for Ridge, the design matrix file) are generated from
the benchmark's ``--seed`` alone; signopt only ever sees those files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Ridge design rows are drawn from this stream of the seed, so no other
# input shares its numbers.
_RIDGE_STREAM = 7


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    body: str                 # config lines besides id and the sweep keys
    budgets: tuple[int, ...]
    replications: int
    jobs: int = 1             # worker processes asked for; capped at nproc
    ridge_shape: tuple[int, int] | None = None  # (n, d) of a seeded design

    def write_inputs(self, seed: int, directory: Path) -> Path:
        """Write this workload's inputs for ``seed``; return the config path."""
        directory.mkdir(parents=True, exist_ok=True)
        body = self.body
        if self.ridge_shape is not None:
            design = directory / f"{self.name}-design.txt"
            _write_ridge_design(design, seed, *self.ridge_shape)
            body += f"problem.matrix_file = {design.name}\n"
        path = directory / f"{self.name}.cfg"
        path.write_text(
            f"id = {self.name}\n{body}"
            f"sweep.budgets = {', '.join(map(str, self.budgets))}\n"
            f"sweep.replications = {self.replications}\n"
            f"sweep.base_seed = 0\n")
        return path


def _write_ridge_design(path: Path, seed: int, n: int, d: int) -> None:
    """Gaussian design with columns scaled by 1/sqrt(n), so A'A is near I."""
    rng = np.random.default_rng([seed, _RIDGE_STREAM])
    design = rng.standard_normal((n, d)) / math.sqrt(n)
    weights = rng.uniform(-1.5, 1.5, size=d)
    targets = design @ weights + 0.1 * rng.standard_normal(n)
    lines = [f"{n} {d}"]
    lines += [" ".join(map(repr, row.tolist())) for row in design]
    lines.append(" ".join(map(repr, targets.tolist())))
    path.write_text("\n".join(lines) + "\n")


_BZ = """\
kind = learn-threshold
problem.lo = 0.0
problem.hi = 1.0
problem.t = 0.37
problem.k = 2.0
problem.mu = 1.0
problem.cap = 0.4
learner.name = bz
learner.grid_size = auto
learner.bz_k = 2.0
learner.bz_mu = 1.0
slope.column = excess_risk
"""

_QUADRATIC = """\
kind = optimize
problem.family = quadratic
problem.dim = 5
problem.a_diag = 1.0, 1.75, 2.5, 3.25, 4.0
problem.x_star = 0.3, -0.2, 0.5, -0.4, 0.1
problem.box_lo = -16.0
problem.box_hi = 16.0
oracle.mode = additive-gaussian
oracle.sigma = 1.0
optimizer.line_search = adaptive
learner.c_delta = 3.0
slope.column = f_error
"""

# An explicit box: Ridge's default box is centred on x*, where f(x0) = f_min
# and doing nothing would already be optimal.  x* is near weights / 2, inside.
_RIDGE = """\
kind = optimize
problem.family = ridge
problem.box_lo = -4.0
problem.box_hi = 4.0
oracle.mode = quantized
oracle.decimals = 3
optimizer.line_search = bisect
slope.column = f_error
"""

WORKLOADS = {w.name: w for w in (
    Workload(
        "bz-threshold",
        "criterion-04 bz sweep: the per-query Python loop of bz_learner, "
        "label_sample and eta_at does nearly all the work",
        _BZ, budgets=(256, 512, 1024, 2048, 4096), replications=4),
    Workload(
        "rssgd-quadratic",
        "criterion-05 rssgd on a d=5 quadratic: the fixed cost per epoch "
        "dominates, with batched line queries and O(d) gradients",
        _QUADRATIC, budgets=(4096, 16384, 65536), replications=4),
    Workload(
        "rssgd-ridge-pool",
        "rssgd with bisect on an n=4000 Ridge over a 2-job pool: scalar "
        "O(nd) sign queries and a 290 KB config pickled per cell",
        _RIDGE, budgets=(2048, 4096), replications=4, jobs=2,
        ridge_shape=(4000, 8)),
)}

# The same three at toy size, for the benchmark's self-test.
TOY_WORKLOADS = {w.name: w for w in (
    Workload("toy-bz-threshold", "toy", _BZ, budgets=(64, 128), replications=2),
    Workload("toy-rssgd-quadratic", "toy", _QUADRATIC, budgets=(512, 1024),
             replications=2),
    Workload("toy-rssgd-ridge-pool", "toy", _RIDGE, budgets=(512, 1024),
             replications=2, jobs=2, ridge_shape=(200, 4)),
)}
