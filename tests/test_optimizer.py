import warnings

import numpy as np
import pytest

from signopt import (Box, BudgetExhausted, DimensionMismatch, ExactSign, GaussianNoise,
                     Interval, LearnerConfig, Line, OptimizerConfig, OutOfDomain,
                     Quadratic, Ridge, SeparablePower, SignOracle, adaptive_epoch_schedule,
                     adaptive_learner, box_from_bounds, default_epoch_count, descent,
                     line_label_oracle, passive_erm, rssgd, seeded_rng)
from signopt import optimizer
from signopt.learners import DRAWING_LEARNERS, LEARNERS
from signopt.optimizer import coordinate_rng, line_search_rng, line_search_streams
from signopt.problems import DOMAIN_BOUND, _tol

from _checks import bench_ridge, binomial_band


def _quad(diag=(1.0, 2.0), half=1.0, x_star=None):
    d = len(diag)
    x_star = np.zeros(d) if x_star is None else np.asarray(x_star, float)
    box = box_from_bounds(-half, half, dim=d)
    return Quadratic(np.diag(diag), x_star, box)


def _oracle(fn, mode=None, seed=(0, 0), budget=None):
    return SignOracle(fn, mode or ExactSign(), seeded_rng(*seed, 0), budget=budget)


def _f_error(fn, x):
    return max(0.0, fn.value(x) - fn.f_min)


# ---------------------------------------------------------------------------
# epoch schedule

def test_default_epoch_count_reference_value():
    assert default_epoch_count(2, 10 ** 4) == 170
    assert 10 ** 4 // default_epoch_count(2, 10 ** 4) == 58


def test_budget_must_cover_the_epochs():
    fn = _quad()
    # d=2, T=10: the default schedule asks for ceil(2 ln(10)^2) = 11 > 10 epochs
    with pytest.raises(ValueError, match="epoch"):
        rssgd(fn, _oracle(fn), OptimizerConfig(budget=10, seed=1))
    # a config whose budget was never set cannot run
    with pytest.raises(ValueError, match="budget 0"):
        rssgd(fn, _oracle(fn), OptimizerConfig(epoch_rule=5, seed=1))
    # an explicit epoch count makes small budgets legal
    oracle = _oracle(fn)
    rssgd(fn, oracle, OptimizerConfig(budget=10, epoch_rule=5,
                                      line_search=LearnerConfig("bisect"), seed=1))
    assert oracle.queries_used <= 10


def test_optimizer_config_validation():
    # budget 0 means "set per run"; a negative budget is never valid
    OptimizerConfig(budget=0)
    with pytest.raises(ValueError):
        OptimizerConfig(budget=-1)
    with pytest.raises(ValueError, match="x0"):
        OptimizerConfig(budget=10, x0="origin")
    with pytest.raises(ValueError):
        OptimizerConfig(budget=10, epoch_rule="sometimes")
    with pytest.raises(ValueError):
        OptimizerConfig(budget=10, epoch_rule=0)
    # a count is never truncated: 2.7 epochs would run 2
    with pytest.raises(ValueError, match=r"^epoch_rule: must be an integer, got 2\.7$"):
        OptimizerConfig(budget=10, epoch_rule=2.7)
    with pytest.raises(ValueError, match=r"^budget: must be an integer, got 10\.0$"):
        OptimizerConfig(budget=10.0)
    assert OptimizerConfig(budget=np.int64(10), epoch_rule=np.int64(5)).epoch_count(2) == 5
    with pytest.raises(ValueError):
        OptimizerConfig(budget=10, line_search=LearnerConfig("newton"))


# ---------------------------------------------------------------------------
# the line label adapter

def test_line_labels_for_identity_quadratic():
    fn = _quad((1.0, 1.0))
    line = line_label_oracle(_oracle(fn), Line(fn, np.zeros(2), 0))
    assert line.label_sample(0.5) == 1
    assert line.label_sample(-0.5) == -1


def test_line_label_at_the_directional_minimum_is_a_fair_coin():
    fn = _quad((1.0, 1.0))
    line = line_label_oracle(_oracle(fn), Line(fn, np.zeros(2), 0))
    labels = line.label_sample_many(np.zeros(100_000))
    assert abs(np.mean(labels == 1) - 0.5) <= binomial_band(100_000)


def test_line_segment_is_clipped_by_the_box():
    fn = _quad((1.0, 1.0))
    line = Line(fn, np.array([0.9, 0.0]), 0)
    assert line.lo == pytest.approx(-1.9)
    assert line.hi == pytest.approx(0.1)


def test_line_adapter_shares_the_budget_counter():
    fn = _quad((1.0, 1.0))
    oracle = _oracle(fn, budget=5)
    line = line_label_oracle(oracle, Line(fn, np.zeros(2), 1))
    line.label_sample_many(np.array([0.1, 0.2, -0.3]))
    assert oracle.queries_used == 3
    line.label_sample(0.4)
    line.label_sample(0.4)
    with pytest.raises(BudgetExhausted):
        line.label_sample(0.4)


@pytest.mark.parametrize("x, j, error", [
    ([1.0 + 1e-9, 0.0], 0, OutOfDomain),      # beyond the box's 1e-12 tolerance
    ([0.0, -1.0 - 1e-9], 0, OutOfDomain),
    ([0.0, 0.0, 0.0], 0, DimensionMismatch),
    ([[0.0], [0.0]], 0, DimensionMismatch),
    (0.0, 0, DimensionMismatch),
    ([0.0, 0.0], 2, IndexError),
    ([0.0, 0.0], -1, IndexError),
    ([np.nan, 0.0], 0, OutOfDomain),
    ([0.0, np.nan], 1, OutOfDomain),
    ([0.0, 5.0], 1, OutOfDomain),
    ([-np.inf, 0.0], 1, OutOfDomain),
    ([0.0, 0.0, 0.0], 5, DimensionMismatch),
])
def test_invalid_query_points_raise_and_charge_nothing(x, j, error):
    for fn in _functions_on_the_unit_square():
        oracle = _oracle(fn, mode=GaussianNoise(1.0))
        state = _plain(oracle.rng.bit_generator.state)
        for query in (lambda: oracle.sign_sample(Line(fn, x, j), 0.0),
                      lambda: oracle.sign_sample_line(Line(fn, x, j), alphas=[0.0, 0.5])):
            with pytest.raises(error):
                query()
        assert oracle.queries_used == 0
        assert _plain(oracle.rng.bit_generator.state) == state


def _functions_on_the_unit_square():
    """A Quadratic, a Ridge and a SeparablePower on [-1, 1]^2."""
    box = box_from_bounds(-1.0, 1.0, dim=2)
    return (_quad((1.0, 1.0)),
            Ridge(np.eye(2), [0.2, -0.4], box),  # x* = [0.1, -0.2]
            SeparablePower([1.0, 2.0], [0.3, 0.0], box, 3.0))


@pytest.mark.parametrize("j", [1.5, 0.9, np.float64(1.0)], ids=["1.5", "0.9", "float64"])
def test_a_non_integral_index_raises_and_charges_nothing(j):
    x = np.array([0.25, -0.5])
    for fn in _functions_on_the_unit_square():
        oracle = _oracle(fn, mode=GaussianNoise(1.0))
        state = _plain(oracle.rng.bit_generator.state)
        for query in (lambda: fn.grad_coord(x, j),
                      lambda: Line(fn, x, j).partials([0.0, 0.5]),
                      lambda: fn.directional_min(x, j),
                      lambda: oracle.sign_sample(Line(fn, x, j), 0.0),
                      lambda: oracle.sign_sample_line(Line(fn, x, j), alphas=[0.0, 0.5])):
            with pytest.raises(TypeError):
                query()
        assert oracle.queries_used == 0
        assert _plain(oracle.rng.bit_generator.state) == state
        # a numpy integer is an index
        j1 = np.int64(1)
        assert fn.grad_coord(x, j1) == fn.grad_coord(x, 1)
        assert fn.directional_min(x, j1) == fn.directional_min(x, 1)
        assert np.array_equal(Line(fn, x, j1).partials([0.5]), Line(fn, x, 1).partials([0.5]))
        line, ref = Line(fn, x, j1), Line(fn, x, 1)
        assert (line.lo, line.hi, line.j) == (ref.lo, ref.hi, 1) and type(line.j) is int
        oracle.sign_sample(Line(fn, x, j1), 0.0)
        oracle.sign_sample_line(Line(fn, x, j1), alphas=[0.0, 0.5])
        assert oracle.queries_used == 3


@pytest.mark.parametrize("x, error", [
    ([2.0, 0.0], OutOfDomain),
    ([np.nan, 0.0], OutOfDomain),
    ([0.0, 0.0, 0.0], DimensionMismatch),
])
def test_a_query_checks_its_point_before_its_index(x, error):
    # a scalar and a batched query check in one order: the point (its shape,
    # then its domain), then the index, then the steps
    message = "^point outside" if error is OutOfDomain else "^expected point of shape"
    for fn in _functions_on_the_unit_square():
        oracle = _oracle(fn)
        for query in (lambda: fn.grad_coord(x, 2),
                      lambda: fn.directional_min(x, 2),
                      lambda: Line(fn, x, 2),
                      lambda: Line(fn, x, -1),
                      lambda: Line(fn, x, 1.5),
                      # a step outside the segment as well: the point's error
                      lambda: Line(fn, x, 0).partials([5.0]),
                      lambda: oracle.sign_sample_line(Line(fn, x, 0), alphas=[np.nan, 5.0])):
            with pytest.raises(error, match=message):
                query()
        assert oracle.queries_used == 0


def test_line_budget_boundary_and_counter():
    fn = _quad((1.0, 1.0))
    oracle = _oracle(fn, budget=5)
    reference = seeded_rng(0, 0, 0)
    line = line_label_oracle(oracle, Line(fn, np.zeros(2), 0))
    # step 0 is the minimizer, where the partial is 0.0: each label is a tie coin
    for _ in range(5):
        assert line.label_sample(0.0) == (1 if reference.random() < 0.5 else -1)
    state = _plain(oracle.rng.bit_generator.state)
    assert state == _plain(reference.bit_generator.state)
    # over budget, a NaN step still fails its domain check first
    with pytest.raises(OutOfDomain):
        line.label_sample(np.nan)
    with pytest.raises(BudgetExhausted) as info:
        line.label_sample(0.0)
    assert str(info.value) == "budget 5 exhausted (5 used, 1 more requested)"
    assert oracle.queries_used == 5
    assert _plain(oracle.rng.bit_generator.state) == state


def test_steps_beyond_the_segment_pad():
    x = np.array([0.5, 1.0 + 1e-13])  # inside the tolerance; steps lie in [-1.5, 0.5]
    for fn in _functions_on_the_unit_square():
        oracle = _oracle(fn)
        line = Line(fn, x, 0)
        view = line_label_oracle(oracle, line)
        for alphas in ([0.5 + 1e-9], [-1.5 - 1e-9], [0.0, 2.0]):
            for query in (line.partials, lambda a: oracle.sign_sample_line(line, alphas=a)):
                with pytest.raises(OutOfDomain, match="^step leaves the domain box$"):
                    query(alphas)
            with pytest.raises(OutOfDomain):
                view.label_sample_many(alphas)
        assert oracle.queries_used == 0
        # steps within the pad are clipped onto the box
        assert line.partials([0.5 + 1e-13, -1.5 - 1e-13]).tobytes() == \
            line.partials([0.5, -1.5]).tobytes()
        assert view.label_sample_many([0.5 + 1e-13, -1.5 - 1e-13]).tolist() == [1, -1]
        # a scalar step beyond the pad raises as a batched one does, and charges nothing
        state = _plain(oracle.rng.bit_generator.state)
        for a in (2.0, -5.0):
            with pytest.raises(OutOfDomain, match="^step leaves the domain box$"):
                view.label_sample(a)
        assert oracle.queries_used == 2
        assert _plain(oracle.rng.bit_generator.state) == state


def test_nan_steps_leave_the_domain_on_both_paths():
    x = np.array([0.5, 0.0])
    for fn in _functions_on_the_unit_square():
        oracle = _oracle(fn, mode=GaussianNoise(1.0))
        line = Line(fn, x, 0)
        view = line_label_oracle(oracle, line)
        state = _plain(oracle.rng.bit_generator.state)
        for query in (lambda: line.partials([np.nan]),
                      lambda: line.partials([0.1, np.nan, -0.2]),
                      lambda: line.partial(np.nan),
                      lambda: oracle.sign_sample_line(line, alphas=[np.nan]),
                      lambda: oracle.sign_sample_line(line, alphas=[0.1, np.nan, -0.2]),
                      lambda: view.label_sample_many([np.nan, 0.0]),
                      lambda: view.label_sample(np.nan)):
            with pytest.raises(OutOfDomain):
                query()
        assert oracle.queries_used == 0
        assert _plain(oracle.rng.bit_generator.state) == state
        empty = oracle.sign_sample_line(line, alphas=[])
        assert empty.shape == (0,) and oracle.queries_used == 0


def test_scalar_and_batched_steps_share_one_domain_rule():
    # each step gets one decision on both paths: an answer, or OutOfDomain with
    # nothing charged or drawn.  The scalar and batched formulas round
    # differently, so only the decisions are compared.
    x = np.array([0.5, 1.0 + 1e-13])  # steps along coordinate 0 lie in [-1.5, 0.5]
    for fn in _functions_on_the_unit_square():
        line = Line(fn, x, 0)
        pad = _tol(line.lo, line.hi)
        inside = [0.0, -0.7, line.lo, line.hi, line.lo - 0.5 * pad, line.hi + 0.5 * pad,
                  line.lo - pad, line.hi + pad]
        beyond = [float(np.nextafter(line.lo - pad, -np.inf)),
                  float(np.nextafter(line.hi + pad, np.inf)), np.inf, -np.inf, np.nan]
        for a, answers in [(a, True) for a in inside] + [(a, False) for a in beyond]:
            for query in (lambda o: o.sign_sample(line, a),
                          lambda o: o.sign_sample_line(line, alphas=[a])):
                oracle = _oracle(fn, mode=GaussianNoise(1.0))
                state = _plain(oracle.rng.bit_generator.state)
                if answers:
                    query(oracle)
                    assert oracle.queries_used == 1, (fn, a)
                    continue
                with pytest.raises(OutOfDomain, match="^step leaves the domain box$"):
                    query(oracle)
                assert oracle.queries_used == 0, (fn, a)
                assert _plain(oracle.rng.bit_generator.state) == state


def test_line_queries_never_recheck_the_point(monkeypatch):
    calls = []
    contains = Box.contains

    def counting(self, x):
        calls.append(x)
        return contains(self, x)

    monkeypatch.setattr(Box, "contains", counting)
    for fn in _functions_on_the_unit_square():
        oracle = _oracle(fn, mode=GaussianNoise(1.0))
        calls.clear()
        line = Line(fn, np.array([0.5, -0.25]), 1)
        view = line_label_oracle(oracle, line)
        assert len(calls) == 1
        line.partial(0.3)
        line.partials([0.3, -0.5, 1.25])
        oracle.sign_sample(line, 0.3)
        oracle.sign_sample_line(line, alphas=[0.3, -0.5])
        view.label_sample(-0.75)
        view.label_sample_many([0.1, 1.25 + 1e-13])
        for bad in (np.nan, 5.0):
            with pytest.raises(OutOfDomain):
                view.label_sample(bad)
            with pytest.raises(OutOfDomain):
                view.label_sample_many([0.0, bad])
        assert len(calls) == 1
        assert oracle.queries_used == 6


def _copy_per_query_label(oracle, x, j, alpha):
    """A scalar line label with a fresh copy of the base point per query."""
    fn = oracle.fn
    q = np.array(x, dtype=float)
    lo, hi = float(fn.box.lo[j]), float(fn.box.hi[j])
    v = float(q[j]) + alpha
    q[j] = lo if v < lo else hi if v > hi else v
    return oracle.sign_sample(Line(fn, q, j), 0.0)


def test_a_failed_line_query_leaves_later_answers_unchanged():
    # label_sample writes each query into one buffer its line owns; a failed
    # step check must not leak into later answers
    fn = _quad((1.0, 2.0))
    x = np.array([0.5, -0.25])  # steps along coordinate 1 lie in [-0.75, 1.25]
    steps = [-0.75, -0.3, 0.0, 0.2, 1e-13, 0.5, 1.25 + 1e-13, -0.75 - 1e-13, 0.1]
    oracle = _oracle(fn, mode=GaussianNoise(0.3), seed=(4, 2))
    reference = _oracle(fn, mode=GaussianNoise(0.3), seed=(4, 2))
    line = line_label_oracle(oracle, Line(fn, x, 1))
    got = [line.label_sample(a) for a in steps]
    for bad in (np.nan, np.float64("nan"), 3.0, -4.0):
        with pytest.raises(OutOfDomain):
            line.label_sample(bad)
    got += [line.label_sample(a) for a in steps]
    got += line.label_sample_many(steps[1:5]).tolist()
    want = [_copy_per_query_label(reference, x, 1, a) for a in steps + steps]
    want += reference.sign_sample_line(Line(fn, x, 1), alphas=steps[1:5]).tolist()
    assert got == want
    assert oracle.queries_used == reference.queries_used == 2 * len(steps) + 4
    assert _plain(oracle.rng.bit_generator.state) == _plain(reference.rng.bit_generator.state)
    assert x.tolist() == [0.5, -0.25]  # the caller's point is never written


def test_degenerate_segment_reports_single_step():
    box = box_from_bounds([0.0, -1.0], [0.0, 1.0])  # first coordinate pinned
    fn = Quadratic(np.eye(2), np.zeros(2), box)
    line = Line(fn, np.array([0.0, 0.5]), 0)
    assert not line.hi > line.lo and line.lo == 0.0
    x = rssgd(fn, _oracle(fn, seed=(1, 1)),
              OptimizerConfig(budget=200, epoch_rule=10,
                              line_search=LearnerConfig("bisect"), seed=2))
    assert x[0] == 0.0


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def _edge_box():
    # zero bounds of both signs, a zero-width coordinate of each kind and a
    # coordinate whose roundoff at the ends is visible
    lo = [0.0, -0.0, -1.0, 0.0, 0.0, -0.1, -0.0]
    hi = [1.0, 0.0, -0.0, 0.0, -0.0, 0.3, 0.5]
    box = box_from_bounds(lo, hi)
    return Quadratic(np.eye(7), np.array([0.5, 0.0, -0.5, 0.0, 0.0, 0.1, 0.25]), box)


def test_line_view_matches_box_segment():
    fn = _edge_box()
    rng = np.random.default_rng(21)
    lo, hi = fn.box.lo, fn.box.hi
    points = [fn.box.center, lo, hi, np.full(fn.dim, -0.0), lo - 1e-13, hi + 1e-13]
    points += [lo + (hi - lo) * rng.random(fn.dim) for _ in range(20)]
    for x in points:
        for j in range(fn.dim):
            line = Line(fn, x, j)
            # the subtraction on the bound arrays, the sign of a zero included
            want = [fn.box.lo[j] - x[j], fn.box.hi[j] - x[j]]
            assert _bits([line.lo, line.hi]) == _bits(want)
            assert _bits(line.x) == _bits(x) and line.x is not x


def _step_rules(seed):
    """A stand-in learner: each call steps to an end of the line, one ulp
    past it, a zero of either sign or a point inside."""
    rng = np.random.default_rng(seed)

    def step(line, search, config, line_rng):
        lo, hi = search.lo, search.hi
        steps = (lo, hi, float(np.nextafter(lo, -np.inf)), float(np.nextafter(hi, np.inf)),
                 0.0, -0.0, float(rng.uniform(lo, hi)))
        return steps[rng.integers(len(steps))]

    return step


@pytest.mark.parametrize("nan_last", [False, True])
@pytest.mark.parametrize("start", ["center", "hi + 1e-13", "lo - 1e-13", "-0.0"])
def test_one_coordinate_clamp_is_bit_identical_to_np_clip(monkeypatch, start, nan_last):
    # rssgd clamps only the coordinate it moved; it used to clip the whole
    # iterate with np.clip after each step.  Both must give the same bits,
    # -0.0 and NaN included, also from a start inside the box's tolerance.
    fn = _edge_box()
    x0 = {"center": fn.box.center, "hi + 1e-13": fn.box.hi + 1e-13,
          "lo - 1e-13": fn.box.lo - 1e-13, "-0.0": np.full(fn.dim, -0.0)}[start]
    seed = len(start)
    coords = coordinate_rng(seed).integers(fn.dim, size=200).tolist()
    # end on a line of nonzero width, whose step may be the NaN
    epochs = max(e for e, j in enumerate(coords, start=1) if j in (0, 2, 5, 6))
    # the iterate that each epoch starts from, then the last
    iterates, steps = [x0.copy()], []
    rules = _step_rules(seed)

    def learner(*args):
        steps.append(np.nan if nan_last and len(iterates) == epochs else rules(*args))
        return steps[-1]

    monkeypatch.setattr(optimizer, "run_learner", learner)
    for line in descent(fn, _oracle(fn), OptimizerConfig(budget=epochs, epoch_rule=epochs,
                                                         seed=seed, x0=x0)):
        iterates.append(line.x.copy())
    x = iterates.pop()
    ref, steps = x0.copy(), iter(steps)
    for j, iterate in zip(coords, iterates):
        assert _bits(iterate) == _bits(ref)
        line = Line(fn, ref, j)
        ref[j] += next(steps) if line.hi > line.lo else line.lo
        ref = np.clip(ref, fn.box.lo, fn.box.hi)
    assert _bits(x) == _bits(ref)
    assert np.isnan(x).any() == nan_last  # NaN stays NaN


def test_a_run_checks_its_start_once(monkeypatch):
    calls = []
    contains = Box.contains

    def counting(self, x):
        calls.append(x)
        return contains(self, x)

    monkeypatch.setattr(Box, "contains", counting)
    fn = _quad((1.0, 2.0, 3.0), half=2.0)
    for search in ("bisect", "adaptive", "passive"):
        calls.clear()
        rssgd(fn, _oracle(fn, mode=GaussianNoise(1.0)),
              OptimizerConfig(budget=3000, epoch_rule=50, line_search=LearnerConfig(search),
                              seed=5, x0=np.array([2.0 + 1e-13, -1.0, 0.5])))
        assert len(calls) == 1


def test_a_nan_step_raises_as_the_next_epoch_starts(monkeypatch):
    fn = _quad((1.0, 2.0))
    steps = []

    def learner(*args):
        steps.append(np.nan if len(steps) == 2 else 0.25)
        return steps[-1]

    monkeypatch.setattr(optimizer, "run_learner", learner)
    with pytest.raises(OutOfDomain, match="^point outside the domain box$"):
        rssgd(fn, _oracle(fn), OptimizerConfig(budget=10, epoch_rule=10, seed=1))
    assert len(steps) == 3


# ---------------------------------------------------------------------------
# descent runs

def test_descent_from_the_optimum_stays_there():
    # Each line search re-perturbs a coordinate by at most its bisection
    # resolution width * 2^-(N+1), so the error stays at resolution scale.
    fn = _quad((1.0, 2.0))
    x = rssgd(fn, _oracle(fn), OptimizerConfig(budget=2000, epoch_rule=40,
                                               line_search=LearnerConfig("bisect"),
                                               seed=3, x0=fn.x_star))
    resolution = 2.0 * 2.0 ** -(2000 // 40 + 1)
    assert _f_error(fn, x) <= fn.dim * fn.lkss_bound * resolution ** 2


def test_descent_reference_run_reaches_deep_accuracy():
    fn = _quad((1.0, 2.0), x_star=(0.0, 0.0))
    oracle = _oracle(fn, seed=(4, 0))
    x = rssgd(fn, oracle, OptimizerConfig(budget=2000, epoch_rule=40,
                                          line_search=LearnerConfig("bisect"), seed=4,
                                          x0=np.array([1.0, 1.0])))
    assert _f_error(fn, x) <= 1e-8
    assert oracle.queries_used == 2000


def test_descent_is_deterministic_given_the_seed():
    fn = _quad((1.0, 3.0))
    oracles = [_oracle(fn, mode=GaussianNoise(0.5), seed=(5, 0)) for _ in range(2)]
    runs = [rssgd(fn, oracle,
                  OptimizerConfig(budget=3000, line_search=LearnerConfig("adaptive"),
                                  seed=(5, 1)))
            for oracle in oracles]
    assert np.array_equal(runs[0], runs[1])
    assert oracles[0].queries_used == oracles[1].queries_used


def test_iterates_respect_the_box():
    fn = _quad((1.0, 2.0, 3.0), half=0.5, x_star=(0.4, -0.4, 0.3))
    oracle = _oracle(fn, mode=GaussianNoise(1.0), seed=(6, 0))
    x = rssgd(fn, oracle, OptimizerConfig(budget=4000,
                                          line_search=LearnerConfig("adaptive"),
                                          seed=6))
    assert fn.box.contains(x)


@pytest.mark.parametrize("name", LEARNERS)
def test_every_line_search_runs_on_a_box_at_its_bound(name):
    # from a start on the tolerance edge of the box at +-2**62, a segment
    # is nearly 2**63 wide, and no sum, difference or power overflows
    half = DOMAIN_BOUND / 4
    fn = _quad((1.0, 2.0), half=half, x_star=(0.3 * half, -0.6 * half))
    edge = half + _tol(-half, half)
    line_search = LearnerConfig(name, grid_size=64, bz_k=2.0, bz_mu=1.0)
    oracle = _oracle(fn, mode=GaussianNoise(1.0), seed=(14, 0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = rssgd(fn, oracle, OptimizerConfig(budget=2000, epoch_rule=20, seed=14,
                                              line_search=line_search, x0=[edge, -edge]))
    assert np.isfinite(x).all() and fn.box.contains(x)
    assert oracle.queries_used == 2000


def test_budget_accounting_and_leftover_discard():
    fn = _quad((1.0, 2.0))
    oracle = _oracle(fn, seed=(7, 0), budget=777)
    rssgd(fn, oracle, OptimizerConfig(budget=777, epoch_rule=10,
                                      line_search=LearnerConfig("bisect"), seed=7))
    assert oracle.queries_used == 10 * (777 // 10) <= 777


def test_monotone_progress_with_exact_signs():
    # With an exact oracle and bisection, each epoch moves to within the
    # bisection resolution of the line minimum, so f can rise only by that
    # resolution's worth of function value.
    fn = _quad((1.0, 2.0, 3.0), half=2.0, x_star=(0.5, -0.3, 0.2))
    config = OptimizerConfig(budget=4000, epoch_rule=50, line_search=LearnerConfig("bisect"),
                             seed=8, x0=np.array([-1.5, 1.5, -1.5]))
    run = descent(fn, _oracle(fn, seed=(8, 0)), config)
    # the iterate that each epoch starts from, then the last
    *iterates, x = [config.x0.copy()] + [line.x.copy() for line in run]
    n = 4000 // 50
    # resolution slack, plus an absolute floor for coordinate-update rounding
    # (a step lands within one ulp of the coordinate's own magnitude)
    slack = fn.lkss_bound * (4.0 * 2.0 ** -n) ** 2 + 1e-29
    assert len(iterates) == 50
    assert np.array_equal(iterates[0], [-1.5, 1.5, -1.5])
    values = [fn.value(it) for it in iterates + [x]]
    for before, after in zip(values, values[1:]):
        assert after <= before + slack


def test_mean_error_is_nonincreasing_under_noise():
    # Averaged over seeds, the expected error makes progress beyond the first
    # d epochs: per-epoch means at stationarity fluctuate at the 1-SE scale,
    # so compare early and late blocks rather than consecutive epochs.
    fn = _quad((1.0, 2.0), half=2.0, x_star=(0.7, -0.4))
    traces = []
    for rep in range(50):
        oracle = _oracle(fn, mode=GaussianNoise(1.0), seed=(9, rep))
        run = descent(fn, oracle, OptimizerConfig(budget=3000, epoch_rule=30,
                                                  line_search=LearnerConfig("adaptive"),
                                                  seed=(9, rep)))
        # the error after each epoch
        traces.append([fn.value(line.x) - fn.f_min for line in run])
    traces = np.asarray(traces)
    early = traces[:, 2:8].mean(axis=1)   # beyond the first d = 2 epochs
    late = traces[:, -6:].mean(axis=1)
    diff = late - early
    sem = diff.std(ddof=1) / np.sqrt(diff.size)
    assert diff.mean() <= sem, f"late block rose by {diff.mean()} (sem {sem})"


@pytest.mark.parametrize("mode", [ExactSign(), GaussianNoise(1.0)], ids=["exact", "gaussian"])
@pytest.mark.parametrize("name", LEARNERS)
def test_draining_descent_is_rssgd(name, mode):
    fn = _quad((1.0, 2.0, 3.0), half=2.0, x_star=(0.3, -0.7, 1.1))
    config = OptimizerConfig(budget=600, epoch_rule=20, seed=4, line_search=LearnerConfig(
        name, grid_size=16, bz_k=2.0, bz_mu=1.0))
    oracle, twin = (_oracle(fn, mode=mode, seed=(4, 0)) for _ in range(2))
    coords = []
    for line in descent(fn, oracle, config):
        coords.append(line.j)
    assert coords == coordinate_rng(4).integers(fn.dim, size=20).tolist()
    assert _bits(line.x) == _bits(rssgd(fn, twin, config))
    assert oracle.queries_used == twin.queries_used
    assert _plain(oracle.rng.bit_generator.state) == _plain(twin.rng.bit_generator.state)


def test_a_bisect_run_stopped_after_k_epochs_has_charged_k_searches():
    fn = _quad((1.0, 2.0))
    config = OptimizerConfig(budget=777, epoch_rule=10, line_search=LearnerConfig("bisect"),
                             seed=7)
    for k in range(1, 11):
        oracle = _oracle(fn)
        run = descent(fn, oracle, config)
        for _ in range(k):
            next(run)
        assert oracle.queries_used == k * (777 // 10)


def test_descent_checks_its_arguments_at_its_first_next():
    fn = _quad()
    run = descent(fn, _oracle(_quad()), OptimizerConfig(budget=100))
    with pytest.raises(ValueError, match="must query the function"):
        next(run)


@pytest.mark.parametrize("budget, epochs", [(4000, 50), (600, 60), (300, 100), (2000, 400)])
@pytest.mark.parametrize("problem", ["coupled-quadratic", "ridge"])
def test_each_exact_bisect_move_lands_on_the_directional_minimum(problem, budget, epochs):
    # The reduction under exact signs: an epoch's move lies within bisection's
    # resolution, (hi - lo) * 2^-(N+1), of the directional minimum at the
    # point the epoch starts from, up to the roundoff of the coordinates.
    if problem == "ridge":
        fn = bench_ridge(n=200, d=4)
    else:
        A = [[2.0, 0.6, 0.2], [0.6, 1.5, -0.4], [0.2, -0.4, 3.0]]
        fn = Quadratic(A, [0.5, -0.3, 0.2], box_from_bounds(-2.0, 2.0, dim=3))
    n = budget // epochs
    before = np.full(fn.dim, -1.5)
    config = OptimizerConfig(budget=budget, epoch_rule=epochs,
                             line_search=LearnerConfig("bisect"), seed=8, x0=before)
    for line in descent(fn, _oracle(fn, seed=(8, 0)), config):
        j, after = line.j, line.x[line.j]
        slack = ((line.hi - line.lo) * 2.0 ** -(n + 1)
                 + 4 * np.spacing(max(abs(before[j]), abs(after))))
        assert abs((after - before[j]) - fn.directional_min(before, j)) <= slack
        before = line.x.copy()


def test_one_dimensional_reduction_matches_adaptive_learner():
    # With a single epoch and a centered start, the optimizer is exactly one
    # adaptive line search; the same seed must give the same estimate.
    fn = Quadratic(np.array([[2.0]]), np.array([0.31]),
                   box_from_bounds(-1.0, 1.0, dim=1))
    budget, seed = 900, 11
    oracle = _oracle(fn, mode=GaussianNoise(0.8), seed=(seed, 0))
    x = rssgd(fn, oracle, OptimizerConfig(budget=budget, epoch_rule=1,
                                          line_search=LearnerConfig("adaptive"),
                                          seed=seed, x0=np.array([0.0])))
    direct_oracle = _oracle(fn, mode=GaussianNoise(0.8), seed=(seed, 0))
    view = line_label_oracle(direct_oracle, Line(fn, np.array([0.0]), 0))
    direct = adaptive_learner(view, Interval(view.line.lo, view.line.hi),
                              LearnerConfig(budget=budget), line_search_rng(seed, 1))
    assert x[0] == direct
    assert oracle.queries_used == direct_oracle.queries_used


def test_one_epoch_adaptive_line_search_is_passive_on_the_segment():
    # criterion 05's line budgets N = floor(T / E) for T = 2^12..2^18 run one
    # inner epoch at c_delta = 3, whose search is the whole segment
    assert all(adaptive_epoch_schedule(n, 3.0) == (1, n) for n in range(11, 337))
    fn = Quadratic(np.diag([1.0, 1.75, 2.5, 3.25, 4.0]), [0.3, -0.2, 0.5, -0.4, 0.1],
                   box_from_bounds(-16.0, 16.0, dim=5))
    x = np.array([2.0, -3.0, 0.5, 16.0, -16.0])  # the last two segments end at 0.0
    for n in (11, 34, 106, 336):
        for j in range(fn.dim):
            oracles = [_oracle(fn, mode=GaussianNoise(1.0), seed=(n, j)) for _ in range(2)]
            lines = [line_label_oracle(oracle, Line(fn, x, j)) for oracle in oracles]
            search = Interval(lines[0].line.lo, lines[0].line.hi)
            adaptive = adaptive_learner(lines[0], search,
                                        LearnerConfig(budget=n, c_delta=3.0),
                                        seeded_rng(n, j, 1))
            passive = passive_erm(lines[1], search, n, "positive-right",
                                  seeded_rng(n, j, 1))
            assert adaptive.hex() == passive.hex()
            assert oracles[0].queries_used == oracles[1].queries_used == n
            assert _plain(oracles[0].rng.bit_generator.state) == \
                _plain(oracles[1].rng.bit_generator.state)
    # so rssgd on criterion 05's instance runs the same descent with either search
    for budget in (2 ** 12, 2 ** 14):
        runs = []
        for search in (LearnerConfig("adaptive", c_delta=3.0), LearnerConfig("passive")):
            oracle = _oracle(fn, mode=GaussianNoise(1.0), seed=(3, budget))
            runs.append(rssgd(fn, oracle, OptimizerConfig(budget=budget, line_search=search,
                                                          seed=(3, budget))).tobytes())
        assert runs[0] == runs[1]


def test_oracle_budget_is_never_tripped_by_the_schedule():
    fn = _quad((1.0, 2.0), half=1.0)
    for budget in (500, 1234, 4096):
        oracle = _oracle(fn, mode=GaussianNoise(1.0), seed=(12, budget),
                         budget=budget)
        rssgd(fn, oracle, OptimizerConfig(budget=budget,
                                          line_search=LearnerConfig("adaptive"),
                                          seed=(12, budget)))
        assert oracle.queries_used <= budget


def test_separable_power_descent_improves():
    fn = SeparablePower([1.0, 2.0, 1.5], [0.2, -0.3, 0.4],
                        box_from_bounds(-2.0, 2.0, dim=3), exponent=3.0)
    x0 = np.array([-1.0, 1.0, -1.0])
    x = rssgd(fn, _oracle(fn, seed=(13, 0)),
              OptimizerConfig(budget=6000, epoch_rule=60,
                              line_search=LearnerConfig("bisect"), seed=13, x0=x0))
    assert _f_error(fn, x) <= 1e-6 * (fn.value(x0) - fn.f_min)


# ---------------------------------------------------------------------------
# Ridge's partials from Q = A'A + I against the least-squares form

class _LeastSquaresRidge(Ridge):
    """Ridge with its partials in the least-squares form A_j'(Ax - b) + x_j."""

    def __init__(self, design, targets, box):
        super().__init__(design, targets, box)
        self._hess_diag = np.sum(self.design * self.design, axis=0) + 1.0

    def _partial(self, u, j):
        x = self.x_star + u  # the queried point, from its offset
        r = self.design @ x
        r -= self.targets
        return float(self.design[:, j] @ r + x[j])

    def _partials(self, u, j, alphas):
        return self._partial(u, j) + self._hess_diag[j] * alphas


def _ridge_pair_runs(mode, line_search, budget, rep, epoch_rule="paper-default"):
    """(function, final iterate, queries used) of one run on each form of the partials."""
    runs = []
    for cls in (Ridge, _LeastSquaresRidge):
        fn = bench_ridge(cls)
        oracle = _oracle(fn, mode=mode, seed=(rep, 0))
        x = rssgd(fn, oracle, OptimizerConfig(budget=budget, epoch_rule=epoch_rule,
                                              line_search=LearnerConfig(line_search),
                                              seed=(rep, 1)))
        runs.append((fn, x, oracle.queries_used))
    return runs


@pytest.mark.parametrize("mode, line_search, budget", [
    (ExactSign(), "bisect", 2048),          # N = 4 queries per line
    (ExactSign(), "bisect", 4096),          # N = 7
    (GaussianNoise(1.0), "adaptive", 4096),
])
def test_ridge_labels_match_the_least_squares_partials(mode, line_search, budget):
    # Away from roundoff-scale partials both forms give every label alike.
    for rep in range(2):
        (_, x, used), (_, ref, ref_used) = _ridge_pair_runs(mode, line_search,
                                                            budget, rep)
        assert x.tobytes() == ref.tobytes()
        assert used == ref_used


def test_ridge_deep_bisection_differs_only_at_roundoff():
    # At N = 100 queries per line, bisection drives partials to roundoff
    # scale, where the two forms' signs are noise: the iterates part in
    # their last bits, and their errors agree far below any rate a sweep
    # measures.
    parted = 0
    for rep in range(3):
        (fn, x, used), (ref_fn, ref, ref_used) = _ridge_pair_runs(
            ExactSign(), "bisect", 4000, rep, epoch_rule=40)
        parted += x.tobytes() != ref.tobytes()
        assert np.max(np.abs(x - ref)) <= 1e-12
        err, ref_err = fn.value(x) - fn.f_min, ref_fn.value(ref) - ref_fn.f_min
        gap0 = ref_fn.value(ref_fn.box.center) - ref_fn.f_min
        assert abs(err - ref_err) <= 1e-9 * gap0
        assert used == ref_used == 4000
    assert parted > 0


def test_requires_matching_oracle():
    fn = _quad((1.0, 2.0))
    other = _quad((1.0, 2.0))
    with pytest.raises(ValueError):
        rssgd(fn, _oracle(other), OptimizerConfig(budget=2000, seed=0))


def _plain(state):
    return {k: _plain(v) if isinstance(v, dict) else np.asarray(v).tolist()
            for k, v in state.items()}


def _draws(rng, odd_uint32=False):
    n_ints = 3 if odd_uint32 else 4
    return (rng.uniform(-2.0, 3.0, size=5).tolist() + rng.random(3).tolist()
            + rng.integers(0, 2 ** 31, size=n_ints, dtype=np.uint32).tolist()
            + [rng.random()])


@pytest.mark.parametrize("seed", [5, (2 ** 32, 3), (0, 1)])
def test_line_search_streams_match_line_search_rng(monkeypatch, seed):
    # small key blocks, so the run crosses several of them
    monkeypatch.setattr(optimizer, "KEY_BLOCK", 4)
    epochs = 11
    for epoch, rng in enumerate(line_search_streams(seed, epochs), start=1):
        # an odd number of uint32 draws leaves half of a 64-bit word buffered,
        # which the next epoch's reset must drop
        odd = epoch % 2 == 1
        assert _draws(rng, odd) == _draws(line_search_rng(seed, epoch), odd)
        assert rng.bit_generator.state["has_uint32"] == int(odd)
    assert epoch == epochs


def test_the_philox_state_setter_reads_python_ints_as_uint64_arrays():
    # line_search_streams keeps the state's counter, buffer and keys as Python
    # ints; keys of both halves of the uint64 range must give the arrays' bits
    keys = np.array([[0, 2 ** 64 - 1], [2 ** 63, 2 ** 63 - 1], [12345, 2 ** 63 + 7]],
                    dtype=np.uint64)
    for key in keys:
        from_arrays, from_ints = np.random.Philox(0), np.random.Philox(0)
        state = from_arrays.state
        state["state"]["key"] = key
        from_arrays.state = state
        state = from_ints.state
        state["state"]["counter"] = state["state"]["counter"].tolist()
        state["buffer"] = state["buffer"].tolist()
        state["state"]["key"] = key.tolist()
        from_ints.state = state
        assert _draws(np.random.Generator(from_ints), True) == \
            _draws(np.random.Generator(from_arrays), True)
        assert from_ints.state["state"]["key"].tolist() == key.tolist()


@pytest.mark.parametrize("line_search", [
    LearnerConfig("adaptive"), LearnerConfig("passive"), LearnerConfig("bisect"),
    LearnerConfig("bz", grid_size=16, bz_k=2.0, bz_mu=1.0),
])
def test_the_search_of_each_line_search_is_the_runs_line(monkeypatch, line_search):
    # the learner searches the line's own step segment, which reads as an Interval
    searches = []
    run_learner = optimizer.run_learner

    def spy(view, search, config, rng):
        assert search is view.line
        same = Interval(search.lo, search.hi)
        for name in ("lo", "hi", "width", "midpoint"):
            assert getattr(search, name).hex() == getattr(same, name).hex(), name
        searches.append(search)
        return run_learner(view, search, config, rng)

    monkeypatch.setattr(optimizer, "run_learner", spy)
    fn = _quad((1.0, 2.0, 3.0), half=2.0, x_star=(0.3, -0.7, 1.1))
    rssgd(fn, _oracle(fn, mode=GaussianNoise(1.0)),
          OptimizerConfig(budget=600, epoch_rule=20, line_search=line_search, seed=4))
    assert len(searches) == 20 and len({id(s) for s in searches}) == 1


@pytest.mark.parametrize("mode, line_search", [
    (ExactSign(), LearnerConfig("bisect")),
    (GaussianNoise(1.0), LearnerConfig("bz", grid_size=64, bz_k=2.0, bz_mu=1.0)),
])
def test_a_line_search_that_never_draws_gets_no_stream(monkeypatch, mode, line_search):
    def run():
        fn = _quad((1.0, 2.0, 3.0), half=2.0, x_star=(0.3, -0.7, 1.1))
        oracle = _oracle(fn, mode=mode, seed=(3, 0))
        x = rssgd(fn, oracle, OptimizerConfig(budget=3000, line_search=line_search,
                                              seed=(3, 1)))
        return x.tobytes(), oracle.queries_used

    # as every learner did before, draw a stream per epoch and ignore it
    with monkeypatch.context() as patch:
        patch.setattr(optimizer, "DRAWING_LEARNERS", LEARNERS)
        reference = run()

    def no_streams(seed, epochs):
        raise AssertionError("a learner that never draws was given streams")

    monkeypatch.setattr(optimizer, "line_search_streams", no_streams)
    assert run() == reference
    assert line_search.name not in DRAWING_LEARNERS
    fn = _quad()
    for name in DRAWING_LEARNERS:  # the learners that draw still get their streams
        with pytest.raises(AssertionError, match="never draws"):
            rssgd(fn, _oracle(fn), OptimizerConfig(
                budget=2000, line_search=LearnerConfig(name), seed=0))


@pytest.mark.parametrize("dim", [1, 2, 3, 5, 8, 1000])
def test_coordinates_drawn_at_once_match_scalar_calls(dim):
    # rssgd draws its E coordinates in one integers(d, size=E) call
    epochs = 301
    scalar, block = coordinate_rng(6), coordinate_rng(6)
    singles = [int(scalar.integers(dim)) for _ in range(epochs)]
    assert block.integers(dim, size=epochs).tolist() == singles
    assert _plain(block.bit_generator.state) == _plain(scalar.bit_generator.state)


def test_line_search_stream_ignores_what_the_last_epoch_left():
    streams = line_search_streams(9, 2)
    first = next(streams)
    first.integers(0, 10, size=1, dtype=np.uint32)  # half-used 32-bit buffer
    first.random(7)                                  # mid-block counter
    second = next(streams)
    assert _plain(second.bit_generator.state) == _plain(
        line_search_rng(9, 2).bit_generator.state)
    assert _draws(second) == _draws(line_search_rng(9, 2))
