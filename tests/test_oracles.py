import copy
import itertools
import warnings

import numpy as np
import pytest
from scipy.stats import norm

from signopt import (BudgetExhausted, ConfigError, DirectBernoulli, ExactSign,
                     GaussianNoise, Interval, LabelOracle, LearnerConfig, Line,
                     OutOfDomain, Quadratic, SeparablePower, SignOracle, TncProblem,
                     UniformNoise, box_from_bounds, learners, make_tnc_problem,
                     seeded_rng)
from signopt.harness import _build_mode
from signopt.oracles import DRAW_CHUNK, philox_keys

from _checks import binomial_band, probability_positive

N_DRAWS = 100_000


def _problem(**kw):
    args = dict(interval=(0.0, 1.0), threshold=0.5, exponent=2.0, mu=1.0, cap=0.4)
    args.update(kw)
    return make_tnc_problem(args["interval"], args["threshold"], args["exponent"],
                            args["mu"], args["cap"])


def _quad_fn():
    box = box_from_bounds(-2.0, 2.0, dim=2)
    return Quadratic(np.eye(2), np.zeros(2), box)


# ---------------------------------------------------------------------------
# label oracles

def test_deterministic_labels_on_the_positive_side():
    oracle = LabelOracle(_problem(mu=1e12, cap=0.5), seeded_rng(0, 0, 0))
    assert all(oracle.label_sample(0.7) == 1 for _ in range(200))
    assert all(oracle.label_sample(0.3) == -1 for _ in range(200))


def test_label_frequency_at_threshold():
    oracle = LabelOracle(_problem(), seeded_rng(1, 0, 0))
    labels = oracle.label_sample_many(np.full(N_DRAWS, 0.5))
    frac = np.mean(labels == 1)
    assert abs(frac - 0.5) <= binomial_band(N_DRAWS)


def test_label_frequency_matches_eta():
    problem = _problem()
    oracle = LabelOracle(problem, seeded_rng(2, 0, 0))
    labels = oracle.label_sample_many(np.full(N_DRAWS, 0.6))
    frac = np.mean(labels == 1)
    assert problem.eta_at(0.6) == pytest.approx(0.6)
    assert abs(frac - 0.6) <= binomial_band(N_DRAWS)


def test_label_oracle_rejects_outside_queries():
    oracle = LabelOracle(_problem(), seeded_rng(3, 0, 0))
    with pytest.raises(OutOfDomain):
        oracle.label_sample(1.5)
    assert oracle.queries_used == 0  # failed queries are not charged


class _ReferenceLabels:
    """The label oracle's contract written plainly: one ``rng.random()`` per
    query, drawn after the domain check and the charge."""

    def __init__(self, problem, rng, budget=None):
        self.problem, self.rng, self.budget, self.queries_used = problem, rng, budget, 0

    def _charge(self, n):
        if self.budget is not None and self.queries_used + n > self.budget:
            raise BudgetExhausted("reference budget")
        self.queries_used += n

    def label_sample(self, x):
        p = self.problem.eta_at(x)
        self._charge(1)
        return 1 if self.rng.random() < p else -1

    def label_sample_many(self, xs):
        ps = self.problem.eta_at(np.asarray(xs, dtype=float))
        self._charge(ps.size)
        return np.array([1 if self.rng.random() < p else -1 for p in ps], dtype=int)


def _both(seed, budget=None):
    problem = _problem(mu=4.0)
    return (LabelOracle(problem, seeded_rng(seed, 0, 0), budget=budget),
            _ReferenceLabels(problem, seeded_rng(seed, 0, 0), budget=budget))


def _points(n, start=0):
    # a few grid points, revisited in a shuffled order
    return [0.05 + 0.1 * ((7 * i) % 10) for i in range(start, start + n)]


@pytest.mark.parametrize("n_scalars", [255, 256, 257])
def test_label_paths_interleave_across_chunk_boundaries(n_scalars):
    oracle, reference = _both(30 + n_scalars)
    got, want = [], []
    for kind, n in (("one", n_scalars), ("many", 5), ("one", 3), ("many", 0),
                    ("many", 600), ("one", 300), ("many", 1), ("one", 260)):
        for labels, o in ((got, oracle), (want, reference)):
            if kind == "one":
                labels += [o.label_sample(x) for x in _points(n)]
            else:
                labels += o.label_sample_many(_points(n, start=3)).tolist()
    assert got == want
    assert len(got) == n_scalars + 1169 and {type(label) for label in got} == {int}
    assert oracle.queries_used == reference.queries_used == len(got)


def test_failed_label_queries_charge_nothing_and_shift_no_label():
    oracle, reference = _both(40, budget=300)
    got = [oracle.label_sample(x) for x in _points(100)]
    failing = (lambda: oracle.label_sample(1.5), lambda: oracle.label_sample(-0.2),
               lambda: oracle.label_sample(float("nan")),
               lambda: oracle.label_sample_many([0.5, 1.5]),
               lambda: oracle.label_sample_many([0.5, float("nan")]))
    for query in failing:
        with pytest.raises(OutOfDomain):
            query()
    assert oracle.queries_used == 100
    got += oracle.label_sample_many(_points(150)).tolist()
    with pytest.raises(BudgetExhausted):
        oracle.label_sample_many(_points(51))
    got += [oracle.label_sample(x) for x in _points(50)]
    for query in (lambda: oracle.label_sample(0.5), lambda: oracle.label_sample(1.5),
                  lambda: oracle.label_sample_many([0.5])):
        with pytest.raises((BudgetExhausted, OutOfDomain)):
            query()
    assert oracle.queries_used == 300
    want = [reference.label_sample(x) for x in _points(100)]
    want += reference.label_sample_many(_points(150)).tolist()
    want += [reference.label_sample(x) for x in _points(50)]
    assert got == want


def _counting_eta(monkeypatch):
    calls = []  # (problem, x) per eta_at call
    eta_at = TncProblem.eta_at

    def counting(problem, x):
        calls.append((problem, x))
        return eta_at(problem, x)

    monkeypatch.setattr(TncProblem, "eta_at", counting)
    return calls


def test_label_tables_answer_as_label_sample_with_one_eta_per_point(monkeypatch):
    calls = _counting_eta(monkeypatch)
    oracle, reference = _both(50, budget=DRAW_CHUNK + 150)
    points = [0.1, 0.3, 0.5, 0.9]
    etas, uniforms = oracle.label_tables(points)
    assert calls == [] and oracle.queries_used == 0  # a point's eta waits for its first read
    order = [0, 1, 2, 3, 1, 1, 0, 2] * 40
    got = [oracle.label_sample(x) for x in _points(5)]  # leaves a chunk's tail buffered
    calls.clear()
    chunk = uniforms(DRAW_CHUNK)
    assert oracle.queries_used == 5 + DRAW_CHUNK
    got += [u < etas[b] for u, b in zip(chunk, order)]
    assert [x for _, x in calls] == points
    calls.clear()
    got += [oracle.label_sample(x) > 0 for x in _points(100)]
    chunk = uniforms(DRAW_CHUNK)  # past the budget: 45 uniforms, then the stand-in
    assert len(chunk) == 46 and oracle.queries_used == DRAW_CHUNK + 150
    got += [u < etas[b] for u, b in zip(chunk[:45], order[3:])]
    assert [x for _, x in calls] == _points(100)  # no eta twice
    with pytest.raises(BudgetExhausted) as info:
        chunk[45] < etas[0]
    assert str(info.value) == "budget 406 exhausted (406 used, 1 more requested)"
    assert oracle.queries_used == 406
    drawn = (repr(oracle.rng.bit_generator.state), oracle._next)
    (past,) = uniforms(3)  # over budget, a chunk is the stand-in alone and draws nothing
    assert (repr(oracle.rng.bit_generator.state), oracle._next) == drawn
    with pytest.raises(BudgetExhausted):
        past < etas[2]
    want = [reference.label_sample(x) for x in _points(5)]
    want += [reference.label_sample(points[b]) > 0 for b in order[:DRAW_CHUNK]]
    want += [reference.label_sample(x) > 0 for x in _points(100)]
    want += [reference.label_sample(points[b]) > 0 for b in order[3:48]]
    assert got == want and {type(label) for label in got[5:]} == {bool}
    # the stream runs on after a chunk, as after a sized draw
    oracle, reference = _both(51)
    etas, uniforms = oracle.label_tables(points)
    got = [u < etas[1] for u in uniforms(7)]
    got += oracle.label_sample_many(_points(300)).tolist() + [oracle.label_sample(0.5)]
    want = [reference.label_sample(0.3) > 0 for _ in range(7)]
    want += reference.label_sample_many(_points(300)).tolist() + [reference.label_sample(0.5)]
    assert got == want


@pytest.mark.parametrize("points", [[0.1, 0.5, 1.5], [-0.2, 0.5], [0.1, float("nan")]],
                         ids=["above", "below", "nan"])
def test_no_label_tables_where_a_point_leaves_the_domain(monkeypatch, points):
    # each query at that point must raise before its charge: label_sample does
    calls = _counting_eta(monkeypatch)
    oracle = LabelOracle(_problem(), seeded_rng(53, 0, 0))
    oracle.label_sample(0.5)
    drawn = (repr(oracle.rng.bit_generator.state), oracle._next)
    assert oracle.label_tables(points) is None
    assert len(calls) == 1 and oracle.queries_used == 1
    assert (repr(oracle.rng.bit_generator.state), oracle._next) == drawn


def test_a_replaced_label_sample_gets_no_label_tables(monkeypatch):
    seen = []
    label_sample = LabelOracle.label_sample

    def wrapped(self, x):
        seen.append(x)
        return label_sample(self, x)

    oracle = LabelOracle(_problem(), seeded_rng(52, 0, 0))
    assert oracle.label_tables([0.1, 0.5]) is not None
    monkeypatch.setattr(LabelOracle, "label_sample", wrapped)
    assert oracle.label_tables([0.1, 0.5]) is None
    # so bz calls the replacement once per query, and the labels do not change
    config = LearnerConfig(name="bz", budget=40, grid_size=9, bz_k=2.0, bz_mu=1.0)
    point = learners.run_learner(oracle, Interval(0.0, 1.0), config, None)
    assert len(seen) == oracle.queries_used == 40
    monkeypatch.undo()
    reference = LabelOracle(_problem(), seeded_rng(52, 0, 0))
    assert learners.run_learner(reference, Interval(0.0, 1.0), config, None) == point

    class Subclass(LabelOracle):
        def label_sample(self, x):
            return super().label_sample(x)

    assert Subclass(_problem(), seeded_rng(52, 0, 0)).label_tables([0.1, 0.5]) is None


def test_bz_computes_each_eta_at_most_once_per_grid_point_and_row(monkeypatch):
    calls = _counting_eta(monkeypatch)
    configs = [LearnerConfig(name="bz", budget=b, grid_size=g, bz_k=2.0, bz_mu=4.0)
               for b, g in ((400, 11), (90, 30), (250, 11))]
    problems = [_problem(mu=4.0) for _ in configs]
    oracles = [LabelOracle(p, seeded_rng(51, i, 0)) for i, p in enumerate(problems)]
    learners.bz_learner(oracles, Interval(0.0, 1.0), configs)
    assert [o.queries_used for o in oracles] == [400, 90, 250]
    for problem, config in zip(problems, configs):
        grid = [b / config.grid_size for b in range(config.grid_size)]
        xs = [x for p, x in calls if p is problem]
        assert xs and len(set(xs)) == len(xs)
        assert all(min(abs(x - g) for g in grid) < 1e-12 for x in xs)


@pytest.mark.parametrize("make", [float, np.float64, int, np.array],
                         ids=["float", "float64", "int", "0-d array"])
def test_scalar_point_types_answer_as_one_draw_each(make):
    oracle, reference = _both(60)
    points = [make(v) for v in ((0, 1) * 150 if make is int else _points(300))]
    assert [oracle.label_sample(x) for x in points] == \
        [reference.label_sample(x) for x in points]
    with pytest.raises(OutOfDomain):
        oracle.label_sample(make(2))
    assert oracle.queries_used == 300


# ---------------------------------------------------------------------------
# sign oracles

def test_exact_sign_of_positive_gradient():
    fn = _quad_fn()
    oracle = SignOracle(fn, ExactSign(), seeded_rng(4, 0, 0))
    assert oracle.sign_sample(Line(fn, np.array([1.0, 0.0]), 0), 0.0) == 1
    assert oracle.sign_sample(Line(fn, np.array([0.0, 0.0]), 0), -1.0) == -1


def test_gaussian_sign_is_fair_at_a_zero_gradient():
    fn = _quad_fn()
    oracle = SignOracle(fn, GaussianNoise(1.0), seeded_rng(5, 0, 0))
    labels = oracle.sign_sample_line(Line(fn, np.zeros(2), 0), alphas=np.zeros(N_DRAWS))
    assert abs(np.mean(labels == 1) - 0.5) <= binomial_band(N_DRAWS)


def test_gaussian_sign_frequency_matches_normal_cdf():
    # At gradient 0.5 with sigma 1 the analytic P(+) is Phi(0.5); scipy is the
    # independent reference for the implementation's erf-based value.
    fn = _quad_fn()
    oracle = SignOracle(fn, GaussianNoise(1.0), seeded_rng(6, 0, 0))
    x = np.array([0.5, 0.0])
    expected = norm.cdf(0.5)
    p = float(probability_positive(oracle.mode, fn.grad_coord(x, 0)))
    assert p == pytest.approx(expected, abs=1e-12)
    labels = oracle.sign_sample_line(Line(fn, x, 0), alphas=np.zeros(N_DRAWS))
    assert abs(np.mean(labels == 1) - expected) <= binomial_band(N_DRAWS)


@pytest.mark.parametrize("mode,analytic", [
    (GaussianNoise(0.7), lambda g: norm.cdf(g / 0.7)),
    (UniformNoise(2.0), lambda g: np.clip(0.5 + g / 4.0, 0.0, 1.0)),
    (DirectBernoulli(slope=0.8, cap=0.3), lambda g: np.clip(0.5 + 0.8 * g, 0.2, 0.8)),
    (ExactSign(), lambda g: 1.0 if g > 0 else (0.0 if g < 0 else 0.5)),
])
def test_calibration_of_every_mode(mode, analytic):
    fn = _quad_fn()
    oracle = SignOracle(fn, mode, seeded_rng(7, 0, 0))
    for point in ([0.3, 0.0], [0.0, 0.0], [-0.9, 0.0]):
        x = np.asarray(point)
        g = fn.grad_coord(x, 0)
        labels = oracle.sign_sample_line(Line(fn, x, 0), alphas=np.zeros(N_DRAWS))
        frac = np.mean(labels == 1)
        assert abs(frac - float(analytic(g))) <= binomial_band(N_DRAWS), \
            f"{mode} at g={g}"


# oracle.mode = quantized, the sign of the gradient rounded to oracle.decimals
# places, loads ExactSign: the next three tests check that it gives what the
# rounding gave


def test_quantized_mode_never_flips_a_nonzero_sign():
    box = box_from_bounds(-1.0, 1.0, dim=3)
    fn = SeparablePower([1.0, 0.5, 2.0], [0.0, 0.1, -0.2], box, exponent=2.0)
    oracle = SignOracle(fn, ExactSign(), seeded_rng(8, 0, 0))
    rng = np.random.default_rng(9)
    total = 0
    for _ in range(200):
        x = rng.uniform(fn.box.lo, fn.box.hi)
        j = int(rng.integers(3))
        line = Line(fn, x, j)
        alphas = rng.uniform(line.lo, line.hi, size=500)
        true_signs = np.sign(line.partials(alphas))
        labels = oracle.sign_sample_line(line, alphas=alphas)
        nonzero = true_signs != 0
        assert np.array_equal(labels[nonzero], true_signs[nonzero])
        total += int(nonzero.sum())
    assert total >= 99_000


def test_quantized_rounding_to_zero_keeps_the_true_sign():
    # gradient 2e-4 rounds to zero at 3 decimals; the sign must survive
    box = box_from_bounds(-1.0, 1.0, dim=1)
    fn = SeparablePower([1.0], [0.0], box, exponent=2.0)
    oracle = SignOracle(fn, ExactSign(), seeded_rng(10, 0, 0))
    line = Line(fn, np.zeros(1), 0)
    for _ in range(50):
        assert oracle.sign_sample(line, 1e-4) == 1
        assert oracle.sign_sample(line, -1e-4) == -1


def _rounded_draw(decimals, g, rng):
    """The quantized mode's draw as it once was: the sign of g rounded to
    ``decimals`` places, or of g itself where that rounds to zero."""
    scale = 10.0 ** decimals
    with np.errstate(over="ignore"):
        q = np.sign(g) * np.round(np.abs(g) * scale) / scale
    rounded_out = q == 0.0
    q[rounded_out] = g[rounded_out]
    return ExactSign().draw_many(q, rng)


@pytest.mark.parametrize("decimals", [0, 3, 308])
def test_quantized_draws_match_the_rounding_formula(decimals):
    # the quantized mode loads ExactSign, which never rounds: the labels and
    # the tie coins it draws are the rounded ones, value for value
    tiny = 5e-324
    g = np.array([0.0, -0.0, 1.5, -2.0, tiny, -tiny, 2.5e-310, -1e-309,
                  4e-4, -4e-4, 5e-4, 0.4, -0.49, 1e-300, 1e300, -1e308,
                  np.inf, -np.inf, np.nan, 0.0, 123.456, -0.0, 0.0])
    g = np.concatenate([g, np.random.default_rng(decimals).permutation(g)])
    mode = _build_mode({"oracle.mode": "quantized", "oracle.decimals": str(decimals)})
    rngs = [seeded_rng(20, decimals, 0) for _ in range(3)]
    rounded = _rounded_draw(decimals, g.copy(), rngs[0])
    quantized = mode.draw_many(g.copy(), rngs[1])
    exact = ExactSign().draw_many(g.copy(), rngs[2])
    assert quantized.tolist() == rounded.tolist() == exact.tolist()
    assert len({repr(rng.bit_generator.state) for rng in rngs}) == 1


def _tie_for_next_draw(mode, rng):
    """A gradient at which the mode's next draw lands exactly on its edge."""
    peek = copy.deepcopy(rng)
    if isinstance(mode, GaussianNoise):
        return -peek.normal(0.0, mode.sigma)    # g + noise == 0.0: a fair coin
    if isinstance(mode, UniformNoise):
        return -peek.uniform(-mode.halfwidth, mode.halfwidth)
    if isinstance(mode, DirectBernoulli):
        return (peek.random() - 0.5) / mode.slope  # the uniform equals P(+), or nearly
    return 0.0


@pytest.mark.parametrize("mode", [
    GaussianNoise(0.7), UniformNoise(0.3), DirectBernoulli(1.0, 0.5),
    DirectBernoulli(slope=2.5, cap=0.2), ExactSign()],
    ids=lambda mode: repr(mode))
def test_scalar_draw_matches_the_size_one_draw(mode):
    # a sign query draws one label with draw(); it must be the label, and
    # leave the generator where, a batch of one would
    tiny = 5e-324
    values = [0.0, -0.0, tiny, -tiny, 2.5e-310, -1e-309, np.inf, -np.inf, np.nan,
              0.3, -1.7, 1e-9, -0.12, 1e300, -1e308, 0.5, -0.5]
    rng, reference = seeded_rng(80, 0, 0), seeded_rng(80, 0, 0)
    for i in range(600):
        g = values[i % len(values)] if i % 4 else _tie_for_next_draw(mode, rng)
        label = mode.draw(g, rng)
        assert type(label) is int
        want = int(mode.draw_many(np.asarray([g]), reference)[0])
        assert label == want, (i, g)
        assert repr(rng.bit_generator.state) == repr(reference.bit_generator.state), (i, g)


def test_direct_bernoulli_overflow_is_silent_on_both_paths():
    # slope * g overflows to +-inf, which the cap clamps: no warning, one label
    mode = DirectBernoulli(slope=2.5, cap=0.2)
    rng, reference = seeded_rng(81, 0, 0), seeded_rng(81, 0, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for g in (1e308, -1e308) * 20:
            assert mode.draw(g, rng) == int(mode.draw_many(np.asarray([g]), reference)[0])
    assert repr(rng.bit_generator.state) == repr(reference.bit_generator.state)


def _ties_by_count(mode, g, rng):
    """A batch of sign draws as they used to be drawn: the tie coins were
    counted with count_nonzero whatever the batch held."""
    if isinstance(mode, GaussianNoise):
        s = g + rng.normal(0.0, mode.sigma, size=g.shape)
    elif isinstance(mode, UniformNoise):
        s = g + rng.uniform(-mode.halfwidth, mode.halfwidth, size=g.shape)
    else:
        s = g
    labels = np.where(s > 0, 1, -1)
    ties = s == 0.0
    n_ties = int(np.count_nonzero(ties))
    if n_ties:
        coins = rng.random(n_ties) < 0.5
        labels[ties] = np.where(coins, 1, -1)
    return labels


@pytest.mark.parametrize("mode", [GaussianNoise(0.7), UniformNoise(0.3), ExactSign()],
                         ids=lambda mode: repr(mode))
def test_batched_ties_are_bit_identical_to_count_nonzero(mode):
    values = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 0.3, -1.7, 5e-324, -2.5e-310])
    pick = np.random.default_rng(3)
    rng, reference = seeded_rng(82, 0, 0), seeded_rng(82, 0, 0)
    for i in range(300):
        g = pick.choice(values, size=int(pick.integers(0, 9)))
        if i % 3 == 0 and g.size and not isinstance(mode, ExactSign):
            # g cancels the noise the next batch draws: an exact zero
            peek = copy.deepcopy(rng)
            noise = (peek.normal(0.0, mode.sigma, g.size) if isinstance(mode, GaussianNoise)
                     else peek.uniform(-mode.halfwidth, mode.halfwidth, g.size))
            g[0] = -noise[0]
        got = mode.draw_many(g.copy(), rng)
        want = _ties_by_count(mode, g.copy(), reference)
        assert got.tolist() == want.tolist(), (i, g)
        assert got.dtype == want.dtype, (i, g)  # intp labels, as np.where gives
        assert repr(rng.bit_generator.state) == repr(reference.bit_generator.state), (i, g)


@pytest.mark.parametrize("mode", [GaussianNoise(0.7), ExactSign()], ids=repr)
def test_a_scalar_step_gives_a_0d_label_array(mode):
    # what np.where gave for a 0-d batch; at x = 0 the step 0.0 is a tie
    fn = _quad_fn()
    for alpha in (0.0, 0.5, -1.25):
        got_rng, want_rng = seeded_rng(83, 0, 0), seeded_rng(83, 0, 0)
        line = Line(fn, np.zeros(2), 0)
        got = SignOracle(fn, mode, got_rng).sign_sample_line(line, alphas=alpha)
        want = SignOracle(fn, mode, want_rng).sign_sample_line(line, alphas=[alpha])
        assert type(got) is np.ndarray and got.shape == () and got.dtype == want.dtype
        assert got.item() == want.item(0)
        assert repr(got_rng.bit_generator.state) == repr(want_rng.bit_generator.state)


def test_quantized_decimals_are_bounded():
    assert _build_mode({"oracle.mode": "quantized", "oracle.decimals": "308"}) == ExactSign()
    assert _build_mode({"oracle.mode": "quantized"}) == ExactSign()  # checked only when set
    with pytest.raises(ConfigError, match="^oracle.decimals: "):
        _build_mode({"oracle.mode": "quantized", "oracle.decimals": "309"})


def test_tnc_transfer_along_a_coordinate_line():
    # With gaussian sign noise on a k-uniformly-convex separable function,
    # the induced regression function along a line satisfies the two-sided
    # power-law margin condition near the directional minimum.  Verified
    # against the scipy normal CDF and the known gradient.
    sigma = 1.0
    for k in (2.0, 3.0):
        box = box_from_bounds(-1.0, 1.0, dim=2)
        fn = SeparablePower([1.0, 1.5], [0.1, -0.2], box, exponent=k)
        x = np.array([0.3, 0.2])
        j = 1
        a_star = fn.directional_min(x, j)
        offsets = np.linspace(-0.2, 0.2, 401)
        offsets = offsets[np.abs(offsets) > 1e-3]
        g = Line(fn, x, j).partials(a_star + offsets)
        eta = norm.cdf(g / sigma)
        ratio = np.abs(eta - 0.5) / np.abs(offsets) ** (k - 1.0)
        assert ratio.min() > 0.0
        assert ratio.max() / ratio.min() <= 1.5  # tight two-sided growth


# ---------------------------------------------------------------------------
# budgets

def test_budget_zero_raises_immediately():
    oracle = LabelOracle(_problem(), seeded_rng(11, 0, 0), budget=0)
    with pytest.raises(BudgetExhausted):
        oracle.label_sample(0.5)


def test_budget_boundary_and_counter():
    oracle = LabelOracle(_problem(), seeded_rng(12, 0, 0), budget=5)
    for _ in range(3):
        oracle.label_sample(0.5)
    assert oracle.queries_used == 3
    oracle.label_sample(0.5)
    oracle.label_sample(0.5)
    drawn = (repr(oracle.rng.bit_generator.state), oracle._next)
    # over budget, a point outside the interval still fails its domain check first
    with pytest.raises(OutOfDomain):
        oracle.label_sample(1.5)
    with pytest.raises(BudgetExhausted) as info:
        oracle.label_sample(0.5)
    assert str(info.value) == "budget 5 exhausted (5 used, 1 more requested)"
    assert oracle.queries_used == 5
    assert (repr(oracle.rng.bit_generator.state), oracle._next) == drawn
    # a query over budget at a chunk boundary draws no new chunk
    oracle = LabelOracle(_problem(), seeded_rng(12, 1, 0), budget=DRAW_CHUNK)
    oracle.label_sample_many(np.full(DRAW_CHUNK, 0.5))
    drawn = repr(oracle.rng.bit_generator.state)
    with pytest.raises(BudgetExhausted):
        oracle.label_sample(0.5)
    assert repr(oracle.rng.bit_generator.state) == drawn


def test_sign_budget_boundary_and_counter():
    fn = _quad_fn()
    oracle = SignOracle(fn, ExactSign(), seeded_rng(12, 0, 0), budget=5)
    reference = seeded_rng(12, 0, 0)
    line = Line(fn, np.zeros(2), 1)
    # x* = 0, where every partial is 0.0: each exact sign is a tie coin
    for _ in range(5):
        assert oracle.sign_sample(line, 0.0) == (1 if reference.random() < 0.5 else -1)
    assert oracle.queries_used == 5
    state = repr(oracle.rng.bit_generator.state)
    assert state == repr(reference.bit_generator.state)
    # over budget, a step outside the segment still fails its domain check first
    with pytest.raises(OutOfDomain):
        oracle.sign_sample(line, 3.0)
    with pytest.raises(BudgetExhausted) as info:
        oracle.sign_sample(line, 0.0)
    assert str(info.value) == "budget 5 exhausted (5 used, 1 more requested)"
    assert oracle.queries_used == 5
    assert repr(oracle.rng.bit_generator.state) == state


def test_batch_overflow_charges_nothing():
    oracle = LabelOracle(_problem(), seeded_rng(13, 0, 0), budget=10)
    oracle.label_sample_many(np.full(8, 0.5))
    with pytest.raises(BudgetExhausted):
        oracle.label_sample_many(np.full(3, 0.5))
    assert oracle.queries_used == 8
    oracle.label_sample_many(np.full(2, 0.5))
    assert oracle.queries_used == 10


# ---------------------------------------------------------------------------
# determinism

def test_identical_seeds_give_identical_streams():
    for make in (lambda s: LabelOracle(_problem(), seeded_rng(15, s, 0)),
                 lambda s: SignOracle(_quad_fn(), GaussianNoise(1.0),
                                      seeded_rng(15, s, 0))):
        a, b = make(0), make(0)
        if isinstance(a, LabelOracle):
            seq_a = [a.label_sample(0.5) for _ in range(50)]
            seq_a += list(a.label_sample_many(np.linspace(0.1, 0.9, 40)))
            seq_b = [b.label_sample(0.5) for _ in range(50)]
            seq_b += list(b.label_sample_many(np.linspace(0.1, 0.9, 40)))
        else:
            x = np.array([0.2, -0.1])
            line0, line1 = Line(a.fn, x, 0), Line(a.fn, x, 1)
            seq_a = [a.sign_sample(line0, 0.0) for _ in range(50)]
            seq_a += list(a.sign_sample_line(line1, alphas=np.linspace(-0.5, 0.5, 40)))
            seq_b = [b.sign_sample(line0, 0.0) for _ in range(50)]
            seq_b += list(b.sign_sample_line(line1, alphas=np.linspace(-0.5, 0.5, 40)))
        assert seq_a == seq_b


def test_distinct_roles_give_distinct_streams():
    a = seeded_rng(7, 0, 0).random(32)
    b = seeded_rng(7, 0, 1).random(32)
    c = seeded_rng(7, 1, 0).random(32)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.array_equal(a, seeded_rng(7, 0, 0).random(32))


def test_random_n_draws_the_scalar_stream():
    # label_sample_many draws its n uniforms at once, label_sample one at a time:
    # the two query paths read one stream alike
    scalar = seeded_rng(3, 1, 0)
    singles = [scalar.random() for _ in range(1500)]
    chunked = seeded_rng(3, 1, 0)
    draws = np.concatenate([chunked.random(n) for n in (1, 512, 0, 700, 287)])
    assert draws.tolist() == singles
    assert chunked.random() == scalar.random()


def _seed_sequence_key(*entropy):
    return np.random.SeedSequence(entropy).generate_state(2, np.uint64)


def test_philox_keys_match_seed_sequence():
    # entries of one word, of two words (2**32) and of three (2**64 + 3)
    words = (0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 3)
    lasts = [0, 1, 2 ** 32 - 1]
    for n in range(5):
        for prefix in itertools.product(words, repeat=n):
            keys = philox_keys(prefix, lasts)
            assert keys.dtype == np.uint64 and keys.shape == (3, 2)
            for last, key in zip(lasts, keys):
                assert np.array_equal(key, _seed_sequence_key(*prefix, last))
    # a run of consecutive epochs, keyed in one pass
    keys = philox_keys((2 ** 32, 7, 1), np.arange(1, 1201))
    for epoch, key in enumerate(keys, start=1):
        assert np.array_equal(key, _seed_sequence_key(2 ** 32, 7, 1, epoch))


def test_philox_keys_reject_what_seeded_rng_rejects():
    with pytest.raises(ValueError):
        seeded_rng(3, -1, 0)
    with pytest.raises(ValueError):
        philox_keys((3, -1), [0])
    for last in ([-1], [2 ** 32]):
        with pytest.raises(ValueError):
            philox_keys((3,), last)
