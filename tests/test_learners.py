import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from signopt import (GaussianNoise, Interval, LabelOracle, LearnerConfig, Line,
                     OutOfDomain, POSITIVE_LEFT, Quadratic, SignOracle,
                     adaptive_epoch_schedule, adaptive_learner, auto_grid_size,
                     bisect_noiseless, box_from_bounds, bz_learner, erm_cut,
                     excess_risk, fit_rate_slope, line_label_oracle, make_tnc_problem,
                     passive_erm, run_learner, seeded_rng)
from signopt import learners
from signopt.problems import SCALE_BOUND

from _checks import erm_steps

UNIT = Interval(0.0, 1.0)
BOUND = Interval(-2.0 ** 64, 2.0 ** 64)  # the widest interval taken


def _noiseless(threshold):
    return make_tnc_problem((0.0, 1.0), threshold, 2.0, 1e12, 0.5)


def _noisy(threshold=0.37, k=2.0):
    return make_tnc_problem((0.0, 1.0), threshold, k, 1.0, 0.4)


# ---------------------------------------------------------------------------
# ERM cut rule

def test_erm_cut_separable_samples():
    cut = erm_cut(np.array([0.2, 0.4, 0.7, 0.9]), erm_steps([-1, -1, 1, 1]), UNIT)
    assert cut == pytest.approx(0.55)


def test_erm_cut_all_positive_returns_left_end():
    assert erm_cut(np.array([0.2, 0.4, 0.9]), erm_steps([1, 1, 1]), UNIT) == 0.0


def test_erm_cut_breaks_ties_leftmost():
    cut = erm_cut(np.array([0.2, 0.4, 0.6, 0.8]), erm_steps([-1, 1, -1, 1]), UNIT)
    assert cut == pytest.approx(0.3)


def test_erm_cut_positive_left_flips():
    cut = erm_cut(np.array([0.2, 0.4, 0.7, 0.9]), erm_steps([1, 1, -1, -1], POSITIVE_LEFT),
                  UNIT)
    assert cut == pytest.approx(0.55)


def test_erm_cut_takes_sequences_as_it_takes_arrays():
    cut = erm_cut(np.array([0.2, 0.7]), np.array([-1, 1]), UNIT)
    assert erm_cut([0.2, 0.7], [-1, 1], UNIT) == cut == pytest.approx(0.45)
    assert erm_cut((), [], UNIT) == UNIT.midpoint


def _brute_force_error(positions, labels, cut, orientation="positive-right"):
    positions = np.asarray(positions, float)
    labels = np.asarray(labels)
    plus_left = np.sum((positions < cut) & (labels > 0))
    minus_right = np.sum((positions >= cut) & (labels < 0))
    if orientation == "positive-right":
        return plus_left + minus_right
    return np.sum((positions < cut) & (labels < 0)) + \
        np.sum((positions >= cut) & (labels > 0))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(min_value=0.0, max_value=1.0,
                                    allow_nan=False),
                          st.sampled_from([-1, 1])),
                min_size=1, max_size=30))
@example([(0.0, -1), (5e-324, 1)])
def test_erm_cut_minimizes_empirical_error(samples):
    positions = [p for p, _ in samples]
    labels = [y for _, y in samples]
    cut = erm_cut(np.array(positions), erm_steps(labels), UNIT)
    best = _brute_force_error(positions, labels, cut)
    # no candidate (including off-grid probes) does better
    for probe in list(positions) + [0.0, 1.0] + \
            [(a + b) / 2 for a, b in zip(sorted(positions), sorted(positions)[1:])]:
        assert best <= _brute_force_error(positions, labels, probe)


def _erm_cut_reference(positions, labels, search, orientation="positive-right"):
    """erm_cut as it was: two cumsums, scanned over the candidate splits."""
    positions = np.asarray(positions, dtype=float)
    labels = np.asarray(labels)
    n = positions.size
    if n == 0:
        return search.midpoint
    order = positions.argsort(kind="stable")
    p = positions[order]
    y = labels[order]
    pos = (y > 0) if orientation == "positive-right" else (y < 0)
    left_pos = np.zeros(n + 1, dtype=np.intp)
    pos.cumsum(out=left_pos[1:])
    boundaries = (p[1:] > p[:-1]).nonzero()[0] + 1
    ends = p.searchsorted((search.lo, search.hi), side="left")
    splits = np.concatenate((ends[:1], boundaries, ends[1:]))
    best = int((2 * left_pos[splits] - splits).argmin())
    if not 0 < best <= boundaries.size:
        return float(search.hi if best else search.lo)
    lower, upper = p[boundaries[best - 1] - 1], p[boundaries[best - 1]]
    mid = 0.5 * (lower + upper)
    return float(upper if mid == lower else mid)


# few values, so that ties, positions on or beyond the search ends and
# adjacent floats are common
_FEW_FLOATS = [-0.5, -0.0, 0.0, 5e-324, 1e-10, 0.25, 0.5, float(np.nextafter(0.5, 1.0)),
               0.75, 1.0, 1.5, np.nan]


def _assert_same_cut(positions, labels, search, orientation):
    got = erm_cut(np.array(positions, dtype=float), erm_steps(labels, orientation), search)
    want = _erm_cut_reference(positions, labels, search, orientation)
    assert type(got) is float and repr(got) == repr(want)


@pytest.mark.parametrize("n", [0, 1, 2, 11, 34, 106])
@pytest.mark.parametrize("orientation", ["positive-right", POSITIVE_LEFT])
def test_erm_cut_is_bit_identical_on_uniform_samples(n, orientation):
    rng = np.random.default_rng(n)
    for _ in range(200):
        lo = rng.uniform(-2.0, 1.0)
        search = Interval(lo, lo + rng.uniform(1e-6, 3.0))
        positions = rng.uniform(search.lo, search.hi, size=n)
        labels = rng.choice([-1, 1], size=n)
        _assert_same_cut(positions, labels, search, orientation)
    # adjacent floats, whose midpoint rounds onto the lower one
    _assert_same_cut([0.0, 5e-324], [-1, 1], UNIT, orientation)
    _assert_same_cut([5e-324, 0.0], [1, -1], UNIT, orientation)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_FEW_FLOATS), st.sampled_from([-1, 0, 1])),
                max_size=12),
       st.sampled_from([(0.0, 1.0), (-0.0, 0.5), (0.25, 0.75), (5e-324, 1e-10),
                        (-0.5, 1.5), (0.5, float(np.nextafter(0.5, 1.0)))]),
       st.sampled_from(["positive-right", POSITIVE_LEFT]))
def test_erm_cut_is_bit_identical_with_ties_and_outliers(samples, ends, orientation):
    positions = [p for p, _ in samples]
    labels = [y for _, y in samples]
    _assert_same_cut(positions, labels, Interval(*ends), orientation)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_erm_cut_does_not_depend_on_the_order_within_ties(data):
    samples = data.draw(st.lists(st.tuples(st.sampled_from(_FEW_FLOATS),
                                           st.sampled_from([-1, 0, 1])), max_size=12))
    ends = data.draw(st.sampled_from([(0.0, 1.0), (-0.0, 0.5), (-0.5, 1.5),
                                      (5e-324, 1e-10)]))
    orientation = data.draw(st.sampled_from(["positive-right", POSITIVE_LEFT]))
    shuffled = data.draw(st.permutations(samples))
    search = Interval(*ends)
    want = repr(_erm_cut_reference([p for p, _ in samples], [y for _, y in samples],
                                   search, orientation))
    for case in (samples, shuffled):
        cut = erm_cut(np.array([p for p, _ in case]),
                      erm_steps([y for _, y in case], orientation), search)
        assert repr(cut) == want


@pytest.mark.parametrize("samples, search, want", [
    # the {-0.0, 0.0} group is the lower side of the best split
    ([(-0.0, -1), (0.0, -1), (0.0, 1), (0.5, 1)], (-1.0, 1.0), 0.25),
    ([(-0.0, -1), (0.0, -1), (-0.0, 1), (5e-324, 1)], (-1.0, 1.0), 5e-324),
    # ... and the upper side
    ([(-0.5, -1), (-0.0, 1), (0.0, 1), (0.0, -1)], (-1.0, 1.0), -0.25),
    ([(-5e-324, -1), (0.0, 1), (-0.0, 1), (0.0, -1)], (-1.0, 1.0), -0.0),
])
def test_erm_cut_at_a_group_of_signed_zeros(samples, search, want):
    search = Interval(*search)
    for case in itertools.permutations(samples):
        positions = [p for p, _ in case]
        labels = [y for _, y in case]
        cut = erm_cut(np.array(positions), erm_steps(labels), search)
        assert repr(cut) == repr(want)
        assert repr(cut) == repr(_erm_cut_reference(positions, labels, search))


def _one_pass_split(positions, labels):
    """The leftmost minimum over all n + 1 splits of the stably sorted positions."""
    labels = np.asarray(labels)[np.argsort(positions, kind="stable")]
    err = np.concatenate(([0], np.cumsum(np.where(labels > 0, 1, -1))))
    return int(err.argmin())


@pytest.mark.parametrize("samples, ends", [
    # the leftmost minimum over all splits lies inside a group of equal positions
    ([(0.2, -1), (0.5, -1), (0.5, 1), (0.8, 1)], (0.0, 1.0)),
    ([(0.5, -1), (0.5, -1), (0.5, 1), (0.9, -1), (0.9, 1)], (0.0, 1.0)),
    # ... between -0.0 and 0.0
    ([(-0.5, -1), (-0.0, -1), (0.0, 1), (0.5, 1)], (-1.0, 1.0)),
    # a position lies below lo
    ([(-0.5, -1), (0.6, 1)], (0.0, 1.0)),
    ([(-0.5, 1), (0.5, -1)], (0.0, 1.0)),
    # a position lies at or above hi
    ([(0.25, -1), (1.0, -1)], (0.0, 1.0)),
    ([(0.25, -1), (1.5, -1)], (0.0, 1.0)),
    # a position is NaN
    ([(0.25, 1), (0.5, -1), (np.nan, -1)], (0.0, 1.0)),
    ([(np.nan, 1), (0.25, -1)], (0.0, 1.0)),
])
def test_erm_cut_scans_the_candidates_where_one_pass_cannot_decide(samples, ends):
    positions = np.array([p for p, _ in samples])
    labels = np.array([y for _, y in samples])
    search = Interval(*ends)
    p = np.sort(positions, kind="stable")
    best = _one_pass_split(positions, labels)
    in_range = p[0] >= search.lo and p[-1] < search.hi
    # each case leaves the one pass's split undecided, so erm_cut scans
    assert not (in_range and (best in (0, p.size) or p[best - 1] < p[best]))
    # negated labels on the positive-left side have the same errors
    _assert_same_cut(positions, labels, search, "positive-right")
    _assert_same_cut(positions, -labels, search, POSITIVE_LEFT)


def test_passive_erm_localizes_noiseless_threshold():
    problem = _noiseless(0.7)
    oracle = LabelOracle(problem, seeded_rng(0, 0, 0))
    cut = passive_erm(oracle, UNIT, 500, "positive-right", seeded_rng(0, 0, 1))
    assert abs(cut - 0.7) <= 0.01


def test_passive_erm_needs_samples():
    oracle = LabelOracle(_noiseless(0.5), seeded_rng(0, 1, 0))
    with pytest.raises(ValueError):
        passive_erm(oracle, UNIT, 0, "positive-right", seeded_rng(0, 1, 1))


def _passive_oracle(kind, seed):
    """A fresh label oracle of ``kind`` and the search a passive run makes on it."""
    if kind == "label":
        return LabelOracle(_noisy(), seeded_rng(seed, 0, 0)), UNIT
    fn = Quadratic(np.diag([1.0, 3.0]), [0.2, -0.4], box_from_bounds(-1.0, 1.0, dim=2))
    line = Line(fn, np.array([0.5, 0.5]), 1)
    sign_oracle = SignOracle(fn, GaussianNoise(1.0), seeded_rng(seed, 0, 0))
    return line_label_oracle(sign_oracle, line), line


@pytest.mark.parametrize("kind", ["label", "line"])
@pytest.mark.parametrize("orientation", ["positive-right", POSITIVE_LEFT])
@pytest.mark.parametrize("n", [1, 2, 11, 34, 106])
@pytest.mark.parametrize("one_ulp", [False, True], ids=["wide", "one-ulp"])
def test_passive_erm_cuts_as_erm_cut_on_its_draws_and_labels(kind, orientation, n,
                                                             one_ulp):
    oracle, search = _passive_oracle(kind, n)
    if one_ulp:
        search = Interval(search.midpoint, math.nextafter(search.midpoint, math.inf))
    cut = passive_erm(oracle, search, n, orientation, seeded_rng(n, 0, 1))
    replay, _ = _passive_oracle(kind, n)
    xs = seeded_rng(n, 0, 1).uniform(search.lo, search.hi, size=n)
    if one_ulp and n > 2:  # ties, and positions at hi: erm_cut scans the candidates
        assert np.unique(xs).size < n and xs.max() == search.hi
    want = erm_cut(xs, erm_steps(replay.label_sample_many(xs), orientation), search)
    assert cut.hex() == want.hex()
    assert (oracle.base if kind == "line" else oracle).queries_used == n


# ---------------------------------------------------------------------------
# adaptive epoch schedule

def test_epoch_schedule_reference_values():
    assert adaptive_epoch_schedule(4096, 2.0) == (3, 1365)
    assert adaptive_epoch_schedule(4, 2.0) == (1, 4)
    assert adaptive_epoch_schedule(3, 2.0) == (1, 3)
    assert adaptive_epoch_schedule(256, 2.0) == (2, 128)


def _record_passive_searches(monkeypatch):
    """Record (search, estimate) of each passive_erm call the learners make."""
    calls = []
    original = learners.passive_erm

    def recording(oracle, search, *args):
        estimate = original(oracle, search, *args)
        calls.append((search, estimate))
        return estimate

    monkeypatch.setattr(learners, "passive_erm", recording)
    return calls


def _assert_halving_searches(calls, search, point):
    """Epoch e searches [x - R, x + R] within ``search``, R halving from the width."""
    x, radius = search.midpoint, search.width
    for epoch_search, estimate in calls:
        assert epoch_search == Interval(max(search.lo, x - radius),
                                        min(search.hi, x + radius))
        x, radius = estimate, radius / 2
    assert point == x


def test_adaptive_learner_noiseless_bound(monkeypatch):
    calls = _record_passive_searches(monkeypatch)
    problem = _noiseless(0.7)
    oracle = LabelOracle(problem, seeded_rng(0, 2, 0), budget=4096)
    point = adaptive_learner(oracle, UNIT, LearnerConfig(budget=4096),
                             seeded_rng(0, 2, 1))
    # 3 epochs of halving radii: the estimate localizes within R * 2^-E
    assert len(calls) == 3
    assert abs(point - 0.7) <= 0.125
    assert oracle.queries_used == 3 * 1365


def test_adaptive_learner_radii_halve_exactly(monkeypatch):
    calls = _record_passive_searches(monkeypatch)
    oracle = LabelOracle(_noisy(), seeded_rng(0, 3, 0))
    point = adaptive_learner(oracle, UNIT, LearnerConfig(budget=2048),
                             seeded_rng(0, 3, 1))
    assert len(calls) == adaptive_epoch_schedule(2048, 2.0)[0] >= 2
    _assert_halving_searches(calls, UNIT, point)


def test_adaptive_first_round_searches_the_interval_itself(monkeypatch):
    calls = _record_passive_searches(monkeypatch)
    for lo, hi, budget in ((0.0, 1.0, 2048), (-16.5, 15.5, 4096),
                           (1.0, float(np.nextafter(1.0, 2.0)), 300)):
        calls.clear()
        search = Interval(lo, hi)
        problem = make_tnc_problem((lo, hi), 0.5 * (lo + hi), 2.0, 1.0, 0.4)
        point = adaptive_learner(LabelOracle(problem, seeded_rng(0, 5, 0)), search,
                                 LearnerConfig(budget=budget), seeded_rng(0, 5, 1))
        assert len(calls) == adaptive_epoch_schedule(budget, 2.0)[0] >= 2
        assert calls[0][0] is search
        _assert_halving_searches(calls, search, point)


def test_adaptive_learner_tiny_budget_is_one_passive_epoch(monkeypatch):
    calls = _record_passive_searches(monkeypatch)
    problem = _noiseless(0.3)
    cfg = LearnerConfig(budget=4)
    oracle = LabelOracle(problem, seeded_rng(0, 4, 0))
    point = adaptive_learner(oracle, UNIT, cfg, seeded_rng(0, 4, 1))
    direct = passive_erm(LabelOracle(problem, seeded_rng(0, 4, 0)), UNIT, 4,
                         "positive-right", seeded_rng(0, 4, 1))
    assert len(calls) == 1 and oracle.queries_used == 4
    assert point == direct


def test_adaptive_learner_estimate_stays_in_interval(monkeypatch):
    calls = _record_passive_searches(monkeypatch)
    for seed in range(5):
        calls.clear()
        oracle = LabelOracle(_noisy(0.02), seeded_rng(1, seed, 0))
        point = adaptive_learner(oracle, UNIT, LearnerConfig(budget=300),
                                 seeded_rng(1, seed, 1))
        assert UNIT.contains(point)
        _assert_halving_searches(calls, UNIT, point)
        for _, estimate in calls:
            assert UNIT.contains(estimate)


def test_adaptive_learner_auto_orientation():
    for orientation, threshold in (("positive-right", 0.62), ("positive-left", 0.41)):
        problem = make_tnc_problem((0.0, 1.0), threshold, 2.0, 1e12, 0.5, orientation)
        oracle = LabelOracle(problem, seeded_rng(2, 0, 0), budget=2048)
        point = adaptive_learner(oracle, UNIT,
                                 LearnerConfig(budget=2048, orientation="auto"),
                                 seeded_rng(2, 0, 1))
        assert abs(point - threshold) <= 0.3
        assert oracle.queries_used <= 2048


def test_adaptive_learner_budget_never_exceeded():
    for budget in (5, 17, 100, 999):
        problem = _noisy()
        oracle = LabelOracle(problem, seeded_rng(3, budget, 0), budget=budget)
        adaptive_learner(oracle, UNIT, LearnerConfig(budget=budget, orientation="auto"),
                         seeded_rng(3, budget, 1))
        assert oracle.queries_used <= budget


# ---------------------------------------------------------------------------
# probabilistic bisection

def _bz_config(budget, grid=64, k=2.0, mu=1e12, name="bz", **kw):
    return LearnerConfig(name, budget=budget, grid_size=grid, bz_k=k, bz_mu=mu, **kw)


def test_bz_zero_budget_returns_midpoint():
    oracle = LabelOracle(_noiseless(0.5), seeded_rng(4, 0, 0))
    assert run_learner(oracle, UNIT, _bz_config(0), None) == 0.5
    assert oracle.queries_used == 0


def test_bz_deterministic_labels_centered_threshold():
    oracle = LabelOracle(_noiseless(0.5), seeded_rng(4, 1, 0))
    point = run_learner(oracle, UNIT, _bz_config(30), None)
    assert abs(point - 0.5) <= 1.0 / 64.0
    assert oracle.queries_used == 30


def test_bz_threshold_at_boundary():
    problem = make_tnc_problem((0.0, 1.0), 0.0, 2.0, 1e12, 0.5)
    oracle = LabelOracle(problem, seeded_rng(4, 2, 0))
    assert run_learner(oracle, UNIT, _bz_config(30), None) <= 1.0 / 64.0


def test_bz_noisy_convergence():
    oracle = LabelOracle(_noisy(0.37), seeded_rng(4, 3, 0))
    point = run_learner(oracle, UNIT, _bz_config(2000, grid=40, mu=1.0), None)
    assert abs(point - 0.37) <= 0.05


def test_bz_requires_grid_parameters():
    oracle = LabelOracle(_noisy(), seeded_rng(4, 4, 0))
    (result,) = bz_learner([oracle], UNIT, [LearnerConfig(budget=10)])
    with pytest.raises(ValueError):
        raise result
    with pytest.raises(ValueError):
        bz_learner([oracle], UNIT, [LearnerConfig(budget=10, grid_size=1,
                                                  bz_k=2.0, bz_mu=1.0)])


def test_bz_raises_only_when_a_query_leaves_the_domain():
    # the search grids overhang the problem's [0, 1]: grid points outside it
    # that are never queried do not matter, a query outside it ends the run
    config = _bz_config(50, grid=6, mu=1.0)
    wide = Interval(-1.0, 2.0)
    got = run_learner(LabelOracle(_noisy(), seeded_rng(4, 7, 0)), wide, config, None)
    assert got == _bz_reference(LabelOracle(_noisy(), seeded_rng(4, 7, 0)), wide, config)
    oracle = LabelOracle(_noisy(), seeded_rng(4, 7, 0))
    with pytest.raises(OutOfDomain):
        run_learner(oracle, Interval(0.5, 3.0), config, None)
    assert oracle.queries_used == 0


def test_bz_positive_left_orientation():
    problem = make_tnc_problem((0.0, 1.0), 0.7, 2.0, 1e12, 0.5, POSITIVE_LEFT)
    oracle = LabelOracle(problem, seeded_rng(4, 5, 0))
    point = run_learner(oracle, UNIT, _bz_config(40, orientation=POSITIVE_LEFT), None)
    assert abs(point - 0.7) <= 1.0 / 64.0


def test_bz_auto_orientation_spends_the_same_budget():
    problem = make_tnc_problem((0.0, 1.0), 0.7, 2.0, 1e12, 0.5, POSITIVE_LEFT)
    oracle = LabelOracle(problem, seeded_rng(4, 6, 0), budget=60)
    point = run_learner(oracle, UNIT, _bz_config(60, orientation="auto"), None)
    assert oracle.queries_used == 60
    assert abs(point - 0.7) <= 1.0 / 64.0


def _bz_block():
    """Rows of different budgets, grids and orientations, two of them capped:
    (stream, problem, oracle cap, learner config) per row."""
    right = _noisy(0.37)
    left = make_tnc_problem((0.0, 1.0), 0.62, 2.5, 0.8, 0.4, POSITIVE_LEFT)
    auto = LearnerConfig(name="bz", grid_size="auto", bz_k=2.0, bz_mu=1.0)
    rows = [
        (right, 300, None, auto),
        (right, 0, None, auto),
        (left, 500, None, _bz_config(500, grid=17, k=2.5, mu=0.8,
                                     orientation=POSITIVE_LEFT)),
        (left, 80, None, _bz_config(80, grid=9, k=2.5, mu=0.8, orientation="auto")),
        (right, 400, 150, auto),  # the cap binds mid-run
        (right, 64, 12, _bz_config(64, grid=5, mu=1.0, orientation="auto")),  # in the probe
        (right, 15, None, _bz_config(15, grid=3, mu=1.0, orientation="auto")),  # probe only
        (right, 2000, None, auto),
    ]
    return [(i, problem, cap,
             config.for_budget(budget, dither=i) if config is auto else config)
            for i, (problem, budget, cap, config) in enumerate(rows)]


def _bz_oracle(row):
    stream, problem, cap, _ = row
    return LabelOracle(problem, seeded_rng(7, stream, 0), budget=cap)


def _bz_run(rows):
    oracles = [_bz_oracle(row) for row in rows]
    results = bz_learner(oracles, UNIT, [config for *_, config in rows])
    return [(repr(r) if isinstance(r, Exception) else r, oracle.queries_used)
            for r, oracle in zip(results, oracles)]


def _bz_one_row(row):
    oracle = _bz_oracle(row)
    try:
        return run_learner(oracle, UNIT, row[-1], None), oracle.queries_used
    except Exception as exc:  # noqa: BLE001
        return repr(exc), oracle.queries_used


def test_bz_learner_rows_match_their_one_row_calls():
    rows = _bz_block()
    batched = _bz_run(rows)
    assert batched == [_bz_one_row(row) for row in rows]
    assert len({config.grid_size for *_, config in rows}) >= 5
    errors = [r for r, _ in batched if isinstance(r, str)]
    assert errors == ["BudgetExhausted('budget 150 exhausted (150 used, 1 more requested)')",
                      "BudgetExhausted('budget 12 exhausted (0 used, 20 more requested)')"]
    assert batched[1] == (0.5, 0)
    assert [q for _, q in batched] == [300, 0, 500, 80, 150, 0, 15, 2000]


def test_bz_block_rows_do_not_depend_on_each_other():
    rows = _bz_block()
    full = _bz_run(rows)
    # without the capped rows, and in reverse order
    kept = [i for i, (_, _, cap, _) in enumerate(rows) if cap is None]
    assert _bz_run([rows[i] for i in kept]) == [full[i] for i in kept]
    assert _bz_run(rows[::-1]) == full[::-1]


def _bz_reference(oracle, search, config):
    """The sequential loop of probabilistic bisection, one label_sample per query."""
    cells, budget = int(config.grid_size), int(config.budget)
    if budget == 0:
        return search.midpoint
    n_probe, orientation = 0, config.orientation
    if orientation == "auto":
        n_probe = min(20, budget)
        orientation = learners._auto_orientation(oracle, search, n_probe)
    osign = 1 if orientation == "positive-right" else -1
    delta = search.width / cells
    gamma = min(0.5, config.bz_mu * delta ** (config.bz_k - 1.0))
    ratio = (1.0 + gamma) / (1.0 - gamma)
    weights = np.full(cells, 1.0 / cells)
    for _ in range(budget - n_probe):
        cum = weights.cumsum()
        total = float(cum[-1])
        half = 0.5 * total
        idx = int(cum.searchsorted(half))
        w = float(weights[idx])
        boundary = int(round(idx + (half - (float(cum[idx]) - w)) / w))
        boundary = min(max(boundary, 1), cells - 1)
        if osign * oracle.label_sample(search.lo + boundary * delta) > 0:
            weights[:boundary] *= ratio
        else:
            weights[boundary:] *= ratio
        if total > 1e250:
            weights /= total
    cum = weights.cumsum()
    return float(search.lo + (int(cum.searchsorted(0.5 * cum[-1])) + 0.5) * delta)


@pytest.mark.parametrize("seed", range(4))
def test_bz_learner_rows_match_the_sequential_reference(seed):
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(12):
        k = float(rng.choice([1.0, 1.5, 2.0, 2.5, 3.0]))
        problem = make_tnc_problem((0.0, 1.0), float(rng.uniform(0.05, 0.95)), k,
                                   float(rng.choice([0.3, 1.0])), 0.4,
                                   str(rng.choice(["positive-right", "positive-left"])))
        budget = int(rng.choice([1, 20, 150, 700, 3000]))
        grid = rng.choice([2, 9, 64, 300]) if k == 1.0 else "auto"
        config = LearnerConfig(
            name="bz", grid_size=grid, bz_k=k, bz_mu=float(rng.choice([0.5, 2.0])),
            orientation=str(rng.choice(["positive-right", "positive-left", "auto"])),
        ).for_budget(budget, dither=i)
        cap = int(rng.choice([10, 100, 10_000]))
        rows.append((i, problem, cap, config))
    batched = _bz_run(rows)
    for row, got in zip(rows, batched):
        oracle = _bz_oracle(row)
        try:
            want = _bz_reference(oracle, UNIT, row[-1])
        except Exception as exc:  # noqa: BLE001
            want = repr(exc)
        assert got == (want, oracle.queries_used)


def _bz_path_rows(grid):
    """A one-row call's row, a positive-left row and an auto-orientation row."""
    left = make_tnc_problem((0.0, 1.0), 0.62, 2.5, 0.8, 0.4, POSITIVE_LEFT)
    return [(0, _noisy(0.37), None, _bz_config(300, grid=grid, mu=1.0)),
            (1, left, None, _bz_config(200, grid=grid, k=2.5, mu=0.8,
                                       orientation=POSITIVE_LEFT)),
            (2, left, None, _bz_config(150, grid=grid, k=2.5, mu=0.8, orientation="auto"))]


@pytest.mark.parametrize("cap, grid", [
    (None, 723), (None, 724),  # the stated cap: the widest grid with a table, the next
    (19 * 9, 9), (19 * 9, 10),  # a cap lowered to a 9-cell grid's table
])
def test_both_side_mask_paths_match_the_sequential_reference(monkeypatch, cap, grid):
    if cap is not None:
        monkeypatch.setattr(learners, "MASK_TABLE_BYTES", cap)
    # a grid of M cells has a (2M + 1) x M table of one-byte masks
    assert ((2 * grid + 1) * grid <= learners.MASK_TABLE_BYTES) == (grid in (723, 9))
    rows = _bz_path_rows(grid)
    want = [(_bz_reference(_bz_oracle(row), UNIT, row[-1]), row[-1].budget) for row in rows]
    assert [_bz_one_row(row) for row in rows] == want
    assert _bz_run(rows) == want


@pytest.mark.parametrize("problem, stream, cell", [
    (_noiseless(0.37), 0, 499998),  # three positive labels: three cells left of 1/2
    (_noisy(0.37), 3, 499999),  # returns 0.4999995
])
def test_a_million_cell_bz_grid_takes_no_mask_table(problem, stream, cell):
    # its table would take (2M + 1) * M bytes, about 2 TB; the run takes the
    # eta slots, weights and sums, about 35 MiB (its grid's points are made when read)
    config = _bz_config(3, grid=10 ** 6, mu=1.0)
    tracemalloc.start()
    try:
        point = run_learner(LabelOracle(problem, seeded_rng(4, 11, stream)), UNIT, config,
                            None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * 2 ** 20
    reference = _bz_reference(LabelOracle(problem, seeded_rng(4, 11, stream)), UNIT, config)
    assert point == reference == (cell + 0.5) * 1e-6


def test_a_million_cell_bz_grid_lists_none_of_its_points():
    # each point is made when its first query reads it: the peak is the eta
    # slots, weights and sums, about 34 MiB, where a list of the points took 65
    config = _bz_config(3, grid=10 ** 6, mu=1.0)
    oracle = _GridRecording(_noisy(0.37), seeded_rng(4, 11, 3))
    tracemalloc.start()
    try:
        point = run_learner(oracle, UNIT, config, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2 ** 20
    assert point == 0.4999995 and len(oracle.points) == 10 ** 6
    assert [oracle.points[b] for b in (0, 1, 499999)] == [0.0, 1e-6, 499999 * 1e-6]
    with pytest.raises(IndexError):
        oracle.points[10 ** 6]


def test_a_query_leaving_the_domain_mid_run_ends_its_row_after_its_charged_queries():
    # the grid's boundary 1 lies at -0.2, outside the problem's [0, 1]: rows that
    # reach it stop there, having been charged for every query before it
    wide, config = Interval(-0.4, 1.0), _bz_config(60, grid=7, mu=1.0)
    oracles = [LabelOracle(_noiseless(0.0), seeded_rng(4, 9, s)) for s in range(3)]
    got = [(repr(r) if isinstance(r, Exception) else r, o.queries_used)
           for r, o in zip(bz_learner(oracles, wide, [config] * 3), oracles)]
    want = []
    for s in range(3):
        oracle = LabelOracle(_noiseless(0.0), seeded_rng(4, 9, s))
        try:
            want.append((_bz_reference(oracle, wide, config), oracle.queries_used))
        except OutOfDomain as exc:
            want.append((repr(exc), oracle.queries_used))
    assert got == want
    assert [q for _, q in got] == [60, 11, 25]
    assert got[1][0] == got[2][0] == "OutOfDomain('query outside [0.0, 1.0]')"


class _ReplayedBySampleAlone:
    """An oracle that answers every query, batched or not, through ``label_sample``."""

    def __init__(self, oracle):
        self.label_sample = oracle.label_sample

    def label_sample_many(self, xs):
        return np.array([self.label_sample(x) for x in xs])


@pytest.mark.parametrize("queries", [255, 256, 257])
def test_queries_after_a_bz_run_continue_its_stream(queries):
    # the run's last query falls one before, on, or one after a chunk edge
    config = _bz_config(queries, grid=17, mu=1.0, orientation="auto")
    oracle = LabelOracle(_noisy(), seeded_rng(9, queries, 0))
    fresh = LabelOracle(_noisy(), seeded_rng(9, queries, 0))
    assert run_learner(oracle, UNIT, config, None) == \
        _bz_reference(_ReplayedBySampleAlone(fresh), UNIT, config)
    assert oracle.queries_used == fresh.queries_used == queries
    xs = [0.03 + 0.94 * ((37 * i) % 101) / 100 for i in range(600)]
    got = [oracle.label_sample(x) for x in xs[:3]]
    got += oracle.label_sample_many(xs[3:300]).tolist()
    got += [oracle.label_sample(x) for x in xs[300:]]
    assert got == [fresh.label_sample(x) for x in xs]


class _GridRecording(LabelOracle):
    def grid_labeler(self, points):
        self.points = points
        return super().grid_labeler(points)


@pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (-3.7, 11.3),
                                    pytest.param(BOUND.lo, BOUND.hi, id="-2**64-2**64"),
                                    (3 * 2.0 ** -1074, 1001 * 2.0 ** -1074)])
def test_bz_grid_points_keep_the_bits_of_the_one_row_formula(lo, hi):
    # halving first would round the subnormal bounds
    search, config = Interval(lo, hi), _bz_config(150, grid=13, mu=1e12)
    problem = make_tnc_problem((lo, hi), lo + 0.3 * (hi - lo), 2.0, 1e12, 0.5)
    oracle = _GridRecording(problem, seeded_rng(4, 10, 0))
    point = run_learner(oracle, search, config, None)
    delta = search.width / 13
    assert [x.hex() for x in oracle.points] == [(lo + b * delta).hex() for b in range(13)]
    assert point == _bz_reference(LabelOracle(problem, seeded_rng(4, 10, 0)), search, config)


def test_bz_on_an_interval_whose_width_overflows():
    # such an interval is refused before any learner sees it ...
    with pytest.raises(ValueError, match="^lo: must lie within"):
        Interval(-1.7e308, 1.7e308)
    # ... and bz runs on the widest one taken, of width 2**65
    config = _bz_config(200, grid=64, mu=1.0)
    problem = make_tnc_problem(BOUND, 0.3 * BOUND.hi, 2.0, 1.0, 0.4)
    point = run_learner(LabelOracle(problem, seeded_rng(4, 8, 0)), BOUND, config, None)
    assert math.isfinite(point) and BOUND.lo <= point <= BOUND.hi
    # the same search scaled down by 2**-10, whose labels are the same (the
    # margin is at its cap), gives the same point scaled
    small = Interval(BOUND.lo * 2.0 ** -10, BOUND.hi * 2.0 ** -10)
    problem = make_tnc_problem(small, 0.3 * small.hi, 2.0, 1.0, 0.4)
    assert run_learner(LabelOracle(problem, seeded_rng(4, 8, 0)), small, config, None) == \
        point * 2.0 ** -10


def _run_on_scaled_bound(name, orientation, scale):
    """(point, queries) of one run on [-2**64, 2**64] scaled by ``scale``."""
    search = Interval(BOUND.lo * scale, BOUND.hi * scale)
    config = _bz_config(2000, grid=64, mu=1.0, name=name, orientation=orientation)
    problem = make_tnc_problem(search, 0.3 * search.hi, 2.0, 1.0, 0.4)
    oracle = LabelOracle(problem, seeded_rng(4, 9, 0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no sum, difference or power overflows
        point = learners.run_learner(oracle, search, config, seeded_rng(4, 9, 1))
    return point, oracle.queries_used


@pytest.mark.parametrize("name, orientation", [
    (name, orientation) for name in learners.LEARNERS
    for orientation in (learners.POSITIVE_RIGHT, learners.ORIENTATION_AUTO)
    if orientation == learners.POSITIVE_RIGHT or name in ("adaptive", "bz")])
def test_every_learner_runs_at_the_interval_bound(name, orientation):
    point, used = _run_on_scaled_bound(name, orientation, 1.0)
    assert math.isfinite(point) and BOUND.lo <= point <= BOUND.hi
    assert 0 < used <= 2000
    # draws, probes, radii and grid points scale without rounding: the search
    # scaled down by 2**-10, whose labels are the same (the margin is at its
    # cap wherever a float lies), gives the point scaled
    assert _run_on_scaled_bound(name, orientation, 2.0 ** -10) == (point * 2.0 ** -10, used)


class _ScalarOnly(type(_noisy())):
    """A threshold problem whose array path is refused."""

    def eta_at(self, x):
        assert np.ndim(x) == 0, "array eta_at called"
        return super().eta_at(x)


def test_bz_learner_rows_read_probabilities_from_the_scalar_eta():
    problem = _ScalarOnly(UNIT, 0.37, 2.5, 1.0, 0.4)
    configs = [_bz_config(b, grid=g, k=2.5, mu=1.0) for b, g in ((200, 11), (90, 30))]
    oracles = [LabelOracle(problem, seeded_rng(8, i, 0)) for i in range(2)]
    scalar = [LabelOracle(_noisy(0.37, k=2.5), seeded_rng(8, i, 0)) for i in range(2)]
    assert bz_learner(oracles, UNIT, configs) == \
        [run_learner(o, UNIT, c, None) for o, c in zip(scalar, configs)]


def test_auto_grid_size_scales_with_budget():
    small = auto_grid_size(256, 2.0)
    large = auto_grid_size(32768, 2.0)
    assert 2 <= small < large
    assert auto_grid_size(256, 2.0, dither=3) >= small
    assert auto_grid_size(2, 2.0) == 2


@pytest.mark.parametrize("budget", [2, 3, 16, 4096, 2 ** 20])
def test_auto_grid_size_below_k_one_and_a_half_is_the_linear_grid(budget):
    # (T / ln T) ** (1 / (2k - 2)) would grow without bound as k -> 1
    linear = auto_grid_size(budget, 1.0)
    assert linear == max(2, math.ceil(budget / max(1.0, math.log(budget))))
    for k in (1.0001, 1.25, 1.5):
        assert auto_grid_size(budget, k) == linear
        assert auto_grid_size(budget, k, dither=7) == auto_grid_size(budget, 1.0, dither=7)
    assert auto_grid_size(budget, 1.5 + 1e-9) <= linear


# ---------------------------------------------------------------------------
# noiseless bisection

def test_bisect_guarantee():
    problem = _noiseless(0.3)
    oracle = LabelOracle(problem, seeded_rng(5, 0, 0))
    est = bisect_noiseless(oracle, UNIT, 10)
    assert abs(est - 0.3) <= 2.0 ** -11


def test_bisect_zero_budget_returns_midpoint():
    oracle = LabelOracle(_noiseless(0.3), seeded_rng(5, 1, 0))
    assert bisect_noiseless(oracle, UNIT, 0) == 0.5


def test_bisect_tie_at_midpoint_goes_either_way():
    # at x = t the label is a fair coin, so one query lands on 0.25 or 0.75
    problem = make_tnc_problem((0.0, 1.0), 0.5, 2.0, 1.0, 0.4)
    seen = set()
    for seed in range(32):
        oracle = LabelOracle(problem, seeded_rng(5, 2, seed))
        seen.add(bisect_noiseless(oracle, UNIT, 1))
    assert seen == {0.25, 0.75}


def test_bisect_positive_left():
    problem = make_tnc_problem((0.0, 1.0), 0.3, 2.0, 1e12, 0.5, POSITIVE_LEFT)
    oracle = LabelOracle(problem, seeded_rng(5, 3, 0))
    est = bisect_noiseless(oracle, UNIT, 12, POSITIVE_LEFT)
    assert abs(est - 0.3) <= 2.0 ** -13


def test_erm_cut_midpoint_does_not_overflow():
    # the two positions at the top of the widest interval, and beyond it by
    # less than its tolerance
    top = [BOUND.hi * (1.0 - 2e-12), BOUND.hi * (1.0 + 5e-13)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy warns on an overflowing add
        cut = erm_cut(np.array(top), erm_steps([-1, 1]), BOUND)
    assert cut == 0.5 * top[0] + 0.5 * top[1]


@pytest.mark.parametrize("lo, hi, t", [
    (2.0 ** 63, 2.0 ** 64, 1.9 * 2.0 ** 63),  # every lo + hi exceeds the bound
    (BOUND.lo, BOUND.hi, 0.99 * BOUND.hi),
    (BOUND.lo, BOUND.hi, 0.99 * BOUND.lo),
], ids=["2**63-2**64-near-hi", "-2**64-2**64-near-hi", "-2**64-2**64-near-lo"])
def test_bisect_midpoints_do_not_overflow(lo, hi, t):
    search = Interval(lo, hi)
    oracle = LabelOracle(make_tnc_problem(search, t, 2.0, 1e12, 0.5), seeded_rng(5, 4, 0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = bisect_noiseless(oracle, search, 60)
    assert math.isfinite(est) and lo < est < hi
    assert abs(est - t) <= search.width * 2.0 ** -61
    assert oracle.queries_used == 60


def test_the_largest_margin_power_takes_the_cap():
    # the largest mu * |x - t| ** 7 on the widest interval, 2**64 2**448, is
    # finite: the scalar path and the array path's np.minimum take the cap,
    # and so does bz's gamma
    search = Interval(0.0, BOUND.hi)
    problem = make_tnc_problem(search, 0.0, 8.0, SCALE_BOUND, 0.4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy warns on an overflowing power
        assert problem.eta_at(np.array([BOUND.hi])).tolist() == \
            [problem.eta_at(BOUND.hi)] == [0.9]
        oracle = LabelOracle(problem, seeded_rng(5, 5, 0))
        assert oracle.label_sample(BOUND.hi) in (-1, 1)
        config = _bz_config(200, grid=16, k=8.0, mu=SCALE_BOUND)
        for learn in (lambda: bisect_noiseless(oracle, search, 60),
                      lambda: run_learner(oracle, search, config, None)):
            point = learn()
            assert math.isfinite(point) and search.lo <= point <= search.hi
    assert oracle.queries_used == 261


# ---------------------------------------------------------------------------
# learner configuration validation

def test_learner_config_validation():
    with pytest.raises(ValueError):
        LearnerConfig(budget=10, c_delta=1.0)  # needs c^2 > 2
    with pytest.raises(ValueError):
        LearnerConfig(budget=10, orientation="sideways")
    with pytest.raises(ValueError):
        LearnerConfig(budget=-1)


@pytest.mark.parametrize("field, value", [("budget", 7.5), ("budget", 7.0),
                                          ("grid_size", 7.5), ("grid_size", "64")])
def test_learner_config_refuses_a_count_that_is_not_an_integer(field, value):
    # a grid of 7.5 cells would run 7, and a budget of 7.5 would spend 7
    with pytest.raises(ValueError, match=f"^{field}: must be an integer, got {value!r}"):
        LearnerConfig("bz", bz_k=2.0, bz_mu=1.0, **{field: value})
    with pytest.raises(ValueError, match=f"^budget: must be an integer, got {value!r}"):
        LearnerConfig().for_budget(value)


def test_learner_config_takes_any_integer_as_a_count():
    config = LearnerConfig("bz", grid_size=np.int64(9), bz_k=2.0, bz_mu=1.0)
    oracle = LabelOracle(_noisy(), seeded_rng(4, 11, 0))
    assert run_learner(oracle, UNIT, config.for_budget(np.int64(40)), None) == \
        run_learner(LabelOracle(_noisy(), seeded_rng(4, 11, 0)), UNIT, config.for_budget(40),
                    None)


# ---------------------------------------------------------------------------
# passive rate (the T^(-1/2) baseline)

def test_passive_rate_slope():
    # The guarantee for plain ERM is an upper risk bound of order T^(-1/2);
    # on a fixed margin family it does at least that well (empirically it
    # beats it, landing near the fast-rate exponent -2/3 for k = 2).
    problem = _noisy(0.37, 2.0)
    budgets = [2 ** e for e in range(8, 15)]
    medians = []
    for budget in budgets:
        risks = []
        for rep in range(100):
            oracle = LabelOracle(problem, seeded_rng(6, rep, 0), budget=budget)
            cut = passive_erm(oracle, UNIT, budget, "positive-right",
                              seeded_rng(6, rep, 1))
            risks.append(excess_risk(problem, cut))
        medians.append(float(np.median(risks)))
    fit = fit_rate_slope(list(zip(budgets, medians)))
    assert fit.slope <= -0.35, f"passive slope {fit.slope} slower than T^-1/2"
    assert fit.slope >= -1.0, f"passive slope {fit.slope} implausibly fast"
