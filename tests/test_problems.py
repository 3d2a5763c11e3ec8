
import copy
import dataclasses
import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from signopt import (Box, DimensionMismatch, GaussianNoise, Interval, LabelOracle,
                     LearnerConfig, Line, OutOfDomain, POSITIVE_LEFT, POSITIVE_RIGHT,
                     Quadratic, Ridge, SeparablePower, SignOracle, UniformNoise,
                     box_from_bounds, bz_learner, erm_cut, error_record, excess_risk,
                     load_ridge_text, make_tnc_problem, seeded_rng)
from signopt.problems import DOMAIN_BOUND, RIDGE_BOUND, SCALE_BOUND, _tol

from _checks import (RidgeState, bench_ridge, check_gradient_finite_differences,
                     check_lkss_inequality, check_ridge_residual_cache,
                     check_stationary_directional_min, check_uc_inequality)


# ---------------------------------------------------------------------------
# intervals and boxes

def test_interval_requires_positive_width():
    with pytest.raises(ValueError):
        Interval(1.0, 1.0)
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)
    iv = Interval(0.0, 2.0)
    assert iv.width == 2.0
    assert iv.midpoint == 1.0
    assert iv.contains(0.0) and iv.contains(2.0) and not iv.contains(2.1)


@pytest.mark.parametrize("lo, hi, field", [
    (-2.0 ** 64 * (1 + 2.0 ** -52), 0.0, "lo"), (-math.inf, 0.0, "lo"), (math.nan, 0.0, "lo"),
    (0.0, 2.0 ** 64 * (1 + 2.0 ** -52), "hi"), (0.0, math.inf, "hi"), (0.0, math.nan, "hi"),
    (2.0 ** 65, 2.0 ** 65 * 1.5, "lo"),
])
def test_interval_refuses_an_end_beyond_the_bound(lo, hi, field):
    with pytest.raises(ValueError, match=f"^{field}: must lie within \\+-2\\*\\*64, got "):
        Interval(lo, hi)


def test_interval_accepts_the_bound():
    iv = Interval(-DOMAIN_BOUND, DOMAIN_BOUND)
    assert iv.width == 2.0 ** 65 and iv.midpoint == 0.0


@pytest.mark.parametrize("lo, hi, field", [
    ([0.0, -2.0 ** 62 * (1 + 2.0 ** -52)], [1.0, 1.0], "lo"),
    ([0.0, -math.inf], [1.0, 1.0], "lo"), ([math.nan, 0.0], [1.0, 1.0], "lo"),
    ([0.0, 0.0], [2.0 ** 62 * (1 + 2.0 ** -52), 1.0], "hi"),
    ([0.0, 0.0], [1.0, math.inf], "hi"), ([0.0, 0.0], [1.0, math.nan], "hi"),
])
def test_box_refuses_a_bound_beyond_a_quarter_of_the_bound(lo, hi, field):
    with pytest.raises(ValueError, match=f"^{field}: must lie within \\+-2\\*\\*62$"):
        Box(np.array(lo), np.array(hi))


def test_interval_midpoint_does_not_overflow():
    iv = Interval(2.0 ** 63, 2.0 ** 64)  # lo + hi exceeds the bound
    assert math.isfinite(iv.midpoint) and iv.lo < iv.midpoint < iv.hi
    problem = make_tnc_problem(iv, 1.3 * 2.0 ** 63, 2.0, 1.0, 0.4)
    oracle = LabelOracle(problem, seeded_rng(3, 0, 0))
    config = LearnerConfig("bz", budget=0, grid_size=64, bz_k=2.0, bz_mu=1.0)
    for point in (erm_cut([], [], iv), bz_learner(oracle, iv, config)):
        assert point == iv.midpoint
    assert oracle.queries_used == 0


_NORMAL_OR_ZERO = st.floats(-DOMAIN_BOUND, DOMAIN_BOUND).filter(
    lambda v: v == 0.0 or abs(v) >= 2.0 ** -1021)  # halves are normal or zero


@settings(max_examples=500, deadline=None)
@given(_NORMAL_OR_ZERO, _NORMAL_OR_ZERO)
@example(-1.0, 1.0 + 2.0 ** -52)
@example(2.0 ** -1021, 3 * 2.0 ** -1021)
@example(-DOMAIN_BOUND, DOMAIN_BOUND)
@example(DOMAIN_BOUND * (1 - 2.0 ** -53), DOMAIN_BOUND)
def test_interval_midpoint_keeps_the_bits_of_the_halved_sum(lo, hi):
    # halving is exact for normal floats, so the halves' sum rounds what the
    # sum's half rounds; with subnormal halves the two can differ.  Within
    # the bound, lo + hi never overflows
    lo, hi = min(lo, hi), max(lo, hi)
    assume(hi > lo)
    assert Interval(lo, hi).midpoint.hex() == (0.5 * (lo + hi)).hex()


def test_box_segment_arithmetic():
    box = box_from_bounds([-1.0, -1.0], [1.0, 1.0])
    x = np.array([0.9, 0.0])
    line = Line(Quadratic(np.eye(2), np.zeros(2), box), x, 0)
    assert (line.lo, line.hi) == (-1.9, pytest.approx(0.1))
    assert box.contains([1.0, -1.0])
    assert not box.contains([1.1, 0.0])


def test_box_contains_at_the_tolerance_edge():
    # the tolerance is 1e-12 * max(1, |lo_j|, |hi_j|) per coordinate: 5e-12, 1e-11
    box = box_from_bounds([-5.0, 2.0], [4.0, 10.0])
    assert box.contains([-5.0 - 4e-12, 10.0 + 9e-12])
    assert box.contains([4.0 + 4e-12, 2.0 - 9e-12])
    assert not box.contains([-5.0 - 6e-12, 5.0])
    assert not box.contains([0.0, 10.0 + 11e-12])
    assert not box.contains([0.0, 2.0 - 11e-12])
    assert not box.contains([np.nan, 5.0])


def test_box_survives_pickle():
    box = box_from_bounds([-5.0, 2.0], [4.0, 10.0])
    copy = pickle.loads(pickle.dumps(box))
    assert np.array_equal(copy.lo, box.lo) and np.array_equal(copy.hi, box.hi)
    assert not copy.lo.flags.writeable and not copy.hi.flags.writeable
    assert copy.contains([-5.0 - 4e-12, 10.0 + 9e-12])
    assert not copy.contains([-5.0 - 6e-12, 5.0])


@pytest.mark.parametrize("lo, hi", [
    ([-5.0, 2.0, 0.0], [4.0, 10.0, 0.0]),
    ([-0.0, -2.0 ** 62, 3.5], [0.0, 2.0 ** 62, 3.5]),  # the widest box
    ([1e-300, -7.25, -2.0 ** 60], [2e-300, 7.25, 2.0 ** 60]),
])
def test_box_float_bounds_are_the_bound_arrays_as_lists(lo, hi):
    # a Line subtracts from these lists: they must hold the bounds' own
    # floats, the sign of a zero included, also in a rebuilt box
    box = box_from_bounds(lo, hi)
    cls, args = box.__reduce__()
    for b in (box, pickle.loads(pickle.dumps(box)), cls(*args)):
        assert repr(b._lo_list) == repr(box.lo.tolist())
        assert repr(b._hi_list) == repr(box.hi.tolist())
        fn = SeparablePower(np.ones(box.dim), box.center, b)
        for x in (box.center, box.lo, box.hi):
            for j in range(box.dim):
                want = (float(box.lo[j] - x[j]), float(box.hi[j] - x[j]))
                line = Line(fn, x, j)
                assert repr((line.lo, line.hi)) == repr(want)


def test_box_rejects_inverted_bounds():
    with pytest.raises(ValueError):
        Box(np.array([0.0, 1.0]), np.array([1.0, 0.0]))


def _contains_by_arrays(box, x):
    """Box.contains in its numpy form, the reference of the float comparisons."""
    t = 1e-12 * np.maximum(1.0, np.maximum(np.abs(box.lo), np.abs(box.hi)))
    a = np.asarray(x, dtype=float)
    return bool(np.logical_and.reduce((a >= box.lo - t) & (a <= box.hi + t), axis=None))


def _edges(box, j):
    """The tolerance bounds of coordinate j, each between its two neighbouring floats."""
    edges = []
    for e in (box._lo_tol[j], box._hi_tol[j]):
        edges += [float(np.nextafter(e, -math.inf)), e, float(np.nextafter(e, math.inf))]
    return edges


_SPECIALS = [math.nan, math.inf, -math.inf, 0.0, -0.0]


@st.composite
def _box_and_point(draw):
    d = draw(st.integers(1, 9))
    lo = draw(st.lists(st.floats(-1e6, 1e6), min_size=d, max_size=d))
    widths = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1e6)),
                           min_size=d, max_size=d))
    box = Box(np.array(lo), np.array(lo) + np.array(widths))
    # a point inside, with up to two coordinates moved to an edge, a special
    # value or a float near the box
    point = [draw(st.floats(box.lo[j], box.hi[j])) for j in range(d)]
    for _ in range(draw(st.integers(0, 2))):
        j = draw(st.integers(0, d - 1))
        point[j] = draw(st.one_of(st.sampled_from(_SPECIALS + _edges(box, j)),
                                  st.floats(box.lo[j] - 1.0, box.hi[j] + 1.0)))
    return box, point


@settings(max_examples=500, deadline=None)
@given(_box_and_point())
def test_box_contains_matches_the_array_comparisons(case):
    box, point = case
    expected = _contains_by_arrays(box, point)
    copy = pickle.loads(pickle.dumps(box))
    for x in (np.array(point), point, tuple(point)):
        assert box.contains(x) is expected
        assert copy.contains(x) is expected


@pytest.mark.parametrize("lo, hi", [
    ([-5.0, 2.0, 0.0], [4.0, 10.0, 0.0]),   # the last coordinate has zero width
    ([-0.0, -2.0 ** 62, 3.5], [0.0, 2.0 ** 62, 3.5]),  # the widest box
    ([1e-300, -7.25, -2.0 ** 60], [2e-300, 7.25, 2.0 ** 60]),
])
def test_box_contains_one_ulp_from_each_tolerance_bound(lo, hi):
    box = box_from_bounds(lo, hi)
    t = 1e-12 * np.maximum(1.0, np.maximum(np.abs(box.lo), np.abs(box.hi)))
    assert box._lo_tol.tolist() == (box.lo - t).tolist()
    assert box._hi_tol.tolist() == (box.hi + t).tolist()
    copy = pickle.loads(pickle.dumps(box))
    inside = box.center
    for j in range(box.dim):
        for v in _edges(box, j) + _SPECIALS:
            x = inside.copy()
            x[j] = v
            expected = _contains_by_arrays(box, x)
            assert box.contains(x) is expected
            assert copy.contains(x) is expected
        below, at_lo, _, _, at_hi, above = _edges(box, j)
        moved = np.arange(box.dim) == j
        assert box.contains(np.where(moved, at_lo, inside))
        assert box.contains(np.where(moved, at_hi, inside))
        assert not box.contains(np.where(moved, below, inside))
        assert not box.contains(np.where(moved, above, inside))


def test_box_contains_int_and_list_points():
    box = box_from_bounds([-2, 0, 5], [3, 5, 5])
    for x in ([3, 5, 5], [-2, 0, 5], [3, 6, 5], [0, 0, 4], (1, 2, 5),
              np.array([3, 5, 5]), np.array([-3, 0, 5], dtype=np.int32),
              [2 ** 53 + 1, 0, 5], [0.5, 1, 5]):
        assert box.contains(x) is _contains_by_arrays(box, x)
    assert box.contains(np.array([3, 5, 5])) and not box.contains([3, 6, 5])


@pytest.mark.parametrize("d", [1, 2, 3, 8])
def test_box_contains_rejects_other_shapes(d):
    box = box_from_bounds(-1.0, 1.0, dim=d)
    # a scalar is not broadcast either, not even on a one-coordinate box
    for x in (np.zeros(d + 1), np.zeros((d, 1)), np.zeros((1, d)), np.zeros(0),
              0.0, np.float64(0.0), [0.0] * (d + 1)):
        with pytest.raises(DimensionMismatch):
            box.contains(x)


# ---------------------------------------------------------------------------
# threshold problems

def test_make_tnc_problem_rejects_bad_parameters():
    with pytest.raises(ValueError):
        make_tnc_problem((0, 1), 1.5, 2.0, 1.0, 0.4)  # threshold outside
    with pytest.raises(ValueError):
        make_tnc_problem((0, 1), 0.5, 2.0, -1.0, 0.4)  # mu <= 0
    with pytest.raises(ValueError):
        make_tnc_problem((0, 1), 0.5, 0.5, 1.0, 0.4)  # k < 1
    with pytest.raises(ValueError):
        make_tnc_problem((0, 1), 0.5, 2.0, 1.0, 0.6)  # cap > 1/2
    with pytest.raises(ValueError):
        make_tnc_problem((0, 1), 0.5, 2.0, 1.0, 0.0)  # cap <= 0


def test_bounded_noise_special_case_k1():
    p = make_tnc_problem((0, 1), 0.5, 1.0, 0.3, 0.3)
    for x in (0.1, 0.49, 0.51, 0.9):
        assert abs(abs(p.eta_at(x) - 0.5) - 0.3) < 1e-15
    assert p.eta_at(0.5) == 0.5


def test_eta_values_match_the_power_family():
    p = make_tnc_problem((0, 1), 0.5, 2.0, 1.0, 0.4)
    assert p.eta_at(0.5) == pytest.approx(0.5)
    assert p.eta_at(0.6) == pytest.approx(0.6)
    assert p.eta_at(0.99) == pytest.approx(0.9)  # clamped at 1/2 + cap
    with pytest.raises(OutOfDomain):
        p.eta_at(1.2)


def test_eta_orientation_flips_sign():
    p = make_tnc_problem((0, 1), 0.5, 2.0, 1.0, 0.4, POSITIVE_LEFT)
    assert p.eta_at(0.6) == pytest.approx(0.4)
    assert p.eta_at(0.4) == pytest.approx(0.6)


def _eta_probe_points(lo, hi, t):
    """Endpoints, the threshold and its neighbours, and points inside the tolerance."""
    tol = 1e-12 * max(1.0, abs(lo), abs(hi))
    return [lo - 0.9 * tol, lo - 0.5 * tol, lo, np.nextafter(lo, hi),
            t - tol, np.nextafter(t, lo), t, np.nextafter(t, hi), t + tol,
            np.nextafter(hi, lo), hi, hi + 0.5 * tol, hi + 0.9 * tol]


@pytest.mark.parametrize("k", [1.0, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("orientation", [POSITIVE_RIGHT, POSITIVE_LEFT])
def test_eta_scalar_and_array_paths_agree(k, orientation):
    lo, hi, t = -2.0, 3.0, 0.37
    p = make_tnc_problem((lo, hi), t, k, 1.0, 0.4, orientation)
    xs = _eta_probe_points(lo, hi, t)
    scalar = [p.eta_at(float(x)) for x in xs]
    assert scalar == [p.eta_at(np.float64(x)) for x in xs]
    assert np.array_equal(np.array(scalar), p.eta_at(np.array(xs)))
    grid = np.linspace(lo, hi, 2001)
    on_grid = np.array([p.eta_at(float(x)) for x in grid])
    if k in (1.0, 2.0):  # |d| ** 0 and |d| ** 1 are exact
        assert np.array_equal(on_grid, p.eta_at(grid))
    else:  # numpy's array power may round differently from libm's pow
        np.testing.assert_array_max_ulp(on_grid, p.eta_at(grid), maxulp=4)
    # just beyond the tolerance both paths refuse; 2e-12 is inside it here
    assert p.eta_at(lo - 2e-12) == p.eta_at(np.array([lo - 2e-12]))[0]
    for x in (lo - 4e-12, hi + 4e-12):
        with pytest.raises(OutOfDomain):
            p.eta_at(x)
        with pytest.raises(OutOfDomain):
            p.eta_at(np.array([0.0, x]))


def test_tnc_problem_cached_constants_follow_the_fields():
    p = make_tnc_problem((-2.0, 3.0), 0.37, 2.0, 1.0, 0.4)
    flipped = dataclasses.replace(p, orientation=POSITIVE_LEFT)
    assert flipped.eta_at(1.0) == p.eta_at(-0.26) == pytest.approx(0.5 - 0.4)
    assert flipped.eta_at(-0.26) == pytest.approx(0.5 + 0.4)
    copy = pickle.loads(pickle.dumps(flipped))
    assert copy == flipped
    xs = _eta_probe_points(-2.0, 3.0, 0.37)
    assert [copy.eta_at(x) for x in xs] == [flipped.eta_at(x) for x in xs]
    with pytest.raises(OutOfDomain):
        copy.eta_at(3.0 + 4e-12)


def test_tnc_sandwich_on_grid():
    # The family satisfies both growth bounds with the same coefficient:
    # |eta - 1/2| equals min(mu |x-t|^(k-1), cap) exactly.
    for k in (1.0, 2.0, 3.0):
        p = make_tnc_problem((0, 1), 0.37, k, 1.0, 0.4)
        xs = np.linspace(0.0, 1.0, 10_000)
        margins = np.abs(p.eta_at(xs) - 0.5)
        expected = np.minimum(p.mu * np.abs(xs - p.threshold) ** (k - 1.0), p.cap)
        expected[xs == p.threshold] = 0.0
        assert np.allclose(margins, expected, atol=1e-14)


def test_eta_monotone_and_signed_around_threshold():
    p = make_tnc_problem((0, 1), 0.37, 2.0, 1.0, 0.4)
    xs = np.linspace(0.0, 1.0, 10_000)
    eta = p.eta_at(xs)
    assert np.all(np.diff(eta) >= -1e-15)  # non-decreasing for positive-right
    assert np.all(eta[xs < p.threshold] < 0.5)
    assert np.all(eta[xs > p.threshold] > 0.5)


# ---------------------------------------------------------------------------
# test functions: spec'd spot values

def _sep2():
    box = box_from_bounds([-3.0, -3.0], [3.0, 3.0])
    return SeparablePower([1.0, 2.0], [0.0, 0.0], box, exponent=2.0)


def _quad_coupled():
    box = box_from_bounds([-5.0, -5.0], [5.0, 5.0])
    return Quadratic([[2.0, 1.0], [1.0, 2.0]], [0.0, 0.0], box)


def _ridge_identity():
    return Ridge(np.eye(2), np.zeros(2), box_from_bounds([-2.0, -2.0], [2.0, 2.0]))


def test_function_values():
    assert _sep2().value([1.0, -1.0]) == pytest.approx(3.0)
    quad = Quadratic(np.eye(2), [0.0, 0.0], box_from_bounds([-5, -5], [5, 5]))
    assert quad.value([3.0, 4.0]) == pytest.approx(12.5)
    assert _ridge_identity().value([1.0, 0.0]) == pytest.approx(1.0)


def test_value_rejects_bad_points():
    fn = _sep2()
    with pytest.raises(DimensionMismatch):
        fn.value([1.0, 2.0, 3.0])
    with pytest.raises(OutOfDomain):
        fn.value([10.0, 0.0])


def test_gradient_coordinates():
    assert _sep2().grad_coord([1.0, -1.0], 1) == pytest.approx(-4.0)
    assert _ridge_identity().grad_coord([1.0, 0.0], 0) == pytest.approx(2.0)
    assert _quad_coupled().grad_coord([1.0, 1.0], 0) == pytest.approx(3.0)


def test_directional_min_closed_forms():
    assert _sep2().directional_min([1.0, -1.0], 1) == pytest.approx(1.0)
    quad = _quad_coupled()
    assert quad.directional_min([0.0, 0.0], 0) == 0.0
    assert quad.directional_min([0.0, 0.0], 1) == 0.0
    ridge = _ridge_identity()
    assert ridge.directional_min([1.0, 0.0], 0) == pytest.approx(-1.0)


def test_directional_min_against_dense_grid_search():
    # Independent check: brute-force the line minimum at 1e-6 resolution.
    quad = _quad_coupled()
    x = np.array([1.0, 1.0])
    alphas = np.arange(-5.0, 5.0, 1e-6)
    values = 0.5 * (2.0 * (x[0] + alphas) ** 2 + 2.0 * x[1] ** 2
                    + 2.0 * (x[0] + alphas) * x[1])
    best = alphas[np.argmin(values)]
    assert abs(best - (-1.5)) <= 2e-6
    assert quad.directional_min(x, 0) == pytest.approx(-1.5, abs=1e-12)


def test_directional_min_clips_to_box():
    box = box_from_bounds([-1.0, -1.0], [1.0, 1.0])
    fn = SeparablePower([1.0, 1.0], [0.5, 0.5], box, exponent=2.0)
    # from x_0 = -1, the free minimizer step is +1.5 but the segment ends at +2
    assert fn.directional_min(np.array([-1.0, 0.0]), 0) == pytest.approx(1.5)
    quad = Quadratic([[1.0, 1.5], [1.5, 4.0]], [0.0, 0.0], box)
    # strong coupling: from (1, 1) the free step along j=0 is -2.5, clipped at -2
    assert quad.directional_min(np.array([1.0, 1.0]), 0, clip=False) == pytest.approx(-2.5)
    assert quad.directional_min(np.array([1.0, 1.0]), 0) == pytest.approx(-2.0)


def test_grad_coord_line_matches_pointwise():
    rng = np.random.default_rng(5)
    for fn in (_sep2(), _quad_coupled(), _ridge_identity()):
        x = fn.box.center + 0.1
        for j in range(fn.dim):
            line = Line(fn, x, j)
            alphas = rng.uniform(line.lo, line.hi, size=16)
            batch = line.partials(alphas)
            for a, g in zip(alphas, batch):
                y = x.copy()
                y[j] += a
                assert g == pytest.approx(fn.grad_coord(y, j), rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# the batched step check: a batch's extremes by argmin/argmax, against the
# np.minimum.reduce/np.maximum.reduce form they replaced

def _steps_by_reductions(line, alphas):
    """The steps that Line.partials checks and clips, with its check by reductions."""
    alphas = np.asarray(alphas, dtype=float)
    if alphas.size:
        alo, ahi = line.lo, line.hi
        amin = np.minimum.reduce(alphas, axis=None)
        amax = np.maximum.reduce(alphas, axis=None)
        pad = _tol(alo, ahi)
        if not (amin >= alo - pad and amax <= ahi + pad):
            raise OutOfDomain("step leaves the domain box")
        if amin < alo or amax > ahi:
            alphas = alphas.clip(alo, ahi)
    return alphas


def _outcome(call):
    """The error a call raises, or the shape, dtype and bytes of what it answers."""
    try:
        out = np.asarray(call())
    except OutOfDomain as exc:
        return "OutOfDomain", str(exc)
    return out.shape, out.dtype.str, out.tobytes()


def _batches(lo, hi):
    """Batches around [lo, hi]: NaN first, in the middle, last and everywhere, +-inf,
    +-0.0, points in the tolerance pad and beyond it, and 0-d, 2-d and empty shapes."""
    nan, inf = np.nan, np.inf
    pad = _tol(lo, hi)
    mid = 0.5 * (lo + hi)
    return [[nan, mid, lo], [mid, nan, hi], [lo, mid, nan], [nan, nan, nan],
            [nan, inf], [-inf, nan], [inf], [-inf], [mid, inf], [-inf, mid], [inf, -inf],
            [0.0, -0.0], [-0.0, 0.0], [-0.0], [0.0], [-0.0, lo, hi, 0.0],
            [hi + 0.5 * pad], [lo - 0.5 * pad, mid], [lo - 0.5 * pad, hi + 0.5 * pad],
            [-0.0, lo - 0.5 * pad], [hi + 2 * pad], [lo - 2 * pad, mid],
            np.float64(mid), np.array(nan), np.array(hi + 0.5 * pad), np.array(-0.0),
            np.array(lo - 2 * pad),
            [[mid, lo], [hi + 0.5 * pad, mid]], [[mid, nan]], [[-0.0, 0.0], [0.0, -0.0]],
            [[lo - 2 * pad], [mid]], [], np.empty((0, 3)), np.empty((2, 0))]


def _lines():
    """(function, point, coordinate) with segments inside the box and at its ends,
    +0.0 and -0.0 among them."""
    box = box_from_bounds(-1.0, 1.0, dim=2)
    zero_lo = Box(np.array([-0.0, -1.0]), np.array([1.0, 1.0]))
    fns = (Quadratic(np.diag([1.0, 2.0]), [0.1, -0.3], box),
           Ridge(np.eye(2), [0.2, -0.4], box),
           SeparablePower([1.0, 2.0], [0.3, 0.0], box, 3.0))
    for fn in fns:
        for x in ([0.5, 0.0], [1.0, 0.0], [-1.0, 0.25]):  # a_hi = 0.0, then a_lo = 0.0
            yield fn, np.array(x), 0
    yield SeparablePower([1.0, 2.0], [0.3, 0.0], zero_lo), np.array([0.0, 0.5]), 0


def test_step_check_by_extremes_matches_the_reductions():
    for fn, x, j in _lines():
        echo = copy.copy(fn)  # its partials are the checked, clipped steps themselves
        echo._partials = lambda u, j, alphas: alphas
        line = Line(fn, x, j)
        for alphas in _batches(line.lo, line.hi):
            want = _outcome(lambda: _steps_by_reductions(line, alphas))
            assert _outcome(lambda: Line(echo, x, j).partials(alphas)) == want
            assert _outcome(lambda: line.partials(alphas)) == _outcome(
                lambda: fn._partials(line.x - fn.x_star, j, _steps_by_reductions(line, alphas)))


def _assert_partials_match_matmul(fn, x, j, alphas):
    """Quadratic's partials, which use ndarray.dot, equal their ``@`` forms bit for bit."""
    row, u = fn.matrix[j], x - fn.x_star
    g0 = float(row @ u)
    assert fn.grad_coord(x, j).hex() == g0.hex()
    assert Line(fn, x, j).partials(alphas).tobytes() == (
        g0 + fn.matrix[j, j] * alphas).tobytes()
    assert fn._directional_min_free(u, j).hex() == (-g0 / float(fn.matrix[j, j])).hex()


@st.composite
def _quadratic_partial_case(draw):
    """(m, x_star, x, j, alphas): Quadratic(m'm + I, x_star) on [-4, 4]^d and a line."""
    d = draw(st.integers(1, 9))
    floats = st.floats(-3.0, 3.0)
    m = draw(st.lists(floats, min_size=d * d, max_size=d * d))
    x_star = draw(st.lists(floats, min_size=d, max_size=d))
    x = draw(st.lists(st.floats(-4.0, 4.0), min_size=d, max_size=d))
    j = draw(st.integers(0, d - 1))
    alphas = draw(st.lists(st.floats(-4.0 - x[j], 4.0 - x[j]), max_size=8))
    return m, x_star, x, j, alphas


@settings(max_examples=300, deadline=None)
@given(_quadratic_partial_case())
# at d = 1, u = x - x_star = [-0.0]: ndarray.dot gives -0.0 and matmul 0.0
@example(([0.0], [0.0], [-0.0], 0, [-0.0, 0.0]))
def test_quadratic_partials_from_dot_equal_matmul(case):
    m, x_star, x, j, alphas = case
    d = len(x)
    m = np.array(m).reshape(d, d)
    matrix = m.T @ m + np.eye(d)
    matrix = 0.5 * (matrix + matrix.T)
    fn = Quadratic(matrix, np.array(x_star), box_from_bounds(-4.0, 4.0, dim=d))
    _assert_partials_match_matmul(fn, np.array(x), j, np.array(alphas))


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_ridge_partials_from_dot_equal_matmul(seed):
    fn = bench_ridge(seed=seed)
    rng = np.random.default_rng([seed, 41])
    for x in rng.uniform(-4.0, 4.0, size=(50, fn.dim)):
        for j in range(fn.dim):
            line = Line(fn, x, j)
            _assert_partials_match_matmul(fn, x, j, rng.uniform(line.lo, line.hi, size=4))


def _quadratic_partial(fn, x, j):
    """Quadratic.grad_coord's formula, on a fresh row view per call."""
    return float(fn.matrix[j].dot(x - fn.x_star)) + 0.0


def _separable_partial(fn, x, j):
    """SeparablePower.grad_coord's formula."""
    u = float(x[j] - fn.x_star[j])
    k = fn.uc_exponent
    return float(fn.coeffs[j] * k * abs(u) ** (k - 1.0) * math.copysign(1.0, u)) \
        if u != 0.0 else 0.0


_TINY = 5e-324  # the least subnormal
_EDGE_COORDINATES = (0.0, -0.0, _TINY, -_TINY, 2.5e-310, -1e-308, 0.3, -1.25)


def _functions_for_partials():
    """(function, formula) pairs at d = 1, with x* at 0, -0 and subnormals, and d = 8."""
    box1 = box_from_bounds(-2.0, 2.0, dim=1)
    pairs = [(Quadratic([[q]], [s], box1), _quadratic_partial)
             for q in (1.0, 3.7) for s in (0.0, -0.0, _TINY, 0.3)]
    pairs += [(SeparablePower([c], [s], box1, k), _separable_partial)
              for c, k in ((1.0, 2.0), (0.5, 3.0), (2.0, 4.5)) for s in (0.0, -0.0, -_TINY)]
    pairs += [(Ridge([[0.6], [-0.8]], [0.1, -0.2], box1), _quadratic_partial),
              (bench_ridge(d=1), _quadratic_partial),
              (bench_ridge(), _quadratic_partial),
              (SeparablePower(np.linspace(0.5, 2.0, 8), np.linspace(-0.7, 0.7, 8),
                              box_from_bounds(-2.0, 2.0, dim=8), 3.0), _separable_partial)]
    return pairs


def test_scalar_partials_equal_their_formulas_bit_for_bit():
    rng = np.random.default_rng(43)
    for fn, formula in _functions_for_partials():
        copy = pickle.loads(pickle.dumps(fn))
        d = fn.dim
        points = [np.full(d, v) for v in _EDGE_COORDINATES]
        points += list(rng.uniform(fn.box.lo, fn.box.hi, size=(20, d)))
        for x in points:
            for j in range(d):
                want = formula(fn, x, j).hex()
                assert fn.grad_coord(x, j).hex() == want, (fn, x, j)
                assert copy.grad_coord(x, j).hex() == want, (fn, x, j)
                assert type(fn.grad_coord(x, j)) is float
                # the scalar line query at step 0: a -0.0 coordinate becomes 0.0,
                # whose +-0 terms the formulas' own zero handling settles
                assert Line(fn, x, j).partial(0.0).hex() == want, (fn, x, j)


def _steps_on(line):
    """Steps at both ends of the line, in the tolerance pad past them (clamped onto
    the box), inside, and zeros and subnormals of both signs."""
    pad = _tol(line.lo, line.hi)
    return [line.lo, line.hi, line.lo - 0.5 * pad, line.hi + 0.5 * pad,
            0.5 * line.lo, 0.25 * line.hi, 0.0, -0.0, _TINY, -_TINY]


def test_partials_away_from_step_zero_equal_their_formulas_bit_for_bit():
    rng = np.random.default_rng(44)
    for fn, formula in _functions_for_partials():
        d = fn.dim
        points = [np.full(d, v) for v in _EDGE_COORDINATES]
        points += list(rng.uniform(fn.box.lo, fn.box.hi, size=(5, d)))
        for x in points:
            for j in range(d):
                line = Line(fn, x, j)
                steps = _steps_on(line) + rng.uniform(line.lo, line.hi, size=4).tolist()
                for a in steps:
                    y = x.copy()  # the queried point: coordinate j clamped onto the box
                    y[j] = min(max(x.item(j) + a, fn.box.lo.item(j)), fn.box.hi.item(j))
                    assert line.partial(a).hex() == formula(fn, y, j).hex(), (fn, x, j, a)
                    # scalar and batched queries share the line's offset
                    assert line.partials(steps).tobytes() == \
                        Line(fn, x, j).partials(steps).tobytes(), (fn, x, j, a)


# ---------------------------------------------------------------------------
# the numeric envelope: what the constructors accept has finite values

def _envelope_functions():
    """Each family on the widest box, with its largest scales and x* at a corner."""
    wide = DOMAIN_BOUND / 4
    box = box_from_bounds(-wide, wide, dim=3)
    corner = np.array([-wide, wide, -wide])
    off = -0.4 * SCALE_BOUND  # positive definite: eigenvalues 0.2 and 1.4 times 2**64
    matrix = np.array([[SCALE_BOUND, off, off], [off, SCALE_BOUND, off],
                       [off, off, SCALE_BOUND]])
    # orthogonal +-2**16 columns: Q = A'A + I is 2**35 + 1 times the identity
    signs = np.array([[1, 1, 1, 1, 1, 1, 1, 1], [1, -1, 1, -1, 1, -1, 1, -1],
                      [1, 1, -1, -1, 1, 1, -1, -1]]).T
    return [SeparablePower(np.full(3, SCALE_BOUND), corner, box, exponent=8.0),
            Quadratic(matrix, corner, box),
            Ridge(RIDGE_BOUND * signs, RIDGE_BOUND * signs[:, 0], box)]


def test_every_value_is_finite_at_the_corners_of_the_envelope():
    # the widest domains, the largest scales and exponents, and the tiniest mu
    # at k near 1: no value, partial, margin, risk or distance overflows
    wide = DOMAIN_BOUND
    iv = Interval(-wide, wide)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy warns on an overflow
        for fn in _envelope_functions():
            far = np.where(fn.x_star < 0.0, fn.box.hi, fn.box.lo)  # the corner farthest from x*
            for x in (far, fn.box.lo, fn.box.hi, fn.x_star):
                rec = error_record(fn, x)
                checked = [fn.value(x), rec.point_error, rec.f_error]
                for j in range(fn.dim):
                    line = Line(fn, x, j)
                    checked += [fn.grad_coord(x, j), line.partial(line.lo), line.partial(line.hi)]
                    checked += line.partials([line.lo, line.hi, 0.0]).tolist()
                    for mode in (GaussianNoise(SCALE_BOUND), UniformNoise(SCALE_BOUND)):
                        oracle = SignOracle(fn, mode, seeded_rng(5, j, 0))
                        labels = oracle.sign_sample_line(line, alphas=[line.lo, line.hi])
                        checked += labels.tolist()
                assert all(map(math.isfinite, checked)), (type(fn).__name__, x)
            assert rec.f_error == 0.0 and rec.point_error == 0.0  # at x*
        for k, mu, cap in ((8.0, SCALE_BOUND, 0.5), (8.0, 5e-324, 0.5), (1.0, SCALE_BOUND, 0.5),
                           (1.0001, 5e-324, 0.5), (1.0001, SCALE_BOUND, 0.5),
                           (8.0, SCALE_BOUND, 5e-324), (1.0001, 5e-324, 5e-324)):
            for t in (-wide, 0.0, wide):
                problem = make_tnc_problem(iv, t, k, mu, cap)
                points = [-wide, wide, 0.0, t, 0.5 * t + 1.0]
                etas = [problem.eta_at(x) for x in points]
                assert etas == problem.eta_at(np.array(points)).tolist()
                for x, eta in zip(points, etas):
                    d = abs(x - t)
                    risk = excess_risk(problem, x)
                    assert 0.0 <= eta <= 1.0 and 0.0 <= risk <= d * (1 + 1e-12), (k, mu, cap, t, x)
                    assert error_record(problem, x).excess_risk == risk
                for grid in (2, "auto"):
                    config = LearnerConfig("bz", grid_size=grid, bz_k=k, bz_mu=mu)
                    oracle = LabelOracle(problem, seeded_rng(6, 0, 0))
                    assert iv.contains(bz_learner(oracle, iv, config.for_budget(16)))


# ---------------------------------------------------------------------------
# a moving line: a descent run's one line, moved and turned in place

def _moving_line_functions():
    """A SeparablePower, a Quadratic and a Ridge on a box with +-0.0 bounds,
    zero-width coordinates of both kinds and visible roundoff at the ends."""
    box = box_from_bounds([0.0, -0.0, -1.0, 0.0, 0.0, -0.1, -0.0],
                          [1.0, 0.0, -0.0, 0.0, -0.0, 0.3, 0.5])
    x_star = np.array([0.5, 0.0, -0.5, 0.0, 0.0, 0.1, 0.25])
    rng = np.random.default_rng(61)
    m = rng.normal(size=(7, 7))
    design = 10.0 * rng.normal(size=(12, 7))
    design[:, [1, 3, 4]] = 0.0  # so the minimizer is 0 on the zero-width coordinates
    return (SeparablePower(np.linspace(0.5, 2.0, 7), x_star, box, 3.0),
            Quadratic(m.T @ m + np.eye(7), x_star, box),
            Ridge(design, design @ x_star, box))


def _assert_same_line(line, fresh):
    """Equal segments, pads, points, offsets and answers, bit for bit."""
    ends = [line.lo, line.hi, line._lo_pad, line._hi_pad]
    assert np.array(ends).tobytes() == \
        np.array([fresh.lo, fresh.hi, fresh._lo_pad, fresh._hi_pad]).tobytes()
    assert (line.j, line.x.tobytes(), line._u.tobytes()) == \
        (fresh.j, fresh.x.tobytes(), fresh._u.tobytes())
    steps = _steps_on(line)
    assert [line.partial(a).hex() for a in steps] == [fresh.partial(a).hex() for a in steps]
    assert line.partials(steps).tobytes() == fresh.partials(steps).tobytes()


@pytest.mark.parametrize("start", ["center", "lo - 1e-13", "hi + 1e-13", "-0.0"])
def test_a_moving_line_gives_the_bits_of_a_fresh_one(start):
    for fn in _moving_line_functions():
        lo, hi = fn.box.lo, fn.box.hi
        x0 = {"center": fn.box.center, "lo - 1e-13": lo - 1e-13, "hi + 1e-13": hi + 1e-13,
              "-0.0": np.full(fn.dim, -0.0)}[start]
        rng = np.random.default_rng([len(start), 62])
        coords = rng.integers(fn.dim, size=80).tolist()
        line, ref = Line(fn, x0, coords[0]), x0.copy()
        _assert_same_line(line, Line(fn, ref, coords[0]))
        for k in coords[1:]:
            if rng.random() < 0.9:  # else turn again from the same point
                a_lo, a_hi = line.lo, line.hi
                a = [a_lo, a_hi, float(np.nextafter(a_lo, -np.inf)),
                     float(np.nextafter(a_hi, np.inf)), 0.0, -0.0,
                     float(rng.uniform(a_lo, a_hi))][rng.integers(7)]
                line.move(a)
                ref[line.j] += a  # what rssgd did: the step, then np.clip of the point
                ref = np.clip(ref, lo, hi)
                assert line.x.tobytes() == ref.tobytes()
            line.turn(k)
            _assert_same_line(line, Line(fn, ref, k))
        # a NaN move stays in the point and raises at the next turn, as a fresh line does
        line.move(np.nan)
        assert np.isnan(line.x[line.j])
        for turn in (lambda: line.turn(0), lambda: Line(fn, line.x, 0)):
            with pytest.raises(OutOfDomain, match="^point outside the domain box$"):
                turn()


def test_a_line_turns_only_to_a_coordinate():
    line = Line(_sep2(), [0.5, -0.5], 0)
    for j, error in ((2, IndexError), (-1, IndexError), (1.0, TypeError)):
        with pytest.raises(error):
            line.turn(j)
    line.turn(1)
    assert (line.j, line.lo, line.hi) == (1, -2.5, 3.5)


# ---------------------------------------------------------------------------
# sampled certificates

FUNCTIONS = {
    "separable-k2": lambda: SeparablePower([1.0, 2.0, 0.5], [0.2, -0.1, 0.3],
                                           box_from_bounds(-2.0, 2.0, dim=3), 2.0),
    "separable-k3": lambda: SeparablePower([1.0, 2.0], [0.0, 0.4],
                                           box_from_bounds(-2.0, 2.0, dim=2), 3.0),
    "separable-k4": lambda: SeparablePower([0.5, 1.5], [-0.3, 0.1],
                                           box_from_bounds(-1.5, 1.5, dim=2), 4.0),
    "quadratic": lambda: Quadratic([[2.0, 0.5, 0.0], [0.5, 1.5, 0.2], [0.0, 0.2, 3.0]],
                                   [0.1, 0.0, -0.2], box_from_bounds(-4.0, 4.0, dim=3)),
    "ridge": lambda: Ridge(np.random.default_rng(11).normal(size=(8, 3)),
                           np.random.default_rng(12).normal(size=8),
                           box_from_bounds(-4.0, 4.0, dim=3)),
}


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_gradient_matches_finite_differences(name):
    check_gradient_finite_differences(FUNCTIONS[name](), np.random.default_rng(1))


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_uniform_convexity_certificate(name):
    check_uc_inequality(FUNCTIONS[name](), np.random.default_rng(2))


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_local_smoothness_certificate(name):
    check_lkss_inequality(FUNCTIONS[name](), np.random.default_rng(3))


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_directional_min_is_stationary(name):
    check_stationary_directional_min(FUNCTIONS[name](), np.random.default_rng(4))


# ---------------------------------------------------------------------------
# ridge specifics

def test_ridge_minimizer_solves_normal_equation():
    rng = np.random.default_rng(21)
    fn = Ridge(rng.normal(size=(10, 4)), rng.normal(size=10))
    # the least-squares gradient, not fn.grad_coord: that one is Q (x* - x*) = 0
    A, b = fn.design, fn.targets
    assert np.linalg.norm(A.T @ (A @ fn.x_star - b) + fn.x_star) <= 1e-9
    assert fn.f_min == pytest.approx(fn.value(fn.x_star))
    # any perturbation inside the box increases the value
    for _ in range(20):
        x = fn.x_star + rng.normal(scale=0.1, size=4)
        assert fn.value(x) >= fn.f_min


def test_ridge_residual_cache_consistency():
    rng = np.random.default_rng(22)
    fn = Ridge(rng.normal(size=(12, 5)), rng.normal(size=12))
    check_ridge_residual_cache(fn, np.random.default_rng(23))


def test_ridge_state_grad_matches_stateless():
    rng = np.random.default_rng(24)
    fn = Ridge(rng.normal(size=(6, 3)), rng.normal(size=6))
    state = RidgeState(fn, fn.box.center)
    for _ in range(25):
        j = int(rng.integers(3))
        state.update_coord(j, float(rng.uniform(fn.box.lo[j], fn.box.hi[j])))
        jj = int(rng.integers(3))
        assert state.grad_coord(jj) == pytest.approx(fn.grad_coord(state.x, jj),
                                                     rel=1e-10, abs=1e-10)


def test_load_ridge_text_roundtrip(tmp_path):
    A = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    b = np.array([0.5, -1.5, 2.5])
    lines = ["3 2"]
    lines += [" ".join(repr(float(v)) for v in row) for row in A]
    lines += [" ".join(repr(float(v)) for v in b)]
    path = tmp_path / "ridge.txt"
    path.write_text("\n".join(lines) + "\n")
    A2, b2 = load_ridge_text(path)
    assert np.array_equal(A, A2)
    assert np.array_equal(b, b2)
    truncated = tmp_path / "bad.txt"
    truncated.write_text("3 2\n1 2 3\n")
    with pytest.raises(ValueError):
        load_ridge_text(truncated)


def test_ridge_rejects_outside_minimizer_box():
    A = np.eye(2)
    b = np.array([5.0, 5.0])  # minimizer at (2.5, 2.5)
    with pytest.raises(ValueError, match="^box_hi: the global minimizer"):
        Ridge(A, b, box_from_bounds(-1.0, 1.0, dim=2))
    with pytest.raises(ValueError, match="^box_lo: the global minimizer"):
        Ridge(A, b, box_from_bounds([-1.0, 3.0], [1.0, 4.0]))


def test_ridge_partials_survive_pickling():
    rng = np.random.default_rng(25)
    n, d = 4000, 8
    A = rng.standard_normal((n, d)) / np.sqrt(n)
    fn = Ridge(A, A @ rng.uniform(-1.5, 1.5, d) + 0.1 * rng.standard_normal(n),
               box_from_bounds(-4.0, 4.0, dim=d))
    copy = pickle.loads(pickle.dumps(fn))
    assert len(pickle.dumps(fn)) < fn.design.nbytes + fn.targets.nbytes + 2000
    b = fn.targets
    alphas = rng.uniform(-1.0, 1.0, size=5)
    for _ in range(20):
        x = rng.uniform(-3.0, 3.0, size=d)
        j = int(rng.integers(d))
        line = Line(fn, x, j).partials(alphas)
        assert copy.grad_coord(x, j) == fn.grad_coord(x, j)
        assert np.array_equal(Line(copy, x, j).partials(alphas), line)
        # the least-squares form A_j'(Ax - b) + x_j, within roundoff of its terms
        points = [x] + [x + a * np.eye(d)[j] for a in alphas]
        for y, g in zip(points, [fn.grad_coord(x, j), *line]):
            r = A @ y - b
            terms = np.abs(A[:, j]) @ np.abs(r) + abs(y[j])
            assert abs(g - (A[:, j] @ r + y[j])) <= 1e-12 * (1.0 + terms)
