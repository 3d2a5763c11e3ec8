"""Acceptance suite: one test per criterion, each printing a PASS line.

Rate criteria run full seeded sweeps through the harness and check the
log-log slope of median errors against their tolerance bands.  Instance
geometry (boxes, matrices, checkpoint spacing) is chosen so that the
asymptotic regimes are visible at desk scale; every tolerance below is
fixed, not fitted.
"""

import time

import numpy as np
import pytest

from signopt import (ExactSign, GaussianNoise, LabelOracle, LearnerConfig, Line,
                     OptimizerConfig, Quadratic, Ridge,
                     SeparablePower, SignOracle, UniformNoise,
                     adaptive_epoch_schedule, adaptive_learner, bisect_noiseless,
                     box_from_bounds, bz_learner, default_epoch_count,
                     make_tnc_problem, rssgd, seeded_rng, slope_report)
from signopt.harness import ExperimentConfig, OracleSpec, run_experiment

from _checks import (binomial_band, check_gradient_finite_differences,
                     check_lkss_inequality, check_ridge_residual_cache,
                     check_uc_inequality, probability_positive)

BUDGETS_1D = [2 ** e for e in range(8, 16)]
BUDGETS_OPT = [2 ** e for e in range(12, 19)]

# identical learner configuration for every 1-D sweep (criterion 3)
ADAPTIVE_1D = LearnerConfig(name="adaptive", c_delta=1.5)
SEED_1D = 23


def _report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def _threshold_problem(k):
    return make_tnc_problem((0.0, 1.0), 0.37, k, 1.0, 0.4)


@pytest.fixture(scope="module")
def adaptive_sweeps():
    tables = {}
    for k in (2.0, 3.0):
        config = ExperimentConfig(problem=_threshold_problem(k),
                                  experiment_id=f"adaptive-k{k:g}",
                                  learner=ADAPTIVE_1D, budgets=BUDGETS_1D,
                                  replications=100, base_seed=SEED_1D)
        start = time.perf_counter()
        tables[k] = run_experiment(config)
        tables[k].elapsed = time.perf_counter() - start
    return tables


def test_criterion_01_adaptive_risk_rate(adaptive_sweeps):
    table = adaptive_sweeps[2.0]
    fit = slope_report(table, "median", "excess_risk")
    assert table.n_errors == 0
    assert -1.2 <= fit.slope <= -0.8, f"k=2 risk slope {fit.slope:.3f}"
    assert table.elapsed < 120.0, f"sweep took {table.elapsed:.1f}s"
    _report("1 adaptive risk rate",
            f"k=2 slope {fit.slope:.3f} in [-1.2, -0.8], {table.elapsed:.1f}s")


def test_criterion_02_adaptive_point_error_rate(adaptive_sweeps):
    fit2 = slope_report(adaptive_sweeps[2.0], "median", "point_error")
    assert -0.65 <= fit2.slope <= -0.35, f"k=2 point slope {fit2.slope:.3f}"
    fit3 = slope_report(adaptive_sweeps[3.0], "median", "point_error")
    assert -0.35 <= fit3.slope <= -0.15, f"k=3 point slope {fit3.slope:.3f}"
    _report("2 adaptive point-error rate",
            f"k=2 slope {fit2.slope:.3f}, k=3 slope {fit3.slope:.3f}")


def test_criterion_03_adaptivity_across_exponents(adaptive_sweeps):
    # the same learner configuration (no noise parameters) covers k = 2 and
    # k = 3; the k = 3 risk band is the k-appropriate -k/(2k-2) +- 0.2
    fit = slope_report(adaptive_sweeps[3.0], "median", "excess_risk")
    assert -0.95 <= fit.slope <= -0.55, f"k=3 risk slope {fit.slope:.3f}"
    assert ADAPTIVE_1D.bz_k is None and ADAPTIVE_1D.bz_mu is None
    _report("3 adaptivity across exponents",
            f"k=3 risk slope {fit.slope:.3f} with the k=2 configuration")


def test_criterion_04_bz_rate_and_comparison(adaptive_sweeps):
    config = ExperimentConfig(
        problem=_threshold_problem(2.0),
        experiment_id="bz-k2",
        learner=LearnerConfig(name="bz", grid_size="auto", bz_k=2.0, bz_mu=1.0),
        budgets=BUDGETS_1D, replications=100, base_seed=SEED_1D)
    table = run_experiment(config)
    fit = slope_report(table, "median", "excess_risk")
    assert table.n_errors == 0
    assert -1.25 <= fit.slope <= -0.8, f"bz risk slope {fit.slope:.3f}"

    def median_at(tab, budget):
        return float(np.median([r.excess_risk for r in tab.rows
                                if r.budget == budget]))

    adaptive_risk = median_at(adaptive_sweeps[2.0], 2 ** 14)
    bz_risk = median_at(table, 2 ** 14)
    assert adaptive_risk <= 20.0 * bz_risk, \
        f"adaptive {adaptive_risk:.3e} vs bz {bz_risk:.3e}"
    _report("4 bz rate", f"slope {fit.slope:.3f}, adaptive/bz at 2^14 = "
                         f"{adaptive_risk / bz_risk:.1f}x <= 20x")


def test_criterion_05_optimizer_rate_k2():
    fn = Quadratic(np.diag([1.0, 1.75, 2.5, 3.25, 4.0]),
                   np.array([0.3, -0.2, 0.5, -0.4, 0.1]),
                   box_from_bounds(-16.0, 16.0, dim=5))
    config = ExperimentConfig(
        problem=fn, experiment_id="rssgd-quad-d5",
        oracle=OracleSpec(mode=GaussianNoise(sigma=1.0)),
        optimizer=OptimizerConfig(line_search=LearnerConfig("adaptive", c_delta=3.0)),
        budgets=BUDGETS_OPT, replications=50, base_seed=3)
    start = time.perf_counter()
    table = run_experiment(config)
    elapsed = time.perf_counter() - start
    fit = slope_report(table, "median", "f_error")
    assert table.n_errors == 0
    assert -1.25 <= fit.slope <= -0.7, f"optimizer slope {fit.slope:.3f}"
    assert elapsed < 600.0, f"sweep took {elapsed:.1f}s"
    _report("5 optimizer rate k=2",
            f"slope {fit.slope:.3f} in [-1.25, -0.7], {elapsed:.1f}s")


def test_criterion_06_optimizer_rate_k3():
    fn = SeparablePower([1.0, 2.0, 3.0], [0.3, -0.2, 0.1],
                        box_from_bounds(-10.0, 10.0, dim=3), exponent=3.0)
    config = ExperimentConfig(
        problem=fn, experiment_id="rssgd-sep-k3",
        oracle=OracleSpec(mode=GaussianNoise(sigma=1.0)),
        optimizer=OptimizerConfig(line_search=LearnerConfig("adaptive", c_delta=3.0)),
        budgets=BUDGETS_OPT, replications=50, base_seed=5)
    table = run_experiment(config)
    fit = slope_report(table, "median", "f_error")
    assert table.n_errors == 0
    assert -0.95 <= fit.slope <= -0.55, f"k=3 optimizer slope {fit.slope:.3f}"
    _report("6 optimizer rate k=3", f"slope {fit.slope:.3f} in [-0.95, -0.55]")


def _quantized_instance():
    matrix = np.array([[2.0, 0.5, 0.0], [0.5, 3.0, 0.4], [0.0, 0.4, 4.0]])
    return Quadratic(matrix, np.array([0.3, -0.2, 0.4]),
                     box_from_bounds(-2.0, 2.0, dim=3))


def test_criterion_07_sign_preserving_exponential_rate():
    fn = _quantized_instance()

    def run(budget, rep):
        oracle = SignOracle(fn, ExactSign(), seeded_rng(11, rep, 0),
                            budget=budget)
        x = rssgd(fn, oracle, OptimizerConfig(budget=budget,
                                              line_search=LearnerConfig("bisect"),
                                              seed=(11, rep)))
        return max(0.0, fn.value(x) - fn.f_min)

    checkpoints = [2000, 4000, 6000, 8000, 10000, 12000]
    medians = [float(np.median([run(T, rep) for rep in range(5)]))
               for T in checkpoints]
    assert all(m > 0 for m in medians)
    log_err = np.log(medians)
    slope, intercept = np.polyfit(checkpoints, log_err, 1)
    residual = np.max(np.abs(log_err - (intercept + slope * np.asarray(checkpoints))))
    spread = log_err.max() - log_err.min()
    assert slope < 0, f"slope {slope:.3e}"
    assert residual < 0.2 * spread, f"residual {residual:.2f} vs range {spread:.2f}"

    finals = [run(100_000, rep) for rep in range(3)]
    assert all(f <= 1e-8 for f in finals), f"final errors {finals}"
    _report("7 sign-preserving exponential rate",
            f"slope {slope:.2e}/query, residual {residual / spread:.1%} of range, "
            f"max final f_error {max(finals):.1e} <= 1e-8")


def test_criterion_08_noiseless_bisection_exactness():
    rng = np.random.default_rng(77)
    failures = 0
    for trial in range(100):
        t = float(rng.uniform(0.01, 0.99))
        problem = make_tnc_problem((0.0, 1.0), t, 2.0, 1e12, 0.5)
        for budget in range(1, 31):
            oracle = LabelOracle(problem, seeded_rng(8, trial, budget))
            estimate = bisect_noiseless(oracle, problem.interval, budget)
            if abs(estimate - t) > 2.0 ** -(budget + 1):
                failures += 1
    assert failures == 0
    _report("8 noiseless bisection exactness",
            "3000 runs within width * 2^-(T+1), zero failures")


def test_criterion_09_property_suites():
    rng = np.random.default_rng(90)

    # TNC sandwich on a 10^4 grid, both exponents
    for k in (2.0, 3.0):
        problem = _threshold_problem(k)
        xs = np.linspace(0.0, 1.0, 10_000)
        margins = np.abs(problem.eta_at(xs) - 0.5)
        expected = np.minimum(np.abs(xs - 0.37) ** (k - 1.0), 0.4)
        expected[xs == 0.37] = 0.0
        assert np.allclose(margins, expected, atol=1e-14)

    # sampled convexity and smoothness certificates + gradient checks
    functions = [
        SeparablePower([1.0, 2.0, 0.5], [0.2, -0.1, 0.3],
                       box_from_bounds(-2.0, 2.0, dim=3), 2.0),
        SeparablePower([1.0, 2.0], [0.0, 0.4],
                       box_from_bounds(-2.0, 2.0, dim=2), 3.0),
        Quadratic([[2.0, 0.5, 0.0], [0.5, 1.5, 0.2], [0.0, 0.2, 3.0]],
                  [0.1, 0.0, -0.2], box_from_bounds(-4.0, 4.0, dim=3)),
        Ridge(np.random.default_rng(91).normal(size=(8, 3)),
              np.random.default_rng(92).normal(size=8),
              box_from_bounds(-4.0, 4.0, dim=3)),
    ]
    for fn in functions:
        check_gradient_finite_differences(fn, np.random.default_rng(93))
        check_uc_inequality(fn, np.random.default_rng(94))
        check_lkss_inequality(fn, np.random.default_rng(95))
    check_ridge_residual_cache(functions[-1], np.random.default_rng(96))

    # oracle calibration at 3-sigma binomial bands over 1e5 draws
    n = 100_000
    problem = _threshold_problem(2.0)
    labels = LabelOracle(problem, seeded_rng(97, 0, 0)).label_sample_many(
        np.full(n, 0.6))
    assert abs(np.mean(labels == 1) - problem.eta_at(0.6)) <= binomial_band(n)
    quad = Quadratic(np.eye(2), np.zeros(2), box_from_bounds(-2.0, 2.0, dim=2))
    x = np.array([0.5, 0.0])
    for mode in (GaussianNoise(1.0), UniformNoise(2.0), ExactSign()):
        oracle = SignOracle(quad, mode, seeded_rng(97, 1, 0))
        frac = np.mean(oracle.sign_sample_line(Line(quad, x, 0), alphas=np.zeros(n)) == 1)
        p = float(probability_positive(mode, quad.grad_coord(x, 0)))
        assert abs(frac - p) <= binomial_band(n)

    # budget exactness across the learners
    for name, opts in (("adaptive", {}), ("bisect", {}),
                       ("bz", {"grid_size": 32, "bz_k": 2.0, "bz_mu": 1.0})):
        oracle = LabelOracle(problem, seeded_rng(98, 0, 0), budget=500)
        if name == "adaptive":
            adaptive_learner(oracle, problem.interval,
                             LearnerConfig(budget=500, c_delta=1.5),
                             seeded_rng(98, 0, 1))
            epochs, per_epoch = adaptive_epoch_schedule(500, 1.5)
            expected = epochs * per_epoch
        elif name == "bisect":
            bisect_noiseless(oracle, problem.interval, 500)
            expected = 500
        else:
            bz_learner(oracle, problem.interval, LearnerConfig(budget=500, **opts))
            expected = 500
        assert oracle.queries_used == expected <= 500

    # determinism: parallel and serial sweeps produce identical tables
    config = ExperimentConfig(problem=problem,
                              experiment_id="det", learner=ADAPTIVE_1D,
                              budgets=[64, 128], replications=3, base_seed=1)
    serial = run_experiment(config, n_jobs=1).csv_text(include_timing=False)
    parallel = run_experiment(config, n_jobs=2).csv_text(include_timing=False)
    assert serial == parallel
    _report("9 property suites", "sandwich, certificates, calibration, "
                                 "budgets, determinism all hold")


def test_criterion_10_schedule_arithmetic():
    assert adaptive_epoch_schedule(4096, 2.0) == (3, 1365)
    epochs = default_epoch_count(2, 10 ** 4)
    assert epochs == 170
    assert 10 ** 4 // epochs == 58
    _report("10 schedule arithmetic",
            "T=4096 -> (E=3, N=1365); d=2, T=1e4 -> (E=170, N=58)")
